"""The package's public names: every entry of wittkit.__all__ resolves,
and a star import succeeds."""

import wittkit


def test_all_names_resolve():
    missing = [name for name in wittkit.__all__ if not hasattr(wittkit, name)]
    assert not missing
    assert len(set(wittkit.__all__)) == len(wittkit.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from wittkit import *", namespace)
    assert set(wittkit.__all__) <= set(namespace)
