import math

import pytest

from oracles import adaptive_simpson, transform_simpson
from wittkit import explicit
from wittkit.explicit import (
    QUAD_BLOCK_ROWS,
    TestFunction,
    ZeroTable,
    explicit_formula_defect,
    load_bundled_zeros,
    load_zeros,
    prime_side,
    transform,
    zero_side,
)


def test_bump_shape():
    phi = TestFunction(3.0, 1.0)
    assert phi.support == (2.0, 4.0)
    assert phi(3.0) == math.exp(-1.0)
    assert phi(2.0) == 0.0 and phi(4.0) == 0.0
    assert phi(1.0) == 0.0 and phi(5.0) == 0.0
    assert phi(3.5) == math.exp(-1 / (1 - 0.25))


def test_bump_validation():
    with pytest.raises(ValueError, match="positive reals"):
        TestFunction(1.0, 1.5)
    with pytest.raises(ValueError, match="radius"):
        TestFunction(3.0, 0.0)


def test_transform_frozen_values():
    phi = TestFunction(3.0, 1.0)
    assert abs(transform(phi, 0.0).real - 0.4439938161680699) < 1e-12
    assert abs(transform(phi, 1.0).real - 9.642846433637018) < 1e-11
    assert transform(phi, 0.0).imag == 0.0


def test_two_integrators_agree():
    phi = TestFunction(1.5, 0.7)
    alphas = [0.0, 1.0, 0.5 + 14.134725j, 0.5 - 14.134725j, 0.5 + 236.5j, 2.5]
    for alpha in alphas:
        gl = transform(phi, alpha)
        simpson = transform_simpson(phi, alpha)
        assert abs(gl - simpson) < 1e-10, alpha


def test_adaptive_simpson_polynomial():
    # exact for integrands Simpson integrates exactly, close otherwise
    assert abs(adaptive_simpson(lambda t: t * t, 0.0, 3.0) - 9.0) < 1e-12
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi) - 2.0) < 1e-10


def test_bundled_zero_table():
    zeros = load_bundled_zeros()
    assert len(zeros) == 1000
    assert abs(zeros.gammas[0] - 14.134725141734693) < 1e-9
    assert abs(zeros.gammas[1] - 21.022039638771554) < 1e-9
    assert zeros.gammas[-1] < 1420
    assert all(a < b for a, b in zip(zeros.gammas, zeros.gammas[1:]))


def test_bundled_zero_table_is_read_once():
    assert load_bundled_zeros() is load_bundled_zeros()


def test_load_zeros_errors(tmp_path):
    cases = [
        ("14.1347\nabc\n", "non-numeric value at line 2"),
        ("14.1347\n21.0\n20.5\n", "non-monotone at line 3"),
        ("# nothing\n", "no zeros"),
        ("14.1347\n-3\n", "nonpositive zero at line 2"),
        ("21.0\n25.0\n", "outside"),
    ]
    for i, (text, frag) in enumerate(cases):
        path = tmp_path / f"z{i}.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=frag):
            load_zeros(path)


def test_load_zeros_comments_and_blanks(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# header\n\n14.134725  # first\n21.022040\n\n")
    assert load_zeros(path).gammas == (14.134725, 21.02204)


def test_zero_side_requires_enough_zeros():
    phi = TestFunction(1.5, 0.7)
    zeros = ZeroTable((14.134725, 21.02204))
    with pytest.raises(ValueError, match="table size"):
        zero_side(phi, zeros, 3)


def test_prime_side_bound_check():
    phi = TestFunction(3.0, 1.0)  # support up to 4, needs bound >= e^4
    with pytest.raises(ValueError, match="prime bound too small"):
        prime_side(phi, 50)
    assert prime_side(phi, 60) == prime_side(phi, 10**4)  # tail terms vanish


def test_explicit_formula_small_run():
    phi = TestFunction(1.5, 0.7)
    zeros = load_bundled_zeros()
    report = explicit_formula_defect(phi, zeros, 100, 10**4)
    assert report["defect"] < 1e-5
    assert report["defect"] == abs(report["zero_side"] - report["prime_side"])
    ks = [row["K"] for row in report["convergence"]]
    assert ks == [10, 100, 1000]


def test_zero_side_real_output():
    phi = TestFunction(1.5, 0.7)
    zeros = load_bundled_zeros()
    value = zero_side(phi, zeros, 25)
    assert isinstance(value, float)


def test_defect_integrates_the_zero_side_once(monkeypatch):
    calls = []
    quad = explicit._quad_doubling

    def counted(vec_f, a, b):
        calls.append((a, b))
        return quad(vec_f, a, b)

    monkeypatch.setattr(explicit, "_quad_doubling", counted)
    explicit._zero_transforms.cache_clear()
    phi = TestFunction(1.5, 0.7)
    zeros = load_bundled_zeros()
    # K and the K = 10, 100, 1000 rows share one blocked zero side; the
    # extra call is the archimedean integral of the prime side
    blocks = math.ceil((2 * len(zeros) + 2) / QUAD_BLOCK_ROWS)
    explicit_formula_defect(phi, zeros, 10, 10**4)
    assert len(calls) == blocks + 1
    explicit_formula_defect(phi, zeros, 10, 10**5)
    assert len(calls) == blocks + 2
