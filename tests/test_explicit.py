import math

import pytest

from oracles import adaptive_simpson, transform_simpson
from wittkit import explicit
from wittkit.cli import main
from wittkit.explicit import (
    QUAD_BLOCK_ROWS,
    QUAD_MAX_NODES,
    QUAD_START_NODES,
    TestFunction,
    ZeroTable,
    explicit_formula_defect,
    load_bundled_zeros,
    load_zeros,
    prime_side,
    transform,
    zero_side,
)
from wittkit.util import kahan_sum


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
    for c, r in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            TestFunction(c, r)


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


def test_bundled_nodes_are_scipys_bytes():
    """The shipped half table, mirrored, is scipy's roots_legendre byte
    for byte at every doubling level; scipy is the oracle, not a runtime
    dependency."""
    import numpy as np
    from scipy.special import roots_legendre

    levels = [2**k for k in range(5, 15)]
    assert (levels[0], levels[-1]) == (QUAD_START_NODES, QUAD_MAX_NODES)
    with explicit.gl_table_path().open("rb") as fh, np.load(fh) as table:
        assert sorted(table.files) == sorted(f"{k}{n}" for n in levels for k in "xw")
    for n in levels:
        x, w = explicit._gl_nodes(n)
        sx, sw = roots_legendre(n)
        assert x.dtype == w.dtype == np.float64 and not (x.flags.writeable or w.flags.writeable)
        assert x.tobytes() == sx.tobytes(), n
        assert w.tobytes() == sw.tobytes(), n


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


@pytest.mark.parametrize("bound", [0, -5])
def test_non_positive_prime_bound_refused_before_any_quadrature(monkeypatch, capsys, bound):
    calls = []
    monkeypatch.setattr(explicit, "_quad_doubling", lambda *args: calls.append(args))
    explicit._zero_transforms.cache_clear()
    code = main(["explicit-formula", "run", "--max-zeros", "10",
                 "--prime-bound", str(bound)])
    assert (code, capsys.readouterr()) == (
        1, ("", f"wittkit: error: prime bound must be positive, got {bound}\n"))
    assert calls == []
    with pytest.raises(ValueError, match=f"must be positive, got {bound}"):
        prime_side(TestFunction(1.5, 0.7), bound)


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
    assert type(value) is float


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
    # K and the K = 10, 100, 1000 rows share one blocked zero side, which
    # integrates Phi at 0, 1 and 1/2 + i gamma plus one spot block of
    # conjugates; the last call is the archimedean integral of the prime side
    blocks = math.ceil((len(zeros) + 2) / QUAD_BLOCK_ROWS)
    explicit_formula_defect(phi, zeros, 10, 10**4)
    assert len(calls) == blocks + 1 + 1
    explicit_formula_defect(phi, zeros, 10, 10**5)
    assert len(calls) == blocks + 1 + 2


def test_zero_side_residue_check_fires(monkeypatch, capsys):
    integrand = explicit._transform_integrand

    def skewed(phi, alpha):
        f = integrand(phi, alpha)
        # rows with Im alpha < 0 gain 1e-9j: the conjugates no longer cancel
        return lambda t: f(t) + 1e-9j * (alpha.imag < 0)

    monkeypatch.setattr(explicit, "_transform_integrand", skewed)
    explicit._zero_transforms.cache_clear()
    phi = TestFunction(1.5, 0.7)
    with pytest.raises(AssertionError, match="^zero side imaginary residue .* above 1e-10$"):
        zero_side(phi, load_bundled_zeros(), 10)
    argv = ["explicit-formula", "run", "--bump", "1.5,0.7", "--max-zeros", "10"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("wittkit: error: zero side imaginary residue ")
    assert err.endswith(" above 1e-10\n") and "Traceback" not in err


def test_short_table_spot_block_and_pair_sums(monkeypatch, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("".join(f"{g!r}\n" for g in load_bundled_zeros().gammas[:3]))
    zeros = load_zeros(path)
    assert len(zeros) == 3 < QUAD_BLOCK_ROWS
    integrand = explicit._transform_integrand
    columns = []

    def recorded(phi, alpha):
        columns.append(alpha)
        return integrand(phi, alpha)

    monkeypatch.setattr(explicit, "_transform_integrand", recorded)
    explicit._zero_transforms.cache_clear()
    phi = TestFunction(2.0, 0.5)
    sides = [zero_side(phi, zeros, K) for K in range(4)]
    # one block of Phi(0), Phi(1) and the three 1/2 + i gamma, then the spot
    # block of the three conjugates and no row at 0 or 1
    assert len(columns) == 2
    assert columns[1].ravel().tolist() == [0.5 - 1j * g for g in zeros.gammas]
    monkeypatch.undo()
    explicit._zero_transforms.cache_clear()
    total = transform(phi, 0.0) + transform(phi, 1.0)
    pairs = [transform(phi, 0.5 + 1j * g) + transform(phi, 0.5 - 1j * g) for g in zeros.gammas]
    for K in range(4):
        expected = kahan_sum([total.real] + [-pair.real for pair in pairs[:K]])
        assert sides[K] == expected, K
    assert main(["explicit-formula", "run", "--zeros", str(path), "--max-zeros", "3"]) == 0
