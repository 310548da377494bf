import itertools
import random

import pytest
from fractions import Fraction

from oracles import Matrix, companion, det_one_minus_t, solve_linear_system
from wittkit.poly import Polynomial
from wittkit.rings import GF, QQ, ZZ


def naive_det(ring, rows):
    """Leibniz expansion; the independent oracle for the charpoly code."""
    n = len(rows)
    total = ring.coerce(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ring.coerce(sign)
        for i in range(n):
            term = ring.coerce(term * rows[i][perm[i]])
        total = ring.coerce(total + term)
    return total


def det_one_minus_t_naive(M):
    """det(1 - tM) coefficient by coefficient over Q[t] via Leibniz on
    polynomial entries."""
    ring = QQ
    n = M.size
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            const = Fraction(1 if i == j else 0)
            row.append(Polynomial(ring, [const, -Fraction(M.rows[i][j])]))
        entries.append(row)
    total = Polynomial.zero(ring)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Polynomial(ring, [Fraction(sign)])
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def test_matrix_mul_pow_trace():
    A = Matrix(ZZ, [[1, 2], [3, 4]])
    B = Matrix(ZZ, [[0, 1], [1, 0]])
    assert (A * B).rows == ((2, 1), (4, 3))
    assert A.pow(0) == Matrix.identity(ZZ, 2)
    assert A.pow(3) == A * A * A
    assert A.trace() == 5


def test_kron_dimensions_and_values():
    A = Matrix(ZZ, [[1, 2], [3, 4]])
    B = Matrix(ZZ, [[0, 5], [6, 7]])
    K = A.kron(B)
    assert K.size == 4
    assert K.rows[0] == (0, 5, 0, 10)
    assert K.rows[3] == (18, 21, 24, 28)
    # trace is multiplicative under kron
    assert K.trace() == A.trace() * B.trace()


def test_det_one_minus_t_known():
    M = Matrix(ZZ, [[2, 0], [0, 3]])
    assert det_one_minus_t(M).coeffs == (1, -5, 6)
    assert det_one_minus_t(Matrix(ZZ, [[5]])).coeffs == (1, -5)
    N = Matrix(ZZ, [[0, 1], [0, 0]])
    assert det_one_minus_t(N).coeffs == (1,)


def test_det_one_minus_t_matches_leibniz():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = Matrix(ZZ, rows)
        fast = det_one_minus_t(M).map_ring(QQ)
        slow = det_one_minus_t_naive(M)
        assert fast == slow


def test_det_one_minus_t_prime_field():
    F5 = GF(5)
    M = Matrix(F5, [[2, 1], [4, 3]])
    got = det_one_minus_t(M)
    # 1 - tr(M) t + det(M) t^2 = 1 - 5t + 2t^2 = 1 + 2t^2 mod 5
    assert got.coeffs == (1, 0, 2)


def test_companion_charpoly_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
        monic = Polynomial(ZZ, coeffs)
        C = companion(monic)
        assert C.size == deg
        # det(1 - tC) is the reversal of the charpoly
        assert det_one_minus_t(C) == monic.reversal(deg)


def test_companion_requires_monic():
    with pytest.raises(ValueError):
        companion(Polynomial(ZZ, [1, 2]))


def test_solve_linear_system():
    got = solve_linear_system(QQ, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
                              [Fraction(5), Fraction(10)])
    assert got == [Fraction(1), Fraction(3)]
    # inconsistent
    assert solve_linear_system(QQ, [[Fraction(1), Fraction(1)],
                                    [Fraction(2), Fraction(2)]],
                               [Fraction(0), Fraction(1)]) is None
    # underdetermined: free variables pinned to zero
    got = solve_linear_system(QQ, [[Fraction(1), Fraction(1)],
                                   [Fraction(2), Fraction(2)]],
                              [Fraction(3), Fraction(6)])
    assert got is not None
    assert got[0] + got[1] == 3
