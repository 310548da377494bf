"""An exact dense linear solver over a field, used by Padé
reconstruction.

Systems stay small here, so it is plain Gauss-Jordan elimination with
exact arithmetic. Matrix determinants, Kronecker products and companion
matrices are test oracles only and live in tests/oracles.py.
"""

from __future__ import annotations

from typing import Sequence

from .rings import Ring


def solve_linear_system(ring: Ring, A: Sequence[Sequence], b: Sequence):
    """One exact solution of Ax = b over a field, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not ring.is_field:
        raise ValueError("linear solve needs a field")
    rows = [list(r) + [b[i]] for i, r in enumerate(A)]
    nrows = len(rows)
    ncols = len(A[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not ring.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not ring.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if not ring.is_zero(rows[i][ncols]):
            return None
    x = [ring.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return x
