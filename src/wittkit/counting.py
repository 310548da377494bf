"""Brute-force point counts of affine varieties over F_{p^n}.

A variety is a list of multivariate polynomials over F_p in dense
exponent-vector form. Counting enumerates all of F_{p^n}^k; the last
variable is swept as a whole numpy vector per assignment of the outer
variables, with field arithmetic done on integer element codes through
exp/log tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .finitefield import FiniteField, finite_field_make
from .ntheory import is_prime

DEFAULT_ENUM_CAP = 10**8

Monomial = tuple[int, tuple[int, ...]]  # (coeff, exponent vector)


@dataclass(frozen=True)
class AffineVariety:
    p: int
    nvars: int
    equations: tuple[tuple[Monomial, ...], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        for eq in self.equations:
            for coeff, exps in eq:
                if len(exps) != self.nvars:
                    raise ValueError(
                        f"exponent vector {exps} does not match {self.nvars} variables"
                    )
                if not 0 <= coeff < self.p:
                    raise ValueError(f"coefficient {coeff} not reduced mod {self.p}")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")

    @classmethod
    def make(cls, p: int, nvars: int, equations) -> "AffineVariety":
        eqs = tuple(
            tuple((int(c) % p, tuple(int(e) for e in exps)) for c, exps in eq)
            for eq in equations
        )
        return cls(p, nvars, eqs)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vars": self.nvars,
            "equations": [
                [[c, list(exps)] for c, exps in eq] for eq in self.equations
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AffineVariety":
        return cls.make(
            data["p"],
            data["vars"],
            [[(term[0], term[1]) for term in eq] for eq in data["equations"]],
        )


class _FieldTables:
    """Element codes 0..q-1 with exp/log multiplication and digit addition."""

    def __init__(self, field: FiniteField):
        self.field = field
        q, p, n = field.q, field.p, field.n
        self.q, self.p, self.n = q, p, n
        self.m = q - 1  # order of the multiplicative group, always >= 1
        exp = np.zeros(self.m, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        cur = field.one
        for k in range(self.m):
            code = field.encode(cur)
            exp[k] = code
            log[code] = k
            cur = field.mul(cur, field.gen)
        self.exp = exp
        self.log = log
        digits = np.zeros((q, n), dtype=np.int64)
        for code in range(q):
            digits[code] = field.decode(code)
        self.digits = digits
        self._pow_cache: dict[int, np.ndarray] = {}

    def pow_all(self, e: int) -> np.ndarray:
        """x^e for every element code x, as a code vector."""
        if e not in self._pow_cache:
            q = self.q
            out = np.zeros(q, dtype=np.int64)
            if e == 0:
                out[:] = 1
            else:
                out[1:] = self.exp[(self.log[1:] * e) % self.m]
            self._pow_cache[e] = out
        return self._pow_cache[e]

    def mul_scalar(self, c: int, v: np.ndarray) -> np.ndarray:
        """c * v on codes, c a scalar code."""
        if c == 0:
            return np.zeros_like(v)
        out = np.zeros_like(v)
        nz = v != 0
        out[nz] = self.exp[(self.log[c] + self.log[v[nz]]) % self.m]
        return out

    def scalar_mul_scalar(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % self.m])

    def add_codes(self, acc_digits: np.ndarray, v: np.ndarray) -> None:
        """acc_digits += digits(v) componentwise mod p, in place."""
        acc_digits += self.digits[v]
        acc_digits %= self.p


def count_points(X: AffineVariety, n: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """#X(F_{p^n}) by exhaustive enumeration of F_{p^n}^k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = X.p ** (X.nvars * n)
    if steps > cap:
        raise ValueError(
            f"enumeration needs {steps} evaluation steps, above the cap {cap}"
        )
    field = finite_field_make(X.p, n)
    tab = _FieldTables(field)
    q, k = tab.q, X.nvars

    # constant equations decide without enumeration only when every
    # equation is constant; a single nonzero constant empties the variety
    nonconst = [eq for eq in X.equations if any(any(e) for _, e in eq)]
    for eq in X.equations:
        if eq in nonconst:
            continue
        c = 0
        for coeff, _ in eq:
            c = (c + coeff) % X.p
        if c != 0:
            return 0
    if not nonconst:
        return q**k

    last_pows = {e: tab.pow_all(e) for eq in nonconst for _, exps in eq for e in (exps[-1],)}
    total = 0
    for outer in product(range(q), repeat=k - 1):
        ok = None
        for eq in nonconst:
            acc = np.zeros((q, tab.n), dtype=np.int64)
            for coeff, exps in eq:
                c = coeff
                for x, e in zip(outer, exps):
                    if e:
                        xe = int(tab.pow_all(e)[x])
                        c = tab.scalar_mul_scalar(c, xe)
                    if c == 0:
                        break
                if c == 0:
                    continue
                term = tab.mul_scalar(c, last_pows[exps[-1]])
                tab.add_codes(acc, term)
            zero_here = ~np.any(acc, axis=1)
            ok = zero_here if ok is None else (ok & zero_here)
        total += int(np.count_nonzero(ok))
    return total


def point_count_table(X: AffineVariety, m: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """N_1..N_m."""
    return [count_points(X, n, cap=cap) for n in range(1, m + 1)]
