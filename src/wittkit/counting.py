"""Brute-force point counts of affine varieties over F_{p^n}.

A variety is a list of multivariate polynomials over F_p in dense
exponent-vector form. Counting enumerates all of F_{p^n}^k; the last
variable is swept as a whole numpy vector per assignment of the outer
variables. Field arithmetic runs on integer element codes through the
exp/log/digit tables of `FiniteField.tables()`; products are sums of
logs and sums add digits mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .finitefield import finite_field_make
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
    def from_json(cls, data) -> "AffineVariety":
        """Inverse of to_json; a missing or ill-typed field raises a
        ValueError that names it."""
        if not isinstance(data, dict):
            raise ValueError("variety must be a JSON object with fields p, vars, equations")
        for key in ("p", "vars", "equations"):
            if key not in data:
                raise ValueError(f"variety is missing field {key!r}")
        for key in ("p", "vars"):
            if type(data[key]) is not int:
                raise ValueError(f"variety field {key!r} must be an integer")
        eqs = data["equations"]
        if not isinstance(eqs, list) or not all(
            isinstance(eq, list) and all(_is_term(term) for term in eq) for eq in eqs
        ):
            raise ValueError(
                "variety field 'equations' must be a list of equations, each a list"
                " of [coefficient, [exponents...]] terms with integer entries"
            )
        return cls.make(data["p"], data["vars"], eqs)


def _is_term(term) -> bool:
    """[coefficient, [exponents...]] with integer entries (bool is not one)."""
    return (
        isinstance(term, list) and len(term) == 2 and type(term[0]) is int
        and isinstance(term[1], list) and all(type(e) is int for e in term[1])
    )


def count_points(X: AffineVariety, n: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """#X(F_{p^n}) by exhaustive enumeration of F_{p^n}^k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # p^e steps; far above the cap, refuse from its bit length and print
    # it as a power, since the exact count can take seconds to build and
    # more digits than str() converts
    e = X.nvars * n
    if e > (cap.bit_length() + 128) / math.log2(X.p):
        raise ValueError(
            f"enumeration needs {X.p}^{e} evaluation steps, above the cap {cap}"
        )
    steps = X.p**e
    if steps > cap:
        raise ValueError(
            f"enumeration needs {steps} evaluation steps, above the cap {cap}"
        )
    field = finite_field_make(X.p, n)
    q, k = field.q, X.nvars

    # constant equations decide without enumeration only when every
    # equation is constant; a single nonzero constant empties the variety
    nonconst = [eq for eq in X.equations if any(any(e) for _, e in eq)]
    for eq in X.equations:
        if eq not in nonconst and sum(coeff for coeff, _ in eq) % X.p:
            return 0
    if not nonconst:
        return q**k

    exp, log, digits = field.tables()
    m = q - 1  # order of the multiplicative group, always >= 1
    exp2 = np.concatenate((exp, exp))  # exp2[i + j] = g^(i + j) for i, j < m
    columns = np.ascontiguousarray(digits.T)  # column c: the digits of code c
    # each equation as (log of its coefficient, exponents), zero terms dropped
    eqs = [
        [(int(log[field.encode(field.from_int(c))]), exps) for c, exps in eq if c]
        for eq in nonconst
    ]
    # ylog[e][y - 1] = log(y^e) mod m for every nonzero code y of the last variable
    ylog = {e: e * log[1:] % m for e in {exps[-1] for eq in eqs for _, exps in eq}}
    total = 0
    for outer in product(range(q), repeat=k - 1):
        ok = None
        for eq in eqs:
            # digits of the equation at each value of the last variable
            acc = np.zeros((field.n, q), dtype=np.int64)
            const = np.zeros(field.n, dtype=np.int64)
            for c_log, exps in eq:
                if any(x == 0 and e for x, e in zip(outer, exps)):
                    continue
                # log of the coefficient times the outer factors
                c_log += sum(e * int(log[x]) for x, e in zip(outer, exps) if e)
                c_log %= m
                if exps[-1]:
                    term = np.zeros(q, dtype=np.int64)
                    term[1:] = exp2[c_log + ylog[exps[-1]]]
                    acc += np.take(columns, term, axis=1)
                else:
                    const += columns[:, exp[c_log]]
            acc += const[:, None]
            # a column is zero mod p where the equation vanishes; acc // p * p
            # because numpy's int64 % is several times slower than //
            zero_here = np.all(acc == acc // X.p * X.p, axis=0)
            ok = zero_here if ok is None else (ok & zero_here)
        total += int(np.count_nonzero(ok))
    return total


def point_count_table(X: AffineVariety, m: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """N_1..N_m."""
    return [count_points(X, n, cap=cap) for n in range(1, m + 1)]
