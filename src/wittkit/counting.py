"""Point counts of affine varieties over F_{p^n}.

A variety is a list of multivariate polynomials over F_p in dense
exponent-vector form. Field arithmetic runs on integer element codes
through the exp/log/digit tables of `FiniteField.tables()`; products are
sums of logs and sums add digits mod p. Two counting paths:

- split: one nonconstant equation in which no monomial mixes variables,
  F = A_1(x_1) + ... + A_k(x_k) + c (diagonal equations such as
  y^2 - x^3 - ax - b and ax^2 + by^2 - c). Each A_v gives a histogram of
  its values, and #X is the number of ways their values add up to -c,
  O(q) work per variable instead of O(q^k) (the elementary form of the
  counts of diagonal equations, Weil, Bull. AMS 55, 1949);
- sweep: every other variety enumerates all of F_{p^n}^k, the last
  variable swept as a whole numpy vector per assignment of the outer
  variables.

Both paths are held to the same cap on the p^(kn) evaluation steps.
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
    """#X(F_{p^n}): from value histograms when X is one nonconstant
    equation with no monomial that mixes variables, else by enumeration
    of F_{p^n}^k. Either way refused when p^(kn) is above the cap."""
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
    if len(nonconst) == 1 and all(
        sum(1 for e in exps if e) <= 1 for c, exps in nonconst[0] if c
    ):
        return _count_split(field, nonconst[0], k)
    return _count_sweep(field, nonconst, k)


def _count_split(field, eq, nvars: int) -> int:
    """Zeros in F_q^nvars of one equation F = sum_v A_v(x_v) + c whose
    nonzero monomials each mention at most one variable.

    h_v[a] counts the x with A_v(x) = a, so #X = q^free times the sum,
    over a_1 + ... + a_j = -c, of h_1[a_1]...h_j[a_j], where free is the
    number of variables that no term mentions. All but the last
    histogram fold by exact convolution over element codes; the last is
    read at -c - a by one dot product. Counts stay below q^nvars, so int64
    holds them: q^2 is below 2^63 under the field limit, and three
    histograms pass 2^63 only for q > 2*10^6, where the fold's q^2 steps
    are out of reach anyway."""
    exp, log, digits = field.tables()
    p, q, m = field.p, field.q, field.q - 1
    weights = p ** np.arange(field.n, dtype=np.int64)
    const = 0
    terms: dict[int, list[tuple[int, int]]] = {}  # variable -> [(log c, e mod m)]
    for c, exps in eq:
        if not c:
            continue
        mentioned = [(v, e) for v, e in enumerate(exps) if e]
        if not mentioned:
            const += c
            continue
        (v, e), = mentioned
        # x^e = g^(e log x) for x != 0, and g has order m
        terms.setdefault(v, []).append((int(log[c]), e % m))
    hists = []
    for vterms in terms.values():
        # digits of A_v(x) at every code x; row 0 (x = 0) stays zero
        acc = np.zeros((q, field.n), dtype=np.int64)
        for c_log, e in vterms:
            acc[1:] += digits[exp[(c_log + e * log[1:]) % m]]
        hists.append(np.bincount(acc % p @ weights, minlength=q))
    target = -const % p  # the code of -c, an element of F_p
    if not hists:
        hits = int(target == 0)
    elif len(hists) == 1:
        hits = int(hists[0][target])
    else:
        acc = hists[0]
        for h in hists[1:-1]:
            acc = _convolve(acc, h, digits, weights, p)
        minus = (digits[target] - digits) % p @ weights  # the code of target - a
        hits = int(np.dot(acc, hists[-1][minus]))
    return q ** (nvars - len(hists)) * hits


def _convolve(f, g, digits, weights, p: int):
    """out[c] = sum over a + b = c of f[a] g[b], over element codes."""
    out = np.zeros_like(g)
    for a in np.flatnonzero(f):
        # b -> a + b permutes the codes, so no index repeats
        out[(digits + digits[a]) % p @ weights] += f[a] * g
    return out


def _count_sweep(field, equations, nvars: int) -> int:
    """Common zeros in F_q^nvars of one or more equations, by enumeration:
    one numpy vector over the last variable per assignment of the others."""
    exp, log, digits = field.tables()
    p, q = field.p, field.q
    m = q - 1  # order of the multiplicative group, always >= 1
    exp2 = np.concatenate((exp, exp))  # exp2[i + j] = g^(i + j) for i, j < m
    columns = np.ascontiguousarray(digits.T)  # column c: the digits of code c
    # each equation as (log of its coefficient, exponents), zero terms dropped
    eqs = [
        [(int(log[field.encode(field.from_int(c))]), exps) for c, exps in eq if c]
        for eq in equations
    ]
    # ylog[e][y - 1] = log(y^e) mod m for every nonzero code y of the last variable
    ylog = {e: e * log[1:] % m for e in {exps[-1] for eq in eqs for _, exps in eq}}
    total = 0
    for outer in product(range(q), repeat=nvars - 1):
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
            zero_here = np.all(acc == acc // p * p, axis=0)
            ok = zero_here if ok is None else (ok & zero_here)
        total += int(np.count_nonzero(ok))
    return total


def point_count_table(X: AffineVariety, m: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """N_1..N_m."""
    return [count_points(X, n, cap=cap) for n in range(1, m + 1)]
