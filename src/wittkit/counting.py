"""Point counts of affine varieties over F_{p^n}.

A variety is a list of multivariate polynomials over F_p in dense
exponent-vector form. Field arithmetic runs on integer element codes
through the exp/log/digit tables of `FiniteField.tables()`; products are
sums of logs and sums add digits mod p.

Variables that share a monomial form a group (x and y in xy + z^2 + 1),
and a system of several equations is one group. Each group is enumerated
by itself into a histogram of its values over element codes, and #X is
the number of ways the groups' values add up to 0, times q per variable
that no term mentions: O(q^s) work per group of s variables instead of
O(q^k) for the whole space (the elementary counting of diagonal
equations, Weil, Bull. AMS 55, 1949; Ireland & Rosen, ch. 8). Every
variety is held to the same cap on the p^(kn) evaluation steps (--cap).
"""

from __future__ import annotations

from dataclasses import dataclass

from .finitefield import finite_field_make
from .ntheory import is_prime
from .util import capped_power

DEFAULT_ENUM_CAP = 10**8
_CHUNK = 1 << 15  # points of a group evaluated per numpy pass

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
    """#X(F_{p^n}) from value histograms over connected groups of
    variables; refused when p^(kn) is above the cap."""
    if n < 1:
        raise ValueError("n must be >= 1")
    capped_power(X.p, X.nvars * n, cap, "enumeration", "evaluation steps", "--cap")
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
    return _count(field, nonconst, k)


def _count(field, equations, nvars: int) -> int:
    """Common zeros in F_q^nvars of one or more equations.

    h_g[a] counts the points of group g at which the first equation's terms
    in g (and the constant terms, in the first group) sum to code a while
    every later equation vanishes. All but the last histogram fold by exact
    convolution over codes; the last, built from the negated terms, is read
    by one dot product. Counts stay below q^nvars, so int64 holds them:
    q^2 < 2^63 under the field limit, and three groups pass 2^63 only for
    q > 2*10^6, out of the fold's reach."""
    import numpy as np

    exp, log, digits = field.tables()
    p, q, m = field.p, field.q, field.q - 1
    weights = p ** np.arange(field.n, dtype=np.int64)
    # (c, exponents, the variables it mentions) per nonzero term
    eqs = [[(c, exps, {v for v, e in enumerate(exps) if e}) for c, exps in eq if c]
           for eq in equations]
    groups: list[set[int]] = []
    for vs in (vs for eq in eqs for _, _, vs in eq if vs):
        joined = [g for g in groups if g & vs]
        groups = [g for g in groups if g not in joined] + [vs.union(*joined)]
    if len(eqs) > 1 or not groups:  # a system is one group; an empty one takes x_1
        groups = [set().union(*groups) or {0}]
    # a part's digit sums are at most (terms + 1)(p - 1): reduced by lookup
    residue = np.arange((max(map(len, eqs)) + 1) * (p - 1) + 1) % p
    hists = []
    for i, group in enumerate(groups):
        order = sorted(group)
        sign = -1 if 0 < i == len(groups) - 1 else 1
        # x^e = g^(e log x) for x != 0 and g has order m, so e > 0 reduces
        # into 1..m before any int64 product, and x^e stays 0 at x = 0
        parts = [
            (sum(c for c, _, vs in eq if not vs) % p if i == 0 else 0,
             [(int(log[sign * c % p]), [exps[v] and (exps[v] - 1) % m + 1 for v in order])
              for c, exps, vs in eq if vs & group])
            for eq in eqs
        ]
        hists.append(_histogram(field, len(order), parts, weights, residue))
    acc = hists[0]
    for h in hists[1:-1]:
        acc = _convolve(acc, h, digits, weights, p)
    hits = acc[0] if len(hists) == 1 else np.dot(acc, hists[-1])
    return q ** (nvars - sum(map(len, groups))) * int(hits)


def _histogram(field, s: int, parts, weights, residue):
    """h[a] over the q^s points of a group with parts[j] = (constant, [(log c,
    exponents)]) from equation j: the points where part 0 sums to code a and
    later parts to 0. A pass takes assignments of the first s - 1 variables
    as rows and the last one's nonzero codes as columns (a term mentioning it
    is 0 at code 0), so a term is evaluated only over the axes it mentions."""
    import numpy as np

    exp, log, digits = field.tables()
    q, m = field.q, field.q - 1
    rows, outer = max(1, _CHUNK // q), q ** (s - 1)
    hist = 0
    for start in range(0, outer, rows):
        block = np.arange(start, min(start + rows, outer), dtype=np.int64)[:, None]
        xs = [block // q ** (s - 2 - v) % q for v in range(s - 1)]
        logs = [log[x] for x in xs] + [log[None, 1:]]
        codes = []
        for const, terms in parts:
            acc = np.zeros((len(block), q, field.n), dtype=np.int64)  # digit sums
            if const:
                acc[:, :, 0] = const  # an element of F_p has the one digit c
            for k, exps in terms:
                zero = None  # where an outer variable that the term mentions is 0
                for v in range(s - 1):
                    if exps[v]:
                        k = k + exps[v] * logs[v]
                        zero = xs[v] == 0 if zero is None else zero | (xs[v] == 0)
                code = exp[(k + exps[-1] * logs[-1] if exps[-1] else k) % m]
                code = code if zero is None else np.where(zero, 0, code)
                target = acc[:, 1:] if exps[-1] else acc
                target += digits.take(code, axis=0)
            codes.append((residue.take(acc) @ weights).ravel())
        values, *others = codes
        if others:
            values = values[np.logical_and.reduce([c == 0 for c in others])]
        hist = hist + np.bincount(values, minlength=q)
    return hist


def _convolve(f, g, digits, weights, p: int):
    """out[c] = sum over a + b = c of f[a] g[b], over element codes."""
    import numpy as np

    out = np.zeros_like(g)
    for a in np.flatnonzero(f):
        # b -> a + b permutes the codes, so no index repeats
        out[(digits + digits[a]) % p @ weights] += f[a] * g
    return out


def point_count_table(X: AffineVariety, m: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """N_1..N_m."""
    return [count_points(X, n, cap=cap) for n in range(1, m + 1)]
