"""Parser for rational-function expressions in the variable t.

Grammar, with ordinary precedence and parenthesization:

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor | factor)*     adjacency means "*"
    factor := atom ["^" ["-"] integer]
    atom   := integer | "t" | "(" expr ")"

The expression is evaluated over Z, so a literal a/b stays the pair
(a, b), and the result has one canonicalization, WittVector over Z. It
must have constant term 1. Q is used only when Z refuses: a result that
is not integral, such as (2 - t)/2, comes back over Q.
"""

from __future__ import annotations

from .poly import Polynomial
from .rings import QQ, ZZ
from .witt import WittVector


class ParseError(ValueError):
    """Syntax error carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_SYMBOLS = set("+-*/^()")


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, object, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j]), i))
                i = j
                continue
            if ch == "t":
                self.toks.append(("t", "t", i))
                i += 1
                continue
            if ch in _SYMBOLS:
                self.toks.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.toks.append(("end", None, n))
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        t = self.toks[self.k]
        self.k += 1
        return t


# rational functions as (num, den) pairs over Z; reduction waits for the end
_RF = tuple[Polynomial, Polynomial]


def _one() -> Polynomial:
    return Polynomial.one(ZZ)


def _rf_add(a: _RF, b: _RF) -> _RF:
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _rf_neg(a: _RF) -> _RF:
    return (-a[0], a[1])


def _rf_mul(a: _RF, b: _RF) -> _RF:
    return (a[0] * b[0], a[1] * b[1])


def _rf_div(a: _RF, b: _RF, pos: int) -> _RF:
    if b[0].is_zero():
        raise ParseError("division by zero", pos)
    return (a[0] * b[1], a[1] * b[0])


# cap on |e| times the size of the base, its degree or, for a constant, the
# bit length of its coefficients: (1 - t)^1000 parses in about 0.5 s
POWER_CAP = 1000


def _rf_pow(a: _RF, e: int, pos: int) -> _RF:
    degree = max(a[0].degree, a[1].degree)
    size = degree or max(abs(c).bit_length() for c in a[0].coeffs + a[1].coeffs)
    if abs(e) * size > POWER_CAP:
        what = "degree" if degree else "bits"
        raise ParseError(f"power needs |exponent| * {what} = {abs(e)} * {size},"
                         f" above the cap {POWER_CAP}", pos)
    if e < 0:
        return _rf_pow(_rf_div((_one(), _one()), a, pos), -e, pos)
    num, den = _one(), _one()
    for _ in range(e):
        num, den = num * a[0], den * a[1]
    return (num, den)


def _parse_expr(toks: _Tokens) -> _RF:
    sign = 1
    if toks.peek()[0] in ("+", "-"):
        sign = -1 if toks.advance()[0] == "-" else 1
    acc = _parse_term(toks)
    if sign < 0:
        acc = _rf_neg(acc)
    while toks.peek()[0] in ("+", "-"):
        op = toks.advance()[0]
        rhs = _parse_term(toks)
        acc = _rf_add(acc, _rf_neg(rhs) if op == "-" else rhs)
    return acc


def _parse_term(toks: _Tokens) -> _RF:
    acc = _parse_factor(toks)
    while True:
        kind, _, pos = toks.peek()
        if kind in ("*", "/"):
            toks.advance()
            rhs = _parse_factor(toks)
            acc = _rf_mul(acc, rhs) if kind == "*" else _rf_div(acc, rhs, pos)
        elif kind in ("int", "t", "("):
            acc = _rf_mul(acc, _parse_factor(toks))
        else:
            return acc


def _parse_factor(toks: _Tokens) -> _RF:
    acc = _parse_atom(toks)
    while toks.peek()[0] == "^":
        _, _, pos = toks.advance()
        sign = 1
        if toks.peek()[0] == "-":
            toks.advance()
            sign = -1
        kind, value, vpos = toks.advance()
        if kind != "int":
            raise ParseError(f"expected integer exponent, found {kind!r}", vpos)
        acc = _rf_pow(acc, sign * value, pos)
    return acc


def _parse_atom(toks: _Tokens) -> _RF:
    kind, value, pos = toks.advance()
    if kind == "int":
        return (Polynomial(ZZ, [value]), _one())
    if kind == "t":
        return (Polynomial.t(ZZ), _one())
    if kind == "(":
        inner = _parse_expr(toks)
        close, _, cpos = toks.advance()
        if close != ")":
            raise ParseError(f"expected ')', found {close!r}", cpos)
        return inner
    if kind == "-":
        return _rf_neg(_parse_factor(toks))
    raise ParseError(f"expected integer, 't' or '(', found {kind!r}", pos)


def parse_witt(expr: str) -> WittVector:
    """Parse and canonicalize over Z; non-integral results come back over Q."""
    toks = _Tokens(expr)
    num, den = _parse_expr(toks)
    kind, _, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected {kind!r}", pos)
    try:
        return WittVector(num, den)
    except ValueError:  # not integral, or not a Witt vector: Q decides
        return WittVector(num.map_ring(QQ), den.map_ring(QQ))
