"""Parser for rational-function expressions in the variable t.

Grammar, with ordinary precedence and parenthesization:

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor | factor)*     adjacency means "*"
    factor := atom ["^" ["-"] integer]
    atom   := integer | "t" | "(" expr ")"

The expression is evaluated over Z, on (num, den) pairs of int lists, so
a literal a/b stays the pair (a, b), and the result has one
canonicalization, WittVector over Z. It must have constant term 1; one
that is not integral, such as (2 - t)/2, comes back over Q. One budget
on the whole expression is the only size gate: it bounds the coefficient
bits, and charges each list operation and the gcd (once) before their
work. EXPR_DEPTH_CAP bounds nesting. util.over_cap words each refusal.
"""

from __future__ import annotations

from .poly import Polynomial, _product, _sum
from .rings import QQ, ZZ
from .util import over_cap
from .witt import WittVector, lowest_terms


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
                digits = text[i:j].lstrip("0")
                if len(digits) > 4215:  # at least 10^4215 > 2^14000; log2(10) > 3.3219
                    need = f"over {(len(digits) - 1) * 33219 // 10000} coefficient bits"
                    raise ParseError(over_cap("integer literal", need, EXPR_BITS_CAP), i)
                self.toks.append(("int", int(digits or "0"), i))
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
        self.work = self.depth = 0  # charged so far (_charge), open levels (_parse_atom)

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        t = self.toks[self.k]
        self.k += 1
        return t


# rational functions as (num, den) pairs of trimmed ascending int lists over
# Z; pairs share lists, so no helper mutates its input
_RF = tuple[list, list]

# one budget for the whole expression, checked before each list operation and
# the gcd: the bound on the coefficient bits stays within EXPR_BITS_CAP, about
# the 4,300 digits Python prints, and the work charged over the parse within
# EXPR_WORK_CAP, about 1 s on a 2-core Xeon
EXPR_BITS_CAP = 14000
EXPR_WORK_CAP = 10**7
# depth 2 per parenthesis (4 frames of the descent), 1 per unary sign (2): CPython allows 1,000
EXPR_DEPTH_CAP = 400


def _charge(toks: _Tokens, work: int, bits: int, pos: int) -> None:
    toks.work += work
    if bits > EXPR_BITS_CAP:
        raise ParseError(over_cap("expression", f"{bits} coefficient bits", EXPR_BITS_CAP), pos)
    if toks.work > EXPR_WORK_CAP:
        raise ParseError(over_cap("expression", f"{toks.work} work units", EXPR_WORK_CAP), pos)


def _bits(p: list) -> int:
    """ceil(log2) of the 1-norm of p != 0: it bounds every coefficient's
    bits, and adds up under products."""
    return (sum(map(abs, p)) - 1).bit_length()


def _work(a: list, len_b: int, bits_a: int, bits_b: int) -> int:
    """The charge for _product(a, b): its products, each weighted by (1 + bits / 256)
    per factor, and 8 per entry of a and of the result; (1-t)^1000 needs 7.6e6."""
    products = (len(a) - a.count(0)) * len_b * (256 + bits_a) * (256 + bits_b) >> 16
    return products + 8 * (2 * len(a) + len_b - 1)


def _mul(a: list, b: list, toks: _Tokens, pos: int) -> list:
    """The list product, charged first; a factor [1] returns the other."""
    if not a or not b:
        return []
    if a == [1] or b == [1]:
        return b if a == [1] else a
    bits_a, bits_b = _bits(a), _bits(b)
    _charge(toks, _work(a, len(b), bits_a, bits_b), bits_a + bits_b, pos)
    return _product(a, b)


def _rf_add(a: _RF, b: _RF, toks: _Tokens, pos: int) -> _RF:
    x, y, den = a[0], b[0], a[1]
    if a[1] != [1] or b[1] != [1]:
        x, y, den = _mul(x, b[1], toks, pos), _mul(y, a[1], toks, pos), _mul(den, b[1], toks, pos)
    _charge(toks, 8 * max(len(x), len(y)), 0, pos)
    return (_sum(x, y), den)


def _rf_neg(a: _RF, toks: _Tokens, pos: int) -> _RF:
    _charge(toks, 8 * len(a[0]), 0, pos)
    return ([-c for c in a[0]], a[1])


def _rf_mul(a: _RF, b: _RF, toks: _Tokens, pos: int) -> _RF:
    return (_mul(a[0], b[0], toks, pos), _mul(a[1], b[1], toks, pos))


def _rf_div(a: _RF, b: _RF, toks: _Tokens, pos: int) -> _RF:
    if not b[0]:
        raise ParseError("division by zero", pos)
    return (_mul(a[0], b[1], toks, pos), _mul(a[1], b[0], toks, pos))


def _pow(p: list, e: int, toks: _Tokens, pos: int) -> list:
    """p^e for e >= 1: zero and a monomial c t^k directly, else by e - 1 products;
    the bound e * bits comes first, so e <= 14000 before the loops run."""
    if not p:
        return p
    bits, d = _bits(p), len(p) - 1
    if not any(p[:-1]):
        _charge(toks, 8 * (d * e + 1), e * bits, pos)
        return [0] * (d * e) + [p[-1] ** e]
    _charge(toks, 0, e * bits, pos)
    _charge(toks, sum(_work(p, k * d + 1, bits, k * bits) for k in range(1, e)), 0, pos)
    out = p
    for _ in range(e - 1):
        out = _product(p, out)
    return out


def _rf_pow(a: _RF, e: int, toks: _Tokens, pos: int) -> _RF:
    if e < 0:
        return _rf_pow(_rf_div(([1], [1]), a, toks, pos), -e, toks, pos)
    if e == 0:  # 0^0 included
        return ([1], [1])
    return (_pow(a[0], e, toks, pos), _pow(a[1], e, toks, pos))


def _parse_expr(toks: _Tokens) -> _RF:
    sign, _, pos = toks.peek()
    if sign in ("+", "-"):
        toks.advance()
    acc = _parse_term(toks)
    if sign == "-":
        acc = _rf_neg(acc, toks, pos)
    while toks.peek()[0] in ("+", "-"):
        op, _, pos = toks.advance()
        rhs = _parse_term(toks)
        acc = _rf_add(acc, _rf_neg(rhs, toks, pos) if op == "-" else rhs, toks, pos)
    return acc


def _parse_term(toks: _Tokens) -> _RF:
    acc = _parse_factor(toks)
    while True:
        kind, _, pos = toks.peek()
        if kind in ("*", "/"):
            toks.advance()
            rhs = _parse_factor(toks)
            acc = (_rf_mul if kind == "*" else _rf_div)(acc, rhs, toks, pos)
        elif kind in ("int", "t", "("):
            acc = _rf_mul(acc, _parse_factor(toks), toks, pos)
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
        acc = _rf_pow(acc, sign * value, toks, pos)
    return acc


def _parse_atom(toks: _Tokens) -> _RF:
    kind, value, pos = toks.advance()
    if kind == "int":
        return ([value] if value else [], [1])
    if kind == "t":
        return ([0, 1], [1])
    if kind not in ("(", "-"):
        raise ParseError(f"expected integer, 't' or '(', found {kind!r}", pos)
    toks.depth += 2 if kind == "(" else 1
    if toks.depth > EXPR_DEPTH_CAP:
        raise ParseError(over_cap("expression", f"nesting depth {toks.depth}", EXPR_DEPTH_CAP), pos)
    if kind == "(":
        inner, (close, _, cpos) = _parse_expr(toks), toks.advance()
        if close != ")":
            raise ParseError(f"expected ')', found {close!r}", cpos)
    else:
        inner = _rf_neg(_parse_factor(toks), toks, pos)
    toks.depth -= 2 if kind == "(" else 1
    return inner


def check_ring_op(name: str, left, right) -> None:
    """Refuse left[k] * right[k], the Polynomial products of a ring operation, before they
    run, when above EXPR_WORK_CAP by _mul's weights; over Q, c weighs num * den."""
    pairs = ([[c.numerator * c.denominator for c in p.coeffs] for p in pair]
             for pair in zip(left, right))
    work = sum(_work(a, len(b), _bits(a), _bits(b)) for a, b in pairs if [1] not in (a, b))
    if work > EXPR_WORK_CAP:
        raise ValueError(over_cap(name, f"{work} work units", EXPR_WORK_CAP))


def parse_witt(expr: str) -> WittVector:
    """Parse and canonicalize over Z; non-integral results come back over Q."""
    toks = _Tokens(expr)
    num, den = _parse_expr(toks)
    kind, _, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected {kind!r}", pos)
    # the gcd, a Euclid mod p per 61-bit prime, then exact division and printing:
    # 3 per pair, each length + 10, times (1 + bits / 64); (1-t^165110)/(1-t) takes 1.1 s
    gcd = 3 * (len(num) + 10) * (len(den) + 10) * (64 + min(_bits(num), _bits(den))) >> 6
    _charge(toks, gcd, 0, pos)
    num, den, c = lowest_terms(Polynomial(ZZ, num), Polynomial(ZZ, den))
    try:
        return WittVector(num, den, constant=c)
    except ValueError:  # not integral: the same reduced pair over Q, divided by c
        # 192 per Fraction coefficient: (2-2t^37700)/(1-t)/(2+t), at the cap, takes 0.4 s
        _charge(toks, 192 * (len(num.coeffs) + len(den.coeffs)), 0, pos)
        return WittVector(num.map_ring(QQ), den.map_ring(QQ), constant=c)
