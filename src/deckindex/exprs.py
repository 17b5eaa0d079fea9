"""Closed-form component expressions: one small immutable expression tree.

Model documents carry component expressions as strings over the cover
coordinates.  The grammar is, in full::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := ("+" | "-") factor | power
    power    := atom ["**" exponent]
    exponent := ["+" | "-"] INTEGER | "(" ["+" | "-"] INTEGER ")"
    atom     := NUMBER | "pi" | VARIABLE | ("sin" | "cos") "(" expr ")"
              | "(" expr ")"

A NUMBER is a decimal literal (``3``, ``0.25``), read as an exact
rational; the variables are the first ``dim`` of ``x``, ``y``, ``z``; an
exponent is an integer of absolute value at most 100.
:func:`parse_expression` is a recursive-descent parser for exactly this
grammar: it evaluates nothing, and any other token is refused with an
:class:`InputError` that names it.  Nodes are built by constructors that
fold constants in exact rationals, so ``1/0`` is refused while parsing
and derivatives stay small.

On the tree: :func:`derivative` and :func:`jacobian`, :func:`determinant`
by cofactors, and one evaluator, a fold that builds a function of the point
from a table of operations.  Its three tables give the float evaluator
:func:`numpy_function` (behind :func:`lambdify_vector` and
:func:`lambdify_matrix`), enclosures in ``mpmath.iv`` and exact values for
an exact-zero test, which together give :func:`certified_sign`.

The exact-zero test decides whether an expression vanishes at a rational
point.  There, sin and cos of a rational multiple r*pi are sums of the
roots of unity e^(+-i pi r) over 2 or 2i, elements of a cyclotomic field
Q(zeta_M); pi outside a trig argument is transcendental over that field
(Lindemann), so it acts as a free indeterminate.  A value is a polynomial
in pi with cyclotomic coefficients, kept as ``{(pi degree, t): rational}``
for the root of unity e^(2 pi i t), t in [0, 1).  It is zero exactly when
every coefficient reduces to zero in the power basis of Q(zeta_M).  Outside
this fragment (a trig argument that is not a rational multiple of pi, a
division by a value that is not a nonzero rational, a field of degree
above 4096) the test is undecided: :func:`certified_sign` then falls
through to 120- and 240-bit intervals, and :func:`is_exact_zero_vector`
answers False.

numpy and mpmath load on first use, inside the functions that need them;
``fixpoint`` imports this module only in its analytic code paths, so the
commands that parse no expression never load any of the three.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError

VARIABLES = ("x", "y", "z")
MAX_EXPONENT = 100
MAX_FIELD_DEGREE = 4096


class Expr(NamedTuple):
    """One node: ``op`` and its ``args``.

    ``const`` holds a Fraction, ``var`` a coordinate index, ``pow`` a child
    and an int exponent; ``pi`` has no args; ``add``, ``sub``, ``mul`` and
    ``div`` hold two children, ``neg``, ``sin`` and ``cos`` one.
    """

    op: str
    args: tuple

    def __str__(self):
        return _format(self)[0]


def const(value) -> Expr:
    return Expr("const", (Fraction(value),))


ZERO, ONE = const(0), const(1)
PI = Expr("pi", ())


def _value(e: Expr):
    """The rational value of a constant node, else None."""
    return e.args[0] if e.op == "const" else None


# -- constructors with constant folding ----------------------------------------

def add(a: Expr, b: Expr) -> Expr:
    va, vb = _value(a), _value(b)
    if va is not None and vb is not None:
        return const(va + vb)
    if va == 0:
        return b
    if vb == 0:
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    va, vb = _value(a), _value(b)
    if va is not None and vb is not None:
        return const(va - vb)
    if vb == 0:
        return a
    if va == 0:
        return neg(b)
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    va, vb = _value(a), _value(b)
    if va is not None and vb is not None:
        return const(va * vb)
    if va == 0 or vb == 0:
        return ZERO
    if va == 1:
        return b
    if vb == 1:
        return a
    if va == -1:
        return neg(b)
    if vb == -1:
        return neg(a)
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    """``a / b``; raises ZeroDivisionError when ``b`` is the constant 0."""
    va, vb = _value(a), _value(b)
    if vb == 0:
        raise ZeroDivisionError("division by zero")
    if va is not None and vb is not None:
        return const(va / vb)
    if va == 0:
        return ZERO
    if vb == 1:
        return a
    return Expr("div", (a, b))


def neg(a: Expr) -> Expr:
    va = _value(a)
    if va is not None:
        return const(-va)
    if a.op == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def power(a: Expr, n: int) -> Expr:
    """``a ** n``; raises ZeroDivisionError for the constant 0 to a negative n."""
    va = _value(a)
    if va is not None:
        return const(va ** n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    return Expr("pow", (a, n))


def sin(a: Expr) -> Expr:
    return ZERO if _value(a) == 0 else Expr("sin", (a,))


def cos(a: Expr) -> Expr:
    return ONE if _value(a) == 0 else Expr("cos", (a,))


_BINARY = {"+": add, "-": sub, "*": mul, "/": div}
_FUNCTIONS = {"sin": sin, "cos": cos}


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+(?:\.\d*)?|\.\d+)|([A-Za-z_]\w*)|(\*\*|[-+*/()])", re.ASCII)


class _ParseError(Exception):
    def __init__(self, reason, token, pos):
        super().__init__(reason, token, pos)
        self.reason, self.token, self.pos = reason, token, pos


class _Parser:
    """Reads tokens one at a time, so the first token out of the grammar,
    in reading order, is the one an error names."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.pos = 0             # where the next token is scanned
        self.current = None      # the scanned (kind, text, position) lookahead
        self.dim = dim

    def peek(self):
        if self.current is None:
            text, pos = self.text, self.pos
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                self.current = ("end", "", pos)
            else:
                m = _TOKEN.match(text, pos)
                if m is None:
                    raise _ParseError("unexpected character", text[pos], pos)
                kind = "number" if m.group(1) else "name" if m.group(2) else "op"
                self.current = (kind, m.group(), pos)
                pos = m.end()
            self.pos = pos
        return self.current

    def take(self):
        tok = self.peek()
        self.current = None
        return tok

    def fail(self, reason, tok=None):
        kind, text, pos = tok or self.peek()
        raise _ParseError(reason, text if kind != "end" else "end of input", pos)

    def expect(self, text):
        if self.peek()[:2] != ("op", text):
            self.fail(f"expected {text!r}, found")
        self.take()

    def whole(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail("unexpected token")
        return e

    def binary(self, operand, ops) -> Expr:
        e = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            tok = self.take()
            right = operand()
            try:
                e = _BINARY[tok[1]](e, right)
            except ZeroDivisionError:
                self.fail("division by zero:", tok)
        return e

    def expr(self) -> Expr:
        return self.binary(self.term, ("+", "-"))

    def term(self) -> Expr:
        return self.binary(self.factor, ("*", "/"))

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text in ("+", "-"):
            self.take()
            e = self.factor()
            return neg(e) if text == "-" else e
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] != ("op", "**"):
            return base
        tok = self.take()
        n = self.exponent()
        try:
            return power(base, n)
        except ZeroDivisionError:
            self.fail("zero to a negative power:", tok)

    def exponent(self) -> int:
        opened = self.peek()[:2] == ("op", "(")
        if opened:
            self.take()
        sign = 1
        if self.peek()[0] == "op" and self.peek()[1] in ("+", "-"):
            sign = -1 if self.take()[1] == "-" else 1
        kind, text, _ = self.peek()
        if kind != "number" or not text.isdigit():
            self.fail("expected an integer exponent, found")
        if int(text) > MAX_EXPONENT:
            self.fail(f"exponent above {MAX_EXPONENT}:")
        self.take()
        if opened:
            self.expect(")")
        return sign * int(text)

    def atom(self) -> Expr:
        tok = self.take()
        kind, text, _ = tok
        if kind == "number":
            return const(Fraction(text))
        if kind == "name":
            if text == "pi":
                return PI
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _FUNCTIONS[text](arg)
            if text in VARIABLES[:self.dim]:
                return Expr("var", (VARIABLES.index(text),))
            if text in VARIABLES:
                self.fail(f"not a coordinate of a {self.dim}-dimensional cover:", tok)
            self.fail("unknown name", tok)
        if tok[:2] == ("op", "("):
            e = self.expr()
            self.expect(")")
            return e
        self.fail("unexpected token", tok)


def parse_expression(text: str, dim: int) -> Expr:
    """Parse one component expression of the grammar above."""
    text = str(text)
    try:
        return _Parser(text, dim).whole()
    except _ParseError as e:
        raise InputError(f"cannot parse expression {text!r}: {e.reason} "
                         f"{e.token!r} at position {e.pos}") from None
    except RecursionError:
        raise InputError(f"cannot parse expression {text!r}: it nests "
                         "too deeply") from None


# -- printing ------------------------------------------------------------------

# precedence: 1 sums, 2 products and quotients, 3 negations, 4 powers, 5 atoms
_LEVEL = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_SYMBOL = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def _format(e: Expr):
    """(text, precedence level) of a node; the text parses back to ``e``."""
    op, args = e
    if op == "const":
        v = args[0]
        # "-3/10" reads as (-3)/10: a fraction is a quotient of integers
        return str(v), (2 if v.denominator != 1 else 3 if v < 0 else 5)
    if op == "pi":
        return "pi", 5
    if op == "var":
        return VARIABLES[args[0]], 5
    if op in ("sin", "cos"):
        return f"{op}({_format(args[0])[0]})", 5
    if op == "neg":
        return "-" + _operand(args[0], 3), 3
    if op == "pow":
        return f"{_operand(args[0], 5)}**{args[1]}", 4
    level = _LEVEL[op]
    # left-associative: a right operand of the same level needs parentheses
    return _operand(args[0], level) + _SYMBOL[op] + _operand(args[1], level + 1), level


def _operand(e: Expr, level: int) -> str:
    text, own = _format(e)
    return text if own >= level else f"({text})"


# -- derivatives and determinants ----------------------------------------------

def derivative(e: Expr, i: int) -> Expr:
    """d e / d(coordinate i), folded as it is built."""
    op, args = e
    if op in ("const", "pi"):
        return ZERO
    if op == "var":
        return ONE if args[0] == i else ZERO
    if op == "neg":
        return neg(derivative(args[0], i))
    if op == "pow":
        u, n = args
        return mul(mul(const(n), power(u, n - 1)), derivative(u, i))
    if op == "sin":
        return mul(cos(args[0]), derivative(args[0], i))
    if op == "cos":
        return neg(mul(sin(args[0]), derivative(args[0], i)))
    a, b = args
    da, db = derivative(a, i), derivative(b, i)
    if op == "add":
        return add(da, db)
    if op == "sub":
        return sub(da, db)
    if op == "mul":
        return add(mul(da, b), mul(a, db))
    if _value(b) is not None:      # div by a constant
        return div(da, b)
    return sub(div(da, b), div(mul(a, db), power(b, 2)))


def jacobian(components, dim: int):
    return [[derivative(c, i) for i in range(dim)] for c in components]


def determinant(rows) -> Expr:
    """Determinant of a square matrix of nodes, by cofactors along the
    first row (the analytic pipelines use n <= 3)."""
    if len(rows) == 1:
        return rows[0][0]
    total = ZERO
    for j, entry in enumerate(rows[0]):
        term = mul(entry, determinant([r[:j] + r[j + 1:] for r in rows[1:]]))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


# -- one evaluator for every arithmetic ----------------------------------------

# the operations floats and intervals share; an arithmetic adds sin, cos, the
# value of a rational constant and the value of pi
_FIELD = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv, "neg": operator.neg, "pow": operator.pow}


def _compile(e: Expr, arithmetic: dict):
    """Evaluator of ``e`` in one arithmetic, built by one fold over the
    tree: a function of the point (coordinate values in variable order).
    ``arithmetic`` maps every operation of the tree to a function, ``const``
    to the function giving a rational's value and ``pi`` to pi's value."""
    op, args = e
    if op == "var":
        return operator.itemgetter(args[0])
    if op in ("const", "pi"):
        v = arithmetic["const"](args[0]) if op == "const" else arithmetic["pi"]
        return lambda point: v
    fn = arithmetic[op]
    if op == "pow":
        f, n = _compile(args[0], arithmetic), args[1]
        return lambda point: fn(f(point), n)
    if len(args) == 2:
        f, g = _compile(args[0], arithmetic), _compile(args[1], arithmetic)
        return lambda point: fn(f(point), g(point))
    f = _compile(args[0], arithmetic)
    return lambda point: fn(f(point))


@functools.cache
def _floats() -> dict:
    import numpy as np
    return {**_FIELD, "sin": np.sin, "cos": np.cos,
            "const": lambda r: np.float64(float(r)), "pi": np.float64(np.pi)}


def numpy_function(e: Expr):
    """Float evaluator of one expression, built once: a function of the
    coordinate columns (numpy arrays or scalars, in variable order)."""
    return _compile(e, _floats())


def _stacked(expressions, dim: int, shape):
    """Float evaluator of a list of expressions: a (k, dim) array of points
    to a (k, *shape) array of their values, in row-major order.

    Floating-point warnings are silenced: a NaN or infinite value is
    refused by the bound check, and Newton drops starts that do not
    converge, so a warning would only repeat that on stderr.
    """
    import numpy as np
    funcs = [numpy_function(e) for e in expressions]

    def evaluate(points):
        cols = [points[:, i] for i in range(dim)]
        with np.errstate(all="ignore"):
            return np.stack([np.broadcast_to(fn(cols), points.shape[0])
                             for fn in funcs], axis=1).astype(float) \
                .reshape(points.shape[0], *shape)

    return evaluate


def lambdify_vector(components, dim: int):
    """Numeric vector function: a (k, dim) array of points to (k, len(components))."""
    return _stacked(components, dim, (len(components),))


def lambdify_matrix(matrix, dim: int):
    """Numeric matrix function: a (k, dim) array of points to (k, rows, cols)."""
    return _stacked([e for row in matrix for e in row], dim,
                    (len(matrix), len(matrix[0])))


# -- interval enclosures -------------------------------------------------------

def _interval_sign(e: Expr, point, prec: int):
    """Sign proved by a ``prec``-bit enclosure, or None if it contains 0."""
    from mpmath import iv

    def const(r):
        return iv.mpf(r.numerator) / iv.mpf(r.denominator)

    # iv keeps a precision of its own, which mpmath.workprec leaves at 53 bits
    saved, iv.prec = iv.prec, prec
    try:
        intervals = {**_FIELD, "sin": iv.sin, "cos": iv.cos, "const": const,
                     "pi": iv.pi}
        interval = _compile(e, intervals)([const(c) for c in point])
    finally:
        iv.prec = saved
    return 1 if interval.a > 0 else -1 if interval.b < 0 else None


# -- exact values at rational points -------------------------------------------

class _Undecided(Exception):
    """The value lies outside the decidable fragment."""


_UNIT = Fraction(0)          # t of the root of unity 1


def _merge(out: dict, key, c) -> None:
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def _prime_powers(m: int):
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


def _reduce(value: dict) -> dict:
    """The same value with every coefficient in the power basis of
    Q(zeta_M), M the least common denominator of the roots' t.

    Q(zeta_M) is the tensor product of the Q(omega_q) over the prime powers
    q = p^a of M, with omega_q = zeta_M^(e_q) for the CRT idempotent e_q.
    The exponent j of zeta_M^j splits into the j mod q, and in each factor
    Phi_q(w) = sum_(u<p) w^(u p^(a-1)) rewrites an exponent of the top block
    u = p - 1 in one step.  The products of the per-factor power bases form
    a basis, so the result is zero exactly when the value is, and rational
    exactly when only t = 0 is left.
    """
    m = math.lcm(*(t.denominator for _, t in value))
    if m > 2 * MAX_FIELD_DEGREE ** 2:     # phi(m) >= sqrt(m / 2): skip factoring
        raise _Undecided
    factors = _prime_powers(m)
    degree = math.prod((p - 1) * (q // p) for p, q in factors)
    if degree > MAX_FIELD_DEGREE:
        raise _Undecided
    idempotents = [(m // q) * pow(m // q, -1, q) for _, q in factors]
    out: dict = {}
    for (d, t), c in value.items():
        j = t.numerator * (m // t.denominator)
        terms = [(0, c)]
        for (p, q), e in zip(factors, idempotents):
            b, s = j % q, q // p
            top = (p - 1) * s
            choices = [(b, 1)] if b < top else [(u * s + b - top, -1) for u in range(p - 1)]
            terms = [(acc + bb * e, coef * sign) for acc, coef in terms
                     for bb, sign in choices]
        for acc, coef in terms:
            _merge(out, (d, Fraction(acc % m, m)), coef)
    return out


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for (d1, t1), c1 in a.items():
        for (d2, t2), c2 in b.items():
            t = t1 + t2
            _merge(out, (d1 + d2, t - 1 if t >= 1 else t), c1 * c2)
    return _reduce(out)


def _rational(r: Fraction) -> dict:
    return {(0, _UNIT): r} if r else {}


def _scaled(a: dict, c: Fraction) -> dict:
    return {k: v * c for k, v in a.items()}


def _trig(op: str, arg: dict) -> dict:
    """sin or cos of ``arg``, which must be r*pi for a rational r."""
    arg = _reduce(arg)
    if arg and list(arg) != [(1, _UNIT)]:
        raise _Undecided
    h = arg.get((1, _UNIT), Fraction(0)) / 2 % 1     # e^(i pi r) = e^(2 pi i h)
    half = Fraction(1, 2)
    out: dict = {}
    if op == "cos":                 # (e^(i pi r) + e^(-i pi r)) / 2
        _merge(out, (0, h), half)
        _merge(out, (0, -h % 1), half)
    else:                           # (e^(i pi r) - e^(-i pi r)) / 2i
        _merge(out, (0, (h - Fraction(1, 4)) % 1), half)
        _merge(out, (0, (-h - Fraction(1, 4)) % 1), -half)
    return _reduce(out)


def _nonzero_rational(value: dict) -> Fraction:
    value = _reduce(value)
    if list(value) != [(0, _UNIT)]:
        raise _Undecided        # not rational, or a division by zero
    return value[0, _UNIT]


def _plus(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        _merge(out, k, v)
    return out


def _exact_power(a: dict, n: int) -> dict:
    if n < 0:
        return _rational(_nonzero_rational(a) ** n)
    return functools.reduce(_times, [a] * n, _rational(Fraction(1)))


_EXACT = {"add": _plus, "sub": lambda a, b: _plus(a, _scaled(b, Fraction(-1))),
          "mul": _times, "div": lambda a, b: _scaled(a, 1 / _nonzero_rational(b)),
          "neg": lambda a: _scaled(a, Fraction(-1)), "pow": _exact_power,
          "sin": functools.partial(_trig, "sin"), "cos": functools.partial(_trig, "cos"),
          "const": _rational, "pi": {(1, _UNIT): Fraction(1)}}


def exact_zero(e: Expr, point):
    """Whether ``e`` vanishes at the rational point: True, False, or None
    when the value lies outside the decidable fragment."""
    try:
        return not _reduce(_compile(e, _EXACT)([_rational(c) for c in point]))
    except _Undecided:
        return None


def is_exact_zero_vector(components, point) -> bool:
    """True when every component provably vanishes at a rational point."""
    return all(exact_zero(c, point) for c in components)


def certified_sign(expr: Expr, point) -> int:
    """Sign of an expression at an exact rational point: -1, 0 or +1.

    A 60-bit interval enclosure that excludes 0 proves the sign outright.
    Otherwise the exact-zero test runs, then interval arithmetic at 120 and
    240 bits.  Raises when the sign stays ambiguous, which only happens
    for values extremely close to (but not provably at) zero.
    """
    point = [Fraction(c) for c in point]
    for prec in (60, 120, 240):
        sign = _interval_sign(expr, point, prec)
        if sign is not None:
            return sign
        if prec == 60 and exact_zero(expr, point):
            return 0
    raise InputError(f"sign of {expr} at {tuple(map(str, point))} is ambiguous "
                     "at 240 bits: the value is too close to zero to certify")


def snap_to_rational(value: float, max_denominator: int = 64,
                     tolerance: float = 1e-7):
    """Nearest small-denominator rational within tolerance, else None."""
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) <= tolerance:
        return frac
    return None
