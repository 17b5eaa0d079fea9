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
by cofactors, :func:`numpy_function`, a float evaluator built once per
expression (behind :func:`lambdify_vector` and :func:`lambdify_matrix`),
enclosures in ``mpmath.iv`` and an exact-zero test, which together give
:func:`certified_sign`.

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


# -- float evaluation ----------------------------------------------------------

_ARITHMETIC = {"add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "div": operator.truediv}


def numpy_function(e: Expr):
    """Float evaluator of one expression, built once: a function of the
    coordinate columns (numpy arrays or scalars, in variable order)."""
    import numpy as np
    op, args = e
    if op in ("const", "pi"):
        v = np.float64(np.pi if op == "pi" else float(args[0]))
        return lambda cols: v
    if op == "var":
        i = args[0]
        return lambda cols: cols[i]
    if op in _ARITHMETIC:
        f, g, fn = numpy_function(args[0]), numpy_function(args[1]), _ARITHMETIC[op]
        return lambda cols: fn(f(cols), g(cols))
    f = numpy_function(args[0])
    if op == "neg":
        return lambda cols: -f(cols)
    if op == "pow":
        n = args[1]
        return lambda cols: f(cols) ** n
    u = np.sin if op == "sin" else np.cos
    return lambda cols: u(f(cols))


def lambdify_vector(components, dim: int):
    """Numeric vector function: a (k, dim) array of points to (k, len(components)).

    Floating-point warnings are silenced: a NaN or infinite value is
    refused by the bound check, and Newton drops starts that do not
    converge, so a warning would only repeat that on stderr.
    """
    import numpy as np
    funcs = [numpy_function(c) for c in components]

    def f(points):
        cols = [points[:, i] for i in range(dim)]
        with np.errstate(all="ignore"):
            return np.stack([np.broadcast_to(fn(cols), points.shape[0])
                             for fn in funcs], axis=1).astype(float)

    return f


def lambdify_matrix(matrix, dim: int):
    """Numeric matrix function: a (k, dim) array of points to (k, rows, cols),
    with floating-point warnings silenced as in :func:`lambdify_vector`."""
    import numpy as np
    rows = [[numpy_function(e) for e in row] for row in matrix]

    def jac(points):
        cols = [points[:, i] for i in range(dim)]
        with np.errstate(all="ignore"):
            return np.stack([np.stack([np.broadcast_to(fn(cols), points.shape[0])
                                       for fn in row], axis=1)
                             for row in rows], axis=1).astype(float)

    return jac


# -- interval enclosures -------------------------------------------------------

def _enclosure(e: Expr, point, iv):
    """Interval enclosure of ``e`` at the interval point, at the working
    precision."""
    op, args = e
    if op == "const":
        return iv.mpf(args[0].numerator) / iv.mpf(args[0].denominator)
    if op == "pi":
        return iv.pi
    if op == "var":
        return point[args[0]]
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](_enclosure(args[0], point, iv),
                               _enclosure(args[1], point, iv))
    inner = _enclosure(args[0], point, iv)
    if op == "neg":
        return -inner
    if op == "pow":
        return inner ** args[1]
    return iv.sin(inner) if op == "sin" else iv.cos(inner)


def _interval_sign(e: Expr, point, prec: int):
    """Sign proved by a ``prec``-bit enclosure, or None if it contains 0."""
    import mpmath
    iv = mpmath.iv
    with mpmath.workprec(prec):
        interval = _enclosure(e, [iv.mpf(c.numerator) / iv.mpf(c.denominator)
                                  for c in point], iv)
        if interval.a > 0:
            return 1
        if interval.b < 0:
            return -1
    return None


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


def _exact(e: Expr, point) -> dict:
    op, args = e
    if op == "const":
        return _rational(args[0])
    if op == "pi":
        return {(1, _UNIT): Fraction(1)}
    if op == "var":
        return _rational(point[args[0]])
    if op in ("sin", "cos"):
        return _trig(op, _exact(args[0], point))
    a = _exact(args[0], point)
    if op == "neg":
        return _scaled(a, Fraction(-1))
    if op == "pow":
        n = args[1]
        if n < 0:
            return _rational(_nonzero_rational(a) ** n)
        out = _rational(Fraction(1))
        for _ in range(n):
            out = _times(out, a)
        return out
    b = _exact(args[1], point)
    if op in ("add", "sub"):
        out = dict(a)
        for k, v in b.items():
            _merge(out, k, v if op == "add" else -v)
        return out
    if op == "mul":
        return _times(a, b)
    return _scaled(a, 1 / _nonzero_rational(b))


def _nonzero_rational(value: dict) -> Fraction:
    value = _reduce(value)
    if list(value) != [(0, _UNIT)]:
        raise _Undecided        # not rational, or a division by zero
    return value[0, _UNIT]


def exact_zero(e: Expr, point):
    """Whether ``e`` vanishes at the rational point: True, False, or None
    when the value lies outside the decidable fragment."""
    try:
        return not _reduce(_exact(e, point))
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
    sign = _interval_sign(expr, point, 60)
    if sign is not None:
        return sign
    if exact_zero(expr, point):
        return 0
    for prec in (120, 240):
        sign = _interval_sign(expr, point, prec)
        if sign is not None:
            return sign
    raise InputError(f"sign of {expr} at {tuple(map(str, point))} is ambiguous "
                     "at 240 bits; shrink the isolation radius or simplify the model")


def snap_to_rational(value: float, max_denominator: int = 64,
                     tolerance: float = 1e-7):
    """Nearest small-denominator rational within tolerance, else None."""
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) <= tolerance:
        return frac
    return None
