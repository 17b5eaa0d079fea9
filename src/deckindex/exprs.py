"""Closed-form expression handling with certified sign evaluation.

Model documents carry component expressions as strings over the cover
coordinates (x, y, z), rational literals, pi and sin/cos.  They are parsed
with a whitelist into sympy, differentiated symbolically, evaluated
numerically through lambdify, and evaluated *rigorously* through interval
arithmetic (mpmath.iv) with rational endpoints when a sign has to be
certified, e.g. for Jacobian determinants at exact fixed points.

sympy and mpmath load on first use, inside the functions that need them:
the first :func:`parse_expression` of an analytic model pays their import,
and commands that parse no expression (simplicial maps, PL fields, index
data, validation, class decisions, amenability) never load them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import InputError


@functools.cache
def _grammar():
    """(symbols x y z, allowed function classes, parse namespace), built once."""
    import sympy
    xs = sympy.symbols("x y z")
    namespace = {"x": xs[0], "y": xs[1], "z": xs[2],
                 "sin": sympy.sin, "cos": sympy.cos, "pi": sympy.pi,
                 "Rational": sympy.Rational}
    return xs, (sympy.sin, sympy.cos), namespace


def variables(dim: int):
    return _grammar()[0][:dim]


def parse_expression(text: str, dim: int):
    """Parse one component expression; only the declared grammar is allowed."""
    import sympy
    xs, allowed_funcs, namespace = _grammar()
    try:
        expr = sympy.parse_expr(str(text), local_dict=namespace, evaluate=True)
        expr = sympy.nsimplify(expr, rational=True)
    except (sympy.SympifyError, SyntaxError, TypeError, ValueError) as e:
        raise InputError(f"cannot parse expression {text!r}: {e}")
    allowed_symbols = set(xs[:dim]) | {sympy.pi}
    for atom in expr.atoms(sympy.Symbol):
        if atom not in allowed_symbols:
            raise InputError(f"expression {text!r} uses unknown symbol {atom}")
    for func in expr.atoms(sympy.Function):
        if not isinstance(func, allowed_funcs):
            raise InputError(f"expression {text!r} uses unsupported function "
                             f"{func.func}")
    return expr


def jacobian(components, dim: int):
    import sympy
    vs = variables(dim)
    return [[sympy.diff(c, v) for v in vs] for c in components]


def lambdify_vector(components, dim: int):
    import numpy as np
    import sympy
    vs = variables(dim)
    funcs = [sympy.lambdify(vs, c, modules="numpy") for c in components]

    def f(points):
        cols = [points[:, i] for i in range(dim)]
        return np.stack([np.broadcast_to(fn(*cols), points.shape[0])
                         for fn in funcs], axis=1).astype(float)

    return f


def lambdify_matrix(matrix, dim: int):
    """Numeric matrix function: a (k, dim) array of points to (k, rows, cols)."""
    import numpy as np
    import sympy
    vs = variables(dim)
    rows = [[sympy.lambdify(vs, e, modules="numpy") for e in row] for row in matrix]

    def jac(points):
        cols = [points[:, i] for i in range(dim)]
        return np.stack([np.stack([np.broadcast_to(fn(*cols), points.shape[0])
                                   for fn in row], axis=1)
                         for row in rows], axis=1).astype(float)

    return jac


def _to_interval(expr, subs):
    import mpmath
    import sympy
    iv = mpmath.iv
    if expr is sympy.pi:
        return iv.pi
    if isinstance(expr, sympy.Integer):
        return iv.mpf(int(expr))
    if isinstance(expr, sympy.Rational):
        return iv.mpf(int(expr.p)) / iv.mpf(int(expr.q))
    if isinstance(expr, sympy.Symbol):
        frac = subs[expr]
        return iv.mpf(frac.numerator) / iv.mpf(frac.denominator)
    if isinstance(expr, sympy.Add):
        total = iv.mpf(0)
        for arg in expr.args:
            total += _to_interval(arg, subs)
        return total
    if isinstance(expr, sympy.Mul):
        total = iv.mpf(1)
        for arg in expr.args:
            total *= _to_interval(arg, subs)
        return total
    if isinstance(expr, sympy.Pow):
        base, exp = expr.args
        if not (isinstance(exp, sympy.Integer)):
            raise InputError(f"only integer powers are certified: {expr}")
        b = _to_interval(base, subs)
        e = int(exp)
        if e >= 0:
            out = iv.mpf(1)
            for _ in range(e):
                out *= b
            return out
        out = iv.mpf(1)
        for _ in range(-e):
            out *= b
        return iv.mpf(1) / out
    if isinstance(expr, sympy.sin):
        return iv.sin(_to_interval(expr.args[0], subs))
    if isinstance(expr, sympy.cos):
        return iv.cos(_to_interval(expr.args[0], subs))
    raise InputError(f"cannot certify expression node {expr!r}")


@functools.lru_cache(maxsize=256)
def _expanded(expr):
    """``expand_trig(expand(expr))``, computed once per expression."""
    import sympy
    return sympy.expand_trig(sympy.expand(expr))


def _interval_sign(expr, subs, prec: int):
    """Sign proved by a ``prec``-bit enclosure, or None if it contains 0."""
    import mpmath
    with mpmath.workprec(prec):
        interval = _to_interval(_expanded(expr), subs)
        if interval.a > 0:
            return 1
        if interval.b < 0:
            return -1
    return None


def certified_sign(expr, point: dict) -> int:
    """Sign of an expression at an exact rational point: -1, 0 or +1.

    A 60-bit interval enclosure that excludes 0 proves the sign outright.
    Otherwise symbolic exact-zero detection runs, then interval arithmetic
    at 120 and 240 bits.  Raises when the sign stays ambiguous, which only
    happens for values extremely close to (but not provably at) zero.
    """
    import sympy
    subs = {v: Fraction(val) for v, val in point.items()}
    try:
        sign = _interval_sign(expr, subs, 60)
    except InputError:
        sign = None  # uncertifiable node: let the exact-zero test run first
    if sign is not None:
        return sign
    exact = sympy.simplify(expr.subs({v: sympy.Rational(f.numerator, f.denominator)
                                      for v, f in subs.items()}))
    if exact == 0:
        return 0
    for prec in (120, 240):
        sign = _interval_sign(expr, subs, prec)
        if sign is not None:
            return sign
    raise InputError(f"sign of {expr} at {point} is ambiguous at 240 bits; "
                     "shrink the isolation radius or simplify the model")


def is_exact_zero_vector(components, point_values) -> bool:
    """True when every component vanishes exactly at a rational point."""
    import sympy
    subs = {}
    for v, val in point_values.items():
        f = Fraction(val)
        subs[v] = sympy.Rational(f.numerator, f.denominator)
    for c in components:
        val = sympy.simplify(c.subs(subs))
        if val != 0:
            return False
    return True


def snap_to_rational(value: float, max_denominator: int = 64,
                     tolerance: float = 1e-7):
    """Nearest small-denominator rational within tolerance, else None."""
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) <= tolerance:
        return frac
    return None
