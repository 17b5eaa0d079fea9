"""Exact rational linear algebra and simplex geometry."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, InternalError


def solve_linear(matrix, rhs):
    """Solve M x = b over the rationals.

    Returns ``("unique", x)``, ``("none", None)`` or ``("infinite", x0)``
    with one particular solution.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [[Fraction(matrix[i][j]) for j in range(cols)] + [Fraction(rhs[i])]
           for i in range(rows)]
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((rr for rr in range(r, rows) if aug[rr][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for rr in range(rows):
            if rr != r and aug[rr][col]:
                f = aug[rr][col]
                aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
        pivots.append(col)
        r += 1
    for rr in range(r, rows):
        if aug[rr][cols]:
            return "none", None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = aug[i][cols]
    if len(pivots) < cols:
        return "infinite", x
    return "unique", x


def det(matrix) -> Fraction:
    m = [list(map(Fraction, row)) for row in matrix]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        result *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * result


def barycentric_coordinates(point, vertices):
    """Barycentric coordinates of a point w.r.t. simplex vertices, or None.

    Works in any ambient dimension; returns None when the point is not in
    the affine hull.
    """
    d = len(point)
    k = len(vertices)
    matrix = [[vertices[j][i] for j in range(k)] for i in range(d)]
    matrix.append([Fraction(1)] * k)
    rhs = list(point) + [Fraction(1)]
    status, x = solve_linear(matrix, rhs)
    if status == "none":
        return None
    return x


def point_in_simplex(point, vertices):
    """'interior', 'boundary' or 'outside' for an exact rational point."""
    coords = barycentric_coordinates(point, vertices)
    if coords is None:
        return "outside"
    if any(c < 0 for c in coords):
        return "outside"
    return "boundary" if any(c == 0 for c in coords) else "interior"


def squared_distance_point_segment(p, a, b) -> Fraction:
    ab = [y - x for x, y in zip(a, b)]
    ap = [y - x for x, y in zip(a, p)]
    denom = sum(x * x for x in ab)
    if denom == 0:
        raise InternalError("degenerate segment")
    t = sum(x * y for x, y in zip(ap, ab)) / denom
    t = max(Fraction(0), min(Fraction(1), t))
    closest = [x + t * y for x, y in zip(a, ab)]
    return sum((u - v) ** 2 for u, v in zip(p, closest))


def squared_distance_point_point(p, q) -> Fraction:
    return sum((u - v) ** 2 for u, v in zip(p, q))


def simplex_boundary_squared_distance(point, vertices) -> Fraction:
    """Min squared distance from an interior point to the simplex boundary.

    For a 2-simplex: distance to the three edges in the ambient space
    (valid because the point lies in the simplex plane).  For a 1-simplex:
    distance to the endpoints.
    """
    k = len(vertices) - 1
    if k == 1:
        return min(squared_distance_point_point(point, v) for v in vertices)
    if k == 2:
        best = None
        for i in range(3):
            for j in range(i + 1, 3):
                d2 = squared_distance_point_segment(point, vertices[i], vertices[j])
                best = d2 if best is None else min(best, d2)
        return best
    if k == 3:
        best = None
        for drop in range(4):
            tri = [v for t, v in enumerate(vertices) if t != drop]
            d2 = _squared_distance_point_triangle(point, tri)
            best = d2 if best is None else min(best, d2)
        return best
    raise InputError("boundary distance supported up to 3-simplices")


def _squared_distance_point_triangle(p, tri):
    a, b, c = tri
    ab = [y - x for x, y in zip(a, b)]
    ac = [y - x for x, y in zip(a, c)]
    ap = [y - x for x, y in zip(a, p)]
    g11 = sum(x * x for x in ab)
    g12 = sum(x * y for x, y in zip(ab, ac))
    g22 = sum(x * x for x in ac)
    r1 = sum(x * y for x, y in zip(ap, ab))
    r2 = sum(x * y for x, y in zip(ap, ac))
    den = g11 * g22 - g12 * g12
    if den == 0:
        raise InternalError("degenerate triangle")
    s = (g22 * r1 - g12 * r2) / den
    t = (g11 * r2 - g12 * r1) / den
    if s >= 0 and t >= 0 and s + t <= 1:
        proj = [x + s * u + t * v for x, u, v in zip(a, ab, ac)]
        return squared_distance_point_point(p, proj)
    return min(squared_distance_point_segment(p, a, b),
               squared_distance_point_segment(p, a, c),
               squared_distance_point_segment(p, b, c))


def sqrt_lower_bound(value: Fraction, bits: int = 40) -> Fraction:
    """Exact rational lower bound for sqrt(value)."""
    value = Fraction(value)
    if value < 0:
        raise InputError("negative value")
    scale = 1 << bits
    num = value.numerator * scale * scale
    root = math.isqrt(num // value.denominator)
    return Fraction(root, scale)
