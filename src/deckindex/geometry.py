"""Exact rational linear algebra and simplex geometry.

Every small exact system is reduced by one Gauss–Jordan routine,
:func:`eliminate`: :func:`solve_linear` and :func:`det` read it, and so do
the host-cell table and the chart index of :mod:`deckindex.fixpoint`.  A
point's depth in a simplex is ``min_i λ_i h_i``: its barycentric
coordinates times the heights of the simplex, with the squared heights
``h_i² = det G / det G_i`` taken from Gram determinants, in any dimension.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def eliminate(rows, width):
    """Gauss–Jordan reduction over Q of the first ``width`` columns of ``rows``.

    Returns ``(reduced, pivots, determinant)``: the reduced rows, pivot rows
    first with each pivot 1 and the rest of its column 0; the pivot columns
    in order; and the determinant of the leading ``width`` columns of a
    square system (0 when a column has no pivot).  Columns past ``width``
    are carried along, so ``[A | B]`` reduces to ``[R | E B]`` with
    ``E A = R``.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    determinant = Fraction(1)
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            determinant = Fraction(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            determinant = -determinant
        determinant *= m[r][col]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, determinant


def solve_linear(matrix, rhs):
    """Solve M x = b over the rationals.

    Returns ``("unique", x)``, ``("none", None)`` or ``("infinite", x0)``
    with one particular solution.
    """
    cols = len(matrix[0]) if matrix else 0
    reduced, pivots, _ = eliminate(
        [list(row) + [b] for row, b in zip(matrix, rhs)], cols)
    if any(row[cols] for row in reduced[len(pivots):]):
        return "none", None
    x = [Fraction(0)] * cols
    for row, col in zip(reduced, pivots):
        x[col] = row[cols]
    return ("unique" if len(pivots) == cols else "infinite"), x


def det(matrix) -> Fraction:
    return eliminate(matrix, len(matrix))[2]


def barycentric_coordinates(point, vertices):
    """Barycentric coordinates of a point w.r.t. simplex vertices, or None.

    Works in any ambient dimension; returns None when the point is not in
    the affine hull.
    """
    matrix = [[v[i] for v in vertices] for i in range(len(point))] + [[1] * len(vertices)]
    status, x = solve_linear(matrix, list(point) + [1])
    return None if status == "none" else x


def point_in_simplex(point, vertices):
    """'interior', 'boundary' or 'outside' for an exact rational point."""
    coords = barycentric_coordinates(point, vertices)
    if coords is None or any(c < 0 for c in coords):
        return "outside"
    return "boundary" if any(c == 0 for c in coords) else "interior"


def squared_distance_point_point(p, q) -> Fraction:
    return sum((u - v) ** 2 for u, v in zip(p, q))


def _gram_det(vertices) -> Fraction:
    """det of the Gram matrix of a simplex's edge vectors from its first
    vertex: (k! times its k-volume) squared, 1 for a point."""
    edges = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    return det([[sum(a * b for a, b in zip(e, f)) for f in edges] for e in edges])


def simplex_boundary_squared_distance(point, vertices, lam=None) -> Fraction:
    """Squared distance from a point inside a simplex to its boundary.

    The point lies ``λ_i h_i`` from the facet opposite vertex i, with
    ``λ_i`` its barycentric coordinate and ``h_i² = det G / det G_i`` the
    squared height, ``G`` and ``G_i`` the Gram matrices of the simplex and
    of that facet.  The nearest facet's foot lies in the simplex, so the
    least of these is the distance to the boundary.  ``lam`` passes the
    point's barycentric coordinates when the caller already holds them.
    """
    if lam is None:
        lam = barycentric_coordinates(point, vertices)
    gram = _gram_det(vertices)
    return min(l * l * gram / _gram_det(vertices[:i] + vertices[i + 1:])
               for i, l in enumerate(lam))


def sqrt_lower_bound(value: Fraction, bits: int = 40) -> Fraction:
    """Exact rational lower bound for sqrt(value)."""
    value = Fraction(value)
    if value < 0:
        raise InputError("negative value")
    scale = 1 << bits
    num = value.numerator * scale * scale
    root = math.isqrt(num // value.denominator)
    return Fraction(root, scale)
