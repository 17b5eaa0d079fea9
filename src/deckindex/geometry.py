"""Exact rational linear algebra and simplex geometry.

Every small exact system is reduced by one Gauss–Jordan routine,
:func:`eliminate`, which works in integers with fraction-free (Bareiss)
steps and divides back into rationals once, at the end: :func:`solve_linear`
and :func:`det` read it, and so do the host-cell table and the chart index
of :mod:`deckindex.fixpoint`.  The squared heights of a simplex,
``h_i² = det G / det G_i``, come from Gram determinants in any dimension
(:func:`simplex_heights2`); the host-cell table reads them, and a point's
depth in a simplex is ``min_i λ_i h_i``, its barycentric coordinates
times those heights.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalError


def eliminate(rows, width):
    """Gauss–Jordan reduction over Q of the first ``width`` columns of ``rows``.

    Returns ``(reduced, pivots, determinant)``: the reduced rows, pivot rows
    first with each pivot 1 and the rest of its column 0; the pivot columns
    in order; and the determinant of the leading ``width`` columns of a
    square system (0 when a column has no pivot).  Columns past ``width``
    are carried along, so ``[A | B]`` reduces to ``[R | E B]`` with
    ``E A = R``.  Entries are ints or Fractions.

    The reduction runs in integers (Bareiss 1968): each row is cleared of
    its denominators once, by its scale s, and each step takes
    ``row <- (p * row - f * pivot row) / p'`` with p the new pivot and p'
    the one before, a division that is always exact.  The pivot row is
    chosen as over Q, the first row with a nonzero entry, so the rows end
    in the same order.  At the end every pivot row holds P times its
    reduced row, P the last pivot, and every other row P s times its
    residual; the determinant is ``±P`` over the pivot rows' scales.
    """
    m, scales = [], []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    pivots, sign, prev = reduce_integers(m, width, scales)
    rank = len(pivots)
    reduced = [[Fraction(a, prev) for a in row] for row in m[:rank]]
    reduced += [[Fraction(a, prev * s) for a in row]
                for row, s in zip(m[rank:], scales[rank:])]
    determinant = (Fraction(sign * prev, math.prod(scales[:rank])) if rank == width
                   else Fraction(0))
    return reduced, pivots, determinant


def reduce_integers(m, width, scales=None):
    """The integer core of :func:`eliminate`: Bareiss steps on the int rows
    ``m`` over their first ``width`` columns, in place, each swap mirrored
    in ``scales`` when given.  Returns ``(pivots, sign, P)``: the pivot
    columns, the sign of the row permutation and the last pivot P (1 when
    there is none).  The pivot rows come first and hold P times their
    reduced rows; every other row holds P times its residual."""
    pivots = []
    sign, prev = 1, 1
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            if scales:
                scales[r], scales[piv] = scales[piv], scales[r]
            sign = -sign
        pivot_row = m[r]
        p = pivot_row[col]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[col]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif p != prev:
                m[i] = [a * p // prev for a in row]
        prev = p
        pivots.append(col)
    return pivots, sign, prev


def numerators(rows, den: int) -> list:
    """Rows of ints and Fractions as integer numerators over ``den``, a
    multiple of every denominator."""
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows]


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


def _gram_det(vertices) -> Fraction:
    """det of the Gram matrix of a simplex's edge vectors from its first
    vertex: (k! times its k-volume) squared, 1 for a point."""
    edges = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    return det([[sum(a * b for a, b in zip(e, f)) for f in edges] for e in edges])


def simplex_heights2(vertices) -> list:
    """Squared heights of a simplex, in vertex order: ``h_i² = det G /
    det G_i``, the squared distance from vertex i to the affine hull of the
    facet opposite it, with ``G`` and ``G_i`` the Gram matrices of the
    simplex and of that facet.  A point with barycentric coordinates λ lies
    ``λ_i h_i`` from that facet's hull."""
    gram = _gram_det(vertices)
    return [gram / _gram_det(vertices[:i] + vertices[i + 1:]) for i in range(len(vertices))]


def sqrt_lower_bound(value: Fraction, bits: int = 40) -> Fraction:
    """Exact rational lower bound for sqrt(value)."""
    value = Fraction(value)
    if value < 0:
        raise InternalError("square root of a negative value")
    scale = 1 << bits
    num = value.numerator * scale * scale
    root = math.isqrt(num // value.denominator)
    return Fraction(root, scale)
