from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex.errors import InternalError
from deckindex.geometry import (
    barycentric_coordinates,
    det,
    eliminate,
    point_in_simplex,
    simplex_heights2,
    solve_linear,
    sqrt_lower_bound,
)

F = Fraction


class TestLinearAlgebra:
    def test_unique_solution(self):
        status, x = solve_linear([[1, 1], [1, -1]], [3, 1])
        assert status == "unique"
        assert x == [F(2), F(1)]

    def test_inconsistent(self):
        status, x = solve_linear([[1, 1], [2, 2]], [1, 3])
        assert status == "none"

    def test_underdetermined(self):
        status, x = solve_linear([[1, 1]], [2])
        assert status == "infinite"
        assert x[0] + x[1] == 2

    def test_det(self):
        assert det([[2, 1], [1, 1]]) == 1
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[1, 2], [2, 4]]) == 0


def _fraction_eliminate(rows, width):
    """Gauss–Jordan over Q in Fractions, pivot by pivot: the reference for
    the integer reduction of :func:`eliminate`."""
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


# small numerators and denominators, with zero often, so that random rows
# are often dependent and columns often lack a pivot
_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _systems(draw):
    """(rows, width): up to 5 rows of up to 7 columns, ``width`` of them
    reduced and the rest carried; some rows are copies or multiples of
    others, or zero, to force rank deficiency."""
    cols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols),
                         min_size=0, max_size=5))
    for i in range(len(rows)):
        kind = draw(st.sampled_from(("keep", "keep", "copy", "zero")))
        if kind == "copy" and i:
            j = draw(st.integers(0, i - 1))
            c = draw(_ENTRIES)
            rows[i] = [c * x for x in rows[j]]
        elif kind == "zero":
            rows[i] = [0] * cols
    return rows, draw(st.integers(0, cols))


class TestEliminate:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_systems())
    def test_equals_the_fraction_reduction(self, system):
        rows, width = system
        reduced, pivots, determinant = eliminate(rows, width)
        ref_reduced, ref_pivots, ref_determinant = _fraction_eliminate(rows, width)
        assert pivots == ref_pivots
        assert reduced == ref_reduced
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert determinant == ref_determinant
        assert type(determinant) is Fraction

    @pytest.mark.parametrize("rows,width", [
        ([], 0), ([[]], 0), ([[1, 2]], 0), ([[0, 0, 5]], 2),
        ([[0, 1], [1, 0], [1, 1]], 2),
        ([[F(1, 2), F(1, 3), 1], [F(1, 4), F(1, 6), 2]], 2)])
    def test_edge_cases(self, rows, width):
        assert eliminate(rows, width) == _fraction_eliminate(rows, width)


def _depth2(point, vertices):
    """Squared distance from a point inside a simplex to its boundary, the
    least of its squared distances λ_i² h_i² to the facets."""
    lam = barycentric_coordinates(point, vertices)
    return min(l * l * h2 for l, h2 in zip(lam, simplex_heights2(vertices)))


class TestSimplexGeometry:
    TRI = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]

    def test_barycentric(self):
        lam = barycentric_coordinates((F(1, 3), F(1, 3)), self.TRI)
        assert lam == [F(1, 3), F(1, 3), F(1, 3)]

    def test_point_classification(self):
        assert point_in_simplex((F(1, 4), F(1, 4)), self.TRI) == "interior"
        assert point_in_simplex((F(1, 2), F(1, 2)), self.TRI) == "boundary"
        assert point_in_simplex((F(2), F(0)), self.TRI) == "outside"

    def test_point_off_plane_is_outside(self):
        tri3 = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))]
        assert point_in_simplex((F(0), F(0), F(1)), tri3) == "outside"

    def test_boundary_distance_of_incenter_like_point(self):
        assert _depth2((F(1, 4), F(1, 4)), self.TRI) == F(1, 16)
        assert simplex_heights2(self.TRI) == [F(1, 2), F(1), F(1)]

    # (point, vertices, squared boundary distance), the distances computed
    # by the per-dimension segment and triangle distances this replaced
    DEPTHS = [
        ((F(5, 2), F(2)), [(F(1), F(1)), (F(4), F(3))], F(13, 4)),
        ((F(3, 2), F(1)), [(F(0), F(0)), (F(4), F(0)), (F(1), F(3))], F(1)),
        ((F(1, 3), F(2, 3), F(1)),
         [(F(1), F(0), F(0)), (F(0), F(2), F(0)), (F(0), F(0), F(3))], F(49, 117)),
        ((F(1, 2), F(2, 3), F(1, 2)),
         [(F(0), F(0), F(0)), (F(2), F(0), F(0)), (F(0), F(3), F(0)),
          (F(1), F(1), F(4))], F(9, 68)),
    ]

    @pytest.mark.parametrize("point,vertices,depth2", DEPTHS,
                             ids=["segment", "triangle-r2", "triangle-r3",
                                  "tetrahedron"])
    def test_boundary_distance_exact_values(self, point, vertices, depth2):
        assert _depth2(point, vertices) == depth2

    def test_sqrt_lower_bound(self):
        v = F(2)
        lb = sqrt_lower_bound(v)
        assert lb * lb <= v
        assert float(lb) > 1.41421356 - 1e-9

    def test_sqrt_lower_bound_of_a_negative_value_is_a_bug(self):
        # every caller passes a squared distance, so a negative value is an
        # internal fault (exit 3), not bad input (exit 1)
        with pytest.raises(InternalError) as err:
            sqrt_lower_bound(F(-1, 4))
        assert err.value.exit_code == 3
