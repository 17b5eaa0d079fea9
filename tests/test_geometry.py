from fractions import Fraction

import pytest

from deckindex.geometry import (
    barycentric_coordinates,
    det,
    point_in_simplex,
    simplex_boundary_squared_distance,
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
        d2 = simplex_boundary_squared_distance((F(1, 4), F(1, 4)), self.TRI)
        assert d2 == F(1, 16)

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
        assert simplex_boundary_squared_distance(point, vertices) == depth2

    def test_sqrt_lower_bound(self):
        v = F(2)
        lb = sqrt_lower_bound(v)
        assert lb * lb <= v
        assert float(lb) > 1.41421356 - 1e-9
