import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from deckindex.errors import InputError, TamenessError
from deckindex.fixpoint import (
    SimplicialMapModel,
    ZeroTable,
    _cover,
    equivariant_oracle_check,
    find_fixed_points,
    ingest_index_data,
    lefschetz_class,
    map_model_from_document,
    resolve_record,
    tameness_check,
)
from deckindex.fixtures import (
    fixture_document,
    octahedron_sphere,
    torus_grid,
)
from deckindex.vectorfield import field_model_from_document


@pytest.fixture(scope="module")
def sin_model():
    return map_model_from_document(fixture_document("sin-map"))


@pytest.fixture(scope="module")
def rotation_model():
    return map_model_from_document(fixture_document("octahedron-rotation"))


@pytest.fixture(scope="module")
def antipodal_model():
    return map_model_from_document(fixture_document("octahedron-antipodal"))


class TestFindFixedPoints:
    def test_sin_model_four_points_per_domain(self, sin_model):
        records = find_fixed_points(sin_model, 0)
        assert len(records) == 4
        positions = sorted(tuple(map(Fraction, r.position)) for r in records)
        assert positions == [(0, 0), (0, Fraction(1, 2)),
                             (Fraction(1, 2), 0),
                             (Fraction(1, 2), Fraction(1, 2))]
        assert all(r.exact and not r.on_face for r in records)

    def test_sin_model_records_scale_with_ball(self, sin_model):
        records = find_fixed_points(sin_model, 1)
        assert len(records) == 4 * 5

    def test_translation_has_no_fixed_points(self):
        model = map_model_from_document(fixture_document("translation-map"))
        assert find_fixed_points(model, 1) == []

    def test_identity_simplicial_map_not_isolated(self):
        model = map_model_from_document(fixture_document("octahedron-identity"))
        with pytest.raises(TamenessError, match="not isolated"):
            find_fixed_points(model, 0)

    def test_rotation_fixed_points_at_face_barycenters(self, rotation_model):
        records = find_fixed_points(rotation_model, 0)
        assert len(records) == 2
        third = Fraction(1, 3)
        positions = sorted(tuple(map(Fraction, r.position)) for r in records)
        assert positions == [(-third, -third, -third), (third, third, third)]
        assert all(not r.on_face for r in records)

    def test_antipodal_is_fixed_point_free(self, antipodal_model):
        assert find_fixed_points(antipodal_model, 0) == []


class TestLocalIndex:
    def test_sin_model_indices(self, sin_model):
        records = find_fixed_points(sin_model, 0)
        by_pos = {tuple(map(Fraction, r.position)): r.index for r in records}
        half = Fraction(1, 2)
        assert by_pos[(0, 0)] == 1
        assert by_pos[(0, half)] == -1
        assert by_pos[(half, 0)] == -1
        assert by_pos[(half, half)] == 1

    def test_rotation_indices_plus_one(self, rotation_model):
        records = find_fixed_points(rotation_model, 0)
        assert [r.index for r in records] == [1, 1]

    def test_deck_invariance_of_indices(self, sin_model):
        by_pos = {}
        for r in find_fixed_points(sin_model, 2):
            key = tuple(Fraction(c) % 1 for c in r.position)
            if key in by_pos:
                assert by_pos[key] == r.index
            by_pos[key] = r.index
        assert len(by_pos) == 4

    def test_index_stable_under_smaller_isolation(self, sin_model):
        # the certified Jacobian sign does not depend on any radius; check
        # stability by re-deriving the index from the doubled-resolution model
        fine = map_model_from_document({**fixture_document("sin-map"), "grid": 64})
        coarse_records = find_fixed_points(sin_model, 0)
        fine_records = find_fixed_points(fine, 0)
        coarse = {tuple(map(Fraction, r.position)): r.index for r in coarse_records}
        for r in fine_records:
            assert r.index == coarse[tuple(map(Fraction, r.position))]

    def test_constant_affine_map_has_index_one(self):
        # the rotation composed with itself: still index +1 at the centers
        octa = octahedron_sphere()
        rot = map_model_from_document(fixture_document("octahedron-rotation"))
        sq_images = {}
        for v, (deck, w) in rot.vertex_images.items():
            sq_images[v] = rot.vertex_images[w][1]
        model = SimplicialMapModel(octa, 0, sq_images)
        records = find_fixed_points(model, 0)
        assert [r.index for r in records] == [1, 1]


class TestTameness:
    def test_sin_model_strongly_tame(self, sin_model):
        report = tameness_check(sin_model)
        assert report.verdict == "strongly tame"
        assert report.delta is not None and report.delta > 0
        # separation cap is 1/4 (half the pairwise distance 1/2); host depth
        # shrinks delta further on this triangulation
        assert report.delta <= Fraction(1, 4)
        assert report.epsilon is not None and report.epsilon > 0

    def test_identity_not_tame(self):
        model = map_model_from_document(fixture_document("octahedron-identity"))
        report = tameness_check(model)
        assert report.verdict == "not tame"

    def test_translation_strongly_fixed_point_free(self):
        model = map_model_from_document(fixture_document("translation-map"))
        report = tameness_check(model)
        assert report.verdict == "strongly tame"
        assert report.strongly_fixed_point_free
        # epsilon equals the translation length up to rounding
        assert abs(float(report.epsilon) - 0.3) < 1e-6


class _OneZeroTorus(ZeroTable):
    """Z^2 test double: one exact zero in the identity window."""

    def __init__(self, position):
        super().__init__()
        self.complex = torus_grid()
        self.group = self.complex.group
        self.position = position

    def _solve_window(self, window, plain):
        return [resolve_record(self.complex, self.position, True)]


class TestCover:
    def test_z2_cover_lists_the_record_then_its_unit_translates(self):
        p = (Fraction(1, 7), Fraction(1, 11))
        records, cover = _cover(_OneZeroTorus(p))
        assert len(records) == 1 and not records[0].on_face
        assert cover[0] == records[0]
        shifts = [s for s in itertools.product((-1, 0, 1), repeat=2) if any(s)]
        assert [r.position for r in cover[1:]] == [
            tuple(c + t for c, t in zip(p, s)) for s in shifts]
        assert [r.host[0] for r in cover[1:]] == shifts

    def test_trivial_deck_cover_is_its_own_records(self, rotation_model):
        records, cover = _cover(rotation_model)
        assert len(records) == 2
        assert cover == records == find_fixed_points(rotation_model, 0)


def _reference_sample_norms(model, grid):
    """The affine-cell sampling grid evaluated in Fractions, point by point."""
    src = model.source
    n = src.dimension
    pts, norms = [], []
    per_cell = max(3, int(round(grid / max(1.0, src.count(n) ** 0.5))))
    for idx in src.cells(n):
        _, positions, vectors = model.affine_cell(idx)
        d = len(positions[0])
        for combo in itertools.product(range(1, per_cell), repeat=n):
            if sum(combo) >= per_cell:
                continue
            lam = [Fraction(per_cell - sum(combo), per_cell)] + \
                [Fraction(c, per_cell) for c in combo]
            pts.append([float(sum(l * p[i] for l, p in zip(lam, positions)))
                        for i in range(d)])
            w = [sum(l * v[i] for l, v in zip(lam, vectors)) for i in range(d)]
            norms.append(math.sqrt(float(sum(c * c for c in w))))
    return np.array(pts), np.array(norms)


def _torus_shift_model():
    """Z^2 simplicial map moving the 3x3 grid torus by one column."""
    return map_model_from_document({
        "variant": "simplicial", "fixture": "torus",
        "vertex_images": {f"v{i}{j}": f"v{(i + 1) % 3}{j}"
                          for i in range(3) for j in range(3)}})


def _vertex_collapse_model():
    """Octahedron map at subdivision 1 sending the barycenter of each cell
    to the cell's first vertex (a simplicial approximation of the identity)."""
    octa = octahedron_sphere()
    offset = 0
    images = {}
    for k in range(octa.dimension + 1):
        for idx, s in enumerate(octa.simplices[k]):
            images[offset + idx] = s[0]
        offset += octa.count(k)
    return SimplicialMapModel(octa, 1, images)


SAMPLED_MODELS = {
    "antipodal": lambda: map_model_from_document(fixture_document("octahedron-antipodal")),
    "rotation": lambda: map_model_from_document(fixture_document("octahedron-rotation")),
    "reflection": lambda: map_model_from_document(
        fixture_document("octahedron-reflection")),
    "antipodal-sd1": lambda: map_model_from_document(
        fixture_document("octahedron-antipodal")).subdivided(1),
    "rotation-sd1": lambda: map_model_from_document(
        fixture_document("octahedron-rotation")).subdivided(1),
    "collapse-sd1": _vertex_collapse_model,
    "polar-field": lambda: field_model_from_document(
        fixture_document("octahedron-polar-field")),
    "torus-shift": _torus_shift_model,
}


class TestSampleNorms:
    @pytest.mark.parametrize("grid", [32, 64])
    @pytest.mark.parametrize("name", list(SAMPLED_MODELS))
    def test_bitwise_equal_to_fraction_reference(self, name, grid):
        # integer numerators over one denominator give the floats of the
        # exact rationals, bit for bit
        model = SAMPLED_MODELS[name]()
        pts, norms = model.sample_norms(grid)
        ref_pts, ref_norms = _reference_sample_norms(model, grid)
        assert len(norms) > 0
        assert pts.tobytes() == ref_pts.tobytes()
        assert norms.tobytes() == ref_norms.tobytes()


class TestLefschetzClass:
    def test_sin_model_class_is_zero(self, sin_model):
        cls = lefschetz_class(sin_model)
        assert cls.constant == 0 and not cls.finite

    def test_rotation_class_totals_two(self, rotation_model):
        cls = lefschetz_class(rotation_model)
        assert cls.value(rotation_model.group.identity()) == 2

    def test_antipodal_class_is_zero_function(self, antipodal_model):
        cls = lefschetz_class(antipodal_model)
        assert cls.is_zero_function()

    def test_refuses_non_tame(self):
        model = map_model_from_document(fixture_document("octahedron-identity"))
        with pytest.raises(TamenessError, match="not strongly tame"):
            lefschetz_class(model)

    def test_equivariant_class_has_empty_finite_part(self, sin_model):
        assert lefschetz_class(sin_model).finite == {}


class TestStability:
    def test_sin_class_stable_under_subdivision(self, sin_model):
        from deckindex.complexes import barycentric_subdivide
        from deckindex.fixpoint import AnalyticModel
        sub = barycentric_subdivide(torus_grid(), 1).complex
        finer = AnalyticModel(sub, ["sin(2*pi*x)/5", "sin(2*pi*y)/5"],
                              Fraction(2, 5))
        assert lefschetz_class(finer) == lefschetz_class(sin_model)

    def test_subdivided_analytic_model_keeps_its_expressions(self, sin_model):
        finer = sin_model.subdivided(1)
        assert finer.components is sin_model.components
        assert finer.complex.count(2) == 6 * sin_model.complex.count(2)
        assert lefschetz_class(finer) == lefschetz_class(sin_model)

    def test_pl_field_refuses_subdivision(self):
        field = field_model_from_document(fixture_document("octahedron-polar-field"))
        with pytest.raises(InputError, match="unsupported for this model"):
            field.subdivided(1)

    def test_scaled_sin_class_stable_under_subdivision(self):
        from deckindex.complexes import barycentric_subdivide
        from deckindex.fixpoint import AnalyticModel
        scaled = map_model_from_document(fixture_document("sin-map-scaled"))
        sub = barycentric_subdivide(torus_grid(), 1).complex
        finer = AnalyticModel(sub, ["(3/10)*sin(2*pi*x)", "(3/10)*sin(2*pi*y)"],
                              Fraction(1, 2))
        assert lefschetz_class(finer) == lefschetz_class(scaled)

    def test_rotation_subdivision_hits_face_rejection(self, rotation_model):
        # the rotation fixes face barycenters, which become vertices of the
        # subdivision: the pipeline must reject rather than misattribute
        pushed = rotation_model.subdivided(1)
        with pytest.raises(InputError, match="simplex face"):
            find_fixed_points(pushed, 0)

    def test_face_rejection_does_not_advise_subdividing(self, rotation_model):
        # the subdivided rotation's fixed points are vertices of every
        # further subdivision, so the refusal must not recommend one
        pushed = rotation_model.subdivided(1)
        with pytest.raises(InputError, match="lies on a simplex face") as e:
            find_fixed_points(pushed, 0)
        assert "one more barycentric subdivision" not in str(e.value)

    def test_antipodal_class_stable_under_subdivision(self, antipodal_model):
        pushed = antipodal_model.subdivided(1)
        assert lefschetz_class(pushed).is_zero_function()

    def test_sin_class_stable_under_scaling(self, sin_model):
        scaled = map_model_from_document(fixture_document("sin-map-scaled"))
        assert lefschetz_class(scaled) == lefschetz_class(sin_model)


class TestOracle:
    def test_sin_model_matches_euler_characteristic(self, sin_model):
        out = equivariant_oracle_check(sin_model)
        assert out["equal"]
        assert out["class_constant"] == 0
        assert out["classical_lefschetz_number"] == 0

    def test_rotation_matches_trace(self, rotation_model):
        out = equivariant_oracle_check(rotation_model)
        assert out["equal"]
        assert out["classical_lefschetz_number"] == 2

    def test_antipodal_matches_trace(self, antipodal_model):
        out = equivariant_oracle_check(antipodal_model)
        assert out["equal"]
        assert out["classical_lefschetz_number"] == 0

    def test_identity_refused(self):
        model = map_model_from_document(fixture_document("octahedron-identity"))
        with pytest.raises(TamenessError):
            equivariant_oracle_check(model)

    def test_reflection_trace_is_zero(self):
        # oracle value alone (the involution has fixed vertices, so the
        # index pipeline refuses it; the classical trace is still defined)
        from deckindex.chains import lefschetz_number_quotient
        model = map_model_from_document(fixture_document("octahedron-reflection"))
        assert lefschetz_number_quotient(model.complex,
                                         model.quotient_chain_map()) == 0


class TestOracleUnderSubdivision:
    @pytest.mark.parametrize("times", [0, 1, 2])
    def test_antipodal(self, antipodal_model, times):
        out = equivariant_oracle_check(antipodal_model.subdivided(times))
        assert out["equal"]
        assert out["classical_lefschetz_number"] == 0
        assert out["method"].startswith("Hopf trace")

    @pytest.mark.parametrize("times", [0, 1, 2])
    def test_rotation(self, rotation_model, times):
        # once subdivided, the rotation fixes face barycentres, which are
        # vertices, so its own class is refused; the unsubdivided class is
        # the one the subdivided map must match
        cls = lefschetz_class(rotation_model)
        out = equivariant_oracle_check(rotation_model.subdivided(times), cls=cls)
        assert out["equal"]
        assert out["classical_lefschetz_number"] == 2

    def test_reflection_after_one_subdivision(self):
        from deckindex.chains import lefschetz_number_quotient
        model = map_model_from_document(
            fixture_document("octahedron-reflection")).subdivided(1)
        assert lefschetz_number_quotient(model.complex,
                                         model.quotient_chain_map()) == 0


class TestIndexData:
    def test_connected_sum_document(self):
        f, note = ingest_index_data(fixture_document("connected-sum-index"))
        assert f.constant == 2 and not f.finite
        assert "externally supplied" in note

    def test_zero_document(self):
        f, _ = ingest_index_data({"group": {"kind": "free-abelian", "rank": 1},
                                  "constant": 0, "finite": []})
        assert f.is_zero_function()

    def test_malformed(self):
        with pytest.raises(InputError):
            ingest_index_data({"constant": 1})
