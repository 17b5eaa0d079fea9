import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deckindex import exprs, fixpoint, geometry
from deckindex.cli import main
from deckindex.complexes import QuotientComplex, barycentric_subdivide
from deckindex.errors import InputError, InternalError, ResourceError, TamenessError
from deckindex.fixpoint import (
    SimplicialMapModel,
    ZeroTable,
    _closest_pair2,
    _cover,
    _grid_points,
    _HostTable,
    _outside_balls,
    _translate_ranges,
    check_tameness,
    equivariant_oracle_check,
    find_fixed_points,
    ingest_index_data,
    lefschetz_class,
    locate_host_cells,
    map_model_from_document,
    resolve_record,
    tameness_check,
)
from deckindex.fixtures import (
    fixture_document,
    octahedron_sphere,
    torus_grid,
)
from deckindex.geometry import (
    barycentric_coordinates,
    det,
    simplex_heights2,
    sqrt_lower_bound,
)
from deckindex.groups import trivial_group
from deckindex.vectorfield import PLFieldModel, field_model_from_document


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

    @pytest.mark.parametrize("name", ["sin-map", "octahedron-rotation"])
    def test_grid_below_the_floor_samples_the_floor(self, name):
        model = map_model_from_document(fixture_document(name))
        assert check_tameness(model, grid=8) == check_tameness(model, grid=32)

    def test_grid_budget_is_checked_before_any_grid_is_built(self, monkeypatch):
        doc = fixture_document("sin-map")
        model = map_model_from_document({**doc, "grid": 1024})
        assert model.grid ** 2 == fixpoint.GRID_POINTS   # at the budget

        def refuse(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(fixpoint, "_grid_points", refuse)
        with pytest.raises(ResourceError, match="'grid' 1025 asks for 1025\\^2"):
            map_model_from_document({**doc, "grid": 1025})
        with pytest.raises(ResourceError, match="--grid 513 asks for up to"):
            check_tameness(model, grid=513)

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


def _interior(q, point):
    """Whether ``point`` lies inside a top cell of ``q``, not on a face."""
    return any(h[2] == "interior" for h in locate_host_cells(q, point))


class _ZerosTorus(ZeroTable):
    """Z^2 test double: the given exact zeros in the identity window."""

    def __init__(self, *positions):
        super().__init__()
        self.complex = torus_grid()
        self.group = self.complex.group
        self.positions = positions

    def _solve_window(self, window, plain):
        return [resolve_record(self.complex, p) for p in self.positions]

    def sample_norms(self, grid):
        # one sample, far from every zero, so tameness reports its delta
        return np.array([[0.9, 0.9]]), np.array([1.0])


class TestCover:
    def test_z2_cover_lists_the_record_then_its_unit_translates(self):
        p = (Fraction(1, 7), Fraction(1, 11))
        records, cover = _cover(_ZerosTorus(p))
        assert len(records) == 1
        assert cover[0] == records[0]
        shifts = [s for s in itertools.product((-1, 0, 1), repeat=2) if any(s)]
        assert [r.position for r in cover[1:]] == [
            tuple(c + t for c, t in zip(p, s)) for s in shifts]
        assert [r.host[0] for r in cover[1:]] == shifts

    def test_trivial_deck_cover_is_its_own_records(self, rotation_model):
        records, cover = _cover(rotation_model)
        assert len(records) == 2
        assert cover == records == find_fixed_points(rotation_model, 0)

    def test_delta_pairs_a_zero_with_the_translates_of_the_others(self):
        # q - (1, 0) lies 1/50 from p, though q lies 49/50 from p itself;
        # both sit near a cell centroid, deeper than 1/100 in their cells
        p = (Fraction(19, 45), Fraction(2, 9))
        q = (p[0] + Fraction(49, 50), p[1])
        report = check_tameness(_ZerosTorus(p, q))
        assert report.verdict == "strongly tame"
        assert report.delta == sqrt_lower_bound(Fraction(1, 50) ** 2) / 2


def _all_pairs_outside(pts, centres, radius):
    """Reference δ-ball mask: every sample measured against every centre."""
    dist = np.full(len(pts), np.inf)
    for z in centres:
        np.minimum(dist, np.sqrt(((pts - z) ** 2).sum(axis=1)), out=dist)
    return dist > radius


def _fraction_closest_pair2(positions, count):
    """Reference least squared distance, pair by pair in Fractions."""
    return min((sum((u - v) ** 2 for u, v in zip(p, q))
                for i, p in enumerate(positions[:count])
                for j, q in enumerate(positions) if j != i), default=None)


@st.composite
def _samples_and_zeros(draw):
    """(samples, zeros, radius) in dimension 1 to 3.

    Samples lie in [0, 2)^n, some on a dyadic grid; zeros lie in [-1, 3)^n,
    so some sit outside the sampled range, and some are dyadic too, so that
    with a dyadic radius a sample can lie exactly at distance radius.  The
    radius runs from 1e-6 to above 1.
    """
    dim = draw(st.integers(1, 3))
    coord = st.floats(0, 2, exclude_max=True)
    dyadic = st.integers(0, 15).map(lambda k: k / 8)
    pts = draw(st.lists(st.tuples(*[st.one_of(coord, dyadic)] * dim),
                        min_size=1, max_size=60))
    zeros = draw(st.lists(st.tuples(*[st.one_of(st.floats(-1, 3, exclude_max=True),
                                                dyadic)] * dim),
                          min_size=1, max_size=8))
    radius = draw(st.one_of(st.sampled_from((1 / 8, 1 / 4, 1 / 2, 1.0, 1.5)),
                            st.floats(-6, 0.25).map(lambda e: 10.0 ** e)))
    # samples one radius from a zero along an axis: exactly at distance
    # radius when the zero and the radius are dyadic
    for z in zeros[:2]:
        for i in range(dim):
            for sign in (-1, 1):
                p = list(z)
                p[i] += sign * radius
                pts.append(tuple(p))
    return np.array(pts, dtype=float), np.array(zeros, dtype=float), radius


_RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


class TestTamenessKernels:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_samples_and_zeros())
    def test_slab_mask_equals_the_all_pairs_mask(self, case):
        pts, zeros, radius = case
        mask = _outside_balls(pts, zeros, radius)
        assert mask.dtype == bool
        assert np.array_equal(mask, _all_pairs_outside(pts, zeros, radius))

    def test_a_sample_exactly_at_radius_is_inside(self):
        pts = np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.5, 1.0]])
        mask = _outside_balls(pts, np.array([[0.5, 0.5]]), 0.25)
        assert mask.tolist() == [False, False, False, True]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.lists(
               st.tuples(*[_RATIONALS] * dim), min_size=1, max_size=12)),
           st.integers(1, 12))
    def test_integer_pair_distance_equals_the_fraction_minimum(self, positions, count):
        count = min(count, len(positions))
        assert _closest_pair2(positions, count) == \
            _fraction_closest_pair2(positions, count)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.tuples(_RATIONALS, _RATIONALS), st.lists(st.tuples(_RATIONALS, _RATIONALS),
                                                       max_size=3))
    def test_coincident_zeros_are_not_tame(self, zero, others):
        # a zero on a face is refused before any pair is measured
        q = torus_grid()
        assume(all(_interior(q, p) for p in (zero, *others)))
        model = _ZerosTorus(*others, zero, zero)
        report = check_tameness(model)
        assert report.verdict == "not tame"
        assert report.witnesses == ["coincident fixed points"]


def _fraction_cell(model, idx):
    """The affine cell of source top cell ``idx`` in Fractions, read off the
    complexes point by point: vertex ids, positions S_j and vertex vectors
    (T_j - S_j of a map, the projected vertex vectors of a PL field)."""
    src = model.source
    n = src.dimension
    s = src.simplex(n, idx)
    positions = src.realize(n, idx)
    if isinstance(model, PLFieldModel):
        vectors = [model.vertex_vectors[v] for v in s]
        if len(positions[0]) == n:
            return s, positions, vectors
        u, v = ([a - b for a, b in zip(p, positions[0])] for p in positions[1:])
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0])
        nn = sum(x * x for x in normal)
        return s, positions, [
            tuple(a - sum(x * y for x, y in zip(w, normal)) / nn * b for a, b in zip(w, normal))
            for w in vectors]
    vectors = []
    for v, p in zip(s, positions):
        shift = src.group.identity() if v == s[0] else src.edge_label(s[0], v)
        deck, w = model.vertex_images[v]
        move = model.complex.translation_vector(model.group.multiply(shift, deck))
        vectors.append(tuple(Fraction(c) + t - a
                             for c, t, a in zip(model.complex.coordinates[w], move, p)))
    return s, positions, vectors


def _fraction_chart_index(sign, positions, vectors):
    """The chart index of one affine piece, reduced in Fractions."""
    n = len(positions) - 1
    rows = [[p[i] - positions[0][i] for p in positions[1:]] + [w[i] for w in vectors]
            for i in range(len(positions[0]))]
    reduced, pivots, _ = geometry.eliminate(rows, n)
    if len(pivots) < n or any(any(row[n:]) for row in reduced[n:]):
        raise InternalError("a vertex vector of the host cell leaves its "
                            "plane at an interior zero")
    d_val = det([[sign * (reduced[i][n + j + 1] - reduced[i][n]) for j in range(n)]
                 for i in range(n)])
    if d_val == 0:
        raise InternalError("degenerate chart at a unique interior zero")
    return 1 if d_val > 0 else -1


def _fraction_zero(model, idx):
    """``[(position, index)]`` of the zero of the affine piece on source top
    cell ``idx``, from ``solve_linear`` on its Fraction cell, with the zero
    solve's refusals."""
    n = model.source.dimension
    _, zero, not_isolated = fixpoint._WORDING[model.index_matrix_sign]
    s, positions, vectors = _fraction_cell(model, idx)
    d = len(positions[0])
    status, lam = geometry.solve_linear(
        [[w[i] for w in vectors] for i in range(d)] + [[Fraction(1)] * (n + 1)],
        [Fraction(0)] * d + [Fraction(1)])
    if status == "none":
        return []
    if status == "infinite":
        raise TamenessError(not_isolated.format(s))
    if any(c < 0 for c in lam):
        return []
    if any(c == 0 for c in lam):
        raise InputError(f"{zero} lies on a simplex face: strong tameness is violated; "
                         f"perturb the vertex data to move it into a cell interior "
                         f"(subdividing keeps a point of a face on a face)")
    position = tuple(sum(l * p[i] for l, p in zip(lam, positions)) for i in range(d))
    resolve_record(model.complex, position)
    return [(position, _fraction_chart_index(model.index_matrix_sign, positions, vectors))]


def _outcome(f):
    """``f()``, or the type and message of the error it raises."""
    try:
        return f()
    except (InputError, InternalError, TamenessError) as e:
        return type(e), str(e)


def _reference_sample_norms(model, grid):
    """The affine-cell sampling grid evaluated in Fractions, point by point."""
    src = model.source
    n = src.dimension
    pts, norms = [], []
    per_cell = max(3, int(round(grid / max(1.0, src.count(n) ** 0.5))))
    for idx in src.cells(n):
        _, positions, vectors = _fraction_cell(model, idx)
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


def _octahedron_carriers(times):
    """The octahedron subdivided ``times`` times, with the octahedron cell
    (a vertex tuple) whose interior holds each of its vertices."""
    q = octahedron_sphere()
    carrier = {v: (v,) for v in q.cells(0)}
    for _ in range(times):
        sub = barycentric_subdivide(q, 1)
        carrier = {sub.cell_vertex[k][idx]: max((carrier[u] for u in s), key=len)
                   for k in range(3) for idx, s in enumerate(q.simplices[k])}
        q = sub.complex
    return q, carrier


@st.composite
def _octahedron_maps(draw):
    """A simplicial map from the octahedron subdivided 0-2 times: each
    vertex goes to a vertex of its carrier cell, then by a symmetry of the
    octahedron (vertex a + 3 s is the point -1^s e_a)."""
    times = draw(st.integers(0, 2))
    q, carrier = _octahedron_carriers(times)
    axes = draw(st.permutations(range(3)))
    flips = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    choice = draw(st.lists(st.integers(0, 2), min_size=q.count(0), max_size=q.count(0)))

    def symmetry(u):
        a, s = u % 3, u // 3
        return axes[a] + 3 * (s ^ flips[a])

    return SimplicialMapModel(octahedron_sphere(), times, {
        v: symmetry(carrier[v][choice[v] % len(carrier[v])]) for v in q.cells(0)})


@st.composite
def _octahedron_fields(draw):
    """A PL field with random small rational vertex vectors on the
    octahedron subdivided 0-2 times."""
    q, _ = _octahedron_carriers(draw(st.integers(0, 2)))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(entry, entry, entry),
                            min_size=q.count(0), max_size=q.count(0)))
    return PLFieldModel(q, dict(enumerate(vectors)), 100)


@st.composite
def _tetrahedron_fields(draw):
    """A PL field with random small rational vertex vectors on the solid
    3-simplex in R^3, subdivided 0-1 times: odd dimension, full-dimensional
    cells."""
    group = trivial_group()
    simplices = [list(itertools.combinations(range(4), k + 1)) for k in range(4)]
    q = QuotientComplex(group, ["o", "x", "y", "z"], simplices, {0: 1},
                        dict.fromkeys(range(6), group.identity()),
                        coordinates={v: tuple(Fraction(int(i == v - 1)) for i in range(3))
                                     for v in range(4)})
    if draw(st.booleans()):
        q = barycentric_subdivide(q).complex
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(entry, entry, entry),
                            min_size=q.count(0), max_size=q.count(0)))
    return PLFieldModel(q, dict(enumerate(vectors)), 100)


@st.composite
def _torus_maps(draw):
    """A Z^2 simplicial map of the 3x3 grid torus: a grid shift, each image
    lifted by its own small deck shift."""
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    decks = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                          min_size=9, max_size=9))
    return SimplicialMapModel(torus_grid(), 0, {
        3 * i + j: (decks[3 * i + j], 3 * ((i + a) % 3) + (j + b) % 3)
        for i in range(3) for j in range(3)})


AFFINE_FAMILIES = {"octahedron-maps": _octahedron_maps(),
                   "octahedron-fields": _octahedron_fields(),
                   "tetrahedron-fields": _tetrahedron_fields(),
                   "torus-maps": _torus_maps()}


class TestIntegerCells:
    """The affine cells over one integer denominator against the Fraction
    routine they replaced: the cells, the zeros, the chart indices and the
    sampled floats."""

    @pytest.mark.parametrize("family", list(AFFINE_FAMILIES))
    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_equal_to_the_fraction_routine(self, family, data):
        model = data.draw(AFFINE_FAMILIES[family])
        den, sign = model.den, model.index_matrix_sign
        for idx, (s, positions, vectors) in enumerate(model.cells):
            ref_s, ref_positions, ref_vectors = _fraction_cell(model, idx)
            assert s == ref_s
            assert [[Fraction(c, den) for c in p] for p in positions] == \
                [list(p) for p in ref_positions]
            assert [[Fraction(c, den) for c in w] for w in vectors] == \
                [list(w) for w in ref_vectors]
            assert _outcome(lambda: fixpoint._chart_index(sign, positions, vectors)) == \
                _outcome(lambda: _fraction_chart_index(sign, ref_positions, ref_vectors))
        # one cell at a time, so a refusal on one cell hides no other
        cells = model.cells
        for idx, cell in enumerate(cells):
            model.cells = [cell]
            assert _outcome(lambda: [(r.position, r.index) for r in model._solve_window(
                model.group.identity(), False)]) == _outcome(lambda: _fraction_zero(model, idx))
        model.cells = cells
        # a coarse grid: the solid 3-simplex would sample 4495 points at 32
        pts, norms = model.sample_norms(12)
        ref_pts, ref_norms = _reference_sample_norms(model, 12)
        assert pts.tobytes() == ref_pts.tobytes()
        assert norms.tobytes() == ref_norms.tobytes()


def _gram(vertices):
    edges = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    return det([[sum(a * b for a, b in zip(e, f)) for f in edges] for e in edges])


def _boundary_squared_distance(point, vertices):
    """The depth the host table's heights replaced: the Gram determinants of
    the simplex and of each facet, computed afresh for every point."""
    lam = barycentric_coordinates(point, vertices)
    gram = _gram(vertices)
    return min(l * l * gram / _gram(vertices[:i] + vertices[i + 1:])
               for i, l in enumerate(lam))


@st.composite
def _boxes_and_points(draw):
    """Integer box corners over a denominator and a rational point, each
    coordinate free or on a translate of a box face."""
    den = draw(st.integers(1, 12))
    lo, hi, point = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.integers(-40, 40))
        high = low + draw(st.integers(0, 30))
        face = draw(st.sampled_from([None, low, high]))
        if face is None:
            p = Fraction(draw(st.integers(-300, 300)), draw(st.integers(1, 12)))
        else:
            p = Fraction(face, den) + draw(st.integers(-5, 5))
        lo.append(low)
        hi.append(high)
        point.append(p)
    return den, lo, hi, point


@st.composite
def _simplices_and_points(draw):
    """A nondegenerate simplex of dimension 1-3 in R^n, n up to 3, and a
    point inside it from positive integer weights."""
    ambient = draw(st.integers(1, 3))
    k = draw(st.integers(1, ambient))
    coordinate = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
    vertices = draw(st.lists(st.tuples(*[coordinate] * ambient),
                             min_size=k + 1, max_size=k + 1))
    assume(_gram(vertices) != 0)
    weights = draw(st.lists(st.integers(1, 9), min_size=k + 1, max_size=k + 1))
    point = tuple(sum(w * v[i] for w, v in zip(weights, vertices)) / sum(weights)
                  for i in range(ambient))
    return vertices, point


class TestHostCellsAndGrids:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_boxes_and_points())
    def test_integer_translates_equal_the_fraction_ranges(self, case):
        den, lo, hi, point = case
        big_b = math.lcm(*(p.denominator for p in point))
        nums = [p.numerator * (big_b // p.denominator) for p in point]
        assert _translate_ranges(nums, big_b, den, lo, hi) == [
            range(math.ceil(p - Fraction(h, den)), math.floor(p - Fraction(l, den)) + 1)
            for p, l, h in zip(point, lo, hi)]

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(_simplices_and_points())
    def test_heights_give_the_gram_depth(self, case):
        vertices, point = case
        lam = barycentric_coordinates(point, vertices)
        assert min(l * l * h2 for l, h2 in zip(lam, simplex_heights2(vertices))) == \
            _boundary_squared_distance(point, vertices)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.tuples(*[st.builds(Fraction, st.integers(-150, 150), st.integers(1, 30))] * 2))
    def test_isolation_is_the_depth_in_the_host_cell(self, point):
        # through the table of a torus cover: candidate translates from the
        # integer boxes, integer barycentrics, heights read per cell
        q = torus_grid()
        if not _interior(q, point):
            with pytest.raises(InputError, match="lies on a simplex face"):
                resolve_record(q, point)
            return
        record = resolve_record(q, point)
        g, idx = record.host
        assert record.isolation == sqrt_lower_bound(
            _boundary_squared_distance(point, q.realize(2, idx, g)))

    @pytest.mark.parametrize("centred", [False, True])
    @pytest.mark.parametrize("per_axis", [1, 32, 33])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_points_equal_the_product_form(self, dim, per_axis, centred):
        axis = np.linspace(0.0, 1.0, per_axis, endpoint=False)
        if centred:
            axis = axis + 0.5 / per_axis
        reference = np.array(list(itertools.product(*[axis] * dim)))
        grid = _grid_points(per_axis, dim, centred)
        assert grid.shape == reference.shape
        assert grid.tobytes() == reference.tobytes()

    def test_field_analysis_work_is_once_per_program_and_per_cell(self, monkeypatch,
                                                                   tmp_path):
        # sin-field-override compiles 8 programs, each once: per component
        # set the float components, the float Jacobian, the exact components
        # and the 60-bit index determinant.  It resolves 12 interior zeros
        # on 7 distinct top cells, and the n + 2 = 4 Gram determinants of a
        # cell's heights run once per cell, not once per zero
        compiled = collections.Counter()
        compile_ = exprs._compile

        def counted_compile(expressions, arithmetic):
            compiled[tuple(expressions), repr(arithmetic["pi"])] += 1
            return compile_(expressions, arithmetic)

        grams = []
        gram_det = geometry._gram_det

        def counted_gram(vertices):
            grams.append(len(vertices))
            return gram_det(vertices)

        hosted = []
        heights2 = _HostTable.heights2

        def counted_heights(table, idx):
            hosted.append(idx)
            return heights2(table, idx)

        monkeypatch.setattr(exprs, "_compile", counted_compile)
        monkeypatch.setattr(geometry, "_gram_det", counted_gram)
        monkeypatch.setattr(_HostTable, "heights2", counted_heights)
        assert main(["field-analyze", "fixture:sin-field-override",
                     "--out", str(tmp_path)]) == 0
        assert sorted(compiled.values()) == [1] * 8
        assert len(hosted) == 12 and len(set(hosted)) == 7
        assert len(grams) == 4 * 7


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
        from deckindex.complexes import QuotientComplex, barycentric_subdivide
        from deckindex.fixpoint import AnalyticModel
        sub = barycentric_subdivide(torus_grid(), 1).complex
        finer = AnalyticModel(sub, ["sin(2*pi*x)/5", "sin(2*pi*y)/5"],
                              Fraction(2, 5))
        assert lefschetz_class(finer) == lefschetz_class(sin_model)

    def test_subdivided_analytic_model_keeps_its_expressions(self, sin_model):
        finer = sin_model.subdivided(1)
        assert finer.base is sin_model.base
        assert finer.complex.count(2) == 6 * sin_model.complex.count(2)
        assert lefschetz_class(finer) == lefschetz_class(sin_model)

    def test_pl_field_refuses_subdivision(self):
        field = field_model_from_document(fixture_document("octahedron-polar-field"))
        with pytest.raises(InputError, match="unsupported for this model"):
            field.subdivided(1)

    def test_scaled_sin_class_stable_under_subdivision(self):
        from deckindex.complexes import QuotientComplex, barycentric_subdivide
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
        assert lefschetz_number_quotient(model.complex, model) == 0


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
        assert lefschetz_number_quotient(model.complex, model) == 0


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
