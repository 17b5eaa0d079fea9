import hashlib
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cover_reference import fraction_cell
from deckindex import complexes, groups
from deckindex.complexes import (
    FundamentalDomain,
    PeriodicComplex,
    QuotientComplex,
    barycentric_subdivide,
    euler_characteristic,
    orient_pseudomanifold,
    validate_quotient,
)
from deckindex.errors import InputError, OrientationError, ResourceError
from deckindex.fixtures import (
    FIXTURE_BUILDERS,
    csaszar_torus,
    fixture_complex,
    genus2_surface,
    klein_grid,
    octahedron_sphere,
    tetrahedron_sphere,
    torus_grid,
)
from deckindex.groups import trivial_group
from deckindex.reports import canonical_json, fraction_str


def _digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _chain_map_document(chain_map):
    return [{str(k): [[i, c] for i, c in terms] for k, terms in sorted(table.items())}
            for table in chain_map]


def _simplex_boundary(n: int) -> QuotientComplex:
    """The boundary of the (n+1)-simplex, an n-sphere over the trivial deck."""
    group = trivial_group()
    simplices = [list(itertools.combinations(range(n + 2), k + 1)) for k in range(n + 1)]
    q = QuotientComplex(group, [f"p{i}" for i in range(n + 2)], simplices, {},
                        {e: group.identity() for e in range(len(simplices[1]))})
    q.orientation = orient_pseudomanifold(q)
    return q


def circle() -> QuotientComplex:
    return _simplex_boundary(1)


def three_sphere() -> QuotientComplex:
    return _simplex_boundary(3)


TORUS = torus_grid()
TETRA = tetrahedron_sphere()
OCTA = octahedron_sphere()
GENUS2 = genus2_surface()


class TestValidation:
    def test_tetrahedron_valid(self):
        assert validate_quotient(TETRA).valid

    def test_all_oriented_fixtures_valid(self):
        for q in (TETRA, OCTA, TORUS, csaszar_torus(), GENUS2):
            report = validate_quotient(q)
            assert report.valid, report.violations

    def test_sign_flip_breaks_three_adjacencies(self):
        q = tetrahedron_sphere()
        q.orientation[0] = -q.orientation[0]
        report = validate_quotient(q)
        bad = [v for v in report.violations if v["kind"] == "orientation coherence"]
        assert len(bad) == 3

    # one defect each in the genus-2 document; the full violation list
    # (kinds, details and order) was taken from the tuple-keyed validator
    @staticmethod
    def _add_third_top(d):
        d["vertices"].append("x")
        d["simplices"]["0"].append(["x"])
        d["simplices"]["1"] += [["cell0", "x"], ["cell19", "x"]]
        d["simplices"]["2"].append(["cell0", "cell19", "x"])
        d["labels"].update({"cell0|x": "", "cell19|x": ""})
        d["tree"].append("cell0|x")
        d["orientation"]["cell0|cell19|x"] = 1

    MUTATIONS = {
        "missing-face": (
            lambda d: d["simplices"]["1"].remove(["cell0", "cell19"]),
            [("simplicial-complex condition", "face (0, 1) of (0, 1, 17) is missing"),
             ("simplicial-complex condition", "face (0, 1) of (0, 1, 18) is missing"),
             ("tree condition", "tree edge count is not |V| - 1"),
             ("tree condition", "tree does not span the vertex set")]),
        "missing-label": (
            lambda d: d["labels"].pop("cell25|m_a"),
            [("label condition", "edge (3, 41) has no label")]),
        "tree-label": (
            lambda d: d["labels"].update({"cell0|cell19": "a1"}),
            [("tree condition", "tree edge (0, 1) has a non-identity label"),
             ("cocycle condition", "labels around 2-simplex (0, 1, 17) do not compose"),
             ("cocycle condition", "labels around 2-simplex (0, 1, 18) do not compose")]),
        "broken-cocycle": (
            lambda d: d["labels"].update({"cell25|m_a": "a1 b1"}),
            [("cocycle condition", "labels around 2-simplex (3, 21, 41) do not compose"),
             ("cocycle condition", "labels around 2-simplex (3, 22, 41) do not compose")]),
        "missing-sign": (
            lambda d: d["orientation"].pop("cell0|cell19|cell49"),
            [("orientation data", "top simplex (0, 1, 17) has no +1/-1 orientation sign"),
             ("pseudomanifold condition", "face (0, 1) lies in 1 top simplices (expected 2)"),
             ("pseudomanifold condition", "face (0, 17) lies in 1 top simplices (expected 2)"),
             ("pseudomanifold condition", "face (1, 17) lies in 1 top simplices (expected 2)")]),
        "three-tops": (
            lambda d: TestValidation._add_third_top(d),
            [("pseudomanifold condition", "face (0, 1) lies in 3 top simplices (expected 2)"),
             ("pseudomanifold condition", "face (0, 46) lies in 1 top simplices (expected 2)"),
             ("pseudomanifold condition", "face (1, 46) lies in 1 top simplices (expected 2)")]),
        "incoherent": (
            lambda d: d["orientation"].update({"cell0|cell19|cell49": -1}),
            [("orientation coherence", "induced orientations on face (0, 1) agree "
                                       "instead of being opposite"),
             ("orientation coherence", "induced orientations on face (0, 17) agree "
                                       "instead of being opposite"),
             ("orientation coherence", "induced orientations on face (1, 17) agree "
                                       "instead of being opposite")]),
    }

    @pytest.mark.parametrize("defect", list(MUTATIONS))
    def test_violations_pinned(self, defect):
        mutate, expected = self.MUTATIONS[defect]
        doc = GENUS2.to_document()
        assert doc["orientation"]["cell0|cell19|cell49"] == 1
        mutate(doc)
        report = validate_quotient(QuotientComplex.from_document(doc))
        assert [(v["kind"], v["detail"]) for v in report.violations] == expected

    # a simplex listed twice is refused by the constructor, so every
    # simplex has one id
    DUPLICATES = {
        "duplicate-edge": ("genus2", 1, ["cell0", "cell19"],
                           "simplex (0, 1) is listed twice in dimension 1"),
        "duplicate-top": ("octahedron", 2, ["px", "py", "pz"],
                          "simplex (0, 1, 2) is listed twice in dimension 2"),
    }

    @pytest.mark.parametrize("defect", list(DUPLICATES))
    def test_duplicate_simplex_is_refused(self, defect):
        name, k, row, message = self.DUPLICATES[defect]
        doc = fixture_complex(name).to_document()
        assert row in doc["simplices"][str(k)]
        doc["simplices"][str(k)].append(row)
        with pytest.raises(InputError, match=re.escape(message)):
            QuotientComplex.from_document(doc)

    def test_klein_orientation_incoherent(self):
        report = validate_quotient(klein_grid())
        assert "orientation coherence" in report.kinds()

    def test_klein_has_no_orientation_exhaustive(self):
        q = klein_grid()
        with pytest.raises(OrientationError):
            orient_pseudomanifold(q)
        # independent oracle: exhaust all 2^F sign assignments by
        # depth-first search with incremental constraint pruning (visits
        # exactly the satisfiable prefixes, so an empty result set is the
        # full exhaustion) and confirm none is coherent
        n = q.dimension
        tris = list(q.cells(n))
        incidence = {}
        for t in tris:
            for fidx, fsign, _ in q.face_data(n, t):
                incidence.setdefault(fidx, []).append((t, fsign))
        pairs = [inc for inc in incidence.values() if len(inc) == 2]

        def consistent(signs):
            for (t1, s1), (t2, s2) in pairs:
                if t1 in signs and t2 in signs:
                    if signs[t1] * s1 + signs[t2] * s2 != 0:
                        return False
            return True

        solutions = 0
        stack = [{}]
        while stack:
            signs = stack.pop()
            if len(signs) == len(tris):
                solutions += 1
                continue
            t = tris[len(signs)]
            for s in (1, -1):
                cand = dict(signs)
                cand[t] = s
                if consistent(cand):
                    stack.append(cand)
        assert solutions == 0
        # sanity: the same oracle finds both orientations of the torus
        torus = torus_grid()
        tris = list(torus.cells(2))
        incidence = {}
        for t in tris:
            for fidx, fsign, _ in torus.face_data(2, t):
                incidence.setdefault(fidx, []).append((t, fsign))
        pairs = [inc for inc in incidence.values() if len(inc) == 2]
        stack, solutions = [{}], 0
        while stack:
            signs = stack.pop()
            if len(signs) == len(tris):
                solutions += 1
                continue
            t = tris[len(signs)]
            for s in (1, -1):
                cand = dict(signs)
                cand[t] = s
                if consistent(cand):
                    stack.append(cand)
        assert solutions == 2

    def test_missing_face_detected(self):
        q = tetrahedron_sphere()
        doc = q.to_document()
        doc["simplices"]["1"] = doc["simplices"]["1"][1:]
        broken = QuotientComplex.from_document(doc)
        report = validate_quotient(broken)
        assert "simplicial-complex condition" in report.kinds()

    def test_cocycle_violation_detected(self):
        q = torus_grid()
        eidx = max(i for i in q.cells(1) if i not in q.tree)
        q.labels[eidx] = q.group.multiply(q.labels[eidx], (1, 0))
        report = validate_quotient(q)
        assert "cocycle condition" in report.kinds()


def _full_simplex(n: int) -> QuotientComplex:
    """The n-simplex with all its faces over the trivial deck."""
    group = trivial_group()
    simplices = [list(itertools.combinations(range(n + 1), k + 1)) for k in range(n + 1)]
    return QuotientComplex(group, [f"p{i}" for i in range(n + 1)], simplices, {0: 1},
                           {e: group.identity() for e in range(len(simplices[1]))})


def _subdivided(builder, times):
    return lambda: barycentric_subdivide(builder(), times).complex if times else builder()


# every fixture at subdivision 0-3, the full 3- and 4-simplex at 0-2
FACE_TABLE_COMPLEXES = {
    name + ("", "^sd", "^sd2", "^sd3")[times]: _subdivided(builder, times)
    for name, builder, most in [*((name, builder, 3) for name, builder in FIXTURE_BUILDERS.items()),
                                ("simplex3", lambda: _full_simplex(3), 2),
                                ("simplex4", lambda: _full_simplex(4), 2)]
    for times in range(most + 1)}


def _assert_face_table(q):
    """``facets``, ``cofacets`` and ``face_data`` of ``q`` against the
    tuple enumeration, and ``facets`` against the search of the rows."""
    ident = q.group.identity()
    for k in range(1, q.dimension + 1):
        facets, cofacets = [], [[] for _ in q.cells(k - 1)]
        index = q._index[k - 1]
        for idx, s in enumerate(q.simplices[k]):
            # combinations() omit positions k, ..., 0 in turn
            row = [index[f] for f in itertools.combinations(s, k)][::-1]
            facets.append(row)
            for j, f in enumerate(row):
                cofacets[f].append((idx, j))
            edge_shift = q.labels[q.index_of(1, s[:2])]
            assert q.face_data(k, idx) == [
                (f, (-1) ** j, edge_shift if j == 0 else ident) for j, f in enumerate(row)]
        assert q.facets[k].tolist() == facets
        assert complexes._face_ids(q, k).tolist() == facets
        assert q.cofacets[k - 1] == cofacets
    assert q.cofacets[q.dimension] == [[] for _ in q.cells(q.dimension)]


@st.composite
def _pure_2_complexes(draw):
    """A pure 2-complex on at most 6 vertices over the trivial deck, every
    face of its triangles present, each triangle signed +1."""
    triangles = draw(st.lists(st.sampled_from(list(itertools.combinations(range(6), 3))),
                              min_size=1, max_size=10, unique=True))
    used = sorted(set(itertools.chain(*triangles)))
    rename = {v: i for i, v in enumerate(used)}
    triangles = sorted(tuple(rename[v] for v in t) for t in triangles)
    edges = sorted({e for t in triangles for e in itertools.combinations(t, 2)})
    group = trivial_group()
    return QuotientComplex(group, [f"p{v}" for v in used], [[(v,) for v in range(len(used))],
                                                            edges, triangles],
                           dict.fromkeys(range(len(triangles)), 1),
                           dict.fromkeys(range(len(edges)), group.identity()))


class TestFaceTable:
    @pytest.mark.parametrize("name", list(FACE_TABLE_COMPLEXES))
    def test_matches_tuple_enumeration(self, name):
        _assert_face_table(FACE_TABLE_COMPLEXES[name]())

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(_pure_2_complexes(), st.integers(1, 2))
    def test_subdivided_pure_complex_matches_tuple_enumeration(self, q, times):
        _assert_face_table(barycentric_subdivide(q, times).complex)

    @pytest.mark.parametrize("name", list(FIXTURE_BUILDERS))
    def test_missing_edge_is_named(self, name):
        edges = FIXTURE_BUILDERS[name]().to_document()["simplices"]["1"]
        for i in sorted({0, len(edges) // 2, len(edges) - 1}):
            doc = FIXTURE_BUILDERS[name]().to_document()
            u, v = doc["simplices"]["1"].pop(i)
            broken = QuotientComplex.from_document(doc)
            missing = (broken.vertices.index(u), broken.vertices.index(v))
            message = re.escape(f"simplex {missing} of dimension 1 is not present")
            top = next(t for t, s in enumerate(broken.simplices[2]) if set(missing) <= set(s))
            with pytest.raises(InputError, match=message):
                broken.face_data(2, top)
            with pytest.raises(InputError, match=message):
                orient_pseudomanifold(broken)
            with pytest.raises(InputError, match=re.escape(f"face {missing} of ")):
                PeriodicComplex(broken)
            # the domain's own refusal, past the validation PeriodicComplex runs
            pc = object.__new__(PeriodicComplex)
            pc.quotient, pc.group = broken, broken.group
            with pytest.raises(InputError, match=message):
                FundamentalDomain(pc)

    def test_computed_once(self, monkeypatch):
        calls = []
        face_ids = complexes._face_ids

        def counting(q, k):
            calls.append(k)
            return face_ids(q, k)

        monkeypatch.setattr(complexes, "_face_ids", counting)
        q = torus_grid()
        assert validate_quotient(q).valid and validate_quotient(q).valid
        orient_pseudomanifold(q)
        PeriodicComplex(q).fundamental_domain()
        barycentric_subdivide(q)
        assert sorted(calls) == list(range(1, q.dimension + 1))

    def test_genus2_fixture_builds_its_table_once(self, monkeypatch):
        # the fixture orients the gauged complex, whose face table validation
        # then reads; the subdivided fan disk hands its own table over
        calls = []
        face_ids = complexes._face_ids

        def counting(q, k):
            calls.append((k, q.count(k)))
            return face_ids(q, k)

        monkeypatch.setattr(complexes, "_face_ids", counting)
        assert validate_quotient(genus2_surface()).valid
        assert calls.count((1, 144)) == 1 and calls.count((2, 96)) == 1

    def test_genus2_gauge_multiplies_by_tokens(self, monkeypatch):
        # the gauge appends one token at a time, so the full word rewrite
        # runs only where an append needs it (557 times with full products);
        # the labels it gives are pinned by the subdivision digests
        calls = []
        canonical = groups.SurfaceGroup._canonical
        monkeypatch.setattr(groups.SurfaceGroup, "_canonical",
                            lambda group, tokens: calls.append(tokens) or canonical(group, tokens))
        q = genus2_surface()
        assert len(calls) == 81
        assert all(q.labels[e] == q.group.identity() for e in q.tree)

    def test_subdivision_searches_no_table_and_builds_no_name(self, monkeypatch):
        # as in "validate fixture:genus2 --subdivide 3": only the genus-2
        # document's complex searches its rows; the three subdivisions hand
        # their tables over and build no vertex name
        calls = []
        face_ids = complexes._face_ids

        def counting(q, k):
            calls.append((k, q.count(k)))
            return face_ids(q, k)

        def no_names(names):
            raise AssertionError("a vertex name was built")

        q = QuotientComplex.from_document(GENUS2.to_document())
        monkeypatch.setattr(complexes, "_face_ids", counting)
        monkeypatch.setattr(complexes._BarycenterNames, "_names", property(no_names))
        sub = barycentric_subdivide(q, 3).complex
        assert validate_quotient(sub).valid
        assert type(sub.vertices) is complexes._BarycenterNames
        assert len(sub.vertices) == sub.count(0) == 10366
        assert sorted(calls) == [(1, 144), (2, 96)]

    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_names_on_read_equal_the_eager_names(self, times):
        # an old vertex keeps its name and the barycenter of an old cell on
        # a, b, c is "(a+b+c)", level by level
        q = octahedron_sphere()
        names = list(q.vertices)
        for _ in range(times):
            names = [names[v] for (v,) in q.simplices[0]] + \
                ["(" + "+".join(names[v] for v in s) + ")" for dim in q.simplices[1:] for s in dim]
            q = barycentric_subdivide(q).complex
        doc = barycentric_subdivide(octahedron_sphere(), times).complex.to_document()
        assert doc["vertices"] == names
        assert "(px+py)" in names and (times < 2 or "(px+(px+py))" in names)

    @pytest.mark.parametrize("times", [1, 2])
    def test_vertices_listed_out_of_order_keep_their_names(self, times):
        # new vertex i is the barycenter of old 0-cell i, so a document that
        # lists its 0-simplices out of vertex order names each subdivision
        # vertex after its 0-cell, at the coordinates of that vertex
        ordered = octahedron_sphere().to_document()
        shuffled = octahedron_sphere().to_document()
        shuffled["simplices"]["0"] = shuffled["simplices"]["0"][::-1]
        docs = [barycentric_subdivide(QuotientComplex.from_document(d), times)
                .complex.to_document() for d in (ordered, shuffled)]
        named = [dict(zip(d["vertices"], map(tuple, map(d["coordinates"].get, d["vertices"]))))
                 for d in docs]
        assert named[0] == named[1]
        assert named[1]["px"] == tuple(ordered["coordinates"]["px"])
        assert [sorted(map(tuple, d["simplices"]["2"])) for d in docs] == \
            [sorted(map(tuple, docs[0]["simplices"]["2"]))] * 2


class TestEulerCharacteristic:
    def test_sphere(self):
        assert euler_characteristic(TETRA) == 2
        assert euler_characteristic(OCTA) == 2

    def test_csaszar_torus(self):
        q = csaszar_torus()
        assert (q.count(0), q.count(1), q.count(2)) == (7, 21, 14)
        assert euler_characteristic(q) == 0

    def test_grid_torus(self):
        assert euler_characteristic(TORUS) == 0

    def test_genus2(self):
        assert (GENUS2.count(0), GENUS2.count(1), GENUS2.count(2)) == (46, 144, 96)
        assert euler_characteristic(GENUS2) == -2


class TestExpansion:
    def test_adjacency_consistency(self):
        # the neighbor of (g, s) across a face t is (g * label, s') and the
        # relation is symmetric
        pc = PeriodicComplex(torus_grid())
        q = pc.quotient
        g = (1, -1)
        for top in q.cells(2):
            for fidx, _, _ in q.face_data(2, top):
                deck, other = pc.neighbor_across(g, top, fidx)
                back_deck, back = pc.neighbor_across(deck, other, fidx)
                assert back == top and back_deck == g


class TestFundamentalDomain:
    @pytest.mark.parametrize("builder", [torus_grid, tetrahedron_sphere, genus2_surface])
    def test_one_lift_per_simplex(self, builder):
        pc = PeriodicComplex(builder())
        fd = pc.fundamental_domain()
        q = pc.quotient
        for k in range(q.dimension + 1):
            assert len(fd.deck[k]) == q.count(k)
        assert fd.deck[q.dimension][0] == pc.group.identity()

    def test_partition_torus_radius_two(self):
        pc = PeriodicComplex(torus_grid())
        fd = pc.fundamental_domain()
        q = pc.quotient
        # every cover cell over ball(2) lies in exactly one translate: the
        # coset map is well defined and reproduces the cell
        for k in range(q.dimension + 1):
            for g, idx in itertools.product(pc.group.ball(2), q.cells(k)):
                h = fd.coset_of_cell(g, k, idx)
                assert pc.group.multiply(h, fd.deck[k][idx]) == g

    def test_lower_lift_inside_chosen_top_closure(self):
        pc = PeriodicComplex(torus_grid())
        fd = pc.fundamental_domain()
        q = pc.quotient
        n = q.dimension
        for k in range(n):
            for idx in q.cells(k):
                ok = False
                tops = [t for t, s in enumerate(q.simplices[n])
                        if set(q.simplex(k, idx)) <= set(s)]
                assert tops
                for top in tops:
                    shift = q.shift(q.simplex(n, top), q.simplex(k, idx))
                    if pc.group.multiply(fd.deck[n][top], shift) == fd.deck[k][idx]:
                        ok = True
                assert ok

    def test_finite_cover_translates_enumerate_all_cells(self):
        pc = PeriodicComplex(tetrahedron_sphere())
        fd = pc.fundamental_domain()
        q = pc.quotient
        cover_cells = {(g, k, idx) for g in pc.group.elements()
                       for k in range(q.dimension + 1) for idx in q.cells(k)}
        tiled = {(pc.group.multiply(h, fd.deck[k][idx]), k, idx)
                 for h in pc.group.elements()
                 for k in range(q.dimension + 1) for idx in q.cells(k)}
        assert tiled == cover_cells


class TestSubdivision:
    @pytest.mark.parametrize("k", [1, 2])
    def test_missing_face_is_refused(self, k):
        # lower faces are read down the face table, so a missing facet is
        # refused before any is composed
        q = _full_simplex(3)
        rows = [list(dim) for dim in q.simplices]
        rows[k].pop(0)
        broken = QuotientComplex(q.group, q.vertices, rows, {0: 1},
                                 dict.fromkeys(range(len(rows[1])), q.group.identity()))
        with pytest.raises(InputError, match="subdivision needs a complex with every face present"):
            barycentric_subdivide(broken)

    @pytest.mark.parametrize("store", ["labels", "orientation"])
    def test_missing_label_or_sign_is_refused(self, store):
        # an id of -1 would otherwise read as the first or last table entry
        q = genus2_surface()
        del getattr(q, store)[3]
        with pytest.raises(InputError, match="every edge labelled and every top simplex signed"):
            barycentric_subdivide(q)

    def test_tetrahedron_counts(self):
        sub = barycentric_subdivide(TETRA)
        q = sub.complex
        assert (q.count(0), q.count(1), q.count(2)) == (14, 36, 24)
        assert euler_characteristic(q) == 2

    @pytest.mark.parametrize("builder", [tetrahedron_sphere, torus_grid, genus2_surface,
                                         three_sphere])
    def test_chi_preserved_and_valid(self, builder):
        q = builder()
        sub = barycentric_subdivide(q)
        assert euler_characteristic(sub.complex) == euler_characteristic(q)
        report = validate_quotient(sub.complex)
        assert report.valid, report.violations[:5]

    def test_chain_map_commutes_with_boundary(self):
        # subdivision is a chain map: boundary(sd(s)) = sd(boundary(s)), in
        # dimensions 1, 2 and 3 and for a composed map as well; a k-cell
        # goes to its (k+1)! full flags per subdivision, each with sign +-1
        for q, times in itertools.product([circle(), TORUS, three_sphere()], (1, 2)):
            sub = barycentric_subdivide(q, times)
            new = sub.complex
            for k in range(q.dimension + 1):
                for idx in q.cells(k):
                    terms = sub.chain_map[k][idx]
                    assert len(terms) == math.factorial(k + 1) ** times
                    assert {c for _, c in terms} <= {1, -1}
                    if k == 0:
                        continue
                    lhs = {}
                    for new_idx, c in sub.chain_map[k][idx]:
                        for fidx, fsign, _ in new.face_data(k, new_idx):
                            lhs[fidx] = lhs.get(fidx, 0) + c * fsign
                    rhs = {}
                    for fidx, fsign, _ in q.face_data(k, idx):
                        for new_idx, c in sub.chain_map[k - 1][fidx]:
                            rhs[new_idx] = rhs.get(new_idx, 0) + c * fsign
                    lhs = {i: c for i, c in lhs.items() if c}
                    rhs = {i: c for i, c in rhs.items() if c}
                    assert lhs == rhs, (q.dimension, times, k, idx)

    def test_size_guard(self):
        with pytest.raises(ResourceError):
            barycentric_subdivide(TETRA, times=4)

    # sha256 of canonical JSON, pinned before label inverses and cocycle
    # products were computed once per distinct label: the subdivided
    # genus-2 document, and the octahedron's composed chain map at times=2
    GENUS2_SD3 = "5c4fcf9c3c5d49869cf38703873d0804c6241dde09fa217dd3b3f73ffc6ab5de"
    OCTA_SD2_CHAIN_MAP = "3ed7a2f6769245fd9ff1604c2a3dcf72908d70b0552ef0e325d09906927ef64d"

    def test_output_pinned(self):
        doc = barycentric_subdivide(fixture_complex("genus2"), 3).complex.to_document()
        assert _digest(doc) == self.GENUS2_SD3
        chain_map = barycentric_subdivide(fixture_complex("octahedron"), 2).chain_map
        assert _digest(_chain_map_document(chain_map)) == self.OCTA_SD2_CHAIN_MAP

    # (document, composed chain map) digests at times=2, pinned before the
    # subdivision moved to integer arrays; the torus and the octahedron
    # documents carry their coordinates
    SD2_DIGESTS = {
        "torus": ("79e21e904e5ca2fc1d9a8ae6fe15521239bdb8270593b69c547a6eab2e257d15",
                  "d135324368373bebf79ba3bac5645ecf36fecf82a0e9e1664404798dff5054e0"),
        "three-sphere": ("c109cafcd0f1865d93eb03bf11ad1cfa9fe5ebe122f607d824f6dd5afd2f1a5b",
                         "9e687d96ee77f883d57c32ef4f946f1be04f85d92fa6157518e76ec7f18e7dce"),
        "octahedron": ("39e2f3dbd0f2fec389dc544a893d2d5f98c4dcad2e5aa62ac2fc733ecf5b4fd7",
                       "3ed7a2f6769245fd9ff1604c2a3dcf72908d70b0552ef0e325d09906927ef64d"),
    }

    @pytest.mark.parametrize("name", sorted(SD2_DIGESTS))
    def test_twice_subdivided_output_pinned(self, name):
        q = three_sphere() if name == "three-sphere" else fixture_complex(name)
        sub = barycentric_subdivide(q, 2)
        doc = sub.complex.to_document()
        assert ("coordinates" in doc) == (name != "three-sphere")
        assert (_digest(doc), _digest(_chain_map_document(sub.chain_map))) == \
            self.SD2_DIGESTS[name]

    # sha256 of every table a subdivision keeps (rows, face table, label and
    # sign ids and tables, coordinates, cell_vertex) and of its chain map,
    # pinned before the chain maps were built on first read
    TABLE_DIGESTS = {
        ("genus2", 1): "3613b9e1812d4af13f8de4e53078ecd6310806b413c36b8e78b1d3f6d231c4c4",
        ("genus2", 2): "c6b8f1030cbfdc90a8461b2279b02a5753c70540f4be6daa2e89d4471cfaa5cc",
        ("genus2", 3): "12f37b2ce82fdf89ea067ad438a00cf1173dc4dbdd5eeff3b92eb3b8174fa5b8",
        ("octahedron", 1): "eebe52bb5ef932caa32e7b7c5ac8fa0d6d2a28f2fe0b0b420d0a09cf6ce061aa",
        ("octahedron", 2): "0d56277abd3c2ed2196a8c8e6e431798772a8b10750d8f40858ae719d753f5be",
        ("torus", 1): "8ee7912249373ec27dd8288cedbb6192aeb07a7dd00d7d6338f4c9c94b46b84e",
        ("torus", 2): "7ce16c020eaf8e5aefb025661965c679bf783e8ff0a951503aedfe8e1294c498",
    }

    @pytest.mark.parametrize("name, times", sorted(TABLE_DIGESTS))
    def test_tables_pinned(self, name, times):
        sub = barycentric_subdivide(fixture_complex(name), times)
        q = sub.complex
        coordinates = None if q.coordinates is None else {
            str(v): [fraction_str(c) for c in cs] for v, cs in sorted(q.coordinates.items())}
        doc = {
            "rows": [rows.tolist() for rows in q._rows],
            "facets": [f.tolist() for f in q.facets],
            "labels": [q.labels.ids.tolist(), list(map(q.group.format_element, q.labels.table))],
            "signs": [q.orientation.ids.tolist(), list(q.orientation.table)],
            "coordinates": coordinates,
            "cell_vertex": sub.cell_vertex,
            "chain_map": _chain_map_document(sub.chain_map),
        }
        assert _digest(doc) == self.TABLE_DIGESTS[name, times]

    def test_corrupted_label_breaks_cocycle_after_subdivision(self):
        q = barycentric_subdivide(GENUS2, 2).complex
        assert validate_quotient(q).valid
        # an edge whose label is a generator; labels repeat across the
        # complex, so the product of each label pair is shared work
        eidx = next(i for i, lbl in sorted(q.labels.items()) if len(lbl) == 1)
        q.labels[eidx] = q.group.multiply(q.labels[eidx], q.labels[eidx])
        edge = q.simplex(1, eidx)
        report = validate_quotient(q)
        assert report.kinds() == {"cocycle condition"}
        broken = [v["detail"] for v in report.violations]
        assert broken == [f"labels around 2-simplex {s} do not compose"
                          for s in q.simplices[2] if set(edge) <= set(s)]

    def test_coordinates_transported(self):
        sub = barycentric_subdivide(TORUS)
        q = sub.complex
        assert q.coordinates is not None
        # barycenter of a top cell is the average of its realized vertices
        pts = fraction_cell(q, 0, q.count(0) - 1)
        top = fraction_cell(TORUS, 2, TORUS.count(2) - 1)
        assert pts == [tuple(sum(c) / 3 for c in zip(*top))]


class TestLattice:
    """The integer realization of a cover against the Fraction reference."""

    @pytest.mark.parametrize("times", [0, 1, 2])
    @pytest.mark.parametrize("name", ["octahedron", "tetrahedron", "torus"])
    def test_lift_over_den_is_the_fraction_cell(self, name, times):
        # every cell of every dimension, at every deck element of ball(1)
        q = fixture_complex(name)
        if times:
            q = barycentric_subdivide(q, times).complex
        den = q.lattice[0]
        assert den == math.lcm(*(Fraction(c).denominator
                                 for row in q.coordinates.values() for c in row))
        for g in q.group.ball(1):
            for k in range(q.dimension + 1):
                for idx in q.cells(k):
                    assert [tuple(Fraction(c, den) for c in row)
                            for row in q.lift(k, idx, g)] == fraction_cell(q, k, idx, g)

    def test_a_complex_without_a_euclidean_model_is_refused(self):
        with pytest.raises(InputError, match="carries no coordinates"):
            GENUS2.lift(2, 0)
        q = genus2_surface()
        q.coordinates = {v: (0, 0) for v in q.cells(0)}
        with pytest.raises(InputError, match="no Euclidean model for this deck group"):
            q.lift(2, 0)


class TestCellTables:
    """Labels and signs are one id per cell into a table of distinct values;
    the cocycle check compares label ids, which needs each label once."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
    def test_each_value_once_at_every_level(self, name):
        q = fixture_complex(name)
        for _ in range(4):
            for store, k in ((q.labels, 1), (q.orientation, q.dimension)):
                ids = store.ids.tolist()
                assert len(ids) == q.count(k) and min(ids) >= 0
                assert len(set(store.table)) == len(store.table)
                assert store.index == {v: i for i, v in enumerate(store.table)}
                assert set(store.table) == set(store.values())
                assert [store[c] for c in q.cells(k)] == [store.table[i] for i in ids]
            q = barycentric_subdivide(q).complex

    def test_writing_a_known_label_reuses_its_id(self):
        q = barycentric_subdivide(GENUS2).complex
        labels, group = q.labels, q.group
        e, f = (next(i for i in q.cells(1) if labels[i] == g) for g in labels.table[:2])
        table = list(labels.table)
        labels[e] = labels[f]
        assert labels.ids[e] == labels.ids[f] and labels.table == table
        square = group.multiply(labels[f], labels[f])
        assert square not in table
        labels[e] = square
        labels[f] = square
        assert labels.table == table + [square] and labels.ids[e] == labels.ids[f] == len(table)
        del labels[e]
        assert labels.ids[e] == -1 and e not in labels and len(labels) == q.count(1) - 1
        assert labels.get(e) is None and labels[f] == square
        with pytest.raises(KeyError):
            labels[e]
        with pytest.raises(KeyError):
            labels[q.count(1)] = square
        assert -1 not in labels and q.count(1) not in labels

    def test_a_dict_is_stored_in_bulk_as_written_per_key(self):
        # the bulk build of a dict gives the ids, table and index of one
        # write per key in the dict's order, and names the first key out of
        # range as a write would
        q = barycentric_subdivide(GENUS2).complex
        n = q.count(1)
        values = {e: q.labels[e] for e in reversed(range(0, n, 3))}
        written = complexes._CellValues.of({}, n)
        for e, g in values.items():
            written[e] = g
        store = complexes._CellValues.of(values, n)
        assert store.table == written.table and store.index == written.index
        assert store.ids.tolist() == written.ids.tolist()
        assert complexes._CellValues.of({}, n).ids.tolist() == [-1] * n
        for bad, key in (({0: "a", n: "b", -1: "c"}, n), ({0: "a", -1: "b", n: "c"}, -1)):
            with pytest.raises(KeyError) as err:
                complexes._CellValues.of(bad, n)
            assert err.value.args == (key,)
        with pytest.raises(KeyError):
            QuotientComplex(q.group, q.vertices, q._rows, q.orientation, {n: q.labels[0]})

    def test_a_store_given_to_another_complex_is_copied(self):
        q = barycentric_subdivide(GENUS2).complex
        other = QuotientComplex(q.group, q.vertices, q._rows, q.orientation, q.labels)
        other.labels[0] = q.group.multiply(q.labels[0], q.group.parse_word("a1"))
        other.orientation = q.orientation
        other.orientation[0] = 2
        assert q.labels[0] != other.labels[0] and q.orientation[0] != 2
        assert validate_quotient(q).valid

    def test_labels_are_inverted_and_multiplied_once_per_distinct_value(self, monkeypatch):
        # subdividing genus 2 three times inverts each distinct label of each
        # level once, and validating multiplies each distinct pair once
        q = genus2_surface()
        group, calls = q.group, []
        for op in ("inverse", "multiply"):
            monkeypatch.setattr(group, op, lambda *a, op=op, f=getattr(group, op):
                                calls.append(op) or f(*a))
        distinct = []
        for _ in range(3):
            distinct.append(len(q.labels.table))
            q = barycentric_subdivide(q).complex
        assert calls == ["inverse"] * sum(distinct) and sum(distinct) < 100
        assert validate_quotient(q).valid
        bc, _, ab = q.labels.ids[q.facets[2].T]
        pairs = len(set(zip(ab.tolist(), bc.tolist())))
        assert calls.count("multiply") == pairs < q.count(2) // 100


class TestDocuments:
    @pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "torus",
                                      "csaszar", "klein", "genus2"])
    def test_round_trip_bit_exact(self, name):
        import json
        q = fixture_complex(name)
        doc = q.to_document()
        blob = json.dumps(doc, sort_keys=True)
        q2 = QuotientComplex.from_document(json.loads(blob))
        blob2 = json.dumps(q2.to_document(), sort_keys=True)
        assert blob == blob2

    # sha256 of the canonical JSON of every shipped complex, pinned before
    # the fixtures were built through barycentric_subdivide and one
    # triangle-list constructor with identity labels by default
    FIXTURE_DIGESTS = {
        "tetrahedron": "339bc40b01851e2f0d406a67bca44d9dfd413f8b0f5c72631085c33964047015",
        "octahedron": "06e662d242368258486a8498f67c68beed71584a26f400896c2e202f03af65e1",
        "torus": "7c91f9a7c274a530b265e6a530d88c553390623793cd37f2d58bbda4d24f09f5",
        "csaszar": "b615cf4664609dfd29ca32abf8b46238c2d1918522f6ba616c34b50a135ca342",
        "klein": "e83e3b0931477308c0a5138b3ce9d640e729cad9932e3a8f8e407cb6b8e9547a",
        "genus2": "8493c54ba836072562b3669d273ca62ed41e190522962a105a352769e42b49df",
    }

    @pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
    def test_fixture_document_pinned(self, name):
        assert _digest(fixture_complex(name).to_document()) == self.FIXTURE_DIGESTS[name]

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 1), (1, 1)], "simplex (2, 1) is not an ascending vertex tuple"),
        ([(0, 1), (1, 1), (1, 2)], "simplex (1, 1) is not an ascending vertex tuple"),
        ([(0, 1), (0, 1, 2), (2, 1)], "simplex (0, 1, 2) listed in dimension 1"),
    ])
    def test_first_malformed_simplex_is_named(self, edges, message):
        group = trivial_group()
        with pytest.raises(InputError, match=re.escape(message)):
            QuotientComplex(group, ["a", "b", "c"], [[(0,), (1,), (2,)], edges], {}, {})

    def test_vertex_id_out_of_range_is_named(self):
        # ids 0, 1 and 7 on three names: refused at construction, before
        # subdivision would index the vertex-name list with 7
        group = trivial_group()
        triangle = [[(0,), (1,), (7,)], [(0, 1), (0, 7), (1, 7)], [(0, 1, 7)]]
        with pytest.raises(InputError,
                           match=re.escape("vertex id 7 in dimension 0 is outside 0..2")):
            QuotientComplex(group, ["a", "b", "c"], triangle, {0: 1}, {})
        with pytest.raises(InputError,
                           match=re.escape("vertex id -1 in dimension 1 is outside 0..2")):
            QuotientComplex(group, ["a", "b", "c"], [[(0,), (1,), (2,)], [(-1, 0)]],
                            {}, {})

    def test_malformed_document(self):
        with pytest.raises(InputError):
            QuotientComplex.from_document({"dimension": 2})


class TestUniformity:
    def test_cover_vertex_degree_matches_quotient_bound(self):
        # every cover vertex met by the top cells over ball(1) meets at
        # most K of them, K the maximum vertex degree of the quotient (deck
        # translates do not change local stars)
        q = torus_grid()
        stars = {}
        for idx in q.cells(2):
            for v in q.simplex(2, idx):
                stars[v] = stars.get(v, 0) + 1
        K = max(stars.values())
        cover_stars = {}
        for g, idx in itertools.product(q.group.ball(1), q.cells(2)):
            s = q.simplex(2, idx)
            for j, v in enumerate(s):
                shift = q.group.identity() if v == s[0] else q.edge_label(s[0], v)
                cover_v = (q.group.multiply(g, shift), v)
                cover_stars[cover_v] = cover_stars.get(cover_v, 0) + 1
        assert max(cover_stars.values()) <= K

    def test_deck_action_preserves_orientation_signs(self):
        # the sign of (g, s) is the quotient sign of s by construction;
        # assert the representation really is deck-invariant
        q = torus_grid()
        pc = PeriodicComplex(q)
        mu = __import__("deckindex.chains", fromlist=["fundamental_cycle"])\
            .fundamental_cycle(pc)
        for g in q.group.ball(2):
            for idx in q.cells(2):
                assert mu.value(g, idx) == q.orientation[idx]
