import random

import pytest

from deckindex.chains import (
    PeriodicChain,
    PeriodicCochain,
    boundary,
    cap,
    coboundary,
    fundamental_cycle,
    lefschetz_number_quotient,
    pair,
    quotient_homology,
    random_chain,
)
from deckindex.classes import ClassFunction
from deckindex.complexes import (
    PeriodicComplex,
    barycentric_subdivide,
    euler_characteristic,
)
from deckindex.errors import InputError, OrientationError
from deckindex.fixtures import (
    FIXTURE_BUILDERS,
    csaszar_torus,
    genus2_surface,
    klein_grid,
    octahedron_sphere,
    tetrahedron_sphere,
    torus_grid,
)

TORUS = torus_grid()
GENUS2 = genus2_surface()
OCTA = octahedron_sphere()
TETRA = tetrahedron_sphere()


class _VertexPermutationMap:
    """Simplicial automorphism given by a vertex permutation."""

    def __init__(self, q, perm):
        self.q = q
        self.perm = perm

    def chain_image(self, k, idx):
        s = self.q.simplex(k, idx)
        image = [self.perm.get(v, v) for v in s]
        ordered = tuple(sorted(image))
        sign = 1
        for i in range(len(image)):
            for j in range(i + 1, len(image)):
                if image[i] > image[j]:
                    sign = -sign
        return [(self.q.index_of(k, ordered), sign)]


class _IdentityMap:
    def __init__(self, q):
        self.q = q

    def chain_image(self, k, idx):
        return [(idx, 1)]


class TestFundamentalCycle:
    @pytest.mark.parametrize("builder", [tetrahedron_sphere, octahedron_sphere,
                                         torus_grid, csaszar_torus, genus2_surface])
    def test_boundary_vanishes(self, builder):
        pc = PeriodicComplex(builder())
        mu = fundamental_cycle(pc)
        assert boundary(mu).is_zero()

    def test_tetrahedron_has_four_signed_triangles(self):
        pc = PeriodicComplex(TETRA)
        mu = fundamental_cycle(pc)
        # trivial deck group: normalized to exceptional form, one entry per cell
        assert len(mu.exceptional) == 4
        assert all(v in (1, -1) for v in mu.exceptional.values())

    def test_klein_bottle_rejected(self):
        # the constructor names the orientation defect, so no fundamental
        # cycle is ever asked of the datum
        with pytest.raises(OrientationError, match="invalid quotient datum: induced"):
            PeriodicComplex(klein_grid())


class TestBoundary:
    def test_single_cover_one_cell(self):
        q = TORUS
        g = (2, -1)
        c = PeriodicChain(q, 1, {}, {(g, 5): 1})
        b = boundary(c)
        assert b.equivariant == {}
        assert sorted(b.exceptional.values()) == [-1, 1]
        # endpoints: deck coordinates differ by the edge label when it wraps
        (u, v) = q.simplex(1, 5)
        vals = dict(b.exceptional)
        assert vals[(g, q.index_of(0, (u,)))] == -1

    @pytest.mark.parametrize("q", [TORUS, GENUS2])
    def test_boundary_squared_zero_random(self, q):
        rng = random.Random(42)
        for _ in range(100):
            c = random_chain(rng, q, 2)
            assert boundary(boundary(c)).is_zero()

    def test_degree_zero_rejected(self):
        c = PeriodicChain(TORUS, 0, {0: 1}, {})
        with pytest.raises(InputError):
            boundary(c)


class TestCoboundary:
    def test_zero_cochain(self):
        u = PeriodicCochain(TORUS, 0, {}, {})
        assert coboundary(u).is_zero()

    @pytest.mark.parametrize("q", [TORUS, GENUS2])
    def test_coboundary_squared_zero_random(self, q):
        rng = random.Random(43)
        for _ in range(100):
            u = random_chain(rng, q, 0, cochain=True)
            assert coboundary(coboundary(u)).is_zero()

    @pytest.mark.parametrize("q", [TORUS, GENUS2])
    def test_signed_adjointness_random(self, q):
        # <du, c> = (-1)**(p+1) <u, dc> against finite test chains; the
        # unsigned pairing identity holds in odd cochain degrees
        rng = random.Random(44)
        for _ in range(50):
            p = rng.choice([0, 1])
            u = random_chain(rng, q, p, cochain=True)
            c = PeriodicChain(q, p + 1,
                              {},
                              random_chain(rng, q, p + 1).exceptional)
            lhs = pair(coboundary(u), c)
            rhs = pair(u, boundary(c))
            assert lhs == (-1) ** (p + 1) * rhs
            if p % 2 == 1:
                assert lhs == rhs


class TestCap:
    def test_unit_cochain_acts_as_identity(self):
        rng = random.Random(45)
        one = PeriodicCochain(TORUS, 0, {idx: 1 for idx in TORUS.cells(0)}, {})
        for _ in range(20):
            qdeg = rng.choice([0, 1, 2])
            c = random_chain(rng, TORUS, qdeg)
            assert cap(one, c) == c

    @pytest.mark.parametrize("q", [TORUS, GENUS2])
    @pytest.mark.parametrize("pq", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
    def test_leibniz_random(self, q, pq):
        p, qdeg = pq
        rng = random.Random(100 * p + qdeg)
        for _ in range(20):
            u = random_chain(rng, q, p, cochain=True)
            c = random_chain(rng, q, qdeg)
            lhs_inner = cap(u, c)
            lhs = boundary(lhs_inner) if lhs_inner.degree >= 1 else None
            term1 = cap(coboundary(u), c) if p + 1 <= qdeg else None
            term2 = cap(u, boundary(c)).scale((-1) ** p) if qdeg >= 1 and p <= qdeg - 1 else None
            if lhs is None:
                # degree q - p = 0: both sides vanish or are not defined
                continue
            rhs = None
            for t in (term1, term2):
                if t is not None:
                    rhs = t if rhs is None else rhs + t
            assert rhs is not None
            assert lhs == rhs

    def test_top_indicator_capped_with_fundamental_cycle(self):
        pc = PeriodicComplex(TORUS)
        mu = fundamental_cycle(pc)
        u = PeriodicCochain(TORUS, 2, {0: 1}, {})
        result = cap(u, mu)
        assert result.degree == 0
        assert not result.exceptional
        assert sorted(result.equivariant.values()) in ([-1], [1])


class TestClassFunction:
    def test_bound(self):
        Z2 = TORUS.group
        f = ClassFunction(Z2, 2, {(0, 0): -5})
        assert f.value((0, 0)) == -3
        assert f.value((4, 4)) == 2

    def test_translate_convention(self):
        # (g . f)(x) = f(x g)
        Z2 = TORUS.group
        h = (2, 1)
        g = (1, 0)
        f = ClassFunction(Z2, 0, {h: 4})
        fg = f.translate(g)
        assert fg.value(Z2.multiply(h, Z2.inverse(g))) == 4
        for x in Z2.ball(2):
            assert fg.value(x) == f.value(Z2.multiply(x, g))

    def test_document_round_trip(self):
        Z2 = TORUS.group
        f = ClassFunction(Z2, -1, {(1, 2): 3, (0, -1): -2})
        doc = f.to_document()
        f2 = ClassFunction.from_document(Z2, doc)
        assert f == f2


class TestHomology:
    def test_sphere(self):
        assert quotient_homology(TETRA) == [1, 0, 1]
        assert quotient_homology(OCTA) == [1, 0, 1]

    def test_torus(self):
        assert quotient_homology(TORUS) == [1, 2, 1]
        assert quotient_homology(csaszar_torus()) == [1, 2, 1]

    def test_genus2(self):
        assert quotient_homology(GENUS2) == [1, 4, 1]


class TestBettiEulerRelation:
    BETTI = {"tetrahedron": [1, 0, 1], "octahedron": [1, 0, 1],
             "torus": [1, 2, 1], "csaszar": [1, 2, 1], "klein": [1, 1, 0],
             "genus2": [1, 4, 1]}

    def test_every_fixture_is_listed(self):
        assert set(self.BETTI) == set(FIXTURE_BUILDERS)

    @pytest.mark.parametrize("name", sorted(BETTI))
    def test_shipped_complex(self, name):
        q = FIXTURE_BUILDERS[name]()
        betti = quotient_homology(q)
        assert betti == self.BETTI[name]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == \
            euler_characteristic(q)

    @pytest.mark.parametrize("times", [2, 3])
    def test_subdivided_octahedron(self, times):
        q = barycentric_subdivide(OCTA, times).complex
        betti = quotient_homology(q)
        assert betti == [1, 0, 1]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == \
            euler_characteristic(q) == 2


class TestLefschetzNumberQuotient:
    def test_identity_on_torus_is_chi(self):
        assert lefschetz_number_quotient(TORUS, _IdentityMap(TORUS)) == 0

    def test_identity_on_sphere(self):
        assert lefschetz_number_quotient(TETRA, _IdentityMap(TETRA)) == 2

    def test_orientation_reversing_involution_on_sphere(self):
        # the reflection through the plane x = y swaps both e1/e2 vertex
        # pairs; it acts by -1 on second homology, so the alternating
        # trace is 1 + (-1) = 0
        refl = _VertexPermutationMap(OCTA, {0: 1, 1: 0, 3: 4, 4: 3})
        assert lefschetz_number_quotient(OCTA, refl) == 0

    def test_face_rotation_has_trace_two(self):
        rot = _VertexPermutationMap(OCTA, {0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3})
        assert lefschetz_number_quotient(OCTA, rot) == 2


class TestCapBruteForceOracle:
    def test_cap_matches_cellwise_definition(self):
        # from-the-definition oracle: the coefficient of a cover cell in
        # u cap c is the signed sum over all top-degree cover cells whose
        # front face is that cell, evaluating u on the corresponding back
        # face; compared cell-by-cell over a 9-translate window
        q = TORUS
        G = q.group
        rng = random.Random(5)

        def brute_value(u, c, g, front_idx, p, qdeg):
            total = 0
            r = qdeg - p
            eps = (-1) ** (p * r)
            for idx in q.cells(qdeg):
                _, fidx, fshift = q.subface_shift(qdeg, idx, tuple(range(r + 1)))
                _, bidx, bshift = q.subface_shift(
                    qdeg, idx, tuple(range(r, qdeg + 1)))
                if fidx != front_idx:
                    continue
                h = G.multiply(g, G.inverse(fshift))
                a = c.value(h, idx)
                if a:
                    total += eps * a * u.value(G.multiply(h, bshift), bidx)
            return total

        for trial in range(10):
            p, qdeg = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)][trial % 5]
            u = random_chain(rng, q, p, cochain=True)
            c = random_chain(rng, q, qdeg)
            out = cap(u, c)
            r = qdeg - p
            window = sorted(G.ball(3), key=G.sort_key)[:9]
            for g in window:
                for fidx in range(q.count(r)):
                    assert out.value(g, fidx) == brute_value(u, c, g, fidx, p, qdeg)
