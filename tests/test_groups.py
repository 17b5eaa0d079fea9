import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex.errors import InputError, ResourceError
from deckindex.groups import (
    BoxFolnerScheme,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    IndexedBall,
    SurfaceGroup,
    cyclic_group,
    folner_average,
    group_from_document,
    group_to_document,
    trivial_group,
)


def reference_ball(group, radius):
    """Independent BFS over generator moves, relying only on element
    equality: ``{element: distance}`` in BFS order."""
    dist = {group.identity(): 0}
    frontier = [group.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for t in group._signed_tokens():
                h = group.multiply_token(g, t)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
        frontier = nxt
    return dist


def bfs_collar(group, members, radius):
    """Outer ``radius``-collar of a finite set, ``{x not in members :
    d(x, members) <= radius}``, by BFS over generator moves."""
    current = set(members)
    collar = set()
    for _ in range(radius):
        nxt = set()
        for x in current:
            for t in group._signed_tokens():
                y = group.multiply_token(x, t)
                if y not in members and y not in collar:
                    nxt.add(y)
        collar |= nxt
        current = nxt
    return collar


def growth_series(numerator, denominator, terms):
    """Leading coefficients of the power series numerator / denominator
    (coefficient lists, denominator[0] == 1)."""
    out = []
    for n in range(terms):
        a = numerator[n] if n < len(numerator) else 0
        a -= sum(denominator[k] * out[n - k]
                 for k in range(1, min(n, len(denominator) - 1) + 1))
        out.append(a)
    return out


Z2 = FreeAbelianGroup(2)
F2 = FreeGroup(2)
S2GROUP = SurfaceGroup(2)
C6 = cyclic_group(6)
SURFACES = {2: S2GROUP, 3: SurfaceGroup(3), 4: SurfaceGroup(4)}
# two fixed points of the genus-2 rewriting that are one group element
SURFACE_DEFECT_PAIR = ((-2, -1, 4, 2, 1, -2, -1, -1), (-1, -2, 3, 4, 4, -3, -4, -1))

ALL_KINDS = [Z2, F2, S2GROUP, C6]


class TestNormalForm:
    def test_abelian_cancellation(self):
        assert Z2.format_element(Z2.parse_word("a b -a")) == "b"
        assert Z2.parse_word("a b -a") == (0, 1)

    def test_free_reduction(self):
        assert F2.format_element(F2.parse_word("a b -b a")) == "a a"

    def test_surface_relator_is_identity(self):
        w = "a1 b1 -a1 -b1 a2 b2 -a2 -b2"
        assert S2GROUP.format_element(S2GROUP.parse_word(w)) == ""

    def test_unknown_generator_rejected(self):
        with pytest.raises(InputError):
            Z2.parse_word("a q")

    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_idempotent_up_to_length_12(self, group):
        rng = random.Random(7)
        tokens = group._signed_tokens()
        for _ in range(300):
            w = [rng.choice(tokens) for _ in range(rng.randint(0, 12))]
            nf = group.element_word(group.element_of(w))
            assert group.element_word(group.element_of(nf)) == nf

    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_w_times_w_inverse_is_identity(self, group):
        rng = random.Random(11)
        tokens = group._signed_tokens()
        for _ in range(200):
            w = [rng.choice(tokens) for _ in range(rng.randint(0, 8))]
            winv = [-t for t in reversed(w)]
            assert group.element_of(w + winv) == group.identity()

    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_equal_products_have_identical_forms(self, group):
        rng = random.Random(13)
        tokens = group._signed_tokens()
        for _ in range(100):
            w = [rng.choice(tokens) for _ in range(rng.randint(0, 10))]
            cut = rng.randint(0, len(w))
            a = group.element_of(w[:cut])
            b = group.element_of(w[cut:])
            assert group.multiply(a, b) == group.element_of(w)


def _surface_relator(genus):
    return [t for i in range(genus)
            for t in (2 * i + 1, 2 * i + 2, -(2 * i + 1), -(2 * i + 2))]


@st.composite
def relator_biased_words(draw, genus):
    """Words of length <= 40 built mostly from pieces of rotations of the
    relator and its inverse, so that long matches, half swaps and their
    cascades all occur."""
    n = 4 * genus
    relator = _surface_relator(genus)
    inverse = [-t for t in reversed(relator)]
    word = []
    while len(word) < 40 and draw(st.integers(0, 9)) > 0:
        if draw(st.booleans()):
            word.append(draw(st.sampled_from(relator)) * draw(st.sampled_from([1, -1])))
        else:
            base = draw(st.sampled_from([relator, inverse]))
            start = draw(st.integers(0, n - 1))
            size = draw(st.integers(n // 2 - 1, n))
            word += [base[(start + k) % n] for k in range(size)]
    return word[:40]


class TestSurfaceNormalForm:
    @pytest.mark.parametrize("genus", [2, 3, 4])
    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_local_append_matches_full_rewrite(self, genus, data):
        group = SURFACES[genus]
        a = group.element_of(data.draw(relator_biased_words(genus)))
        for t in group._signed_tokens():
            assert group.multiply_token(a, t) == group._canonical(list(a) + [t])

    def test_defect_pair_names_one_element(self):
        u, v = SURFACE_DEFECT_PAIR
        assert S2GROUP.element_of(list(u) + [-t for t in reversed(v)]) == ()

    @pytest.mark.xfail(strict=True, reason=(
        "the Dehn fixed points are checked canonical only through sphere 6; "
        "these two fixed points of length 8 name one element"))
    def test_one_fixed_point_per_element(self):
        u, v = SURFACE_DEFECT_PAIR
        assert S2GROUP.element_of(u) == S2GROUP.element_of(v)


class TestWordMetric:
    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_symmetry_and_identity_on_ball_2(self, group):
        ball = sorted(group.ball(2), key=group.sort_key)
        for g in ball:
            for h in ball:
                d = group.distance(g, h)
                assert d == group.distance(h, g)
                assert (d == 0) == (g == h)

    @pytest.mark.parametrize("group", [Z2, F2, C6])
    def test_triangle_inequality_exhaustive_ball_3(self, group):
        ball = sorted(group.ball(3), key=group.sort_key)
        for g, h, k in itertools.product(ball, repeat=3):
            assert group.distance(g, k) <= group.distance(g, h) + group.distance(h, k)

    def test_triangle_inequality_surface_sampled(self):
        ball2 = sorted(S2GROUP.ball(2), key=S2GROUP.sort_key)
        for g, h, k in itertools.product(ball2, repeat=3):
            assert S2GROUP.distance(g, k) <= S2GROUP.distance(g, h) + S2GROUP.distance(h, k)
        rng = random.Random(3)
        ball3 = sorted(S2GROUP.ball(3), key=S2GROUP.sort_key)
        for _ in range(20000):
            g, h, k = (rng.choice(ball3) for _ in range(3))
            assert S2GROUP.distance(g, k) <= S2GROUP.distance(g, h) + S2GROUP.distance(h, k)


class TestBalls:
    def test_z2_ball_counts(self):
        for r in range(5):
            assert len(Z2.ball(r)) == 2 * r * r + 2 * r + 1
        assert len(Z2.ball(2)) == 13

    def test_f2_ball_counts(self):
        for r in range(5):
            assert len(F2.ball(r)) == 2 * 3**r - 1
        assert len(F2.ball(2)) == 17

    def test_radius_zero_is_identity(self):
        for group in ALL_KINDS:
            assert group.ball(0) == {group.identity()}

    @pytest.mark.parametrize("group,rmax", [(Z2, 4), (F2, 4), (C6, 4)])
    def test_matches_independent_bfs(self, group, rmax):
        for r in range(rmax + 1):
            assert len(group.ball(r)) == len(reference_ball(group, r))

    def test_surface_ball_counts(self):
        # Free-tree counts 4g(4g-1)^(r-1) hold up to r=3 (the relator has
        # length 8, so no two distinct words of length <= 3 coincide); at
        # r = 4 each of the 16 rotations of the relator and its inverse
        # splits into two length-4 halves, merging 8 pairs of tree words.
        expected_spheres = [1, 8, 56, 392, 8 * 7**3 - 8]
        total = 0
        for r, s in enumerate(expected_spheres):
            total += s
            assert len(S2GROUP.ball(r)) == total
        assert total == 3193

    def test_surface_spheres_follow_cannon_growth_series(self):
        # Cannon (1984): the genus-2 spheres have the growth series
        # (1 + 2z + 2z^2 + 2z^3 + z^4) / (1 - 6z - 6z^2 - 6z^3 + z^4); the
        # outside products of ball(5) form the sphere of radius 6
        spheres = growth_series([1, 2, 2, 2, 1], [1, -6, -6, -6, 1], 7)
        assert spheres == [1, 8, 56, 392, 2736, 19096, 133288]
        ball = SurfaceGroup(2).indexed_ball(5)
        assert [b - a for a, b in zip([0] + ball.ends, ball.ends)] == spheres[:6]
        assert ball.outside == spheres[6]

    def test_budget_error_names_flag(self):
        # --radius is the value that overflowed; the knob is the document's
        with pytest.raises(ResourceError, match="'ball_budget' in the group document"):
            F2.ball(9)

    def test_indexed_ball_matches_bfs(self):
        for group, radius in [(Z2, 3), (F2, 3), (S2GROUP, 4), (C6, 3)]:
            self._check_indexed_ball(group, radius)

    def _check_indexed_ball(self, group, radius):
        ball = IndexedBall(group, radius)
        dist = reference_ball(group, radius)
        assert ball.elements == list(dist) and ball.dist == list(dist.values())
        assert list(group.ball_with_distances(radius).items()) == list(dist.items())
        assert ball.ends == [len(reference_ball(group, r)) for r in range(radius + 1)]
        assert ball.outside == \
            list(reference_ball(group, radius + 1).values()).count(radius + 1)
        assert group.sphere(radius) == {g for g, d in dist.items() if d == radius}
        for row, t in zip(ball.rows, group._signed_tokens()):
            for i, g in enumerate(ball.elements):
                h = group.multiply_token(g, t)
                assert h == group.multiply(g, group.element_of([t]))
                if row[i] >= 0:
                    assert ball.elements[row[i]] == h
                else:
                    assert h not in dist

    # sha256 of repr((elements, dist, rows, ends, outside)), taken from the
    # tuple-keyed BFS that called multiply_token on every product
    PINNED_BALLS = {
        "surface2-r5": (SurfaceGroup(2), 5,
         "7b8411971f79f4a289d4822b3aeffcd46622390e2dca4d1cd292b1c474b6e46d"),
        "surface3-r4": (SurfaceGroup(3), 4,
         "8f9d03d4261a649d49bfbebcec25ddf14a3c458c4a7160eb1da524faab4028b0"),
        "free2-r6": (FreeGroup(2), 6,
         "a41d7a6004151251206f241ca7e43369f2d81f6affd8af6b5d25621d967d8b99"),
        "free3-r5": (FreeGroup(3), 5,
         "1e53de2bf1c2105382432464a279050a4cdf81af68201251b03430af44f7ce27"),
        "abelian3-r5": (FreeAbelianGroup(3), 5,
         "c82716b50f732cdc9fd27bb2fed234eed4026acf5e3e7d3da297ec758c43d818"),
        "cyclic7-r3": (cyclic_group(7), 3,
         "dcee48667a8ffaf128b7084ed16f716d7d684ca416e9416ed0b7e83b70ce1f34"),
    }

    @pytest.mark.parametrize("group,radius,digest", PINNED_BALLS.values(),
                             ids=PINNED_BALLS.keys())
    def test_indexed_ball_pinned(self, group, radius, digest):
        ball = IndexedBall(group, radius)
        blob = repr((ball.elements, ball.dist, ball.rows, ball.ends, ball.outside))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    LAST_SPHERES = {
        "surface2-r5": (SurfaceGroup(2), 5, (720, 384)),
        "surface3-r4": (SurfaceGroup(3), 4, (0, 0)),
        "free3-r5": (FreeGroup(3), 5, (0, 0)),
        "surface2-r0": (SurfaceGroup(2), 0, (0, 0)),
        "free2-r1": (FreeGroup(2), 1, (0, 0)),
        "surface2-r1": (SurfaceGroup(2), 1, (0, 0)),
        "abelian3-r4": (FreeAbelianGroup(3), 4, None),
        "cyclic7-r3": (cyclic_group(7), 3, None),
    }

    @pytest.mark.parametrize("group,radius,flags", LAST_SPHERES.values(),
                             ids=LAST_SPHERES.keys())
    def test_last_sphere_matches_multiply_token(self, group, radius, flags):
        # the ball counts the last sphere's plain appends without looking
        # them up; every last-sphere product, taken directly, must agree
        # with its row entry, and the distinct ones outside with the count
        ball = IndexedBall(group, radius)
        ids = {g: i for i, g in enumerate(ball.elements)}
        codes = group._word_codes
        beyond = set()
        flagged = rewritten = 0
        for i in range(ball.ends[radius - 1] if radius else 0, len(ball.elements)):
            g = ball.elements[i]
            for row, t in zip(ball.rows, group._signed_tokens()):
                h = group.multiply_token(g, t)
                assert row[i] == ids.get(h, -1)
                if h not in ids:
                    beyond.add(h)
                if codes and not (g and g[-1] == -t):
                    hit = codes.encode(g + (t,)) % codes.window in codes.flagged
                    flagged += hit
                    rewritten += h != g + (t,)
        assert ball.outside == len(beyond)
        assert flags is None or (flagged, rewritten) == flags

    def test_rewrites_only_in_flagged_window(self):
        # a product leaves the plain free append only when the last h tokens
        # of the appended word are a half relator, which the ball reads off
        # the word's integer code
        group = SurfaceGroup(2)
        h, codes = group._half, group._word_codes
        flagged = rewritten = 0
        for a in group.indexed_ball(4).elements:
            for t in group._signed_tokens():
                plain = a[:-1] if a and a[-1] == -t else a + (t,)
                hit = len(plain) > len(a) and plain[-h:] in group._half_index
                assert hit == (len(plain) > len(a) and
                               codes.encode(plain) % codes.window in codes.flagged)
                flagged += hit
                if group.multiply_token(a, t) != plain:
                    assert hit
                    rewritten += 1
        assert (flagged, rewritten) == (120, 64)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_free_append_matches_multiply(self, rank):
        group = FreeGroup(rank)
        for a in group.indexed_ball(5).elements:
            for t in group._signed_tokens():
                assert group.multiply_token(a, t) == \
                    group.multiply(a, group.element_of([t]))

    @pytest.mark.parametrize("genus,radius", [(2, 4), (3, 3)])
    def test_multiply_token_matches_full_rewrite(self, genus, radius, monkeypatch):
        group = SurfaceGroup(genus)
        ball = group.indexed_ball(radius)
        canonical = group._canonical
        calls = []
        monkeypatch.setattr(group, "_canonical",
                            lambda tokens: calls.append(1) or canonical(tokens))
        products = 0
        for a in ball.elements:
            for t in group._signed_tokens():
                assert group.multiply_token(a, t) == canonical(list(a) + [t])
                products += 1
        # the local append falls back to the full rewrite, rarely in ball(4)
        # of genus 2 and never in ball(3) of genus 3, whose products are
        # shorter than its half relator
        assert len(calls) < products / 10
        assert (len(calls) > 0) == (genus == 2)

    def test_indexed_ball_kept_per_group(self):
        group = FreeAbelianGroup(2)
        ball = group.indexed_ball(2)
        assert group.indexed_ball(1) is ball  # a smaller ball is a prefix
        assert group.ball(1) < group.ball(2)
        grown = group.indexed_ball(3)
        assert grown.radius == 3 and group.indexed_ball(2) is grown
        # kept per instance: an equal group builds its own
        assert FreeAbelianGroup(2).indexed_ball(1) is not grown

    def test_deck_word_lengths_match_bfs_level(self):
        for group in ALL_KINDS:
            for g, d in group.ball_with_distances(3).items():
                assert group.length(g) == d


class _ConstPlusFinite:
    def __init__(self, group, constant, finite):
        self.group = group
        self.constant = constant
        self.finite = finite

    def value(self, g):
        return self.constant + self.finite.get(g, 0)


class TestFolner:
    def test_constant_function_averages_to_constant(self):
        scheme = Z2.folner_scheme()
        f = _ConstPlusFinite(Z2, 2, {})
        for t in (1, 2, 5):
            assert folner_average(scheme, f, t) == 2

    def test_finite_mass_dilutes(self):
        from fractions import Fraction
        scheme = Z2.folner_scheme()
        f = _ConstPlusFinite(Z2, 0, {(0, 0): 7, (1, 0): -2})
        for t in (1, 2, 4):
            assert folner_average(scheme, f, t) == Fraction(5, (2 * t + 1) ** 2)

    def test_box_side_five_example(self):
        from fractions import Fraction
        scheme = Z2.folner_scheme()
        f = _ConstPlusFinite(Z2, 1, {(0, 0): 3})
        assert folner_average(scheme, f, 2) == 1 + Fraction(3, 25)

    def test_average_error_bounded_by_mass_over_box(self):
        from fractions import Fraction
        rng = random.Random(5)
        scheme = Z2.folner_scheme()
        for _ in range(20):
            c = rng.randint(-4, 4)
            finite = {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-5, 5)
                      for _ in range(rng.randint(0, 4))}
            f = _ConstPlusFinite(Z2, c, finite)
            mass = sum(abs(v) for v in finite.values())
            for t in (2, 3, 6):
                err = abs(folner_average(scheme, f, t) - c)
                assert err <= Fraction(mass, (2 * t + 1) ** 2)

    def test_box_ratio_nonincreasing_and_bounded(self):
        from fractions import Fraction
        scheme = Z2.folner_scheme()
        ratios = [scheme.ratio(t) for t in range(2, 9)]
        for a, b in zip(ratios, ratios[1:]):
            assert b < a
        for t, rho in zip(range(2, 9), ratios):
            assert rho <= Fraction(4, t)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_box_collar_count_matches_bfs(self, rank):
        from fractions import Fraction
        group = FreeAbelianGroup(rank)
        for radius in (1, 2, 3):
            scheme = group.folner_scheme(radius)
            for t in range(1, 6):
                box = scheme.set_at(t)
                assert len(box) == (2 * t + 1) ** rank
                assert all(max(map(abs, x)) <= t for x in box)
                collar = bfs_collar(group, box, radius)
                assert scheme.ratio(t) == Fraction(len(collar), len(box))

    def test_average_reads_the_masses_inside_the_box(self):
        from fractions import Fraction
        Z3 = FreeAbelianGroup(3)
        scheme = Z3.folner_scheme()
        # masses inside and outside every box, and entries equal to 0
        finite = {(0, 0, 0): 4, (2, 0, -1): -3, (1, 1, 1): 0, (5, 0, 0): 7,
                  (0, -9, 2): -2, (6, 6, 6): 0}
        f = _ConstPlusFinite(Z3, -2, finite)
        for t in (1, 2, 3, 5, 6):
            box = scheme.set_at(t)
            assert folner_average(scheme, f, t) == \
                Fraction(sum(f.value(g) for g in box), len(box))

    def test_whole_group_scheme_has_zero_ratio(self):
        scheme = C6.folner_scheme()
        assert scheme.ratio(1) == 0
        assert scheme.ratio(3) == 0

    def test_nonamenable_kinds_have_no_scheme(self):
        assert F2.folner_scheme() is None
        assert S2GROUP.folner_scheme() is None
        assert not F2.amenable and not S2GROUP.amenable


class TestFiniteGroup:
    def test_table_validation(self):
        with pytest.raises(InputError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_cyclic_structure(self):
        g = cyclic_group(6)
        t = g.parse_word("t")
        assert g.multiply(t, t) == 2
        assert g.inverse(t) == 5
        assert g.length(5) == 1  # t^-1 is a geodesic of length 1
        assert len(g.ball(3)) == 6
        assert g.format_element(g.parse_word("t t t t t t")) == ""

    def test_trivial_group(self):
        g = trivial_group()
        assert g.identity() == 0
        assert len(g.ball(4)) == 1


class TestDocuments:
    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_round_trip(self, group):
        doc = group_to_document(group)
        g2 = group_from_document(doc)
        assert group_to_document(g2) == doc
        assert type(g2) is type(group)

    def test_bad_kind(self):
        with pytest.raises(InputError):
            group_from_document({"kind": "braid", "rank": 3})
