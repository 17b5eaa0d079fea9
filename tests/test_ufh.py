import copy
import functools
import random
from fractions import Fraction

import pytest

from deckindex.classes import ClassFunction
from deckindex.errors import InputError, ResourceError
from deckindex.groups import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    SurfaceGroup,
    cyclic_group,
    folner_average,
    trivial_group,
)
from deckindex.ufh import (
    MEAN_INDICES,
    BallFlows,
    ClassCertificate,
    GraphChain,
    bound_finite_mass,
    decide_class,
    flow_certificate,
    isoperimetric_probe,
    _arc_table,
    _ball_locator,
    _capacity_search,
    _chain_to_payload,
    _generator_steps,
    _payload_to_chain,
    minimal_flow_capacity,
    verify_certificate,
)

Z1 = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
F2 = FreeGroup(2)
SURF = SurfaceGroup(2)


class TestIsoperimetricProbe:
    def test_z2_ratios_decrease(self):
        rows = isoperimetric_probe(Z2, range(1, 7))
        ratios = [row["ratio"] for row in rows]
        assert ratios[5 - 1] < ratios[2 - 1]
        for row in rows:
            r = row["radius"]
            assert row["ball"] == 2 * r * r + 2 * r + 1
            assert row["boundary"] == 4 * (r + 1)

    def test_f2_ratios_bounded_below(self):
        rows = isoperimetric_probe(F2, range(1, 7))
        for row in rows:
            assert row["ratio"] >= Fraction(1, 2)

    def test_finite_component_ratio_zero(self):
        g = cyclic_group(6)
        rows = isoperimetric_probe(g, [3, 4])
        assert rows[0]["ratio"] == 0 and rows[1]["ratio"] == 0

    # the probe counts its spheres and builds no ball; its rows must be
    # those read off the built ball(R + 1)
    PROBES = {
        "free2": (lambda: FreeGroup(2), 6),
        "surface2": (lambda: SurfaceGroup(2), 4),
        "abelian3": (lambda: FreeAbelianGroup(3), 5),
        "cyclic7": (lambda: cyclic_group(7), 5),
    }

    @pytest.mark.parametrize("make,top", PROBES.values(), ids=PROBES.keys())
    def test_rows_match_the_built_ball(self, make, top):
        ends = make().indexed_ball(top + 1).ends
        group = make()
        rows = isoperimetric_probe(group, range(1, top + 1))
        assert group._ball is None
        assert rows == [{"radius": r, "ball": ends[r], "boundary": ends[r + 1] - ends[r],
                         "ratio": Fraction(ends[r + 1] - ends[r], ends[r])}
                        for r in range(1, top + 1)]

    @pytest.mark.parametrize("make,top", PROBES.values(), ids=PROBES.keys())
    def test_a_larger_ball_held_first_gives_the_same_rows(self, make, top):
        rows = isoperimetric_probe(make(), range(1, top + 1))
        for held in (top, top + 1, top + 2):
            group = make()
            group.indexed_ball(held)
            assert isoperimetric_probe(group, range(1, top + 1)) == rows
        group = make()
        if not group.amenable:  # the amenability command's flows, asked first
            flow_certificate(group, ClassFunction(group, 1, {}), top, capacity=2)
            assert isoperimetric_probe(group, range(1, top + 1)) == rows

    def test_radius_zero_reads_ball_zero(self):
        group = SurfaceGroup(2)
        assert isoperimetric_probe(group, [0]) == [
            {"radius": 0, "ball": 1, "boundary": 8, "ratio": Fraction(8)}]
        assert group._ball is None

    def test_radius_at_the_ball_budget(self):
        group = SurfaceGroup(2, ball_budget=4)
        rows = isoperimetric_probe(group, range(1, 5))
        assert group._ball is None
        assert rows == isoperimetric_probe(SurfaceGroup(2), range(1, 5))

    def test_radius_past_the_ball_budget_is_refused_before_any_ball(self):
        # the probe reads no ball, but radius R past the budget is refused
        # and named before anything is counted
        group = SurfaceGroup(2, ball_budget=4)
        with pytest.raises(ResourceError, match=r"^radius 5 exceeds the ball budget 4 "
                           r"for kind 'surface'; raise 'ball_budget' in the group document$"):
            isoperimetric_probe(group, range(1, 6))
        assert group._ball is None and "_suffix_states" not in vars(group)


class TestBoundFiniteMass:
    def test_single_mass_on_z2(self):
        f = ClassFunction(Z2, 0, {(0, 0): 1})
        chain, region, interior = bound_finite_mass(Z2, f)
        bdry = chain.boundary()
        for v in Z2.ball(interior):
            assert bdry.get(v, 0) == f.value(v)
        assert chain.max_coefficient() <= 1

    def test_dipole_is_global_path(self):
        u, v = (2, 1), (-1, 0)
        f = ClassFunction(Z2, 0, {u: 1, v: -1})
        chain, _, _ = bound_finite_mass(Z2, f)
        # net-zero mass: boundary matches everywhere, not only on a region
        assert chain.boundary() == {u: 1, v: -1}

    def test_mass_three_on_free_group(self):
        f = ClassFunction(F2, 0, {F2.identity(): 3})
        chain, region, interior = bound_finite_mass(F2, f)
        assert region == 6
        bdry = chain.boundary()
        for g in F2.ball(interior):
            assert bdry.get(g, 0) == f.value(g)
        assert chain.max_coefficient() <= 3

    def test_rejects_constant_part(self):
        with pytest.raises(InputError):
            bound_finite_mass(Z2, ClassFunction(Z2, 1, {}))

    def test_rejects_nonzero_total_on_finite_group(self):
        # no ray leaves a finite group, so a residue has nowhere to go
        group = cyclic_group(5)
        with pytest.raises(InputError, match="invariant mean"):
            bound_finite_mass(group, ClassFunction(group, 0, {2: 1}))


class TestFlowCertificate:
    def test_f2_uniform_capacity_two(self):
        one = ClassFunction(F2, 1, {})
        for radius in (3, 4, 5, 6):
            res = flow_certificate(F2, one, radius, capacity=2)
            assert res.feasible
            chain = _payload_to_chain(F2, res.payload, F2.parse_word)
            bdry = chain.boundary()
            for v in F2.ball(radius - 1):
                assert bdry.get(v, 0) == 1
            assert chain.max_coefficient() <= 2

    def test_z2_minimal_capacity_grows(self):
        one = ClassFunction(Z2, 1, {})
        c4 = minimal_flow_capacity(Z2, one, 4)
        c8 = minimal_flow_capacity(Z2, one, 8)
        assert c8 > c4

    def test_z2_infeasible_at_fixed_capacity(self):
        one = ClassFunction(Z2, 1, {})
        res = flow_certificate(Z2, one, 8, capacity=1)
        assert not res.feasible and res.deficit > 0

    def test_zero_function_feasible_with_empty_chain(self):
        zero = ClassFunction(F2, 0, {})
        res = flow_certificate(F2, zero, 4, capacity=2)
        assert res.feasible and res.payload == []

    def test_feasibility_monotone_in_capacity(self):
        rng = random.Random(9)
        ball = sorted(Z2.ball(2), key=Z2.sort_key)
        for _ in range(5):
            f = ClassFunction(Z2, 0, {rng.choice(ball): rng.randint(-3, 3)
                                      for _ in range(3)})
            statuses = [flow_certificate(Z2, f, 4, c).feasible for c in (1, 2, 3)]
            for a, b in zip(statuses, statuses[1:]):
                assert (not a) or b


class TestDecideClass:
    def test_z_constant_two_nonzero_by_mean(self):
        f = ClassFunction(Z1, 2, {})
        cert = decide_class(Z1, f)
        assert cert.verdict == "nonzero-by-mean"
        assert Fraction(cert.payload["limit"]) == 2
        assert cert.verifier_result["verified"]
        for row in cert.payload["averages"]:
            assert Fraction(row["average"]) == 2

    def test_f2_constant_plus_finite_flow(self):
        f = ClassFunction(F2, 5, {F2.identity(): 2})
        cert = decide_class(F2, f)
        assert cert.verdict == "zero-by-truncated-flow"
        assert cert.verifier_result["verified"]
        assert "finite evidence" in cert.payload["note"]

    def test_z2_finite_mass_boundary(self):
        f = ClassFunction(Z2, 0, {Z2.identity(): 7})
        cert = decide_class(Z2, f)
        assert cert.verdict == "zero-by-boundary"
        assert cert.verifier_result["verified"]

    def test_finite_group_sum_rule(self):
        g = cyclic_group(4)
        f = ClassFunction(g, 0, {0: 2, 1: -2})
        cert = decide_class(g, f)
        assert cert.verdict == "zero-by-boundary"
        f2 = ClassFunction(g, 1, {})
        cert2 = decide_class(g, f2)
        assert cert2.verdict == "nonzero-by-mean"
        assert Fraction(cert2.payload["limit"]) == 1

    def test_surface_group_flow(self):
        f = ClassFunction(SURF, 1, {})
        cert = decide_class(SURF, f, flow_radii=(2, 3))
        assert cert.verdict == "zero-by-truncated-flow"
        assert cert.verifier_result["verified"]

    @pytest.mark.parametrize("group", [Z2, F2])
    def test_coinvariant_relation_vanishes(self, group):
        rng = random.Random(17)
        ball = sorted(group.ball(2), key=group.sort_key)
        gens = group.generators()
        for _ in range(25):
            f = ClassFunction(group, 0,
                              {rng.choice(ball): rng.randint(-3, 3) for _ in range(3)})
            for gen in gens:
                diff = f - f.translate(gen)
                cert = decide_class(group, diff)
                assert cert.verdict in ("zero-by-boundary", "zero-by-truncated-flow")
                assert cert.verifier_result["verified"]

    def test_certificate_document_shape(self):
        f = ClassFunction(Z2, 0, {(1, 1): 1})
        cert = decide_class(Z2, f)
        doc = cert.to_document()
        assert set(doc) == {"verdict", "group", "function", "payload",
                            "verifier_result"}


FINITE = [cyclic_group(n) for n in range(1, 13)] + [trivial_group()]


@pytest.mark.parametrize("group", FINITE,
                         ids=[f"C{n}" for n in range(1, 13)] + ["trivial"])
def test_finite_group_decides_by_its_average(group):
    # a finite group is amenable, and its one invariant mean is the average
    rng = random.Random(f"finite/{group.order}/{group.generator_names}")
    elements = sorted(group.elements(), key=group.sort_key)
    for draw in range(8):
        constant = rng.randint(-2, 2)
        finite = {g: rng.randint(-3, 3)
                  for g in rng.sample(elements, rng.randint(0, group.order))}
        if draw % 2:  # half the draws have total 0
            g = rng.choice(elements)
            finite[g] = finite.get(g, 0) - constant * group.order - sum(finite.values())
        f = ClassFunction(group, constant, finite)
        average = Fraction(sum(f.value(g) for g in elements), group.order)
        cert = decide_class(group, f)
        assert cert.verdict == ("nonzero-by-mean" if average else "zero-by-boundary")
        if average:
            assert Fraction(cert.payload["limit"]) == average
            assert [(row["t"], Fraction(row["average"]))
                    for row in cert.payload["averages"]] \
                == [(t, average) for t in MEAN_INDICES]
        assert cert.verifier_result["verified"]
        assert verify_certificate(cert) == cert.verifier_result


class TestVerifierRejectsTampering:
    def test_tampered_boundary_fails(self):
        f = ClassFunction(Z2, 0, {Z2.identity(): 2})
        cert = decide_class(Z2, f)
        cert.payload["chain"] = cert.payload["chain"][1:]
        assert not verify_certificate(cert)["verified"]

    def test_tampered_mean_fails(self):
        f = ClassFunction(Z1, 3, {})
        cert = decide_class(Z1, f)
        cert.payload["averages"][0]["average"] = "4"
        assert not verify_certificate(cert)["verified"]

    def test_non_generator_boundary_edge_fails(self):
        # forgery: one "edge" jumping from a^5 b^5 to e has the right
        # boundary for the dipole, but is no edge of the Cayley graph
        far = (5, 5)
        f = ClassFunction(Z2, 0, {far: 1, Z2.identity(): -1})
        cert = decide_class(Z2, f)
        assert cert.verifier_result["verified"]
        cert.payload["chain"] = [["", Z2.format_element(far), 1]]
        result = verify_certificate(cert)
        assert _failed(result) == {"chain edges are generator steps"}

    def test_non_generator_flow_edge_fails(self):
        cert = decide_class(F2, ClassFunction(F2, 1, {}), flow_radii=(3,))
        # a closed loop e -> a a -> a -> e leaves every boundary unchanged
        # but its first step is no generator step
        cert.payload["flows"][0]["chain"] += [["", "a a", 1], ["a a", "a", 1],
                                              ["a", "", 1]]
        result = verify_certificate(cert)
        assert "flow edges are generator steps at R=3" in _failed(result)
        assert "flow boundary matches on ball(2)" not in _failed(result)

    def test_empty_flow_list_fails(self):
        cert = decide_class(F2, ClassFunction(F2, 1, {}), flow_radii=(3, 4))
        cert.payload["flows"] = []
        assert _failed(verify_certificate(cert)) == {
            "flows are present", "flow radii match the stated radii"}

    def test_flow_radii_must_match_stated_radii(self):
        cert = decide_class(F2, ClassFunction(F2, 1, {}), flow_radii=(3, 4))
        cert.payload["flows"] = cert.payload["flows"][:1]
        assert _failed(verify_certificate(cert)) == {
            "flow radii match the stated radii"}

    def test_flow_certificate_on_amenable_group_fails(self):
        # forgery: truncated flows exist on Z^2 at a large capacity, yet the
        # constant 1 is nonzero there (every invariant mean gives 1)
        one = ClassFunction(Z2, 1, {})
        res = flow_certificate(Z2, one, 4, capacity=8)
        assert res.feasible
        cert = ClassCertificate(
            "zero-by-truncated-flow", Z2, one,
            payload={"capacity": 8, "radii": [4],
                     "flows": [{"radius": 4, "chain": res.payload}]})
        assert _failed(verify_certificate(cert)) == {"group is nonamenable"}

    def test_mean_on_nonamenable_group_fails(self):
        # forgery: F2 has no Folner scheme, so an empty averages list left
        # only "limit nonzero" to check; yet every class on F2 vanishes
        one = ClassFunction(F2, 1, {})
        cert = ClassCertificate("nonzero-by-mean", F2, one, payload={
            "limit": "1", "collar_radius": 1, "averages": []})
        assert _failed(verify_certificate(cert)) == {
            "limit equals the invariant mean", "averages are present"}

    def test_bounding_chain_for_nonzero_constant_fails(self):
        # forgery: the chain sum of -(k+4) (k -> k+1), k = -3..2, has
        # boundary 1 on ball(2) of Z, but every invariant mean sends the
        # constant 1 to 1, so no bounded chain bounds it
        one = ClassFunction(Z1, 1, {})
        chain = GraphChain(Z1)
        for k in range(-3, 3):
            chain.add_edge((k,), (k + 1,), -(k + 4))
        cert = ClassCertificate("zero-by-boundary", Z1, one, payload={
            "chain": _chain_to_payload(Z1, chain), "region_radius": 3,
            "interior_radius": 2, "coefficient_bound": 6})
        assert _failed(verify_certificate(cert)) == {"invariant mean vanishes"}

    def test_mean_limit_of_finite_mass_fails(self):
        # forgery: mass 9 at a on Z averages 9/(2t+1), within the mass bound
        # of the limit 1 for t <= 8; the invariant mean of f is 0
        f = ClassFunction(Z1, 0, {(1,): 9})
        scheme = Z1.folner_scheme()
        cert = ClassCertificate("nonzero-by-mean", Z1, f, payload={
            "limit": "1", "collar_radius": 1,
            "averages": [{"t": t, "average": str(folner_average(scheme, f, t))}
                         for t in (1, 2, 4, 8)]})
        assert _failed(verify_certificate(cert)) == {
            "limit equals the invariant mean"}

    @pytest.mark.parametrize("tamper", ["drop an edge", "change a coefficient"])
    def test_tampered_finite_group_boundary_fails(self, tamper):
        # mass 3 at t and -3 at t^4 = t^-3 in Z/7, joined by a three-edge path
        group = cyclic_group(7)
        cert = decide_class(group, ClassFunction(group, 0, {1: 3, 4: -3}))
        assert cert.verdict == "zero-by-boundary" and cert.verifier_result["verified"]
        rows = cert.payload["chain"]
        assert len(rows) == 3
        if tamper == "drop an edge":
            cert.payload["chain"] = rows[:1] + rows[2:]
        else:
            cert.payload["chain"] = [rows[0], rows[1][:2] + [rows[1][2] + 1], rows[2]]
        assert _failed(verify_certificate(cert)) == {
            "boundary equals function on interior"}

    def test_edge_beyond_the_stated_radius_fails_on_finite_group(self):
        # f = t^40 - t^60 in Z/100: the pairing path runs through t^50,
        # beyond the stated interior radius 45, and must still be checked
        group = cyclic_group(100)
        cert = decide_class(group, ClassFunction(group, 0, {40: 1, 60: -1}))
        assert cert.verdict == "zero-by-boundary" and cert.verifier_result["verified"]
        radius = cert.payload["interior_radius"]
        rows = cert.payload["chain"]
        far = [i for i, row in enumerate(rows)
               if min(group.length(group.parse_word(w)) for w in row[:2]) > radius]
        assert far
        cert.payload["chain"] = rows[:far[0]] + rows[far[0] + 1:]
        assert _failed(verify_certificate(cert)) == {
            "boundary equals function on interior"}

    def test_pairing_path_edge_dropped_past_the_interior_fails(self):
        # f = a^10 - b^10 on Z^2: the pairing path runs through a^10 b^10,
        # length 20, past the interior radius 15; dropping its edge
        # a^10 b^9 -> a^10 b^10 leaves the boundary on the interior intact
        cert = decide_class(Z2, ClassFunction(Z2, 0, {(10, 0): 1, (0, 10): -1}))
        assert cert.verifier_result["verified"]
        assert (cert.payload["interior_radius"], cert.payload["region_radius"]) == (15, 16)
        edge = sorted(Z2.format_element(v) for v in ((10, 9), (10, 10)))
        rows = cert.payload["chain"]
        kept = [row for row in rows if sorted(row[:2]) != edge]
        assert len(kept) == len(rows) - 1
        cert.payload["chain"] = kept
        assert _failed(verify_certificate(cert)) == {
            "boundary vanishes past the interior, off the region sphere"}

    @pytest.mark.parametrize("region", [14, 15, 17, None])
    def test_region_radius_must_follow_the_interior(self, region):
        # the mass has no ray, so only the stated region radius is wrong
        cert = decide_class(Z2, ClassFunction(Z2, 0, {(10, 0): 1, (0, 10): -1}))
        if region is None:
            del cert.payload["region_radius"]
        else:
            cert.payload["region_radius"] = region
        assert _failed(verify_certificate(cert)) == {
            "region radius is the interior radius plus one"}

    def test_ray_end_off_the_region_sphere_fails(self):
        # a single mass rides a ray out to the region sphere, length 7; a
        # region radius stated one further leaves that end unexplained
        cert = decide_class(Z2, ClassFunction(Z2, 0, {(1, 0): 1}))
        assert (cert.payload["interior_radius"], cert.payload["region_radius"]) == (6, 7)
        cert.payload["interior_radius"], cert.payload["region_radius"] = 5, 6
        assert _failed(verify_certificate(cert)) == {
            "boundary vanishes past the interior, off the region sphere"}

    def test_support_past_the_interior_is_named_once(self):
        # the chain bounds f = a^3 - a^2 exactly, but the stated interior
        # ball(1) misses both masses: a^2 lies on the region sphere and a^3
        # past it, where f is not 0, so only the support check fails
        f = ClassFunction(Z1, 0, {(3,): 1, (2,): -1})
        cert = ClassCertificate("zero-by-boundary", Z1, f, payload={
            "chain": [["a a", "a a a", 1]], "region_radius": 2,
            "interior_radius": 1, "coefficient_bound": 2})
        assert _failed(verify_certificate(cert)) == {
            "interior contains the support"}

    def test_interior_missing_the_support_fails(self):
        # forgery: an empty chain "bounds" mass 5 at a a a on ball(0)
        f = ClassFunction(Z1, 0, {(3,): 5})
        cert = ClassCertificate("zero-by-boundary", Z1, f, payload={
            "chain": [], "region_radius": 1, "interior_radius": 0,
            "coefficient_bound": 5})
        assert _failed(verify_certificate(cert)) == {
            "interior contains the support"}

    @pytest.mark.parametrize("tamper", ["coefficient", "non-generator edge"])
    def test_tampered_last_flow_row_fails(self, tamper):
        # the rows share one parse cache, and the words of the tampered row
        # occur in the first row too
        cert = decide_class(F2, ClassFunction(F2, 1, {}), flow_radii=(3, 4, 5))
        flows = cert.payload["flows"]
        earlier = {w for row in flows[0]["chain"] for w in row[:2]}
        last = flows[-1]["chain"]
        if tamper == "coefficient":
            k = next(k for k, row in enumerate(last) if row[:2] == ["", "a"])
            last[k] = ["", "a", 2 * cert.payload["capacity"] + 1]
            expected = {"flow boundary matches on ball(4)",
                        "flow coefficients within 2x capacity at R=5"}
        else:  # a closed loop whose first step is no generator step
            last += [["", "a a", 1], ["a a", "a", 1], ["a", "", 1]]
            expected = {"flow edges are generator steps at R=5"}
        assert {"", "a", "a a"} <= earlier
        assert _failed(verify_certificate(cert)) == expected


class TestVerifierReadsPayloadWords:
    def test_non_reduced_vertex_word_verifies(self):
        f = ClassFunction(Z2, 0, {(1, 1): 1, Z2.identity(): -1})
        cert = decide_class(Z2, f)
        assert cert.payload["chain"] == [["", "a", 1], ["a", "a b", 1]]
        assert verify_certificate(cert)["verified"]
        # one vertex under two spellings, and one under a non-reduced word
        cert.payload["chain"] = [["", "a -a a", 1], ["a", "b a -b a -a b", 1]]
        assert verify_certificate(cert) == cert.verifier_result

    def test_non_reduced_word_on_free_group_verifies(self):
        f = ClassFunction(F2, 0, {(2,): 1, F2.identity(): -1})
        cert = ClassCertificate("zero-by-boundary", F2, f, payload={
            "chain": [["", "b", 1]], "region_radius": 3, "interior_radius": 2,
            "coefficient_bound": 1})
        reduced = verify_certificate(cert)
        assert reduced["verified"]
        cert.payload["chain"] = [["", "a -a b", 1]]
        assert verify_certificate(cert) == reduced

    def test_edge_listed_twice_is_judged_on_its_sum(self):
        f = ClassFunction(Z2, 0, {(1, 1): 2, Z2.identity(): -2})
        cert = decide_class(Z2, f)
        assert cert.payload["chain"] == [["", "a", 2], ["a", "a b", 2]]
        # 3 (e -> a) plus 1 (a -> e) is 2 (e -> a)
        cert.payload["chain"] = [["", "a", 3], ["a", "", 1], ["a", "a b", 2]]
        assert verify_certificate(cert) == cert.verifier_result
        # 2 (e -> a) plus 2 (a -> e) is no edge at all
        cert.payload["chain"] = [["", "a", 2], ["a", "", 2], ["a", "a b", 2]]
        assert _failed(verify_certificate(cert)) == {
            "boundary equals function on interior"}


def _failed(result):
    return {c["name"] for c in result["checks"] if not c["ok"]}


def test_words_and_keys_are_computed_once_per_element(monkeypatch):
    # one F2 decision at constant 3 emits a payload per flow radius and
    # checks them all; the group formats each payload word once, and the
    # payload and its check read the ball's ids and rows, so they compute
    # no shortlex key and no product
    group = FreeGroup(2)
    seen = {"format_element": [], "sort_key": [], "multiply_token": []}
    for name, args in seen.items():
        method = getattr(group, name)

        def counted(*a, method=method, args=args):
            args.append(a)
            return method(*a)
        monkeypatch.setattr(group, name, counted)
    cert = decide_class(group, ClassFunction(group, 3, {}))
    assert cert.verdict == "zero-by-truncated-flow" and cert.verifier_result["verified"]
    assert verify_certificate(cert) == cert.verifier_result
    words = {w for row in cert.payload["flows"] for edge in row["chain"] for w in edge[:2]}
    assert len(cert.payload["flows"]) > 1
    assert len(seen["format_element"]) == len(set(seen["format_element"])) == len(words)
    assert seen["sort_key"] == seen["multiply_token"] == []


def test_inconclusive_note_names_the_capacity_budget():
    # F2 with constant 3 needs capacity 2 at the default radii
    cert = decide_class(F2, ClassFunction(F2, 3, {}), capacity_budget=1)
    assert cert.verdict == "inconclusive"
    assert cert.payload["note"] == "no uniform capacity up to 1 (--capacity)"


class TestGraphChain:
    def test_reverse_edge_merges_in_ascending_order(self):
        u, v = F2.parse_word("a b"), F2.parse_word("a")  # v has the smaller key
        chain = GraphChain(F2)
        chain.add_edge(u, v, 2)
        assert chain.edges == {(v, u): -2}
        chain.add_edge(v, u, 5)
        assert chain.edges == {(v, u): 3}
        chain.add_edge(u, v, 3)
        assert chain.edges == {}

    def test_self_loop_sums(self):
        # a generator equal to the identity makes loops; a loop is its own
        # reverse, so adding it twice doubles it
        group = trivial_group()
        e = group.identity()
        chain = GraphChain(group)
        chain.add_edge(e, e, 1)
        chain.add_edge(e, e, 1)
        assert chain.edges == {(e, e): 2} and chain.boundary() == {}

    def test_payload_rows_do_not_depend_on_direction(self):
        rng = random.Random(5)
        edges = [(u, SURF.multiply_token(u, t), rng.choice((-2, -1, 1, 2)))
                 for u in sorted(SURF.ball(2), key=SURF.sort_key)
                 for t in rng.sample(SURF._signed_tokens(), 3)]
        forward, mixed = GraphChain(SURF), GraphChain(SURF)
        for u, v, c in edges:
            forward.add_edge(u, v, c)
        rng.shuffle(edges)
        for u, v, c in edges:
            if rng.random() < 0.5:
                mixed.add_edge(v, u, -c)
            else:
                mixed.add_edge(u, v, c)
        assert forward.edges
        assert _chain_to_payload(SURF, mixed) == _chain_to_payload(SURF, forward)


# ---------------------------------------------------------------------------
# The zero-by-boundary check on the supports against the whole ball


def _full_ball_check(cert):
    """(boundary matches f on ball(R), ball(R) holds the support), read off
    every element of the ball, as the verifier once did."""
    group, f = cert.group, cert.function
    bdry = _payload_to_chain(group, cert.payload["chain"],
                             group.parse_word).boundary()
    interior = group.ball(int(cert.payload["interior_radius"]))
    return (all(bdry.get(v, 0) == f.value(v) for v in interior),
            set(f.finite) <= interior)


def _verifier_check(cert):
    result = verify_certificate(cert)
    ok = {c["name"]: c["ok"] for c in result["checks"]}
    return (ok["boundary equals function on interior"],
            "interior contains the support" not in ok)


def _boundary_certificates(group, rng, masses, radii, word_radius):
    """Bounding-chain certificates of random finite masses, as emitted and
    tampered: an edge dropped, a coefficient moved, a generator step added,
    and each stated interior radius of ``radii``."""
    words = sorted(group.ball(word_radius), key=group.sort_key)
    for _ in range(3):
        f = ClassFunction(group, 0, {g: rng.choice((-2, -1, 1, 2))
                                     for g in rng.sample(words, masses)})
        chain, _, interior = bound_finite_mass(group, f)
        rows = _chain_to_payload(group, chain)
        step = [group.format_element(rng.choice(words)), None, rng.choice((-1, 1))]
        step[1] = group.format_element(group.multiply_token(
            group.parse_word(step[0]), rng.choice(group._signed_tokens())))
        drop = rng.randrange(len(rows))
        tampered = [rows, rows[:drop] + rows[drop + 1:],
                    [r if i != drop else [r[0], r[1], r[2] + 1]
                     for i, r in enumerate(rows)],
                    rows + [step]]
        for chain_rows in tampered:
            for radius in sorted({*radii, min(interior, max(radii))}):
                yield ClassCertificate("zero-by-boundary", group, f, payload={
                    "chain": chain_rows, "interior_radius": radius,
                    "coefficient_bound": f.finite_mass()})


@pytest.mark.parametrize("group,masses,radii,word_radius", [
    (Z1, 4, (0, 1, 3, 8, 11), 3),
    (Z2, 5, (0, 1, 2, 4, 8), 2),
    (FreeAbelianGroup(3), 6, (0, 1, 2, 5), 2),
    (F2, 4, (0, 1, 2, 4), 2),
    (SURF, 3, (0, 1, 2, 3), 1),
], ids=["Z", "Z2", "Z3", "F2", "genus2"])
def test_boundary_check_on_supports_matches_full_ball(group, masses, radii,
                                                      word_radius):
    rng = random.Random(f"{group.kind}/{len(group.generator_names)}")
    outcomes = set()
    for cert in _boundary_certificates(group, rng, masses, radii, word_radius):
        expected = _full_ball_check(cert)
        assert _verifier_check(cert) == expected
        outcomes.add(expected)
    # accepted and refused certificates both occur, for each reason
    assert outcomes >= {(True, True), (False, True), (True, False)}


def test_boundary_check_with_a_constant_reads_the_whole_ball():
    # a constant is nonzero everywhere, so the supports do not bound it
    one = ClassFunction(Z1, 1, {(2,): -1})
    chain = GraphChain(Z1)
    for k in range(-3, 3):
        chain.add_edge((k,), (k + 1,), -(k + 4))
    for radius in (0, 1, 2, 3):
        cert = ClassCertificate("zero-by-boundary", Z1, one, payload={
            "chain": _chain_to_payload(Z1, chain), "interior_radius": radius,
            "coefficient_bound": 6})
        assert _verifier_check(cert) == _full_ball_check(cert)


# ---------------------------------------------------------------------------
# Max-flow values against networkx (an independent reference solver)


def _nx_deficit(group, c, radius, capacity):
    """Summed two-commodity max-flow deficit, built from the group alone."""
    nx = pytest.importorskip("networkx")
    dist = group.ball_with_distances(radius)
    edges = nx.DiGraph()
    for v in dist:
        for t in group._signed_tokens():
            w = group.multiply_token(v, t)
            if w in dist and w != v:
                edges.add_edge(v, w, capacity=capacity)
    deficit = 0
    for sign in (1, -1):
        supplies = {v: sign * c.value(v) for v, d in dist.items() if d < radius}
        supplies = {v: s for v, s in supplies.items() if s > 0}
        if not supplies:
            continue
        net = edges.copy()
        for v, s in supplies.items():
            net.add_edge("source", v, capacity=s)
        for v, d in dist.items():
            if d == radius:
                net.add_edge(v, "sink")  # no capacity attribute: unbounded
        deficit += sum(supplies.values()) - nx.maximum_flow_value(net, "source", "sink")
    return deficit


def _nx_minimal_capacity(group, c, radii):
    for capacity in range(1, 17):
        if all(_nx_deficit(group, c, r, capacity) == 0 for r in radii):
            return capacity
    raise AssertionError("no capacity up to 16")


def _mixed(group, constant):
    """Constant part plus masses of both signs, so both commodities flow."""
    a, b = group.generators()[:2]
    return ClassFunction(group, constant, {group.identity(): 2, a: -3,
                                           group.multiply(b, b): 4})


FLOW_CASES = ([(F2, r) for r in (3, 4, 5, 6)] + [(SURF, r) for r in (2, 3, 4)]
              + [(Z2, 4), (Z2, 8)])


def _cyclic8(*generator_ids):
    table = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    return FiniteGroup(table, generator_ids=list(generator_ids),
                       names=["s", "t", "u"][:len(generator_ids)])


def _doubled_cyclic():
    """Z/8 marked by 1, 4 and 1 again: 4 is its own inverse and two
    generators name one element, so rows repeat a product."""
    return _cyclic8(1, 4, 1)


# Z^2 is amenable, so its infeasible rounds relabel; Z/8 marked by 1 and 2
# has the edge (1, 2) inside sphere 1, so its radius-2 network has an edge
# between two vertices of one label
WARM_CASES = {"free2-R5": (lambda: FreeGroup(2), 5),
              "surface2-R3": (lambda: SurfaceGroup(2), 3),
              "free-abelian2-R4": (lambda: FreeAbelianGroup(2), 4),
              "free-abelian2-R8": (lambda: FreeAbelianGroup(2), 8),
              "doubled-cyclic8-R1": (_doubled_cyclic, 1),
              "doubled-cyclic8-R2": (_doubled_cyclic, 2),
              "cyclic8-by-1-2-R2": (lambda: _cyclic8(1, 2), 2)}


class TestMaxFlowAgainstNetworkx:
    @pytest.mark.parametrize("group,radius", FLOW_CASES,
                             ids=[f"{g.kind}-R{r}" for g, r in FLOW_CASES])
    def test_deficits_match(self, group, radius):
        for c in (ClassFunction(group, 1, {}), _mixed(group, 1), _mixed(group, 9)):
            for capacity in (1, 2, 3):
                res = flow_certificate(group, c, radius, capacity)
                expected = _nx_deficit(group, c, radius, capacity)
                assert (res.feasible, res.deficit) == (expected == 0, expected)

    @pytest.mark.parametrize("group,radius,constant",
                             [(Z2, 4, 1), (Z2, 8, 1), (F2, 5, 3), (SURF, 3, 9)],
                             ids=["free-abelian-R4", "free-abelian-R8", "free-R5",
                                  "surface-R3"])
    def test_minimal_capacity_matches_scan(self, group, radius, constant):
        c = _mixed(group, constant)
        assert minimal_flow_capacity(group, c, radius) \
            == _nx_minimal_capacity(group, c, [radius])

    def test_decided_capacity_matches_scan(self):
        c = _mixed(F2, 3)
        cert = decide_class(F2, c)
        assert cert.payload["capacity"] == _nx_minimal_capacity(F2, c, (3, 4, 5, 6))

    @pytest.mark.parametrize("make,radius", WARM_CASES.values(), ids=WARM_CASES.keys())
    def test_warm_started_deficits_match(self, make, radius):
        # one network raised through capacities resumes from the excess an
        # infeasible round left, on arcs that carry flow
        group = make()
        for c in (ClassFunction(group, 1, {}), _mixed(group, 1), _mixed(group, 9)):
            net = BallFlows(group, c, radius)
            for capacity in (1, 2, 3, 5):
                net.raise_to(capacity)
                assert net.deficit == _nx_deficit(group, c, radius, capacity)


# ---------------------------------------------------------------------------
# Flow networks against a scan of the ball's rows per radius


def _scanned_edges(ball, radius):
    """The edges ``(i, j)``, ``i < j``, of the network on ball(radius), each
    found by scanning the row entries of every ``i`` in ball(radius - 1),
    its first token kept."""
    edges = []
    for i in range(ball.ends[radius - 1] if radius else 0):
        seen = []
        for row in ball.rows:
            j = row[i]
            if j > i and j not in seen:
                seen.append(j)
                edges.append((i, j))
    return edges


NETWORK_CASES = {"free2": (lambda: FreeGroup(2), 6),
                 "surface2": (lambda: SurfaceGroup(2), 4),
                 "doubled-cyclic8": (_doubled_cyclic, 2)}


@pytest.mark.parametrize("make,top", NETWORK_CASES.values(),
                         ids=NETWORK_CASES.keys())
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_ball_flows_network_matches_row_scan(make, top, order):
    # each ball lists its arcs once, growing as radii are asked; every
    # network must still be the prefix a scan of the rows at its radius
    # lists, with every arc of its inner vertices inside it
    group = make()
    ball = group.indexed_ball(top)
    radii = range(top + 1) if order == "ascending" else range(top, -1, -1)
    for radius in radii:
        inner = ball.ends[radius - 1] if radius else 0
        for c in (ClassFunction(group, 1, {}), _mixed(group, 3)):
            net = BallFlows(group, c, radius)
            head, stop = net.head, net.edge_arcs
            assert [(head[a + 1], head[a]) for a in range(0, stop, 2)] \
                == _scanned_edges(ball, radius)
            assert all(net.adj[v] == [a for a in range(stop) if head[a ^ 1] == v]
                       for v in range(inner))
            values = [c.value(g) for g in ball.elements[:inner]]
            assert net.excess == {sign: [max(sign * v, 0) for v in values]
                                  for sign in (1, -1)}
            assert net.caps == {1: [0] * stop, -1: [0] * stop}


# ---------------------------------------------------------------------------
# Flow payloads oriented by ball id, and the flow check on ids against the
# element check it replaced


@pytest.mark.parametrize("make,radius", [(lambda: FreeGroup(2), 6),
                                         (lambda: SurfaceGroup(2), 5),
                                         (lambda: FreeAbelianGroup(2), 8)],
                         ids=["free2-R6", "surface2-R5", "free-abelian2-R8"])
def test_ball_edges_join_consecutive_spheres(make, radius):
    # the premise of orienting payload rows by id: each listed edge i < j
    # runs from a sphere to the next, and every word is as long as its
    # distance, so the lower id has the smaller shortlex key
    group = make()
    ball = group.indexed_ball(radius)
    end, dist = ball.ends[radius], ball.dist
    head, _, stop = _arc_table(ball, radius)
    assert all(dist[head[a]] == dist[head[a + 1]] + 1 for a in range(0, stop, 2))
    assert stop // 2 >= end - 1  # F2's Cayley graph is a tree
    assert all(len(group.element_word(g)) == d
               for g, d in zip(ball.elements[:end], dist[:end]))


def _unit_masses(group, rng, count=6):
    """``count`` unit masses of random sign on distinct elements of ball(2)."""
    words = sorted(group.ball(2), key=group.sort_key)
    return {g: rng.choice((-1, 1)) for g in rng.sample(words, count)}


def _key_oriented_rows(net):
    """The payload rows of a feasible network as a GraphChain orients them,
    by ascending shortlex key: the net edge flow reversed."""
    chain = GraphChain(net.group)
    elements, head = net.ball.elements, net.head
    plus, minus = net.caps[1], net.caps[-1]
    for a in range(0, net.edge_arcs, 2):
        chain.add_edge(elements[head[a]], elements[head[a + 1]], minus[a] - plus[a])
    return _chain_to_payload(net.group, chain)


@pytest.mark.parametrize("make,constant", [(lambda: FreeGroup(2), 1),
                                           (lambda: FreeGroup(2), 2),
                                           (lambda: FreeGroup(2), 3),
                                           (lambda: SurfaceGroup(2), 1)],
                         ids=["free2-c1", "free2-c2", "free2-c3", "surface2-c1"])
def test_payload_rows_read_off_the_arcs_match_the_key_oriented_chain(make, constant):
    rng = random.Random(f"payload/{constant}")
    for _ in range(3):
        group = make()
        f = ClassFunction(group, constant, _unit_masses(group, rng))
        cert = decide_class(group, f)
        assert cert.verdict == "zero-by-truncated-flow"
        radii = cert.payload["radii"]
        capacity, nets = _capacity_search(group, f, radii, 16)
        assert capacity == cert.payload["capacity"]
        rows = [row["chain"] for row in cert.payload["flows"]]
        assert rows == [net.payload for net in nets] == [_key_oriented_rows(net) for net in nets]
        assert all(rows)


@pytest.mark.parametrize("make", [lambda: FreeGroup(2), lambda: SurfaceGroup(2)],
                         ids=["free2", "surface2"])
def test_unit_mass_decisions_push_without_relabels(make):
    # the benchmark's decisions: constant 1 and six unit masses need capacity
    # 1, and the first sweep, highest label first, pushes every unit to the
    # sphere; a relabel means excess that found no lower neighbour
    rng = random.Random("relabels")
    for _ in range(5):
        group = make()
        f = ClassFunction(group, 1, _unit_masses(group, rng))
        radii = decide_class(group, f).payload["radii"]
        capacity, nets = _capacity_search(group, f, radii, 16)
        assert capacity == 1
        assert [net.relabels for net in nets] == [0] * len(radii)


def _element_flow_check(cert):
    """``verify_certificate`` of a zero-by-truncated-flow certificate, on
    elements, as the verifier once made it: every word parsed, each row's
    chain keyed by shortlex, ball(R - 1) rebuilt as a set per radius, and
    generator steps found by products."""
    group, f = cert.group, cert.function
    parse = functools.cache(group.parse_word)
    result = {"verified": False, "checks": []}

    def check(name, ok, detail=""):
        result["checks"].append({"name": name, "ok": bool(ok), "detail": detail})

    def require(name, ok):
        if not ok:
            check(name, False)

    cap = int(cert.payload["capacity"])
    flows = cert.payload["flows"]
    require("group is nonamenable", not group.amenable)
    require("flows are present", bool(flows))
    require("flow radii match the stated radii",
            [int(row["radius"]) for row in flows]
            == [int(r) for r in cert.payload.get("radii", ())])
    for row in flows:
        radius = int(row["radius"])
        chain = _payload_to_chain(group, row["chain"], parse)
        bdry = chain.boundary()
        interior = group.ball(radius - 1)
        check(f"flow boundary matches on ball({radius - 1})",
              all(bdry.get(v, 0) == f.value(v) for v in interior))
        require(f"flow edges are generator steps at R={radius}",
                _generator_steps(group, chain))
        check(f"flow coefficients within 2x capacity at R={radius}",
              chain.max_coefficient() <= 2 * cap)
    result["verified"] = all(c["ok"] for c in result["checks"])
    return result


def _outcome(verify, cert):
    try:
        return verify(cert)
    except (InputError, ResourceError) as e:
        return type(e).__name__, str(e)


def _flow_tampers(group, cert, rng):
    """(name, payload) of seeded tampers of an emitted flow certificate whose
    words all name elements of their row's ball(R)."""
    tokens = group._signed_tokens()
    names = group.generator_names

    def tampered(change):
        payload = copy.deepcopy(cert.payload)
        k = rng.choice([k for k, row in enumerate(payload["flows"]) if row["chain"]])
        change(payload["flows"][k], int(payload["flows"][k]["radius"]))
        return payload

    def in_ball(radius):
        ball = group.indexed_ball(radius)
        return group.word_of[ball.elements[rng.randrange(ball.ends[radius])]]

    def coefficient(row, radius):
        e = rng.randrange(len(row["chain"]))
        u, v, c = row["chain"][e]
        row["chain"][e] = [u, v, rng.choice((c + 1, c - 1, -c, 2 * int(cert.payload["capacity"]) + 1))]

    def drop(row, radius):
        del row["chain"][rng.randrange(len(row["chain"]))]

    def apart(radius):
        """Words of two elements of ball(R) that are no generator step
        apart, the first with its neighbours in ball(R)."""
        while True:
            u, v = in_ball(radius - 1), in_ball(radius)
            gu, gv = group.parse_word(u), group.parse_word(v)
            if all(group.multiply_token(gu, t) != gv for t in tokens):
                return u, v, gu

    def non_generator(row, radius):
        u, v, gu = apart(radius)
        if rng.random() < 0.5:  # a closed loop leaves every boundary as it was
            w = group.word_of[group.multiply_token(gu, rng.choice(tokens))]
            row["chain"] += [[u, v, 1], [v, w, 1], [w, u, 1]]
        else:
            row["chain"].append([u, v, rng.choice((-1, 1))])

    def cancelled_non_generator(row, radius):
        # listed once each way, the edge sums to no edge at all
        u, v, _ = apart(radius)
        row["chain"] += [[u, v, 1], [v, u, 1]]

    def reversed_edge(row, radius):
        e = rng.randrange(len(row["chain"]))
        u, v, c = row["chain"][e]
        row["chain"][e] = [v, u, rng.choice((-c, c))]

    def reversed_copy(row, radius):
        # summed with the edge, the reversed copy passes 2 x capacity
        u, v, c = row["chain"][rng.randrange(len(row["chain"]))]
        cap = int(cert.payload["capacity"])
        row["chain"].append([v, u, -2 * cap if c > 0 else 2 * cap])

    def listed_twice(row, radius):
        e = rng.randrange(len(row["chain"]))
        u, v, c = row["chain"][e]
        split = rng.choice(([u, v, 1], [v, u, -1], [u, v, c]))
        row["chain"][e] = [u, v, c - 1] if split != [u, v, c] else [u, v, c]
        row["chain"].insert(rng.randrange(len(row["chain"]) + 1), split)

    def non_reduced(row, radius):
        e = rng.randrange(len(row["chain"]))
        side = rng.randrange(2)
        word = row["chain"][e][side].split()
        x = rng.choice(names)
        # a detour of length radius + 1 leaves ball(radius) and comes back
        detour = [x] * rng.choice((1, radius + 1))
        at = rng.randrange(len(word) + 1)
        row["chain"][e][side] = " ".join(word[:at] + detour + [f"-{x}"] * len(detour)
                                         + word[at:])

    def radius_zero(row, radius):
        row["radius"] = 0

    def unknown_symbol(row, radius):
        e = rng.randrange(len(row["chain"]))
        row["chain"][e][rng.randrange(2)] += " zz"

    for change in (coefficient, drop, non_generator, cancelled_non_generator,
                   reversed_edge, reversed_copy, listed_twice, non_reduced,
                   radius_zero, unknown_symbol):
        for _ in range(3):
            yield change.__name__, tampered(change)


def _outside_edges(group, cert, rng):
    """Payloads with one edge added whose far end lies outside its row's
    ball(R): a generator step off the sphere, or a jump from the centre."""
    for k, row in enumerate(cert.payload["flows"]):
        radius = int(row["radius"])
        ball = group.indexed_ball(radius)
        sphere = ball.elements[rng.randrange(ball.ends[radius - 1], ball.ends[radius])]
        longer = [group.multiply_token(sphere, t) for t in group._signed_tokens()]
        far = rng.choice([g for g in longer if group.length(g) > radius])
        for u, v in ((sphere, far), (group.identity(), far)):
            payload = copy.deepcopy(cert.payload)
            payload["flows"][k]["chain"].append(
                [group.word_of[u], group.word_of[v], rng.choice((-1, 1))])
            yield radius, payload


def test_flow_row_radius_past_the_ball_budget_is_refused():
    # the check reads the indexed ball of the largest row radius, which the
    # ball budget bounds as it bounds the decision's
    group = FreeGroup(2, ball_budget=3)
    cert = ClassCertificate("zero-by-truncated-flow", group, ClassFunction(group, 1, {}),
                            payload={"capacity": 2, "radii": [4],
                                     "flows": [{"radius": 4, "chain": [["", "a", -1]]}]})
    with pytest.raises(ResourceError, match="exceeds the ball budget 3"):
        verify_certificate(cert)


@pytest.mark.parametrize("make,constant,radii", [
    (lambda: FreeGroup(2), 1, None),
    (lambda: FreeGroup(2), 3, None),
    (lambda: SurfaceGroup(2), 1, None),
    (lambda: FreeGroup(2), 1, (1, 2)),
], ids=["free2-c1", "free2-c3", "surface2-c1", "free2-R1"])
def test_flow_check_on_ids_matches_the_element_check(make, constant, radii):
    rng = random.Random(f"flow-check/{constant}/{radii}")
    group = make()
    f = ClassFunction(group, constant, _unit_masses(group, rng))
    cert = decide_class(group, f, flow_radii=radii)
    assert cert.verdict == "zero-by-truncated-flow"
    assert _element_flow_check(cert) == cert.verifier_result
    outcomes = set()
    for name, payload in _flow_tampers(group, cert, rng):
        forged = ClassCertificate(cert.verdict, group, f, payload=payload)
        expected = _outcome(_element_flow_check, forged)
        assert _outcome(verify_certificate, forged) == expected, name
        outcomes.add((name, expected["verified"] if isinstance(expected, dict)
                      else expected[0]))
    # each tamper that can go either way does, and refusals are raised
    assert {("coefficient", False), ("drop", False), ("non_generator", False),
            ("cancelled_non_generator", True), ("reversed_edge", True),
            ("reversed_copy", False), ("non_reduced", True),
            ("radius_zero", "InputError"), ("unknown_symbol", "InputError")} <= outcomes
    for radius, payload in _outside_edges(group, cert, rng):
        forged = ClassCertificate(cert.verdict, group, f, payload=payload)
        assert _failed(verify_certificate(forged)) == {f"flow edges lie in ball({radius})"}


# ---------------------------------------------------------------------------
# The decision ball's last sphere, whose row entries are all -1


@pytest.mark.parametrize("make", [lambda: FreeGroup(2), lambda: SurfaceGroup(2)],
                         ids=["free2", "surface2"])
def test_forged_edges_at_the_last_sphere_fail(make):
    # the verifier reads the rows of the decision's ball(R), whose last
    # sphere is never expanded; an edge between two of its vertices is
    # still no generator step, and one leaving it still leaves the ball
    rng = random.Random("last-sphere")
    group = make()
    f = ClassFunction(group, 1, _unit_masses(group, rng))
    cert = decide_class(group, f)
    assert cert.verdict == "zero-by-truncated-flow" and cert.verifier_result["verified"]
    radius = max(cert.payload["radii"])
    ball = group.indexed_ball(radius)
    assert ball.radius == radius
    tokens = group._signed_tokens()
    last = ball.elements[ball.ends[radius - 1]:]
    u = rng.choice(last)
    # a sibling: another last-sphere child of u's parent, two steps from u
    parent = group.multiply_token(u, -group.element_word(u)[-1])
    v = rng.choice([g for g in (group.multiply_token(parent, t) for t in tokens)
                    if g != u and group.length(g) == radius])
    w = rng.choice([g for g in (group.multiply_token(u, t) for t in tokens)
                    if group.length(g) > radius])
    for far, failed in ((v, f"flow edges are generator steps at R={radius}"),
                        (w, f"flow edges lie in ball({radius})")):
        payload = copy.deepcopy(cert.payload)
        payload["flows"][-1]["chain"].append([group.word_of[u], group.word_of[far], 1])
        forged = ClassCertificate(cert.verdict, group, f, payload=payload)
        assert _failed(verify_certificate(forged)) == {failed}


def test_locator_walks_back_from_past_the_last_sphere():
    # a^6 lies on the last sphere of F2 ball(6), whose rows are -1, so the
    # spelled walk stops there and the canonical word a^5 is walked instead
    group = FreeGroup(2)
    ball = group.indexed_ball(6)
    locate = _ball_locator(group, ball)
    a5 = ball.elements.index((1,) * 5)
    assert locate("a a a a a a -a") == locate("a a a a a") == a5
    assert locate("a a a a a a a -a -a") == a5
    assert locate("a a a a a a") == ball.elements.index((1,) * 6)
    assert locate("a a a a a a a") == -1
