import random
from fractions import Fraction

import pytest

from deckindex.classes import ClassFunction
from deckindex.errors import InputError
from deckindex.groups import (
    FreeAbelianGroup,
    FreeGroup,
    SurfaceGroup,
    cyclic_group,
    folner_average,
    trivial_group,
)
from deckindex.ufh import (
    MEAN_INDICES,
    ClassCertificate,
    GraphChain,
    bound_finite_mass,
    decide_class,
    flow_certificate,
    isoperimetric_probe,
    _chain_to_payload,
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
            bdry = res.chain.boundary()
            for v in F2.ball(radius - 1):
                assert bdry.get(v, 0) == 1
            assert res.chain.max_coefficient() <= 2

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
        assert res.feasible and res.chain.edges == {}

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
                     "flows": [{"radius": 4, "chain": _chain_to_payload(Z2, res.chain)}]})
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
