"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance here is exact (integer or rational equality); runtimes are
asserted against the stated ceilings.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from deckindex.chains import (
    PeriodicChain,
    boundary,
    cap,
    coboundary,
    fundamental_cycle,
    pair,
    random_chain,
)
from deckindex.complexes import PeriodicComplex, barycentric_subdivide
from deckindex.errors import DeckIndexError
from deckindex.fixpoint import (
    AnalyticModel,
    equivariant_oracle_check,
    ingest_index_data,
    lefschetz_class,
    map_model_from_document,
)
from deckindex.fixtures import (
    csaszar_torus,
    fixture_document,
    genus2_surface,
    klein_grid,
    octahedron_sphere,
    tetrahedron_sphere,
    torus_grid,
)
from deckindex.groups import FreeAbelianGroup, FreeGroup
from deckindex.ufh import (
    decide_class,
    flow_certificate,
    isoperimetric_probe,
    minimal_flow_capacity,
)
from deckindex.vectorfield import field_model_from_document, index_class


def _verdict(number, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.2f}s < {limit}s): {detail}")
    assert ok, detail
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_connected_sum_reproduction():
    t0 = time.monotonic()
    f, _ = ingest_index_data(fixture_document("connected-sum-index"))
    assert f.constant == 2 and not f.finite
    cert = decide_class(f.group, f)
    ok = (cert.verdict == "nonzero-by-mean"
          and Fraction(cert.payload["limit"]) == 2
          and all(Fraction(row["average"]) == 2
                  for row in cert.payload["averages"])
          and cert.verifier_result["verified"])
    _verdict(1, ok, "index data over Z gives the constant class 2 with exact "
                    "mean limit 2", time.monotonic() - t0, 1.0)


def test_criterion_2_lefschetz_hopf_vs_classical_oracle():
    t0 = time.monotonic()
    fixtures = ["octahedron-rotation",    # trace 2, order-3 rotation
                "sin-map",                # torus descent, trace 0
                "octahedron-antipodal"]   # degree -1, trace 0
    outcomes = []
    for name in fixtures:
        model = map_model_from_document(fixture_document(name))
        out = equivariant_oracle_check(model)
        outcomes.append(out["equal"])
    ok = all(outcomes) and len(outcomes) >= 3
    _verdict(2, ok, "class constants equal classical alternating traces on "
                    f"{len(outcomes)} equivariant strongly tame maps",
             time.monotonic() - t0, 30.0)


def test_criterion_3_poincare_hopf():
    t0 = time.monotonic()
    sin_field = field_model_from_document(fixture_document("sin-field"))
    cls = index_class(sin_field)
    ok_torus = cls.constant == 0 and not cls.finite
    polar = field_model_from_document(fixture_document("octahedron-polar-field"))
    cls2 = index_class(polar)
    total = sum(cls2.value(g) for g in polar.group.elements())
    ok_sphere = total == 2
    _verdict(3, ok_torus and ok_sphere,
             "sin field class is exactly 0 = chi(T^2); polar sphere field "
             "totals exactly 2 = chi(S^2)", time.monotonic() - t0, 10.0)


def test_criterion_4_amenability_dichotomy():
    t0 = time.monotonic()
    z2 = FreeAbelianGroup(2)
    scheme = z2.folner_scheme(1)
    ratios = [scheme.ratio(t) for t in range(2, 9)]
    ok_z2 = all(a > b for a, b in zip(ratios, ratios[1:])) \
        and ratios[-1] < Fraction(1, 3)

    f2 = FreeGroup(2)
    probe = isoperimetric_probe(f2, range(1, 7))
    ok_f2_probe = all(row["ratio"] >= Fraction(1, 2) for row in probe)

    from deckindex.classes import ClassFunction
    one = ClassFunction(f2, 1, {})
    ok_flows = all(flow_certificate(f2, one, r, capacity=2).feasible
                   for r in (3, 4, 5, 6))

    one_z2 = ClassFunction(z2, 1, {})
    c4 = minimal_flow_capacity(z2, one_z2, 4)
    c8 = minimal_flow_capacity(z2, one_z2, 8)
    ok_growth = c8 > c4

    ok = ok_z2 and ok_f2_probe and ok_flows and ok_growth
    _verdict(4, ok,
             f"Z^2 collar ratios strictly decrease to {ratios[-1]} < 1/3; "
             "free-group boundary ratios >= 1/2; uniform capacity 2 feasible "
             f"at R=3..6; Z^2 minimal capacity grows ({c4} -> {c8})",
             time.monotonic() - t0, 60.0)


def test_criterion_5_certificates_reverify():
    t0 = time.monotonic()
    rng = random.Random(2024)
    groups = [FreeAbelianGroup(2), FreeGroup(2)]
    from deckindex.classes import ClassFunction
    from deckindex.ufh import _payload_to_chain

    reverified = 0
    for trial in range(100):
        group = groups[trial % 2]
        ball = sorted(group.ball(2), key=group.sort_key)
        finite = {}
        for _ in range(rng.randint(1, 4)):
            finite[rng.choice(ball)] = rng.randint(-4, 4)
        f = ClassFunction(group, 0, finite)
        cert = decide_class(group, f)
        # independent re-verification in the test: rebuild the chain from
        # the payload and compare the boundary to f on the stated region
        if cert.verdict == "zero-by-boundary":
            chain = _payload_to_chain(group, cert.payload["chain"], group.parse_word)
            bdry = chain.boundary()
            region = group.ball(int(cert.payload["interior_radius"]))
            assert all(bdry.get(v, 0) == f.value(v) for v in region)
            reverified += 1
        elif cert.verdict == "zero-by-truncated-flow":
            for row in cert.payload["flows"]:
                chain = _payload_to_chain(group, row["chain"], group.parse_word)
                bdry = chain.boundary()
                region = group.ball(int(row["radius"]) - 1)
                assert all(bdry.get(v, 0) == f.value(v) for v in region)
            reverified += 1
        else:
            raise AssertionError(f"unexpected verdict {cert.verdict}")

    coinvariant_ok = 0
    for trial in range(100):
        group = groups[trial % 2]
        ball = sorted(group.ball(2), key=group.sort_key)
        f = ClassFunction(group, 0, {rng.choice(ball): rng.randint(-3, 3)
                                     for _ in range(rng.randint(1, 3))})
        gen = group.generators()[trial % len(group.generators())]
        cert = decide_class(group, f - f.translate(gen))
        if cert.verdict in ("zero-by-boundary", "zero-by-truncated-flow") \
                and cert.verifier_result["verified"]:
            coinvariant_ok += 1
    ok = reverified == 100 and coinvariant_ok == 100
    _verdict(5, ok, f"{reverified}/100 vanishing payloads re-verified exactly; "
                    f"{coinvariant_ok}/100 coinvariant differences vanish",
             time.monotonic() - t0, 120.0)


def test_criterion_6_chain_algebra_identities():
    t0 = time.monotonic()
    rng = random.Random(99)
    torus = torus_grid()
    genus2 = genus2_surface()

    boundary_sq = cob_sq = adjoint = leibniz = 0
    for q in (torus, genus2):
        for _ in range(50):
            c = random_chain(rng, q, 2, radius=2)
            assert boundary(boundary(c)).is_zero()
            boundary_sq += 1
        for _ in range(50):
            u = random_chain(rng, q, 0, cochain=True, radius=2)
            assert coboundary(coboundary(u)).is_zero()
            cob_sq += 1
        for _ in range(50):
            p = rng.choice([0, 1])
            u = random_chain(rng, q, p, cochain=True, radius=2)
            c = PeriodicChain(q, p + 1, {},
                              random_chain(rng, q, p + 1, radius=2).exceptional)
            # adjunction with the sign carried by this coboundary convention
            assert pair(coboundary(u), c) == (-1) ** (p + 1) * pair(u, boundary(c))
            adjoint += 1
        for (p, qd) in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
            for _ in range(20):
                u = random_chain(rng, q, p, cochain=True, radius=2)
                c = random_chain(rng, q, qd, radius=2)
                if qd == p:
                    # every term of the identity leaves the degree range:
                    # the cap is a 0-chain (boundary zero by convention) and
                    # both right-hand terms have cochain degree > chain degree
                    assert cap(u, c).degree == 0
                    leibniz += 1
                    continue
                lhs = boundary(cap(u, c))
                rhs = cap(u, boundary(c)).scale((-1) ** p)
                if p + 1 <= qd:
                    rhs = rhs + cap(coboundary(u), c)
                assert lhs == rhs
                leibniz += 1

    for q in (tetrahedron_sphere(), octahedron_sphere(), torus, csaszar_torus(),
              genus2):
        assert boundary(fundamental_cycle(PeriodicComplex(q))).is_zero()

    klein_rejected = False
    try:
        PeriodicComplex(klein_grid())
    except DeckIndexError:
        klein_rejected = True

    ok = (boundary_sq >= 100 and cob_sq >= 100 and adjoint >= 100
          and leibniz >= 80 and klein_rejected)
    _verdict(6, ok,
             f"boundary^2=0 ({boundary_sq}), coboundary^2=0 ({cob_sq}), "
             f"signed adjunction ({adjoint}), Leibniz ({leibniz}) all exact; "
             "fundamental cycles closed; Klein fixture rejected",
             time.monotonic() - t0, 60.0)


def test_criterion_7_stability_suite():
    t0 = time.monotonic()
    sub_torus = barycentric_subdivide(torus_grid(), 1).complex

    sin_model = map_model_from_document(fixture_document("sin-map"))
    sin_fine = AnalyticModel(sub_torus, ["sin(2*pi*x)/5", "sin(2*pi*y)/5"],
                             Fraction(2, 5))
    ok1 = lefschetz_class(sin_fine) == lefschetz_class(sin_model)

    scaled = map_model_from_document(fixture_document("sin-map-scaled"))
    scaled_fine = AnalyticModel(sub_torus,
                                ["(3/10)*sin(2*pi*x)", "(3/10)*sin(2*pi*y)"],
                                Fraction(1, 2))
    ok2 = lefschetz_class(scaled_fine) == lefschetz_class(scaled)

    antipodal = map_model_from_document(fixture_document("octahedron-antipodal"))
    pushed = antipodal.subdivided(1)
    ok3 = lefschetz_class(pushed).is_zero_function() and \
        lefschetz_class(antipodal).is_zero_function()

    # displacement scaling d -> 1.5 d keeps the zero set and Jacobian signs
    ok4 = lefschetz_class(scaled) == lefschetz_class(sin_model)

    ok = ok1 and ok2 and ok3 and ok4
    _verdict(7, ok, "index class invariant under one extra subdivision on 3 "
                    "fixtures and under displacement scaling d -> 1.5 d",
             time.monotonic() - t0, 60.0)


def test_criterion_8_selftest_determinism(tmp_path):
    t0 = time.monotonic()
    from deckindex.cli import main
    blobs = []
    for run in range(10):
        out = str(tmp_path / f"run{run}")
        code = main(["selftest", "--seed", "11", "--out", out])
        assert code == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blobs.append(fh.read())
    ok = all(b == blobs[0] for b in blobs)
    payload = json.loads(blobs[0])
    ok = ok and payload["report"]["all_passed"]
    _verdict(8, ok, "10 seed-fixed selftest executions byte-identical and green",
             time.monotonic() - t0, 300.0)
