"""Batch front end: ingest JSON documents, run the pipelines, emit reports.

Commands
--------
validate        check a quotient-complex document
map-analyze     full fixed-point pipeline (or index-data ingestion)
field-analyze   full vector-field pipeline (or index-data ingestion)
amenability     isoperimetric / Folner / flow probes for a group
decide-class    vanishing certificate for a class-function document
selftest        seeded property suite over the shipped fixtures

Exit codes: 0 success, 1 validation/input failure, 2 resource budget,
3 internal invariant breach (always a bug).  All outputs are canonical
JSON (plus optional SVG charts), so identical configuration and inputs
give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import reports
from .classes import ClassFunction
from .errors import DeckIndexError, InputError, OrientationError
from .groups import group_from_document, group_to_document


# the options a report's "config" block records
CONFIG_KEYS = ("command", "radius", "capacity", "subdivide", "grid", "seed", "plots")


def _load_document(ref: str) -> dict:
    if ref.startswith("fixture:"):
        from .fixtures import fixture_complex, fixture_document
        name = ref.split(":", 1)[1]
        try:
            return fixture_document(name)
        except InputError:
            return {"complex": fixture_complex(name).to_document()}
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {ref}: {e.strerror or e}")
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise InputError(f"{ref} is not a UTF-8 JSON document: {e}")
    if not isinstance(doc, dict):
        raise InputError(f"{ref} must hold a JSON object")
    return doc


def _emit(args: argparse.Namespace, payload: dict, charts=None) -> None:
    report = {"config": {k: getattr(args, k) for k in CONFIG_KEYS},
              "report": payload}
    if args.out:
        reports.write_report(args.out, "report.json", report)
        if args.plots and charts:
            for name, (title, labels, values) in charts.items():
                reports.write_chart(args.out, name, title, labels, values)
    else:
        sys.stdout.write(reports.canonical_json(report))


def _looks_like_index_data(doc: dict) -> bool:
    return "group" in doc and ("constant" in doc or "finite" in doc) \
        and "variant" not in doc


def _certificate_narrative(cert) -> str:
    if cert.verdict == "nonzero-by-mean":
        return ("the class is nonzero: every invariant mean sends it to "
                f"{cert.payload['limit']}; consequently any strongly tame map "
                "uniformly homotopic to one carrying this index data has "
                "infinitely many fixed points on the cover")
    if cert.verdict == "zero-by-truncated-flow":
        return ("the deck group is nonamenable, so every bounded index class "
                "vanishes; the uniform-capacity flow family is finite evidence "
                "consistent with, not a proof of, the infinite certificate")
    if cert.verdict == "zero-by-boundary":
        return ("the class vanishes: the stated 1-chain bounds it exactly on "
                "the stated region")
    return "no decision within the configured budgets"


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args: argparse.Namespace) -> int:
    from .complexes import QuotientComplex, barycentric_subdivide, validate_quotient
    from .fixtures import FIXTURE_BUILDERS
    ref = args.inputs[0]
    fixture = ref.split(":", 1)[1] if ref.startswith("fixture:") else None
    if fixture in FIXTURE_BUILDERS:  # a shipped complex, without its document
        q = FIXTURE_BUILDERS[fixture]()
    else:
        doc = _load_document(ref)
        q = QuotientComplex.from_document(doc.get("complex", doc))
    report = validate_quotient(q)
    if args.subdivide and report.valid:  # only a valid datum is subdivided
        q = barycentric_subdivide(q, args.subdivide).complex
        report = validate_quotient(q)
    payload = report.to_document()
    payload["cells"] = [q.count(k) for k in range(q.dimension + 1)]
    _emit(args, payload)
    return 0 if report.valid else 1


def _class_chart(f: ClassFunction):
    """Chart of a class function's values over ball(3)."""
    group = f.group
    ball = sorted(group.ball(min(3, group.ball_budget)), key=group.key_of.__getitem__)
    return ("per-coset index sums over ball(3)",
            [group.word_of[g] or "e" for g in ball],
            [f.value(g) for g in ball])


def _class_analysis(args: argparse.Namespace, f: ClassFunction, extra: dict,
                    charts: dict) -> dict:
    from .ufh import decide_class
    cert = decide_class(f.group, f, capacity_budget=args.capacity)
    payload = dict(extra)
    payload["class_function"] = f.to_document()
    payload["certificate"] = cert.to_document()
    payload["narrative"] = _certificate_narrative(cert)
    if args.plots:  # a chart sorts and formats ball(3): build it only on demand
        charts["class_function.svg"] = _class_chart(f)
        if cert.verdict == "nonzero-by-mean":
            rows = cert.payload["averages"]
            charts["folner_averages.svg"] = (
                "Folner averages", [r["t"] for r in rows],
                [Fraction(r["average"]) for r in rows])
    return payload


def cmd_analyze(args: argparse.Namespace) -> int:
    """map-analyze and field-analyze: one pipeline for maps and fields.

    The command picks the document reader.  From there the model's index
    sign picks the pipeline's public entry points, the report keys
    (``fixed_points`` or ``zeros``) and the report tail: the class
    decision and the classical oracle for a map, the Poincare-Hopf check
    for a field.
    """
    doc = _load_document(args.inputs[0])
    charts: dict = {}
    if _looks_like_index_data(doc):  # a class function: the group side alone
        from .classes import ingest_index_data
        f, note = ingest_index_data(doc)
        payload = _class_analysis(args, f, {"mode": "index-data",
                                            "provenance": note}, charts)
        _emit(args, payload, charts)
        return 0
    from . import fixpoint, vectorfield
    from .complexes import PeriodicComplex
    read = fixpoint.map_model_from_document if args.command == "map-analyze" \
        else vectorfield.field_model_from_document
    model = read(doc)
    if args.subdivide:
        model = model.subdivided(args.subdivide)
    is_map = model.index_matrix_sign < 0
    # looked up at call time, so that wrappers installed on the modules apply
    if is_map:
        mode, zeros_key = "map", "fixed_points"
        tameness, find = fixpoint.tameness_check, fixpoint.find_fixed_points
    else:
        mode, zeros_key = "field", "zeros"
        tameness, find = vectorfield.field_tameness_check, vectorfield.find_zeros
    report = tameness(model, grid=args.grid)
    payload = {"mode": mode, "variant": model.variant,
               "subdivision_refinement": args.subdivide,
               "tameness": report.to_document()}
    if report.verdict == "not tame":
        payload["note"] = f"pipeline stops: the {mode} is not tame"
        _emit(args, payload, charts)
        return 0
    radius = args.radius if model.variant == "analytic" else 0
    records = find(model, radius)
    fd = PeriodicComplex(model.complex).fundamental_domain()
    n = model.complex.dimension
    for r in records:
        r.coset = fd.coset_of_cell(r.host[0], n, r.host[1])
    payload[zeros_key] = [r.to_document(model.group) for r in records]
    if is_map:
        payload["fixed_points_per_domain"] = len(records) if radius == 0 else \
            len(find(model, 0))
        cls = fixpoint.lefschetz_class(model, fd=fd, report=report)
        payload.update(_class_analysis(args, cls, {}, charts))
        if model.equivariant:
            payload["oracle"] = fixpoint.equivariant_oracle_check(
                model, report=report, cls=cls)
    else:
        ph = vectorfield.poincare_hopf_check(model, report=report)
        for key in ("euler_characteristic", "index_class", "consistent",
                    "interpretation"):
            payload[key] = ph[key]
        payload["difference_certificate"] = ph["certificate"].to_document()
        if args.plots:
            charts["index_class.svg"] = _class_chart(ph["class_function"])
    _emit(args, payload, charts)
    return 0


def cmd_amenability(args: argparse.Namespace) -> int:
    from .fixtures import FIXTURE_GROUPS
    from .ufh import flow_certificate, isoperimetric_probe
    ref = args.inputs[0]
    fixture = ref.split(":", 1)[1] if ref.startswith("fixture:") else None
    if fixture in FIXTURE_GROUPS:  # a shipped complex's group, without the complex
        block = group_to_document(FIXTURE_GROUPS[fixture]())
    else:
        # a bare group block, or the group of a class, complex, map or field
        # document; a document naming its complex by fixture reads that group
        doc = _load_document(ref)
        if "fixture" in doc and "complex" not in doc:
            from .fixpoint import resolve_complex_reference
            block = group_to_document(resolve_complex_reference(doc).group)
        else:
            block = doc.get("complex", doc)
            block = block.get("group", doc) if isinstance(block, dict) else block
    group = group_from_document(block)
    radii = list(range(1, args.radius + 1))
    scheme = group.folner_scheme()
    probe = isoperimetric_probe(group, radii)  # counted, with no ball
    payload = {
        "group": block,
        "kind": group.kind,
        "amenable_kind": group.amenable,
        "isoperimetric": [{"radius": r["radius"], "ball": r["ball"],
                           "boundary": r["boundary"],
                           "ratio": reports.fraction_str(r["ratio"])}
                          for r in probe],
    }
    charts = {
        "isoperimetric.svg": ("outer boundary ratio vs radius",
                              [r["radius"] for r in probe],
                              [r["ratio"] for r in probe]),
    }
    if scheme is not None:
        rows = []
        for t in range(1, 9):
            rows.append({"t": t, "size": scheme.size(t),
                         "ratio": reports.fraction_str(scheme.ratio(t))})
        payload["folner"] = rows
        charts["folner.svg"] = ("Folner collar ratio vs index",
                                [r["t"] for r in rows],
                                [Fraction(r["ratio"]) for r in rows])
    else:
        one = ClassFunction(group, 1, {})
        flow_radii = (2, 3) if group.kind == "surface" else (3, 4, 5, 6)
        # one ball serves every flow radius: ask for the largest first,
        # unless it is refused, which the flow that reads it then reports
        if flow_radii[-1] <= group.ball_budget:
            group.indexed_ball(flow_radii[-1])
        rows = []
        for r in flow_radii:
            res = flow_certificate(group, one, r, capacity=2,
                                   capacity_budget=args.capacity)
            rows.append({"radius": r, "capacity": 2,
                         "feasible": res.feasible, "deficit": res.deficit})
        payload["uniform_capacity_flows"] = rows
        payload["note"] = ("uniform-capacity feasibility across radii is the "
                           "nonamenability signature; finite evidence "
                           "consistent with, not a proof of, the infinite "
                           "certificate")
    _emit(args, payload, charts)
    return 0


def cmd_decide_class(args: argparse.Namespace) -> int:
    doc = _load_document(args.inputs[0])
    group = group_from_document(doc.get("group"))
    f = ClassFunction.from_document(group, doc)
    charts: dict = {}
    payload = _class_analysis(args, f, {"mode": "decide-class"}, charts)
    _emit(args, payload, charts)
    return 0


# ---------------------------------------------------------------------------
# Self test


def _selftest_properties(seed: int) -> list:
    from .chains import (PeriodicChain, boundary, cap, coboundary,
                         fundamental_cycle, pair, random_chain)
    from .complexes import PeriodicComplex
    from .fixtures import (fixture_document, genus2_surface, klein_grid,
                           tetrahedron_sphere, torus_grid)
    from .fixpoint import lefschetz_class, map_model_from_document
    from .groups import FreeAbelianGroup, FreeGroup
    from .ufh import decide_class

    rng = random.Random(seed)
    results = []

    def record(name, passed, detail=""):
        results.append({"property": name, "passed": bool(passed),
                        "detail": detail})

    torus = torus_grid()
    genus2 = genus2_surface()

    ok = True
    for q in (torus, genus2):
        for _ in range(25):
            c = random_chain(rng, q, 2)
            if not boundary(boundary(c)).is_zero():
                ok = False
    record("boundary squared is zero", ok)

    ok = True
    for q in (torus, genus2):
        for _ in range(25):
            u = random_chain(rng, q, 0, cochain=True)
            if not coboundary(coboundary(u)).is_zero():
                ok = False
    record("coboundary squared is zero", ok)

    ok = True
    for q in (torus, genus2):
        for _ in range(25):
            p = rng.choice([0, 1])
            u = random_chain(rng, q, p, cochain=True)
            c = PeriodicChain(q, p + 1, {}, random_chain(rng, q, p + 1).exceptional)
            if pair(coboundary(u), c) != (-1) ** (p + 1) * pair(u, boundary(c)):
                ok = False
    record("signed adjunction of boundary and coboundary", ok)

    ok = True
    for q in (torus, genus2):
        for (p, qd) in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
            for _ in range(5):
                u = random_chain(rng, q, p, cochain=True)
                c = random_chain(rng, q, qd)
                if qd - p < 1:
                    continue
                lhs = boundary(cap(u, c))
                rhs = cap(u, boundary(c)).scale((-1) ** p) if qd >= 1 else None
                if p + 1 <= qd:
                    t = cap(coboundary(u), c)
                    rhs = t if rhs is None else rhs + t
                if lhs != rhs:
                    ok = False
    record("cap-product Leibniz identity", ok)

    ok = True
    for q in (tetrahedron_sphere(), torus, genus2):
        mu = fundamental_cycle(PeriodicComplex(q))
        if not boundary(mu).is_zero():
            ok = False
    record("fundamental cycles are cycles", ok)

    # planted fault: the non-orientable fixture must be rejected
    caught = False
    try:
        PeriodicComplex(klein_grid())
    except OrientationError:
        caught = True
    record("non-orientable fixture rejected", caught)

    sin_model = map_model_from_document(fixture_document("sin-map"))
    scaled = map_model_from_document(fixture_document("sin-map-scaled"))
    ok = lefschetz_class(sin_model) == lefschetz_class(scaled)
    record("index class stable under displacement scaling", ok)

    ok = True
    for group in (FreeAbelianGroup(2), FreeGroup(2)):
        ball = sorted(group.ball(2), key=group.sort_key)
        for _ in range(5):
            f = ClassFunction(group, 0, {rng.choice(ball): rng.randint(-3, 3)
                                         for _ in range(3)})
            for gen in group.generators():
                cert = decide_class(group, f - f.translate(gen))
                if cert.verdict not in ("zero-by-boundary",
                                        "zero-by-truncated-flow"):
                    ok = False
                if not cert.verifier_result["verified"]:
                    ok = False
    record("coinvariant differences vanish with verified certificates", ok)

    return results


def cmd_selftest(args: argparse.Namespace) -> int:
    results = _selftest_properties(args.seed)
    payload = {"seed": args.seed, "properties": results,
               "all_passed": all(r["passed"] for r in results)}
    _emit(args, payload)
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['property']}", file=sys.stderr)
    return 0 if payload["all_passed"] else 3


# ---------------------------------------------------------------------------
# Entry point


@functools.cache  # one argparse tree per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deckindex",
        description="fixed-point and vector-field index classes on periodic "
                    "covers, with vanishing certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_input in [("validate", True), ("map-analyze", True),
                              ("field-analyze", True), ("amenability", True),
                              ("decide-class", True), ("selftest", False)]:
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("inputs", nargs=1,
                           help="JSON document path or fixture:<name>")
        p.add_argument("--radius", type=int, default=2,
                       help="deck-ball radius budget for regions and probes")
        p.add_argument("--capacity", type=int, default=16,
                       help="flow capacity budget")
        p.add_argument("--subdivide", type=int, default=0,
                       help="extra barycentric subdivisions before analysis "
                            "(validate, map-analyze and field-analyze; the "
                            "other commands refuse a nonzero value)")
        p.add_argument("--grid", type=int, default=32,
                       help="map-analyze and field-analyze sample tameness "
                            "on GRID points per axis (at least 32), refined "
                            "once to twice that; the Newton grid is the model "
                            "document's 'grid'")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized property suites")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--plots", action="store_true",
                       help="emit static SVG charts next to the report")
    return parser


# the commands that read --subdivide; the others refuse a nonzero value
SUBDIVIDING = ("validate", "map-analyze", "field-analyze")

COMMANDS = {
    "validate": cmd_validate,
    "map-analyze": cmd_analyze,
    "field-analyze": cmd_analyze,
    "amenability": cmd_amenability,
    "decide-class": cmd_decide_class,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed the help (exit 0) or its usage and message;
        # a malformed command line is an input failure, since 2 means a
        # resource budget
        return 1 if e.code else 0
    try:
        for flag, value in (("--radius", args.radius), ("--capacity", args.capacity)):
            if value < 0:  # a budget, which no negative value states
                raise InputError(f"{flag} must be >= 0, not {value}")
        if args.subdivide:
            if args.command not in SUBDIVIDING:
                raise InputError(f"--subdivide is read only by {', '.join(SUBDIVIDING)}; "
                                 f"{args.command} does not subdivide")
            from .complexes import check_subdivision_count
            check_subdivision_count(args.subdivide, "--subdivide")
        return COMMANDS[args.command](args)
    except DeckIndexError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:  # noqa: BLE001 - invariant breach surface
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
