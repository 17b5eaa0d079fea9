"""Seeded workload definitions: input documents, command lists and the
known-answer checks each command's report must satisfy.

Inputs are generated here without importing the program, so a change to the
program can never change what it is asked to do.  Every expected answer is
derived from theory (Euler characteristics, Lefschetz traces, ball-size
formulas, amenability of the deck group), never from an earlier report.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("analytic-torus", "nonamenable-certificates",
             "amenable-certificates", "simplicial-exact")


@dataclass(frozen=True)
class Command:
    """One ``deckindex.cli.main`` call and the answer it must give."""

    label: str                 # stable name; drift and failures are counted by it
    argv: tuple                # "{doc}" stands for the document's path
    check: str | None          # name of a function in CHECKS; None for a refusal
    expect: dict = field(default_factory=dict)
    document: dict | None = None
    exit_code: int = 0

    def resolved_argv(self, doc_dir: str) -> list:
        path = os.path.join(doc_dir, self.label.replace(":", "_") + ".json")
        return [a.replace("{doc}", path) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple            # one pass, in order
    warmup: tuple              # run once, untimed, before the first pass
    tail_percentile: int       # 100 means the maximum
    min_samples: int           # a run holds at least this many samples

    def write_documents(self, doc_dir: str) -> None:
        for cmd in self.commands + self.warmup:
            if cmd.document is not None:
                with open(cmd.resolved_argv(doc_dir)[1], "w", encoding="utf-8") as fh:
                    json.dump(cmd.document, fh, sort_keys=True)

    def digest(self) -> str:
        """Identity of the generated inputs (same seed, same digest)."""
        blob = json.dumps([[c.label, list(c.argv), c.document, c.expect]
                           for c in self.commands + self.warmup], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Group words, generated independently of the program

F2 = {"kind": "free", "rank": 2, "generators": ["a", "b"]}
SURFACE2 = {"kind": "surface", "genus": 2,
            "generators": ["a1", "b1", "a2", "b2"]}


def _free_words(names, radius):
    """Freely reduced words of length <= radius.

    In a free group these are the ball's elements.  In the genus-2 surface
    group (relator length 8) Dehn's algorithm shows that two such words with
    radius <= 2 name distinct elements, so they are the ball's elements too.
    """
    letters = list(names) + ["-" + n for n in names]
    inverse = {n: "-" + n for n in names}
    inverse.update({"-" + n: n for n in names})
    out = [()]
    frontier = [()]
    for _ in range(radius):
        frontier = [w + (x,) for w in frontier for x in letters
                    if not w or inverse[w[-1]] != x]
        out += frontier
    return [" ".join(w) for w in out]


def _lattice_ball(rank, radius):
    return [v for v in itertools.product(range(-radius, radius + 1), repeat=rank)
            if sum(map(abs, v)) <= radius]


def _lattice_word(v, names="abc"):
    parts = []
    for name, e in zip(names, v):
        parts += [name if e > 0 else "-" + name] * abs(e)
    return " ".join(parts)


def _lattice_ball_size(rank, r):
    """|B(r)| in Z^rank with the standard generators (Delannoy sums)."""
    from math import comb
    return sum(comb(rank, k) * comb(r, k) * 2 ** k for k in range(rank + 1))


def _class_document(group, constant, finite):
    return {"group": group, "constant": constant,
            "finite": [[w, v] for w, v in finite]}


def _masses(rng, words, count, values):
    return [(w, rng.choice(values)) for w in rng.sample(words, count)]


# ---------------------------------------------------------------------------
# Workloads

# The declared bound caps the Euclidean norm, so the amplitude stays at or
# below (2/5) / sqrt(2).
SIN_AMPLITUDES = ("1/10", "3/20", "1/5", "1/4", "7/25")
SIN_MAP_BOUND = "2/5"
# Override windows of ball(2) at distance 2 from the base window, which all
# cost the same.  The base window itself is left out: an override there
# replaces the base window, so tameness checks one window fewer and the pass
# is cheaper.  The eight windows adjacent to the base window are left out
# too: for them tameness_check counts the shared lattice-point zero twice and
# wrongly reports "coincident fixed points" (a program defect, kept visible
# by the harness self-test), which stops the pipeline early.
OVERRIDE_WINDOWS = ("a a", "-a -a", "b b", "-b -b")


def _analytic_torus(rng):
    amp = rng.choice(SIN_AMPLITUDES)
    window = rng.choice(OVERRIDE_WINDOWS)
    radius_windows = _lattice_ball_size(2, 2)
    sin_map = {"variant": "analytic", "fixture": "torus",
               "components": [f"({amp})*sin(2*pi*x)", f"({amp})*sin(2*pi*y)"],
               "bound": SIN_MAP_BOUND}
    field_doc = {"variant": "analytic", "fixture": "torus",
                 "components": ["sin(2*pi*x)", "sin(2*pi*y)"], "bound": "6",
                 "overrides": [{"translate": window, "components": [
                     "sin(2*pi*x)*(1 - 2*sin(2*pi*y))",
                     "sin(2*pi*y)*(1 - 2*sin(2*pi*x))"]}]}
    # sin(2 pi t) vanishes at t = 0 and 1/2: four zeros per window, and the
    # override's factors add the four points where both sines equal 1/2.
    commands = (
        Command("map-analyze:sin-map", ("map-analyze", "{doc}"), "analytic_map",
                {"zeros": 4 * radius_windows, "per_domain": 4}, sin_map),
        Command("field-analyze:sin-field-override", ("field-analyze", "{doc}"),
                "analytic_field", {"zeros": 4 * radius_windows + 4}, field_doc),
    )
    warm_map = {"variant": "analytic", "fixture": "torus",
                "components": ["3/10", "0"], "bound": "3/10"}
    warm_field = {"variant": "analytic", "fixture": "torus",
                  "components": ["1", "sin(2*pi*y)"], "bound": "2"}
    warmup = (
        Command("warmup:translation-map", ("map-analyze", "{doc}"),
                "fixed_point_free", {}, warm_map),
        Command("warmup:nonvanishing-field", ("field-analyze", "{doc}"),
                "fixed_point_free", {}, warm_field),
    )
    return commands, warmup


NONAMENABLE_MASSES = 6


def _nonamenable(rng):
    f2_words = _free_words(F2["generators"], 2)
    s2_words = _free_words(SURFACE2["generators"], 2)
    commands = []
    # Fixed constants and mass counts per slot keep the work per pass alike
    # across seeds; the seed picks where the masses sit and their signs.
    # With unit masses these constants need the same minimal capacity for
    # every seed (constant 2 on F2 does not: it needs 1 or 2 depending on the
    # masses).  The three constant-1 decisions and the F2 probe take about
    # the same time, so the run's median command time is a median over
    # several commands, not the time of one command.
    slots = ((F2, "F2", f2_words, 1), (F2, "F2", f2_words, 1),
             (F2, "F2", f2_words, 3), (SURFACE2, "S2", s2_words, 1))
    for i, (group, tag, words, c) in enumerate(slots):
        finite = _masses(rng, words, NONAMENABLE_MASSES, (-1, 1))
        commands.append(Command(
            f"decide-class:{tag}:c{c}:{i}", ("decide-class", "{doc}"),
            "decision", {"kind": "nonamenable"},
            _class_document(group, c, finite)))
    commands.append(Command(
        "amenability:F2:r6", ("amenability", "{doc}", "--radius", "6"),
        "amenability", {"kind": "free", "rank": 2, "radius": 6},
        {"group": F2}))
    commands.append(Command(
        "amenability:S2:r5", ("amenability", "{doc}", "--radius", "5"),
        "amenability", {"kind": "surface", "radius": 5}, {"group": SURFACE2}))
    rng.shuffle(commands)
    warmup = tuple(Command(f"warmup:{tag}", ("decide-class", "{doc}"),
                           "decision", {"kind": "nonamenable"},
                           _class_document(g, 1, []))
                   for g, tag in ((F2, "F2"), (SURFACE2, "S2")))
    return tuple(commands), warmup


def _amenable(rng):
    commands = []
    # (rank, support radius, mass count): region radius = support + 6 must
    # stay within the Z^n ball budget of 16.
    for rank, radius, count in ((1, 10, 20), (2, 7, 100), (3, 6, 300)):
        group = {"kind": "free-abelian", "rank": rank,
                 "generators": list("abc"[:rank])}
        words = [_lattice_word(v) for v in _lattice_ball(rank, radius)]
        for constant in (0, rng.choice((-3, -2, -1, 1, 2, 3))):
            finite = _masses(rng, words, count, (-2, -1, 1, 2))
            commands.append(Command(
                f"decide-class:Z{rank}:{'const' if constant else 'finite'}",
                ("decide-class", "{doc}"), "decision",
                {"kind": "amenable", "constant": constant},
                _class_document(group, constant, finite)))
    order = rng.randint(5, 12)
    cyclic = {"kind": "finite", "cyclic": order}
    elements = [" ".join(["t"] * k) for k in range(order)]
    for zero_sum in (False, True):
        finite = _masses(rng, elements, order // 2, (-2, -1, 1, 2, 3))
        total = sum(v for _, v in finite)
        if zero_sum:
            constant = 0
            finite.append(("", -total))
        else:
            constant = 0 if total else 1
        total = constant * order + sum(v for _, v in finite)
        commands.append(Command(
            f"decide-class:C:{'zero' if zero_sum else 'nonzero'}",
            ("decide-class", "{doc}"), "decision",
            {"kind": "finite", "total": total, "order": order},
            _class_document(cyclic, constant, finite)))
    commands.append(Command(
        "map-analyze:connected-sum-index", ("map-analyze", "{doc}"), "decision",
        {"kind": "amenable", "constant": 2},
        {"group": {"kind": "free-abelian", "rank": 1, "generators": ["a"]},
         "constant": 2, "finite": []}))
    for rank, radius in ((2, 8), (3, 5)):
        group = {"kind": "free-abelian", "rank": rank,
                 "generators": list("abc"[:rank])}
        commands.append(Command(
            f"amenability:Z{rank}:r{radius}",
            ("amenability", "{doc}", "--radius", str(radius)), "amenability",
            {"kind": "free-abelian", "rank": rank, "radius": radius},
            {"group": group}))
    rng.shuffle(commands)
    return tuple(commands), tuple(commands)


def _simplicial(rng):
    def fixture(label, argv, check, expect, exit_code=0):
        return Command(label, argv, check, expect, None, exit_code)

    commands = [
        fixture("map-analyze:antipodal:sd0",
                ("map-analyze", "fixture:octahedron-antipodal"),
                "octahedron_map", {"trace": 0}),
        fixture("map-analyze:antipodal:sd1",
                ("map-analyze", "fixture:octahedron-antipodal", "--subdivide", "1"),
                "octahedron_map", {"trace": 0}),
        fixture("map-analyze:rotation:sd0",
                ("map-analyze", "fixture:octahedron-rotation"),
                "octahedron_map", {"trace": 2}),
        fixture("map-analyze:reflection:sd0",
                ("map-analyze", "fixture:octahedron-reflection"),
                "not_tame", {}),
        # the rotation's fixed points are face barycenters, which lie on a
        # face of the once-subdivided complex: the pipeline must refuse
        fixture("map-analyze:rotation:sd1",
                ("map-analyze", "fixture:octahedron-rotation", "--subdivide", "1"),
                None, {"stderr": "lies on a simplex face"}, exit_code=1),
        fixture("field-analyze:polar-field",
                ("field-analyze", "fixture:octahedron-polar-field"),
                "polar_field", {"euler": 2, "zeros": 2}),
        fixture("validate:genus2:sd3",
                ("validate", "fixture:genus2", "--subdivide", "3"),
                "validate", {"euler": -2}),
    ]
    rng.shuffle(commands)
    return tuple(commands), tuple(commands)


# command_s.tail per workload: (percentile, samples a run must hold).  Where
# a run holds enough samples the percentile has ten of them beyond it and
# falls inside one command's samples.  analytic-torus has two samples per
# run, so its tail is the maximum.  nonamenable-certificates has 12-18; the
# maximum of the slowest command's 2-3 samples spread too much across runs,
# so its tail is p90, the typical time of that command, with only one or two
# samples beyond it.
TAILS = {
    "analytic-torus": (100, 1),
    "nonamenable-certificates": (90, 1),
    "amenable-certificates": (95, 200),
    "simplicial-exact": (80, 50),
}

GENERATORS = {
    "analytic-torus": _analytic_torus,
    "nonamenable-certificates": _nonamenable,
    "amenable-certificates": _amenable,
    "simplicial-exact": _simplicial,
}


def build(name: str, seed: int) -> Workload:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    commands, warmup = GENERATORS[name](rng)
    return Workload(name, commands, warmup, *TAILS[name])


# ---------------------------------------------------------------------------
# Known-answer checks: each returns a list of problems, empty when correct


def _verified(cert, problems):
    if not cert.get("verifier_result", {}).get("verified"):
        problems.append("certificate not re-verified")


def _class_total_zero(cls):
    return cls.get("constant") == 0 and not cls.get("finite")


def check_analytic_map(report, expect):
    p = []
    if report["tameness"]["verdict"] == "not tame":
        return ["sin map reported not tame"]
    if not _class_total_zero(report["class_function"]):
        p.append("Lefschetz class is not 0")
    oracle = report.get("oracle", {})
    if not oracle.get("equal") or oracle.get("classical_lefschetz_number") != 0:
        p.append("oracle does not give chi(T^2) = 0")
    if report["certificate"]["verdict"] != "zero-by-boundary":
        p.append("class 0 over Z^2 not certified zero-by-boundary")
    _verified(report["certificate"], p)
    if len(report["fixed_points"]) != expect["zeros"]:
        p.append(f"{len(report['fixed_points'])} fixed points, want {expect['zeros']}")
    if report["fixed_points_per_domain"] != expect["per_domain"]:
        p.append("wrong fixed-point count per domain")
    return p


def check_analytic_field(report, expect):
    p = []
    if report["tameness"]["verdict"] == "not tame":
        return ["overridden field reported not tame"]
    if not _class_total_zero(report["index_class"]):
        p.append("index class is not 0")
    if report["euler_characteristic"] != 0 or not report["consistent"]:
        p.append("Poincare-Hopf check not consistent with chi(T^2) = 0")
    _verified(report["difference_certificate"], p)
    if len(report["zeros"]) != expect["zeros"]:
        p.append(f"{len(report['zeros'])} zeros, want {expect['zeros']}")
    return p


def check_fixed_point_free(report, expect):
    zeros = report.get("fixed_points", report.get("zeros"))
    return [] if zeros == [] else ["nonvanishing displacement has zeros"]


def _finite_total(cls, order=1):
    return cls["constant"] * order + sum(v for _, v in cls["finite"])


def check_octahedron_map(report, expect):
    p = []
    oracle = report.get("oracle", {})
    if not oracle.get("equal") or oracle.get("classical_lefschetz_number") != expect["trace"]:
        p.append(f"oracle does not give the classical trace {expect['trace']}")
    if _finite_total(report["class_function"]) != expect["trace"]:
        p.append("class total differs from the Lefschetz number")
    want = "nonzero-by-mean" if expect["trace"] else "zero-by-boundary"
    if report["certificate"]["verdict"] != want:
        p.append(f"verdict {report['certificate']['verdict']}, want {want}")
    _verified(report["certificate"], p)
    return p


def check_not_tame(report, expect):
    return [] if report["tameness"]["verdict"] == "not tame" else \
        ["orientation-reversing reflection accepted as tame"]


def check_polar_field(report, expect):
    p = []
    if report["euler_characteristic"] != expect["euler"] or not report["consistent"]:
        p.append("polar field does not total chi(S^2) = 2")
    if _finite_total(report["index_class"]) != expect["euler"]:
        p.append("index class total is not 2")
    if len(report["zeros"]) != expect["zeros"]:
        p.append("polar field should vanish at exactly two face centers")
    _verified(report["difference_certificate"], p)
    return p


def check_validate(report, expect):
    p = [] if report["valid"] else ["subdivided genus-2 complex invalid"]
    cells = report["cells"]
    if sum((-1) ** k * n for k, n in enumerate(cells)) != expect["euler"]:
        p.append(f"V - E + F = {cells} is not -2")
    return p


def check_decision(report, expect):
    cert = report["certificate"]
    p = []
    _verified(cert, p)
    kind = expect["kind"]
    if kind == "nonamenable":
        want, limit = "zero-by-truncated-flow", None
    elif kind == "amenable":
        c = expect["constant"]
        want = "nonzero-by-mean" if c else "zero-by-boundary"
        limit = Fraction(c) if c else None
    else:
        total = expect["total"]
        want = "nonzero-by-mean" if total else "zero-by-boundary"
        limit = Fraction(total, expect["order"]) if total else None
    if cert["verdict"] != want:
        p.append(f"verdict {cert['verdict']}, want {want}")
    elif limit is not None and Fraction(cert["payload"]["limit"]) != limit:
        p.append(f"mean limit {cert['payload']['limit']}, want {limit}")
    return p


def _sphere_size(expect, r):
    if expect["kind"] == "free-abelian":
        n = expect["rank"]
        return _lattice_ball_size(n, r) - _lattice_ball_size(n, r - 1)
    if expect["kind"] == "free":
        k = 2 * expect["rank"]
        return k * (k - 1) ** (r - 1)
    return None


def check_amenability(report, expect):
    p = []
    amenable = expect["kind"] == "free-abelian"
    if report["amenable_kind"] != amenable:
        p.append("wrong amenability")
    rows = report["isoperimetric"]
    if [r["radius"] for r in rows] != list(range(1, expect["radius"] + 1)):
        p.append("wrong probe radii")
    for row in rows:
        r = row["radius"]
        sphere = _sphere_size(expect, r + 1)
        if sphere is None:
            continue
        ball = 1 + sum(_sphere_size(expect, k) for k in range(1, r + 1))
        if (row["ball"], row["boundary"]) != (ball, sphere):
            p.append(f"ball/boundary at radius {r} are {row['ball']}/"
                     f"{row['boundary']}, want {ball}/{sphere}")
    if amenable:
        folner = report.get("folner", [])
        n = expect["rank"]
        if not folner:
            p.append("no Folner rows for an amenable group")
        for row in folner:
            t = row["t"]
            # the outer 1-collar of the box [-t, t]^n is its 2n facets,
            # each of (2t + 1)^(n-1) points
            box, ratio = (2 * t + 1) ** n, Fraction(2 * n, 2 * t + 1)
            if (row["size"], Fraction(row["ratio"])) != (box, ratio):
                p.append(f"Folner row t={t} is {row['size']}/{row['ratio']}, "
                         f"want {box}/{ratio}")
    else:
        flows = report.get("uniform_capacity_flows", [])
        if not flows or not all(r["feasible"] and r["deficit"] == 0 for r in flows):
            p.append("uniform-capacity flows infeasible on a nonamenable group")
    return p


CHECKS = {
    "analytic_map": check_analytic_map,
    "analytic_field": check_analytic_field,
    "fixed_point_free": check_fixed_point_free,
    "octahedron_map": check_octahedron_map,
    "not_tame": check_not_tame,
    "polar_field": check_polar_field,
    "validate": check_validate,
    "decision": check_decision,
    "amenability": check_amenability,
}


def check(cmd: Command, exit_code: int, report_bytes: bytes, stderr: str) -> list:
    """Problems with one command's outcome, judged against its known answer."""
    if exit_code != cmd.exit_code:
        return [f"exit {exit_code}, want {cmd.exit_code}: {stderr.strip()[:200]}"]
    if cmd.exit_code != 0:
        want = cmd.expect.get("stderr", "")
        return [] if want in stderr and not report_bytes else \
            [f"refusal without the expected message {want!r}"]
    try:
        report = json.loads(report_bytes)["report"]
        return CHECKS[cmd.check](report, cmd.expect)
    except (ValueError, KeyError, TypeError) as e:
        return [f"malformed report: {type(e).__name__}: {e}"]
