"""Per-layer spans recorded from outside the program.

``install`` wraps the listed public functions and methods of the deckindex
modules.  A module-level function is replaced in every deckindex module
namespace that holds it (``cli`` imports ``decide_class`` by name, for
example); a method is replaced on its defining class.  Each wrapped call
records a span (name, start, end, parent span, command id) in memory; the
aggregates are computed when the run ends.  Hot helpers listed in COUNTED
get a call counter and no span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of every wrapped target; its metrics are named
# "<module>.<function>.<stat>".
SPANNED = (
    ("fixpoint", "AnalyticModel.zeros_in_window"),
    ("fixpoint", "locate_host_cells"),
    ("fixpoint", "AnalyticModel.local_index_at"),
    ("fixpoint", "tameness_check"),
    ("fixpoint", "find_fixed_points"),
    ("fixpoint", "lefschetz_class"),
    ("fixpoint", "equivariant_oracle_check"),
    ("vectorfield", "field_tameness_check"),
    ("vectorfield", "find_zeros"),
    ("vectorfield", "index_class"),
    ("vectorfield", "poincare_hopf_check"),
    ("geometry", "solve_linear"),
    ("geometry", "point_in_simplex"),
    ("exprs", "certified_sign"),
    ("exprs", "parse_expression"),
    ("exprs", "lambdify_vector"),
    ("chains", "quotient_homology"),
    ("chains", "lefschetz_number_quotient"),
    ("complexes", "barycentric_subdivide"),
    ("complexes", "validate_quotient"),
    ("ufh", "flow_certificate"),
    ("ufh", "isoperimetric_probe"),
    ("ufh", "bound_finite_mass"),
    ("ufh", "verify_certificate"),
    ("ufh", "decide_class"),
    ("groups", "MarkedGroup.ball_with_distances"),
    ("groups", "folner_average"),
    ("reports", "canonical_json"),
)
COUNTED = (("groups", "MarkedGroup.multiply_token"),)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


# Which stats each layer reports, in output order; "calls" and "s" come from
# the spans, the others from OBSERVERS.  Every name is always reported, as a
# measured zero where the layer did not run.
METRICS = {
    "fixpoint.zeros_in_window": ("calls", "s", "repeat_ratio"),
    "fixpoint.locate_host_cells": ("calls", "s"),
    "geometry.solve_linear": ("calls", "s"),
    "geometry.point_in_simplex": ("calls", "hit_ratio"),
    "fixpoint.local_index_at": ("calls", "s"),
    "exprs.certified_sign": ("calls", "s"),
    "fixpoint.tameness_check": ("s",),
    "vectorfield.field_tameness_check": ("s",),
    "fixpoint.find_fixed_points": ("calls", "s"),
    "vectorfield.find_zeros": ("calls", "s"),
    "fixpoint.lefschetz_class": ("calls", "s"),
    "vectorfield.index_class": ("calls", "s"),
    "vectorfield.poincare_hopf_check": ("s",),
    "exprs.parse_expression": ("calls", "s"),
    "exprs.lambdify_vector": ("calls", "s"),
    "chains.quotient_homology": ("calls", "s"),
    "chains.lefschetz_number_quotient": ("s",),
    "fixpoint.equivariant_oracle_check": ("s",),
    "complexes.barycentric_subdivide": ("s", "cells_out"),
    "complexes.validate_quotient": ("s",),
    "ufh.flow_certificate": ("calls", "s", "feasible_ratio"),
    "groups.ball_with_distances": ("calls", "s", "elements"),
    "groups.multiply_token": ("calls",),
    "ufh.isoperimetric_probe": ("s",),
    "ufh.bound_finite_mass": ("s",),
    "groups.folner_average": ("calls", "s"),
    "ufh.verify_certificate": ("calls", "s"),
    "ufh.decide_class": ("calls", "s"),
    "reports.canonical_json": ("calls", "s", "bytes"),
}
UNITS = {"calls": "count", "s": "s", "elements": "count", "cells_out": "count",
         "bytes": "B", "repeat_ratio": "ratio", "hit_ratio": "ratio",
         "feasible_ratio": "ratio"}
RATIOS = {"repeat_ratio", "hit_ratio", "feasible_ratio"}  # base: the calls


def metric_names() -> list:
    return [f"{layer}.{stat}" for layer, stats in METRICS.items() for stat in stats]


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, command id]
        self.stack = []
        self.command = None
        self.counts = defaultdict(float)   # "<name>.<stat>" -> sum
        self.solved = set()                # zeros_in_window keys this command

    def start_command(self, command_id: str) -> None:
        self.command = command_id
        self.solved = set()

    def wrap(self, name, fn, observe=None):
        rec = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            index = len(rec.spans)
            span = [name, 0.0, 0.0, parent, rec.command]
            rec.spans.append(span)
            rec.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result
        return spanned

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self, path: str) -> None:
        """Write the raw spans as JSON: [name, start, end, parent, command]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def aggregate(self, passes: int, factors=None) -> dict:
        """Per-pass metrics: call counts, self time and the layer ratios.

        ``factors`` maps a command id to the reference seconds per second
        of that command; self times are scaled by it.
        """
        factors = factors or {}
        total = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, command) in enumerate(self.spans):
            total[name + ".calls"] += 1
            total[name + ".s"] += ((end - start) - child_time[i]) \
                * factors.get(command, 1.0)
        for key, value in self.counts.items():
            total[key] += value
        out = {}
        for layer, stats in METRICS.items():
            calls = total[layer + ".calls"]
            for stat in stats:
                key = f"{layer}.{stat}"
                if stat in RATIOS:
                    value = total[key] / calls if calls else 0.0
                else:
                    value = total[key] / passes
                out[key] = {"value": value, "unit": UNITS[stat]}
        return out


# -- observers: extra stats measured where the work happens -----------------

def _observe_zeros(rec, args, kwargs, result):
    model = args[0]
    window = args[1] if len(args) > 1 else kwargs.get("window")
    plain = args[2] if len(args) > 2 else kwargs.get("plain", False)
    if window is None:
        window = model.group.identity()
    components = model.components if plain else model.components_for_window(window)[0]
    key = (tuple(str(c) for c in components), tuple(window))
    if key in rec.solved:
        rec.counts["fixpoint.zeros_in_window.repeat_ratio"] += 1
    rec.solved.add(key)


def _observe_hits(rec, args, kwargs, result):
    if result:
        rec.counts["geometry.point_in_simplex.hit_ratio"] += 1


def _observe_flow(rec, args, kwargs, result):
    if result.feasible:
        rec.counts["ufh.flow_certificate.feasible_ratio"] += 1


def _observe_ball(rec, args, kwargs, result):
    rec.counts["groups.ball_with_distances.elements"] += len(result)


def _observe_subdivision(rec, args, kwargs, result):
    q = result.complex
    rec.counts["complexes.barycentric_subdivide.cells_out"] += sum(
        q.count(k) for k in range(q.dimension + 1))


def _observe_json(rec, args, kwargs, result):
    rec.counts["reports.canonical_json.bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "fixpoint.zeros_in_window": _observe_zeros,
    "geometry.point_in_simplex": _observe_hits,
    "ufh.flow_certificate": _observe_flow,
    "groups.ball_with_distances": _observe_ball,
    "complexes.barycentric_subdivide": _observe_subdivision,
    "reports.canonical_json": _observe_json,
}


def install(recorder: Recorder):
    """Wrap every listed target; returns a function that undoes it."""
    import importlib
    undo = []
    modules = {m: importlib.import_module(f"deckindex.{m}")
               for m, _ in SPANNED + COUNTED}
    namespaces = [m for name, m in sys.modules.items()
                  if name.startswith("deckindex") and m is not None]
    for targets, spanned in ((SPANNED, True), (COUNTED, False)):
        for module, path in targets:
            name = span_name(module, path)
            owner = modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = recorder.wrap(name, original, OBSERVERS.get(name)) \
                if spanned else recorder.count(name, original)
            if classes:
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        undo.append((ns, key, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
