"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

Checks that inputs are a pure function of the seed, that planted wrong
reports, exit codes and byte drift are counted as failures, that metric
names and BENCHMARK.json agree with what run.py prints, and that
installing spans leaves report bytes unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeCli:
    """Stands in for deckindex.cli: prints a fixed report, returns a code."""

    def __init__(self, reports, code=0):
        self.reports = list(reports)
        self.code = code

    def main(self, argv):
        sys.stdout.write(self.reports.pop(0))
        return self.code


def decision_report(verdict, limit=None, verified=True):
    payload = {"limit": limit} if limit is not None else {}
    return json.dumps({"report": {"certificate": {
        "verdict": verdict, "payload": payload,
        "verifier_result": {"verified": verified}}}})


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_documents(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7), workloads.build(name, 7)
            self.assertEqual(a, b)
            self.assertEqual(a.digest(), b.digest())
            with tempfile.TemporaryDirectory() as d1, \
                    tempfile.TemporaryDirectory() as d2:
                a.write_documents(d1)
                b.write_documents(d2)
                for f in sorted(os.listdir(d1)):
                    with open(os.path.join(d1, f), "rb") as x, \
                            open(os.path.join(d2, f), "rb") as y:
                        self.assertEqual(x.read(), y.read(), f)

    def test_seed_changes_generated_documents(self):
        for name in ("analytic-torus", "nonamenable-certificates",
                     "amenable-certificates"):
            digests = {workloads.build(name, s).digest() for s in range(6)}
            self.assertGreater(len(digests), 1, name)

    def test_labels_unique_within_a_pass(self):
        for name in workloads.WORKLOADS:
            labels = [c.label for c in workloads.build(name, 3).commands]
            self.assertEqual(len(labels), len(set(labels)), name)


class PlantedFailures(unittest.TestCase):
    CMD = workloads.Command("decide-class:Z1:const", ("decide-class", "{doc}"),
                            "decision", {"kind": "amenable", "constant": 2})

    def runner(self, reports, code=0):
        return child.Runner(FakeCli(reports, code), workloads, tempfile.gettempdir())

    def test_correct_report_passes(self):
        r = self.runner([decision_report("nonzero-by-mean", "2")] * 2)
        r.run(self.CMD)
        r.run(self.CMD)
        self.assertEqual((r.attempted, r.failed), (2, 0))

    def test_wrong_answer_counts(self):
        for report in (decision_report("zero-by-boundary"),
                       decision_report("nonzero-by-mean", "3"),
                       decision_report("nonzero-by-mean", "2", verified=False),
                       "{not json"):
            r = self.runner([report])
            r.run(self.CMD)
            self.assertEqual(r.failed, 1, report)

    def test_wrong_exit_code_counts(self):
        r = self.runner([decision_report("nonzero-by-mean", "2")], code=1)
        r.run(self.CMD)
        self.assertEqual(r.failed, 1)
        refusal = workloads.Command("x", ("map-analyze",), None,
                                    {"stderr": "face"}, None, exit_code=1)
        r = self.runner([""], code=0)
        r.run(refusal)
        self.assertEqual(r.failed, 1)

    def test_byte_drift_counts(self):
        good = decision_report("nonzero-by-mean", "2")
        r = self.runner([good, good + " "])
        r.run(self.CMD)
        r.run(self.CMD)
        self.assertEqual((r.attempted, r.failed), (2, 1))
        self.assertIn("drifted", r.failures[0][1])


class MetricNames(unittest.TestCase):
    def fake_result(self):
        return {"passes": [[1.0, 0.9, 1.2], [1.1, 1.0, 1.3]],
                "traced_passes": [[1.2, 1.1, 1.4]],
                "samples": [["a", 0.5, False, 0.6], ["b", 0.6, False, 0.7]],
                "tail_percentile": 100, "peak_rss_mb": 90.0,
                "layers": spans.Recorder().aggregate(1)}

    def test_names_and_units_match_the_charset(self):
        bench = benchmark_json()
        metrics = bench["end_to_end"] + bench["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_benchmark_json_lists_what_run_prints(self):
        bench = benchmark_json()
        res = self.fake_result()
        e2e = run.end_to_end([0.5, 0.6, 0.7], res)
        layer = run.per_layer(res)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(e2e))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(layer))
        for m in bench["end_to_end"]:
            self.assertEqual(m["unit"], e2e[m["name"]][1])
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], layer[m["name"]][1])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_layer_metric_has_a_wrapped_target(self):
        names = [spans.span_name(m, p) for m, p in spans.SPANNED + spans.COUNTED]
        self.assertEqual(sorted(names), sorted(spans.METRICS))

    def test_predicted_zero_layers_are_reported_as_zero(self):
        layer = spans.Recorder().aggregate(1)
        self.assertEqual(layer["ufh.flow_certificate.calls"]["value"], 0)
        self.assertEqual(len(layer), len(spans.metric_names()))

    def test_tail_has_ten_samples_beyond_it_where_declared(self):
        for name, (q, n) in workloads.TAILS.items():
            if n > 1:
                self.assertGreaterEqual(n - -(-q * n // 100), 10, name)

    def test_tail_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([3.0], 75), 3.0)


class ReferenceSeconds(unittest.TestCase):
    def test_factor_uses_the_samples_around_the_interval(self):
        speed = child.Speed()
        speed.stamps, speed.kernel = [0.0, 1.0, 2.0], [0.01, 0.02, 0.04]
        nominal = child.CAL_NOMINAL_S
        self.assertAlmostEqual(speed.factor(0.1, 0.9), nominal / 0.015)
        self.assertAlmostEqual(speed.factor(1.0, 1.5), nominal / 0.03)

    def test_kernel_is_deterministic(self):
        self.assertEqual(child.kernel(), child.kernel())


class Tracing(unittest.TestCase):
    def test_spans_leave_reports_unchanged_and_uninstall(self):
        import deckindex.cli as cli
        from deckindex import ufh
        wl = workloads.build("amenable-certificates", 1)
        cmds = [c for c in wl.commands if c.label.startswith("decide-class:Z2")]
        original = ufh.decide_class
        with tempfile.TemporaryDirectory() as docs:
            wl.write_documents(docs)
            plain = child.Runner(cli, workloads, docs)
            for c in cmds:
                plain.run(c)
            rec = spans.Recorder()
            uninstall = spans.install(rec)
            try:
                self.assertIsNot(cli.decide_class, original)
                for c in cmds:
                    plain.run(c, traced=True, recorder=rec, command_id=c.label)
            finally:
                uninstall()
        self.assertIs(cli.decide_class, original)
        self.assertIs(ufh.decide_class, original)
        self.assertEqual(plain.failures, [])
        layer = rec.aggregate(1)
        self.assertEqual(layer["ufh.decide_class.calls"]["value"], len(cmds))
        self.assertEqual(layer["ufh.flow_certificate.calls"]["value"], 0)
        self.assertGreater(layer["reports.canonical_json.bytes"]["value"], 0)


class KnownDefects(unittest.TestCase):
    """Program defects that keep inputs out of the timed workloads.

    Each is an expected failure; when the program is fixed it turns into an
    unexpected success, and the left-out inputs can join the workload.
    """

    @unittest.expectedFailure
    def test_override_next_to_the_base_window_is_tame(self):
        import deckindex.cli as cli
        cmd = [c for c in workloads.build("analytic-torus", 0).commands
               if c.label.startswith("field-analyze")][0]
        doc = json.loads(json.dumps(cmd.document))
        doc["overrides"][0]["translate"] = "a"
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "field.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["field-analyze", path])
        self.assertEqual(code, 0)
        report = json.loads(out.getvalue())["report"]
        self.assertEqual(report["tameness"]["verdict"], "strongly tame")


if __name__ == "__main__":
    unittest.main()
