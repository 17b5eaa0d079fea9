"""Measurement child: one fresh interpreter, one closed-loop client.

Imports the program from the checkout's ``src``, runs the workload's warm-up
commands once, then passes over the workload's command list through
``deckindex.cli.main(argv)``, timing each call from outside.  With
``--trace 1`` the first half of the run is untraced and the second half
runs with spans installed.  Writes one JSON result file for run.py.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --docs DIR --result FILE [--spans FILE]
    python3 perfbench/child.py --probe     # time the import, print JSON

Times are converted to reference seconds.  The speed of a shared virtual
machine drifts by up to 2x within a minute, which would swamp any change
to the program.  So a fixed calibration kernel is timed between commands,
before any command that starts CAL_EVERY_S or more after the last sample,
and each command's wall and CPU time is scaled by CAL_NOMINAL_S over the
mean of the kernel times just before and just after it.  One reference
second is a second on a machine that runs the kernel in CAL_NOMINAL_S.
Raw wall times are kept alongside.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CAL_NOMINAL_S = 0.02
CAL_EVERY_S = 1.0


def kernel() -> int:
    """Fixed memory-bound work: build and probe a dict of 20k tuple keys.

    Of the kernels tried (exact rationals in a small working set, this one,
    and both together) this one tracked the drift of every workload's
    command times best.
    """
    keys = {}
    for i in range(20000):
        keys[(i * 7919 % 20011, i % 17)] = i
    return sum(keys.get((i * 104729 % 20011, i % 17), 0) for i in range(20000))


def kernel_seconds() -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Kernel timings taken between commands, with their time stamps."""

    def __init__(self):
        self.stamps = []
        self.kernel = []

    def sample(self, force=False) -> None:
        if force or not self.stamps or \
                time.perf_counter() - self.stamps[-1] >= CAL_EVERY_S:
            self.kernel.append(kernel_seconds())
            self.stamps.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second for an interval between samples."""
        before = self.kernel[bisect.bisect_right(self.stamps, start) - 1]
        after = self.kernel[bisect.bisect_left(self.stamps, end)]
        return CAL_NOMINAL_S / ((before + after) / 2)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs commands, times them, and checks answers and report bytes."""

    def __init__(self, cli, workloads, doc_dir):
        self.cli = cli
        self.workloads = workloads
        self.doc_dir = doc_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []       # [label, reason]
        self.digests = {}        # label -> sha256 of the report bytes

    def run(self, cmd, traced=False, recorder=None, command_id=None):
        """Returns (start, end, cpu seconds) of the ``cli.main`` call."""
        argv = cmd.resolved_argv(self.doc_dir)
        out, err = io.StringIO(), io.StringIO()
        if recorder is not None:
            recorder.start_command(command_id)
        # Each CLI invocation starts in a fresh process with no garbage from
        # earlier commands; collecting it here keeps command order (which
        # the seed shuffles) from moving garbage-collection cost around.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu = cpu_seconds()
            start = time.perf_counter()
            code = self.cli.main(argv)
            end = time.perf_counter()
            cpu = cpu_seconds() - cpu
        report = out.getvalue().encode("utf-8")
        digest = hashlib.sha256(report).hexdigest()
        self.attempted += 1
        if cmd.label not in self.digests:
            self.digests[cmd.label] = digest
            problems = self.workloads.check(cmd, code, report, err.getvalue())
        elif self.digests[cmd.label] != digest:
            problems = ["report bytes drifted between passes"
                        + (" (traced)" if traced else "")]
        elif code != cmd.exit_code:
            problems = [f"exit {code}, want {cmd.exit_code}"]
        else:
            problems = []
        self.failures += [[cmd.label, p] for p in problems]
        self.failed += bool(problems)
        return start, end, cpu


def import_program() -> float:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import deckindex.cli  # noqa: F401
    import deckindex.fixpoint  # noqa: F401 - imported lazily by the commands
    import deckindex.vectorfield  # noqa: F401
    return time.perf_counter() - start


def probe() -> int:
    before = kernel_seconds()
    seconds = import_program()
    after = kernel_seconds()
    import deckindex
    import numpy
    import sympy
    print(json.dumps({"import_s": seconds, "kernel_s": [before, after],
                      "python": sys.version.split()[0],
                      "numpy": numpy.__version__, "sympy": sympy.__version__,
                      "program": deckindex.__file__}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs")
    ap.add_argument("--result")
    ap.add_argument("--spans", help="where a traced run writes its raw spans")
    args = ap.parse_args(argv)
    if args.probe:
        return probe()

    import_program()
    import deckindex.cli as cli
    import spans
    import workloads

    wl = workloads.build(args.workload, args.seed)
    wl.write_documents(args.docs)
    runner = Runner(cli, workloads, args.docs)
    for cmd in wl.warmup:
        runner.run(cmd)

    # A pass starts only if it should end by the deadline, and passes go on
    # until the run holds the workload's minimum sample count (capped at
    # three times the run length).
    phases = [(args.seconds, False)] if not args.trace else \
        [(args.seconds / 2, False), (args.seconds / 2, True)]
    recorder = spans.Recorder() if args.trace else None
    speed = Speed()
    calls = []        # [label, traced, pass, command id, start, end, cpu]
    for budget, traced in phases:
        if traced:
            spans.install(recorder)
        t0 = time.perf_counter()
        passes = 0
        while True:
            w0 = time.perf_counter()
            for cmd in wl.commands:
                speed.sample()
                cid = f"{passes}:{cmd.label}"
                calls.append([cmd.label, traced, passes, cid, *runner.run(
                    cmd, traced, recorder if traced else None, cid)])
            passes += 1
            wall = time.perf_counter() - w0
            elapsed = time.perf_counter() - t0
            enough = passes * len(wl.commands) >= wl.min_samples
            if elapsed + wall > budget and (enough or elapsed > 3 * budget):
                break
    speed.sample(force=True)

    factors = {}
    samples = []      # [label, reference s, traced, raw s]
    totals = {}       # (traced, pass) -> [reference s, reference cpu s, raw s]
    for label, traced, n, cid, start, end, cpu in calls:
        f = factors[(traced, cid)] = speed.factor(start, end)
        samples.append([label, (end - start) * f, traced, end - start])
        t = totals.setdefault((traced, n), [0.0, 0.0, 0.0])
        t[0] += (end - start) * f
        t[1] += cpu * f
        t[2] += end - start
    if recorder is not None and args.spans:
        recorder.write(args.spans)
    layers = None
    if recorder is not None:
        traced_passes = sum(1 for traced, _ in totals if traced)
        layers = recorder.aggregate(
            traced_passes, {cid: f for (traced, cid), f in factors.items() if traced})
    result = {
        "passes": [v for (traced, _), v in totals.items() if not traced],
        "traced_passes": [v for (traced, _), v in totals.items() if traced],
        "samples": [s for s in samples if not s[2]],
        "kernel_s": speed.kernel,
        "tail_percentile": wl.tail_percentile,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digests": runner.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "span_count": len(recorder.spans) if recorder else 0,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
