"""Benchmark runner for the deckindex CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout (the program is imported from its ``src``).  It times
the import of the CLI and pipeline modules in several fresh interpreters
(``setup_s``), then starts one measurement child (child.py) that runs the
seeded workload as a closed loop with one client.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  Times are in reference seconds: wall or CPU seconds scaled by
the machine speed measured with a calibration kernel (see child.py); the
raw wall times are printed on a ``#`` line.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Report bytes are compared across passes, between traced and untraced passes,
and across runs: every child gets a PYTHONHASHSEED derived from the seed,
and each command's report sha256 is kept in ``.perfbench-state/`` under the
checkout, keyed by the program source and the command's inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench-state")
STATE = os.path.join(STATE_DIR, "digests.json")

SETUP_PROBES = 5
RUN_LIMIT_S = 170
# The workloads are single-threaded; one BLAS/OpenMP thread keeps numpy from
# spreading small solves over cores (the cap must not exceed nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
import child  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")


def child_env(seed: int, workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    index = workloads.WORKLOADS.index(workload)
    env["PYTHONHASHSEED"] = str(1 + (seed * 4 + index) % (2 ** 32 - 2))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "deckindex")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def input_digest(cmd) -> str:
    blob = json.dumps([list(cmd.argv), cmd.document], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def cross_run_drift(wl, digests: dict) -> list:
    """Labels whose report differs from an earlier run on the same inputs."""
    try:
        with open(STATE, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    program = source_digest()
    drifted = []
    for cmd in wl.warmup + wl.commands:
        if cmd.label not in digests:
            continue
        key = f"{program}:{cmd.label}:{input_digest(cmd)}"
        if store.setdefault(key, digests[cmd.label]) != digests[cmd.label]:
            drifted.append(cmd.label)
    tmp = f"{STATE}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, sort_keys=True)
    os.replace(tmp, STATE)
    return sorted(set(drifted))


def percentile(values, q):
    """Nearest-rank percentile; q = 100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end(setup: list, res: dict) -> dict:
    """Metrics in reference seconds (see child.py), medians over the run."""
    times = [s for _, s, _, _ in res["samples"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "workload_s": (statistics.median(p[0] for p in res["passes"]), "s"),
        "command_s.p50": (statistics.median(times), "s"),
        "command_s.tail": (percentile(times, res["tail_percentile"]), "s"),
        "cpu_s": (statistics.median(p[1] for p in res["passes"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    metrics = {k: (v["value"], v["unit"]) for k, v in res["layers"].items()}
    overhead = statistics.median(p[0] for p in res["traced_passes"]) \
        - statistics.median(p[0] for p in res["passes"])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "deckindex", "cli.py")):
        print(f"perfbench: no program source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    env = child_env(args.seed, args.workload)
    wl = workloads.build(args.workload, args.seed)
    os.makedirs(STATE_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        setup, raw_setup, info = [], [], {}
        for _ in range(SETUP_PROBES):
            probe = subprocess.run([sys.executable, CHILD, "--probe"], env=env,
                                   cwd=work, capture_output=True, text=True,
                                   timeout=60)
            if probe.returncode != 0:
                print(probe.stderr, file=sys.stderr)
                return 1
            info = json.loads(probe.stdout.strip().splitlines()[-1])
            raw_setup.append(info["import_s"])
            setup.append(info["import_s"] * child.CAL_NOMINAL_S
                         / statistics.mean(info["kernel_s"]))
        if os.path.dirname(os.path.abspath(info["program"])) != \
                os.path.join(SRC, "deckindex"):
            print(f"perfbench: imported {info['program']}, not the checkout's "
                  "program", file=sys.stderr)
            return 1

        result_path = os.path.join(work, "result.json")
        docs = os.path.join(work, "docs")
        os.makedirs(docs)
        cmd = [sys.executable, CHILD, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--docs", docs,
               "--result", result_path,
               "--spans", os.path.join(STATE_DIR, f"spans-{args.workload}.json")]
        limit = max(10.0, RUN_LIMIT_S - (time.perf_counter() - began))
        proc = subprocess.run(cmd, env=env, cwd=work, timeout=limit)
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"perfbench: measurement child exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = list(res["failures"])
    failed = res["failed"]
    for label in cross_run_drift(wl, res["digests"]):
        failures.append([label, "report bytes differ from an earlier run"])
        failed += 1
    failed = min(failed, res["attempted"])

    metrics = per_layer(res) if args.trace else end_to_end(setup, res)
    n = len(res["samples"])
    q = res["tail_percentile"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={wl.digest()[:16]} PYTHONHASHSEED={env['PYTHONHASHSEED']}")
    print(f"# nproc={os.cpu_count()} python={info['python']} "
          f"numpy={info['numpy']} sympy={info['sympy']} "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    print(f"# passes={len(res['passes'])} traced_passes={len(res['traced_passes'])} "
          f"commands_per_pass={len(wl.commands)} samples={n} "
          f"command_s.tail={'max' if q == 100 else f'p{q}'} of n={n} "
          f"spans={res['span_count']}")
    kernel = res["kernel_s"]
    print(f"# speed: kernel median {statistics.median(kernel) * 1e3:.3f} ms "
          f"(min {min(kernel) * 1e3:.3f}, max {max(kernel) * 1e3:.3f}, "
          f"{len(kernel)} samples; reference {child.CAL_NOMINAL_S * 1e3:g} ms); "
          f"raw wall: setup {statistics.median(raw_setup):.6f} s, pass "
          f"{statistics.median(p[2] for p in res['passes']):.6f} s, command p50 "
          f"{statistics.median(s[3] for s in res['samples']):.6f} s")
    print(f"# failed_frac={failed / res['attempted']:.6g} "
          f"({failed} of {res['attempted']} attempted)")
    by_label = {}
    for label, seconds, _, _ in res["samples"]:
        by_label.setdefault(label, []).append(seconds)
    for label, times in by_label.items():
        print(f"# command {label}: median {statistics.median(times):.6f} s "
              f"over {len(times)}")
    for label, reason in failures:
        print(f"# FAILED {label}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
