"""Run one workload of the leavittk benchmark and print its metrics.

    python3 perfbench/run.py --workload tables-ladder --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout.  With --trace 0 it measures set-up
several times in fresh interpreters, then runs the workload untraced in
a worker process and prints the end-to-end metrics.  With --trace 1 the
worker runs the same rounds untraced and then traced, and it prints the
per-layer metrics.  Every result is checked.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tables-ladder", "filtration-levels", "oracle-certify",
             "cli-requests")
# Fresh set-ups besides the measured run's own, half of them before the
# timed phase and half after it.
SETUP_RUNS = 10
TAIL_LADDER = (99.9, 99, 90, 50)
WORKER_TIMEOUT_S = 170
# Seconds that worker.reference_work takes at the fastest on a 2-core
# x86_64 host with Python 3.11.7.  The host's speed changes by up to 2x
# for seconds to minutes at a time, and reference_work follows it, so each
# op run and each set-up is scaled by REFERENCE_S over a reference_work
# time taken just before or after it: in effect, times are measured in
# units of reference_work.
REFERENCE_S = 1.9e-3


def tail_percentile(latencies):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond
    it, and its nearest-rank value; the maximum if there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return 100.0, ordered[-1]


def start_worker(args, mode):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    return proc, started


def await_ready(proc, started) -> tuple:
    """The set-up time, raw and scaled by the reference_work time the
    worker measures right after it."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not start: {line!r}")
    elapsed = time.perf_counter() - started
    word, _, value = proc.stdout.readline().partition(" ")
    if word != "REFERENCE":
        raise RuntimeError(f"worker sent no reference time: {word!r}")
    return elapsed, elapsed * REFERENCE_S / float(value)


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure_setup(args, count) -> list:
    samples = []
    for _ in range(count):
        proc, started = start_worker(args, "setup")
        try:
            samples.append(await_ready(proc, started))
        finally:
            finish(proc, 60)
    return samples


def run(args) -> dict:
    extra = 0 if args.trace else SETUP_RUNS
    setup = measure_setup(args, extra // 2)
    proc, started = start_worker(args, "traced" if args.trace else "timed")
    try:
        setup.append(await_ready(proc, started))
        out = finish(proc, WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    setup += measure_setup(args, extra - extra // 2)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_samples"] = setup
    return report


def per_op(latencies, ids, scale=None) -> list:
    """Each distinct op's median time over its runs in the run, each run
    first multiplied by its entry of `scale` if given.

    The median drops the runs that a burst of load on the shared host
    slowed.  An op with fresh inputs has a new input in every round, so
    its median is over cold calls on different inputs.
    """
    runs: dict = {}
    for i, (dt, op_id) in enumerate(zip(latencies, ids)):
        runs.setdefault(op_id, []).append(dt * scale[i] if scale else dt)
    return [statistics.median(times) for times in runs.values()]


def op_metrics(times) -> dict:
    """ops_per_s, op_p50_ms and op_tail_ms over per-op times."""
    p, tail = tail_percentile(times)
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail * 1e3, "tail_percentile": p}


def summarize(args, report):
    """Print the human-readable report and return the metrics dict."""
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['rounds']} rounds of {report['distinct_ops']} distinct "
          f"ops ({report['heavy_ops']} of them not in every round), "
          "closed loop, one client")
    if args.trace:
        metrics = {}
        from perfbench.trace import LAYER_METRICS
        for name, unit, _ in LAYER_METRICS:
            value = report["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:32s} {value:14.6g} {unit}")
        print(f"  spans: {report['spans']} written to {report['trace_file']}")
    else:
        reference = report["reference_s"]
        scaled = op_metrics(per_op(report["latencies"], report["ids"],
                                   [REFERENCE_S / r for r in reference]))
        raw = op_metrics(per_op(report["latencies"], report["ids"]))
        print(f"  host: reference_work took {min(reference) * 1e3:.3f} ms "
              f"at the fastest and {statistics.median(reference) * 1e3:.3f}"
              f" ms at the median; each op run is scaled by "
              f"{REFERENCE_S * 1e3:g} ms over the latest one before it "
              "(raw values in brackets)")
        n, p = report["distinct_ops"], scaled["tail_percentile"]
        sample = f"n={n} ops, median of up to {report['rounds']} runs"
        setup_raw, setup = min(report["setup_samples"], key=lambda s: s[1])
        values = {  # name: (value, raw value, unit, note)
            "ops_per_s": (scaled["ops_per_s"], raw["ops_per_s"], "ops/s",
                          f"{n} ops over the sum of their times; "
                          f"{len(report['latencies'])} op runs in "
                          f"{report['wall_s']:.2f} s wall"),
            "op_p50_ms": (scaled["op_p50_ms"], raw["op_p50_ms"], "ms",
                          sample),
            "op_tail_ms": (scaled["op_tail_ms"], raw["op_tail_ms"], "ms",
                           f"p{p:g}, {sample}, "
                           f"{n - math.ceil(p / 100 * n)} beyond"),
            "setup_s": (setup, setup_raw, "s",
                        f"fastest of {len(report['setup_samples'])} "
                        "fresh set-ups"),
            "peak_rss_mb": (report["rss_kb"] / 1024, report["rss_kb"] / 1024,
                            "MB", "ru_maxrss of the worker"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, _, u, _) in
                   values.items()}
        for name, (value, raw_value, unit, note) in values.items():
            print(f"  {name:12s} {value:12.4f} {unit:6s} [{raw_value:.4f}] "
                  f"({note})")
        known = report["known"]
        still = sum(1 for k in known if k["status"] != "fixed")
        total = attempted + len(known)
        print(f"  {'fail_ratio':12s} {(failed + still) / total:12.4f} "
              f"{'1':6s} ({failed + still} of {total}: {failed} of "
              f"{attempted} timed ops, {still} of {len(known)} "
              "known-failure ops)")
        for k in known:
            print(f"  known failure {k['op']}: {k['status']} "
                  f"({k['detail']}) - {k['reason']}")
    for err in report["errors"]:
        print(f"  ERROR {err}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leavittk" / "__init__.py").is_file():
        print(f"{ROOT} holds no leavittk sources (src/leavittk)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    report = run(args)
    metrics = summarize(args, report)
    wrong = [k for k in report.get("known", ()) if k["status"] == "wrong"]
    correct = not report["errors"] and not wrong
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
