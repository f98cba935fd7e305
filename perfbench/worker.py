"""One workload in one process, with no threads.

Sets up (imports leavittk from the checkout's src/, generates the inputs
from the seed, runs the warm-up ops), prints READY and the time of
worker.reference_work right after, then runs whole
rounds of the workload's ops as a closed loop with one client until the
time is up.  Afterwards, outside every timed interval, it checks each
distinct op's result, runs the known-failure ops and prints one JSON
line with the raw measurements.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \
        --mode setup|timed|traced
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# A timed op that runs longer than this fails instead of stalling the run;
# the slowest op of any workload takes about 1.5 s on a 2-core host.
OP_LIMIT_S = 20.0
CHECK_LIMIT_S = 60.0
# A fixed known-failure op is expected to end in milliseconds.
KNOWN_LIMIT_S = 2.0


# The timed phase runs reference_work between ops, at least once every
# REFERENCE_EVERY_S seconds.
REFERENCE_EVERY_S = 0.1


_rng = random.Random(1)
REFERENCE_MATRIX = tuple(tuple(_rng.randint(-10 ** 6, 10 ** 6)
                               for _ in range(24)) for _ in range(24))


def reference_work() -> int:
    """A fixed stdlib computation that stands for the host's speed: the
    determinant of REFERENCE_MATRIX by fraction-free elimination.

    Its big-integer row operations, on entries that grow to 500 bits, are
    the kind of work that dominates leavittk's Smith forms; it followed
    the host's slow periods more closely than a matrix of small entries
    or a mix of Fraction, dict and string work (perfbench/README.md).
    It calls nothing of leavittk, so no change to the program can change
    its time.
    """
    m = [list(row) for row in REFERENCE_MATRIX]
    n, prev, sign = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i, a = m[i], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - row_k[j] * a) // prev
        prev = pivot
    return sign * m[-1][-1]


def timed_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_limited(fn, limit: float):
    """(seconds, result, error) of fn() under a SIGALRM time limit."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return time.perf_counter() - start, None, f"timeout after {limit} s"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return (time.perf_counter() - start, None,
                f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, result, None


def _import_program():
    src = ROOT / "src"
    if not (src / "leavittk" / "__init__.py").is_file():
        sys.exit(f"no leavittk sources under {src}")
    sys.path.insert(0, str(src))
    import leavittk
    if Path(leavittk.__file__).resolve().parent != src / "leavittk":
        sys.exit(f"imported leavittk from {leavittk.__file__}, not {src}")


def run_rounds(workload, seconds, results, failures, tracer=None,
               rounds=None, reference=None):
    """Whole rounds until `seconds` of measuring have passed and every op
    has run, or exactly `rounds` rounds.  Returns (latencies, op ids,
    rounds done).

    An op with fresh inputs gets them before it starts, and its result is
    checked at the end of the round; neither counts towards `seconds`.
    If `reference` is a list, the time of the latest reference_work run
    before each op is appended to it, one per latency; reference_work
    does not count towards `seconds` either.
    """
    latencies, ids = [], []
    hard_stop = 2 * seconds + 30
    untimed = tracer.paused if tracer else contextlib.nullcontext
    start = time.perf_counter()
    aside = 0.0     # seconds spent besides the ops themselves
    last_reference, latest = -REFERENCE_EVERY_S, 0.0
    done = 0
    while True:
        fresh_runs = []
        for op in workload.ops:
            if done % op.every != op.phase:
                continue
            if reference is not None \
                    and time.perf_counter() - last_reference \
                    >= REFERENCE_EVERY_S:
                latest = timed_reference()
                last_reference = time.perf_counter()
                aside += latest
            instance = op
            if op.fresh:
                t0 = time.perf_counter()
                with untimed():
                    instance = op.fresh(done)
                aside += time.perf_counter() - t0
            if tracer:
                tracer.begin_op()
            dt, result, err = run_limited(instance.call, OP_LIMIT_S)
            if tracer:
                tracer.end_op()
            latencies.append(dt)
            ids.append(op.op_id)
            if reference is not None:
                reference.append(latest)
            if err:
                failures.setdefault(op.op_id, err)
            elif op.fresh:
                results.setdefault(op.op_id, result)
                fresh_runs.append((op.op_id, instance, result))
            elif op.op_id not in results:
                results[op.op_id] = result
            elif results[op.op_id] != result:
                failures.setdefault(op.op_id, "result differs between rounds")
            if time.perf_counter() - start > hard_stop:
                return latencies, ids, done
        t0 = time.perf_counter()
        with untimed():
            for op_id, instance, result in fresh_runs:
                check(instance, result, op_id, failures)
        aside += time.perf_counter() - t0
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= workload.cycle \
                and time.perf_counter() - start - aside >= seconds:
            break
    return latencies, ids, done


def check(op, result, op_id, failures):
    _, verdict, err = run_limited(lambda: op.check(result), CHECK_LIMIT_S)
    if err or verdict:
        failures.setdefault(op_id, f"check: {err or verdict}")


def check_results(workload, results, failures):
    """Check each op with repeated inputs once; fresh ones were checked
    in their round."""
    for op in workload.ops:
        if op.op_id in results and not op.fresh:
            check(op, results[op.op_id], op.op_id, failures)


def run_known(workload):
    """Known-failure ops, once each, under their own short limit."""
    out = []
    for kf in workload.known:
        _, result, err = run_limited(kf.op.call, KNOWN_LIMIT_S)
        if err:
            status = "failing" if err.startswith(kf.expected) \
                else "failing-differently"
            detail = err
        else:
            _, verdict, check_err = run_limited(
                lambda: kf.op.check(result), CHECK_LIMIT_S)
            status = "wrong" if (verdict or check_err) else "fixed"
            detail = verdict or check_err or "passes its check"
        out.append({"op": f"{workload.name}:{kf.op.op_id}", "status": status,
                    "expected": kf.expected, "detail": detail[:200],
                    "reason": kf.reason})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import workloads
    warnings.simplefilter("ignore")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        for op in workload.warmup:
            op.call()
        print("READY", flush=True)
        # The host's speed right after this set-up, to scale its time.
        print(f"REFERENCE {min(timed_reference() for _ in range(5))!r}",
              flush=True)
        if args.mode == "setup":
            return 0
        report = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


def measure(workload, args) -> dict:
    """Run the timed or traced phase, then check it; the raw report."""
    from perfbench import workloads
    signal.signal(signal.SIGALRM, _alarm)
    results: dict = {}
    failures: dict = {}
    errors: list = []
    report = {"workload": workload.name, "seed": workload.seed,
              "distinct_ops": len(workload.ops),
              "heavy_ops": sum(op.every > 1 for op in workload.ops)}
    if args.mode == "timed":
        start = time.perf_counter()
        reference: list = []
        lat, ids, rounds = run_rounds(workload, args.seconds, results,
                                      failures, reference=reference)
        report["reference_s"] = reference
        report["wall_s"] = time.perf_counter() - start
        report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        all_ids = ids
    else:
        from perfbench.trace import UNATTRIBUTED_LIMIT, Tracer
        u_lat, u_ids, rounds = run_rounds(workload, args.seconds / 2,
                                          results, failures)
        tracer = Tracer()
        tracer.install()
        try:
            lat, ids, _ = run_rounds(workload, 0, results, failures, tracer,
                                     rounds=rounds)
        finally:
            tracer.uninstall()
        kind = {op.op_id: op.kind for op in workload.ops}
        by_kind: dict = {}
        for dt, op_id in zip(lat, ids):
            by_kind.setdefault(kind[op_id], []).append(dt)
        report["layers"] = tracer.metrics(len(lat), sum(lat), sum(u_lat),
                                          by_kind)
        unattributed = report["layers"]["trace.unattributed_ratio"]
        if unattributed > UNATTRIBUTED_LIMIT:
            errors.append(f"layer self times leave {unattributed:.1%} of "
                          f"traced op time unattributed, over "
                          f"{UNATTRIBUTED_LIMIT:.0%}")
        trace_file = OUT / f"trace-{workload.name}-seed{workload.seed}.tsv.gz"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
        all_ids = u_ids + ids
    check_results(workload, results, failures)
    report.update(rounds=rounds, latencies=lat, ids=ids,
                  attempted=len(all_ids),
                  failed=sum(1 for op_id in all_ids if op_id in failures))
    errors += [f"{op_id}: {msg}" for op_id, msg in sorted(failures.items())]
    if len(set(all_ids)) < len(workload.ops):
        errors.append("run stopped at the hard time limit before every op ran")
    if workload.seed == workloads.DEFAULT_SEED:
        want = workloads.SEED0_DIGESTS[workload.name]
        got = workloads.digest(workload, results)
        report["digest"] = got
        if want is not None and got != want:
            errors.append(f"rendered outputs digest {got} != recorded {want}")
    if args.mode == "timed":
        report["known"] = run_known(workload)
    report["errors"] = errors
    return report


if __name__ == "__main__":
    sys.exit(main())
