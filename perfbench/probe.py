"""One-shot ladder probe: the hand-measured baselines of the roadmap,
timed once outside the repeated workloads.

    python3 perfbench/probe.py [--out perfbench/results/probe.json]

Each point is run REPEAT times and reported as min and median seconds.
It covers mod_l_ktheory at v=100 with 10 arrows per vertex and at v=150
and v=300 with 3, the certified Smith form inside it, filtration_span_dim on
jacobson(2) at level 4 and on rose(3) at level 5, the oracle's share of
the acceptance-criterion-3 shape, and a cold `python -m leavittk.cli kmod`
subprocess against a bare interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3
ORACLE_CASES = 40


def timed(fn, repeat=REPEAT):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"min_s": min(times), "median_s": statistics.median(times),
            "runs": repeat}


def cold_start(argv, repeat=5):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return timed(lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True,
                                        stdout=subprocess.DEVNULL),
                 repeat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="perfbench/results/probe.json")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    warnings.simplefilter("ignore")
    from leavittk import groups, ktheory, matrices
    from leavittk.filtration import filtration_span_dim
    from perfbench.workloads import (jacobson_arrows, parse,
                                     random_source_free, rose_arrows,
                                     small_quiver)

    points = {}
    for v, apv in ((100, 10), (150, 3), (300, 3)):
        q = parse(*random_source_free(random.Random(f"probe/{v}"), v, apv, 0))
        matrix = ktheory.leavitt_matrix(q)
        dec = matrices.smith_normal_form(matrix)
        digits = max(len(str(abs(x))) for m in (dec.U, dec.V)
                     for x in m.entries)
        points[f"mod_l_ktheory_v{v}_apv{apv}"] = dict(
            timed(lambda: ktheory.mod_l_ktheory(q, groups.Modulus.of(8))),
            arrows=len(q.arrows))
        points[f"smith_normal_form_v{v}_apv{apv}"] = dict(
            timed(lambda: matrices.smith_normal_form(matrix)),
            max_uv_decimal_digits=digits)
    jac2 = parse(*jacobson_arrows(2))
    points["filtration_span_dim_jacobson2_level4"] = timed(
        lambda: filtration_span_dim(jac2, 4))
    rose3 = parse(*rose_arrows(3))
    points["filtration_span_dim_rose3_level5"] = timed(
        lambda: filtration_span_dim(rose3, 5))

    rng = random.Random("probe/oracle")
    cases = [parse(*small_quiver(rng, rng.randint(1, 4), sink_free=True))
             for _ in range(ORACLE_CASES)]
    oracle_s = tables_s = 0.0
    for q in cases:
        matrix = ktheory.leavitt_matrix(q)
        for m in (2, 3, 4, 5, 7, 8, 9):
            mod = groups.Modulus.of(m)
            start = time.perf_counter()
            groups.brute_force_mod_oracle(matrix, mod)
            mid = time.perf_counter()
            ktheory.mod_l_ktheory(q, mod, 0, 1)
            oracle_s += mid - start
            tables_s += time.perf_counter() - mid
    points["oracle_share_criterion3_shape"] = {
        "cases": ORACLE_CASES * 7, "oracle_s": oracle_s, "tables_s": tables_s,
        "oracle_share": oracle_s / (oracle_s + tables_s)}

    points["cold_cli_kmod_subprocess"] = cold_start(
        [sys.executable, "-m", "leavittk.cli", "kmod", "tests/data/rose2.q",
         "--mod", "8"])
    points["bare_interpreter_subprocess"] = cold_start(
        [sys.executable, "-c", "pass"])

    report = {
        "host": {"platform": platform.platform(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "points": points,
    }
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, point in points.items():
        print(name, json.dumps(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
