"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, trace, worker, workloads  # noqa: E402

# Composite moduli and off-degree corner images warn by design.
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Ops that fail at the commit that introduced the benchmark, and how.  A
# change that fixes one moves it from here to the passing ops.
KNOWN_FAILING = {
    "tables-ladder": {"tables-ladder:dense.div": "timeout"},
    "filtration-levels": {},
    "oracle-certify": {},
    "cli-requests": {
        "cli-requests:kmod.huge-modulus": "timeout",
        "cli-requests:filtration.rose3.level9": "SizeLimitError",
        "cli-requests:algebra.div-by-zero": "ZeroDivisionError",
    },
}


def test_metric_names_and_units():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(trace.LAYER_METRICS)
    assert set(trace.SELF_TIME) <= set(names)
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generators_are_deterministic(seed):
    for gen in (lambda r: workloads.random_source_free(r, 30, 4, 3),
                lambda r: workloads.dense_quiver(r, 6, 40),
                lambda r: workloads.small_quiver(r, 4, sink_free=True)):
        first = gen(random.Random(seed))
        assert gen(random.Random(seed)) == first
        assert gen(random.Random(seed + 1000)) != first


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_follow_the_seed(name, tmp_path):
    def inputs(seed):
        w = workloads.build(name, seed, tmp_path / f"s{seed}")
        return sorted(op.op_id for op in w.ops), \
            [op.render(op.call()) for op in w.warmup]

    assert inputs(3) == inputs(3)


def test_fresh_inputs_follow_seed_and_round(tmp_path):
    """tables-ladder's random rungs get new inputs in every round, the
    same ones for the same seed and round."""
    def parsed(seed, r):
        w = workloads.build("tables-ladder", seed, tmp_path)
        return [op.render(op.fresh(r).call()) for op in w.ops
                if op.fresh and op.kind == "parse"]

    first = parsed(3, 1)
    assert first and parsed(3, 1) == first
    assert all(a != b for a, b in zip(first, parsed(3, 2)))
    assert all(a != b for a, b in zip(first, parsed(4, 1)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_round(name, tmp_path):
    """One round untimed, then one traced: every op passes its check,
    only the documented known-failure ops fail, and the layer self times
    cover the traced op time."""
    w = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
    timed = worker.measure(w, argparse.Namespace(mode="timed", seconds=0))
    assert timed["errors"] == [] and timed["failed"] == 0
    assert set(timed["ids"]) == {op.op_id for op in w.ops}
    failing = {k["op"]: k["expected"] for k in timed["known"]
               if k["status"] != "fixed"}
    assert failing == KNOWN_FAILING[name]
    assert all(k["status"] == "failing" for k in timed["known"])
    traced = worker.measure(w, argparse.Namespace(mode="traced", seconds=0))
    assert traced["errors"] == []
    layers = traced["layers"]
    assert set(layers) == {m[0] for m in trace.LAYER_METRICS}
    assert layers["trace.unattributed_ratio"] <= trace.UNATTRIBUTED_LIMIT


def test_tail_percentile_keeps_ten_samples_beyond():
    p, value = run.tail_percentile(list(range(1, 1001)))
    assert (p, value) == (99, 990)
    assert run.tail_percentile(list(range(1, 200)))[0] == 90
    assert run.tail_percentile([5, 1, 3])[0] == 100.0
