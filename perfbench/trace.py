"""Spans around calls into each layer, recorded from the benchmark's files.

`Tracer.install` replaces each public function named in TARGETS by a
wrapper that records a span (op, parent span, name, start, end).  A
function imported with `from .x import f` is bound in several modules,
so the wrapper is rebound wherever the original object appears.  Counts
come only from arguments and return values.  Self time is a span's
duration minus the time its child spans cover; with one thread and a
closed loop every span is on the path that blocks the op.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from pathlib import Path
from statistics import median


def _snf(args, result):
    m = args[0]
    bits = max((x.bit_length() for mat in (result.U, result.D, result.V)
                for x in mat.entries), default=0)
    return {"cells": m.rows * m.cols, "bits": bits}


def _factorize(args, result):
    return {"bits": int(args[0]).bit_length()}


def _oracle_vectors(args, result):
    """Vectors the enumeration visits, computed from m, rows, cols and
    the factorization: the domain once, then the kernel and the whole
    codomain once per p^j-torsion count."""
    matrix, modulus = args
    kernel = result[0]
    passes = sum(e + 1 for _, e in modulus.factorization)
    m = modulus.m
    return {"vectors": m ** matrix.cols
            + passes * (kernel.order() + m ** matrix.rows)}


def _normalize(args, result):
    return {"terms_in": len(args[1]), "terms_out": len(result)}


def _span_dim(args, result):
    from leavittk.filtration import block_profile
    q, n = args[0], args[1]
    return {"rank": result, "monomials": block_profile(q, n).sum_of_squares}


# (span name, module, attribute path, counter or None)
TARGETS = (
    ("quiver.parse", "leavittk.quiver", "parse_quiver", None),
    ("quiver.order", "leavittk.quiver", "order_sinks_first", None),
    ("matrices.snf", "leavittk.matrices", "smith_normal_form", _snf),
    ("matrices.det", "leavittk.matrices", "IntMatrix.determinant", None),
    ("groups.factorize", "leavittk.groups", "factorize", _factorize),
    ("groups.modulus", "leavittk.groups", "Modulus.of", None),
    ("groups.normal_form", "leavittk.groups",
     "FinAbGroup.from_cyclic_orders", None),
    ("groups.coker_ker", "leavittk.groups", "cokernel_mod", None),
    ("groups.coker_ker", "leavittk.groups", "kernel_mod", None),
    ("groups.coker_ker", "leavittk.groups", "cokernel_int", None),
    ("groups.coker_ker", "leavittk.groups", "kernel_rank_int", None),
    ("groups.oracle", "leavittk.groups", "brute_force_mod_oracle",
     _oracle_vectors),
    ("ktheory.leavitt_matrix", "leavittk.ktheory", "leavitt_matrix", None),
    ("ktheory.table", "leavittk.ktheory", "mod_l_ktheory", None),
    ("ktheory.les", "leavittk.ktheory", "les_table_for_quiver", None),
    ("ktheory.divisibility", "leavittk.ktheory", "divisibility_report", None),
    ("ktheory.split", "leavittk.ktheory", "moore_splitting_check", None),
    ("algebra.build", "leavittk.algebra", "LeavittAlgebra.__init__", None),
    ("algebra.normalize", "leavittk.algebra", "LeavittAlgebra._normalize",
     _normalize),
    ("algebra.mul", "leavittk.algebra", "Element.__mul__", None),
    ("algebra.corner_axioms", "leavittk.algebra", "verify_corner_axioms",
     None),
    ("element_syntax.parse", "leavittk.element_syntax", "parse_element",
     None),
    ("filtration.span_dim", "leavittk.filtration", "filtration_span_dim",
     _span_dim),
    ("filtration.block_profile", "leavittk.filtration", "block_profile",
     None),
    ("filtration.k0_matrices", "leavittk.filtration", "inclusion_k0_matrix",
     None),
    ("filtration.k0_matrices", "leavittk.filtration", "phi_k0_matrix", None),
    ("cli.main", "leavittk.cli", "main", None),
)

# Per-layer metrics: (name, unit, better).  "s/op" is self time per op,
# "count/op" a count per op, both over the traced ops of one run.
LAYER_METRICS = (
    ("quiver.parse_s", "s/op", "lower"),
    ("quiver.order_s", "s/op", "lower"),
    ("matrices.snf_s", "s/op", "lower"),
    ("matrices.snf_calls", "count/op", "lower"),
    ("matrices.snf_cells", "count/op", "lower"),
    ("matrices.snf_max_bits", "bits", "lower"),
    ("matrices.det_s", "s/op", "lower"),
    ("groups.coker_ker_self_s", "s/op", "lower"),
    ("groups.normal_form_s", "s/op", "lower"),
    ("groups.factorize_calls", "count/op", "lower"),
    ("groups.factorize_max_bits", "bits", "lower"),
    ("groups.modulus_s", "s/op", "lower"),
    ("groups.oracle_s", "s/op", "lower"),
    ("groups.oracle_vectors", "count/op", "lower"),
    ("ktheory.leavitt_matrix_s", "s/op", "lower"),
    ("ktheory.table_self_s", "s/op", "lower"),
    ("ktheory.les_self_s", "s/op", "lower"),
    ("ktheory.divisibility_self_s", "s/op", "lower"),
    ("ktheory.snf_per_table", "count", "lower"),
    ("algebra.normalize_s", "s/op", "lower"),
    ("algebra.normalize_calls", "count/op", "lower"),
    ("algebra.terms_in", "count/op", "lower"),
    ("algebra.terms_out", "count/op", "lower"),
    ("algebra.mul_s", "s/op", "lower"),
    ("algebra.builds", "count/op", "lower"),
    ("element_syntax.parse_s", "s/op", "lower"),
    ("filtration.span_dim_self_s", "s/op", "lower"),
    ("filtration.span_monomials", "count/op", "lower"),
    ("filtration.rank_ratio", "1", "higher"),
    ("filtration.block_profile_calls", "count/op", "lower"),
    ("filtration.block_profile_s", "s/op", "lower"),
    ("filtration.k0_matrices_s", "s/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.kmod_p50_ms", "ms", "lower"),
    ("cli.analyze_p50_ms", "ms", "lower"),
    ("cli.algebra_p50_ms", "ms", "lower"),
    ("cli.filtration_p50_ms", "ms", "lower"),
    ("cli.split_p50_ms", "ms", "lower"),
    ("cli.error_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.unattributed_ratio", "1", "lower"),
)

# Self-time metrics and the span name each adds up.
SELF_TIME = {
    "quiver.parse_s": "quiver.parse",
    "quiver.order_s": "quiver.order",
    "matrices.snf_s": "matrices.snf",
    "matrices.det_s": "matrices.det",
    "groups.coker_ker_self_s": "groups.coker_ker",
    "groups.normal_form_s": "groups.normal_form",
    "groups.modulus_s": "groups.modulus",
    "groups.oracle_s": "groups.oracle",
    "ktheory.leavitt_matrix_s": "ktheory.leavitt_matrix",
    "ktheory.table_self_s": "ktheory.table",
    "ktheory.les_self_s": "ktheory.les",
    "ktheory.divisibility_self_s": "ktheory.divisibility",
    "algebra.normalize_s": "algebra.normalize",
    "algebra.mul_s": "algebra.mul",
    "element_syntax.parse_s": "element_syntax.parse",
    "filtration.span_dim_self_s": "filtration.span_dim",
    "filtration.block_profile_s": "filtration.block_profile",
    "filtration.k0_matrices_s": "filtration.k0_matrices",
    "cli.self_s": "cli.main",
}

# The traced share of op time that no layer span covers may not exceed
# this; the rest is the benchmark's own code around each call.
UNATTRIBUTED_LIMIT = 0.10


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []     # (op, parent index, name, start, end)
        self.counts: dict = {}    # span index -> {count name: value}
        # span index (-1: none) -> seconds its children's counters took,
        # which is tracing overhead and not the span's self time
        self.counting: dict = {}
        self._stack: list = []
        self._undo: list = []
        self._op = -1
        self._op_start = 0
        self.totals: dict = {}    # name -> [self seconds, calls]
        self.sums: dict = {}      # (name, count) -> sum
        self.maxima: dict = {}    # (name, count) -> max
        self.snf_in_tables = 0
        self.counting_s = 0.0
        # [True] while spans are recorded; counters and input generation
        # between ops call wrapped functions with it set to [False]
        self._on = [True]

    # -- installing wrappers -------------------------------------------------

    def install(self):
        for name, module_name, path, counter in TARGETS:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(name, original, counter)
            self._rebind(owner, attr, raw,
                         classmethod(wrapper) if is_classmethod else wrapper)

    def _rebind(self, owner, attr, raw, new):
        if isinstance(owner, type):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "leavittk" and not mod_name.startswith("leavittk."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, new)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        counting, on = self.counting, self._on
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self._op, parent, name, start, end)
            if counter is not None:
                on[0] = False
                try:
                    counts[idx] = counter(args, result)
                finally:
                    on[0] = True
                counting[parent] = counting.get(parent, 0.0) + clock() - end
            return result

        return wrapper

    # -- per-op accounting -----------------------------------------------------

    def begin_op(self):
        self._op += 1
        self._op_start = len(self.spans)

    def end_op(self):
        """Fold the op's spans into the totals, outside the op's timing."""
        spans = self.spans
        covered = self.counting   # from here on also child span time
        self.counting_s += sum(covered.values())
        for i in range(self._op_start, len(spans)):
            _, parent, _, start, end = spans[i]
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        for i in range(self._op_start, len(spans)):
            _, parent, name, start, end = spans[i]
            tot = self.totals.setdefault(name, [0.0, 0])
            tot[0] += (end - start) - covered.get(i, 0.0)
            tot[1] += 1
            for key, value in self.counts.pop(i, {}).items():
                self.sums[name, key] = self.sums.get((name, key), 0) + value
                self.maxima[name, key] = max(self.maxima.get((name, key), 0),
                                             value)
            if name == "matrices.snf":
                j = parent
                while j >= 0 and spans[j][2] != "ktheory.table":
                    j = spans[j][1]
                self.snf_in_tables += j >= 0
        covered.clear()

    def metrics(self, ops: int, op_seconds: float, untraced_seconds: float,
                latencies_by_kind: dict) -> dict:
        def calls(name):
            return self.totals.get(name, [0.0, 0])[1]

        values = {metric: self.totals.get(name, [0.0, 0])[0] / ops
                  for metric, name in SELF_TIME.items()}
        monomials = self.sums.get(("filtration.span_dim", "monomials"), 0)
        values.update({
            "matrices.snf_calls": calls("matrices.snf") / ops,
            "matrices.snf_cells": self.sums.get(("matrices.snf", "cells"), 0)
            / ops,
            "matrices.snf_max_bits": self.maxima.get(("matrices.snf", "bits"),
                                                     0),
            "groups.factorize_calls": calls("groups.factorize") / ops,
            "groups.factorize_max_bits": self.maxima.get(
                ("groups.factorize", "bits"), 0),
            "groups.oracle_vectors": self.sums.get(
                ("groups.oracle", "vectors"), 0) / ops,
            "ktheory.snf_per_table": self.snf_in_tables
            / max(1, calls("ktheory.table")),
            "algebra.normalize_calls": calls("algebra.normalize") / ops,
            "algebra.terms_in": self.sums.get(("algebra.normalize",
                                               "terms_in"), 0) / ops,
            "algebra.terms_out": self.sums.get(("algebra.normalize",
                                                "terms_out"), 0) / ops,
            "algebra.builds": calls("algebra.build") / ops,
            "filtration.span_monomials": monomials / ops,
            "filtration.rank_ratio": self.sums.get(("filtration.span_dim",
                                                    "rank"), 0)
            / monomials if monomials else 0.0,
            "filtration.block_profile_calls": calls("filtration.block_profile")
            / ops,
        })
        for kind in ("kmod", "analyze", "algebra", "filtration", "split",
                     "error"):
            lat = latencies_by_kind.get(f"cli.{kind}")
            values[f"cli.{kind}_p50_ms"] = median(lat) * 1e3 if lat else 0.0
        attributed = sum(t[0] for t in self.totals.values())
        values["trace.overhead_ratio"] = op_seconds / untraced_seconds
        values["trace.unattributed_ratio"] = \
            1.0 - attributed / (op_seconds - self.counting_s)
        return values

    def write(self, path: Path):
        """Write every span once, as tab-separated text, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{name}\t{start:.9f}\t"
                         f"{end:.9f}\n")
