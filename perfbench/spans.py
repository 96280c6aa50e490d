"""Span recorder for the traced benchmark run.

The tracer wraps a fixed list of radstein functions at every module attribute
that binds them (the defining module and each ``from ... import`` site), so
calls made inside the package are recorded as well as calls from the
benchmark.  Each call becomes one span: name, start, end, parent span and
operation id.  A span without an open parent starts a new operation.  Spans
stay in memory in flat typed arrays and are written out once, when the run
ends.  A layer's self time is its span's duration minus the part of it that
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array


def _pairs(args, result):
    return {"pairs_visited": len(args["f"].entries) * len(args["g"].entries)}


def _outcomes(args, result):
    return {"outcomes": 1 << args["model"].size}


def _decompose(args, result):
    entries = sum(len(k.entries) for k in result.kernels.values())
    return {"entries_out": entries, "outcomes": 1 << args["model"].size}


def _samples(args, result):
    return {"samples": int(args["samples"])}


# "<module>.<function>" -> function computing the span's counts from its bound
# arguments and result, or None.  "outcomes" is 2^N for calls that pass over
# the whole enumerated sample space.
TRACED = {
    "cli.main": None,
    "verify.run_verification": None,
    "bounds.main_bound": None,
    "bounds.main_bound_reduced": None,
    "bounds.wasserstein_bound": None,
    "bounds.second_order_bound": None,
    "bounds.jm_bound": None,
    "bounds.j2_bound": None,
    "bounds.bernoulli_bound": None,
    "chaos.decompose": _decompose,
    "chaos.to_table": _outcomes,
    "chaos.multiply": None,
    "chaos.evaluate_on_signs": None,
    "malliavin.minus_gradient_pseudo_inverse": None,
    "malliavin.gradient_pathwise": _outcomes,
    "model.distribution": _outcomes,
    "model.expectation": _outcomes,
    "model.stable_sum": None,
    "kernels.sym_offdiag_weighted_contract": _pairs,
    "kernels.contract": _pairs,
    "kernels.weighted_contract": None,
    "kernels.norm_sq": None,
    "distance.tv_exact": None,
    "distance.w1_exact": None,
    "distance.tv_monte_carlo": _samples,
    "chenstein.solve": None,
    "chenstein.truncation_point": None,
    "chenstein.poisson_tail": None,
}

KERNEL_ENTRIES = "kernels.Kernel.entries_built"


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent."""
    covered = [0.0] * len(starts)
    reach = {}
    for i in sorted(range(len(starts)), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if hi <= lo:
            continue
        edge = reach.get(p)
        if edge is not None and lo < edge:
            if hi > edge:
                covered[p] += hi - edge
                reach[p] = hi
        else:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


class Tracer:
    """Records spans while installed; install and uninstall around each timed
    operation, so input building, output checks and the calibration loop stay
    outside the trace.  Spans are grouped by the pass they belong to."""

    def __init__(self):
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}  # span id -> {stat: value}
        self.op_pass = array("i")
        self.pass_index = -1
        self._stack = [-1]
        self._patches = []

    def bind(self) -> None:
        """Find every binding site of each traced function in the loaded
        radstein package and prepare its wrapper; call again after radstein
        is imported afresh."""
        self._patches = []
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "radstein" or name.startswith("radstein."))
        ]
        for nid, label in enumerate(self.names):
            mod_name, fn_name = label.split(".")
            original = getattr(sys.modules[f"radstein.{mod_name}"], fn_name)
            wrapper = self._wrap(nid, original, TRACED[label])
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        kernel = sys.modules["radstein.kernels"].Kernel
        post_init = kernel.__post_init__

        def counted_post_init(obj):
            self._count(self._stack[-1], {KERNEL_ENTRIES: len(obj.entries)})
            post_init(obj)

        self._patches.append((kernel, "__post_init__", post_init, counted_post_init))

    def install(self, pass_index: int) -> None:
        self.pass_index = pass_index
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _count(self, span: int, values: dict) -> None:
        if span < 0:
            span = -1 - self.pass_index  # counts made outside any span, kept per pass
        bucket = self.counts.setdefault(span, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    def _wrap(self, nid: int, fn, counter):
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(tracer.start)
            if parent < 0:
                op = len(tracer.op_pass)
                tracer.op_pass.append(tracer.pass_index)
            else:
                op = tracer.op[parent]
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(op)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tracer._count(sid, counter(bound, result))
            return result

        return wrapper

    def pass_totals(self) -> dict:
        """Per pass: "<layer>.<stat>" -> summed value over that pass."""
        selfs = self_times(self.start, self.end, self.parent)
        passes: dict[int, dict] = {}

        def add(r, key, value):
            bucket = passes.setdefault(r, {})
            bucket[key] = bucket.get(key, 0) + value

        for sid, nid in enumerate(self.name_id):
            r = self.op_pass[self.op[sid]]
            label = self.names[nid]
            add(r, label + ".self_s", selfs[sid])
            add(r, label + ".span_s", self.end[sid] - self.start[sid])
            add(r, label + ".calls", 1)
        for sid, values in self.counts.items():
            r = -1 - sid if sid < 0 else self.op_pass[self.op[sid]]
            label = KERNEL_ENTRIES if sid < 0 else self.names[self.name_id[sid]]
            for stat, value in values.items():
                add(r, stat if stat == KERNEL_ENTRIES else f"{label}.{stat}", value)
        return passes

    def layer_metrics(self) -> dict:
        """One value per metric over the traced passes: the fastest pass for
        times and rates, the pass least slowed by other work on the host, and
        the median pass for counts.  A layer that no pass touched reads 0."""
        passes = list(self.pass_totals().values()) or [{}]

        def total(key):
            return [r.get(key, 0) for r in passes]

        out = {}
        for label in self.names:
            out[f"{label}.self_s"] = min(total(f"{label}.self_s"))
            out[f"{label}.calls"] = statistics.median(total(f"{label}.calls"))
        for key in (
            "kernels.sym_offdiag_weighted_contract.pairs_visited",
            "kernels.contract.pairs_visited",
            "chaos.decompose.entries_out",
            KERNEL_ENTRIES,
        ):
            out[key] = statistics.median(total(key))
        out["model.outcomes_enumerated"] = statistics.median(
            sum(v for k, v in r.items() if k.endswith(".outcomes")) for r in passes
        )
        out["distance.mc_samples_per_s"] = max(
            r.get("distance.tv_monte_carlo.samples", 0)
            / r.get("distance.tv_monte_carlo.span_s", 1.0)
            for r in passes
        )
        return out

    def save(self, path) -> None:
        """Write every span and count as one .npz file."""
        import numpy as np

        count_rows = [
            (sid, key, value)
            for sid, values in self.counts.items()
            for key, value in values.items()
        ]
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            op_pass=np.frombuffer(self.op_pass, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_span=np.array([row[0] for row in count_rows], dtype=np.int64),
            count_key=np.array([row[1] for row in count_rows], dtype=str),
            count_value=np.array([row[2] for row in count_rows], dtype=np.float64),
        )
