#!/usr/bin/env python3
"""radstein benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum_bound --seed 0 --seconds 30 --trace 0

Every run imports radstein from ``src/`` next to this directory and nowhere
else.  With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, taken
from spans around radstein's functions (see spans.py).  The last line of
standard output is the result object; lines before it repeat each metric with
its unit.  Scratch files go to ``.perfbench_run/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  imported before timing: radstein's only dependency

from spans import Tracer
from workloads import WORKLOADS, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("cli", "bounds", "chenstein", "chaos", "kernels", "model", "distance")


def import_radstein() -> SimpleNamespace:
    """Import radstein afresh from SRC, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "radstein" or n.startswith("radstein.")]:
        del sys.modules[name]
    package = importlib.import_module("radstein")
    if Path(package.__file__).resolve().parent != (SRC / "radstein").resolve():
        raise RuntimeError(f"radstein was imported from {package.__file__}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"radstein.{name}") for name in MODULES}
    )


def ulp_distance(a: float, b: float) -> int:
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(a) - ordinal(b))


def compare_reference(values: dict, expected_values: dict, tolerance: float,
                      tally: Tally) -> int:
    """Each reference value must be matched within the relative tolerance;
    returns the largest ulp distance seen."""
    worst = 0
    for key, expected in expected_values.items():
        got = values.get(key)
        ok = got is not None and abs(got - expected) <= tolerance * abs(expected)
        tally.record(ok, f"reference {key}: got {got!r}, expected {expected!r}")
        if got is not None:
            worst = max(worst, ulp_distance(got, expected))
    return worst


def set_up(workload, batch: list, workdir) -> tuple:
    """Import radstein afresh and build the batch's inputs; returns the
    import and the time taken."""
    t0 = time.perf_counter()
    rs = import_radstein()
    for data in batch:
        workload.build(rs, data, workdir)
    return rs, time.perf_counter() - t0


_CALIBRATION_ARRAY = numpy.linspace(0.0, 1.0, 1 << 14)


def calibration_loop() -> float:
    """Fixed work in the mix radstein does (tuple-keyed dict updates in the
    interpreter, vectorised numpy on 2^14 doubles), about 3 ms, with a
    working set that fits in the core's own L2 cache."""
    table = {}
    for i in range(6000):
        key = (i & 511, i >> 9)
        table[key] = table.get(key, 0.0) + i * 0.5
    x = _CALIBRATION_ARRAY
    for _ in range(25):
        x = numpy.sqrt(x * x + 1.0)
    return sum(table.values()) + float(x[0])


def calibration() -> float:
    """Seconds the calibration loop takes now, run once untimed first so its
    caches are warm whatever ran before it."""
    calibration_loop()
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def timed_pass(workload, rs, batch: list, workdir, tally: Tally, times: dict,
               tracer: Tracer | None = None, pass_index: int = 0) -> None:
    """Every operation once on every input of the batch.  Inputs are built
    afresh for each pass (untimed), so no operation sees objects, or their
    cached properties, left by an earlier repetition.  The calibration loop
    runs before the first operation and after each one; appends
    (seconds, seconds over the mean of the calibrations on either side) to
    times[(input index, operation name)]."""
    before = calibration()
    for i, data in enumerate(batch):
        inputs = workload.build(rs, data, workdir)
        outputs = {}
        for name, operation in workload.operations(rs, inputs):
            gc.collect()
            if tracer is not None:
                tracer.install(pass_index)
            try:
                t0 = time.perf_counter()
                outputs[name] = operation()
                elapsed = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            after = calibration()
            times.setdefault((i, name), []).append(
                (elapsed, 2.0 * elapsed / (before + after))
            )
            before = after
        workload.check(inputs, outputs, tally)


def measure(workload, seed: int, seconds: float, workdir, tally: Tally,
            tracer: Tracer | None) -> tuple:
    """Passes over the batch until the next pass would end after `seconds`
    from the start (at least one pass).  Each pass begins with a set-up
    sample; with a tracer, it runs again with the tracer installed.  Returns
    the last radstein import, the set-up times and the untraced and traced
    operation times."""
    begin = time.perf_counter()
    batch = [workload.generate(seed, i) for i in range(workload.BATCH)]
    setups, walls, traced = [], {}, {}
    passes = 0
    while True:
        t0 = time.perf_counter()
        rs, elapsed = set_up(workload, batch, workdir)
        setups.append(elapsed)
        timed_pass(workload, rs, batch, workdir, tally, walls)
        if tracer is not None:
            tracer.bind()
            timed_pass(workload, rs, batch, workdir, tally, traced, tracer, passes)
        passes += 1
        now = time.perf_counter()
        if now + (now - t0) > begin + seconds:
            return rs, setups, walls, traced


def pass_cost(times: dict, column: int = 1) -> float:
    """One pass over the batch, each operation at its median: in calibration
    loops (column 1) or in seconds (column 0)."""
    return sum(statistics.median(t[column] for t in samples) for samples in times.values())


def calibration_seconds(times: dict) -> float:
    """Median seconds of the calibration loop beside the timed operations."""
    return statistics.median(t[0] / t[1] for samples in times.values() for t in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radstein" / "__init__.py").is_file():
        print(f"radstein sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        tally = Tally()
        tracer = Tracer() if args.trace else None
        rs, setups, walls, traced = measure(workload, args.seed, args.seconds,
                                            workdir, tally, tracer)
        values = workload.reference(rs, workdir, tally)
        drift = compare_reference(values, reference["workloads"][workload.name],
                                  reference["tolerance_rel"], tally)

        if args.trace:
            measured = tracer.layer_metrics()
            measured["trace.overhead_s"] = (
                pass_cost(traced) - pass_cost(walls)
            ) * calibration_seconds(walls)
            measured["bounds.max_ulp_drift"] = drift
            measured["bounds.main_bound.peak_alloc_mb"] = workload.alloc_probe(
                rs, workload.build(rs, workload.generate(args.seed, 0), workdir)
            )
            tracer.save(scratch / f"trace-{workload.name}.npz")
            wanted = spec["per_layer"]
        else:
            measured = {
                "setup_s": statistics.median(setups),
                "wall_cal": pass_cost(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    metrics = {}
    for entry in wanted:
        value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{workload.name} {entry['name']} = {value!r} {entry['unit']}")
    print(f"{workload.name} set-up samples (s) = {[round(t, 4) for t in setups]}")
    repetitions = min(len(samples) for samples in walls.values())
    print(f"{workload.name} {len(walls)} operations, each timed {repetitions}+ times; "
          f"pass at median = {pass_cost(walls):.2f} calibration loops "
          f"= {pass_cost(walls, 0):.4f} s; calibration loop median = "
          f"{calibration_seconds(walls) * 1e3:.3f} ms")
    print(f"{workload.name} attempted = {tally.attempted}, failed = {tally.failed}, "
          f"max ulp drift = {drift}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
