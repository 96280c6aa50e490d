"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``; the
last test runs every workload once, traced, and takes under a minute.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import calibration_seconds, pass_cost  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGEST = (
    "import hashlib, json, sys; sys.path.insert(0, sys.argv[1]); "
    "from workloads import WORKLOADS; "
    "print(hashlib.sha256(json.dumps(WORKLOADS[sys.argv[2]].generate(7, 3))"
    ".encode()).hexdigest())"
)


def digest(name, seed, round_index=3):
    data = WORKLOADS[name].generate(seed, round_index)
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs_in_any_process(name):
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run(
        [sys.executable, "-c", DIGEST, str(HERE), name],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout.strip()
    assert digest(name, 7) == digest(name, 7) == other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_or_round_gives_other_inputs(name):
    assert digest(name, 7) != digest(name, 8)
    assert digest(name, 7, 3) != digest(name, 7, 4)


def test_self_time_subtracts_the_union_of_clipped_children():
    # root [0, 10]; a [1, 4] and b [3, 6] overlap; c [8, 12] runs past its
    # parent and is clipped to [8, 10]; d [2, 3] is a child of a.
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_self_time_of_nested_chain():
    starts = [0.0, 1.0, 2.0]
    ends = [8.0, 7.0, 3.0]
    parents = [-1, 0, 1]
    assert self_times(starts, ends, parents) == [2.0, 5.0, 1.0]


def test_pass_cost_sums_per_operation_medians():
    # (seconds, seconds over the calibration loop) per repetition
    times = {
        (0, "a"): [(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)],
        (1, "b"): [(0.5, 5.0), (0.7, 5.0)],
    }
    assert pass_cost(times) == 20.0 + 5.0
    assert pass_cost(times, 0) == 2.0 + 0.6
    assert calibration_seconds(times) == 0.1


def traced_run(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = {name: traced_run(name) for name in sorted(WORKLOADS)}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted, name
    metric = {
        name: {k: v["value"] for k, v in r["metrics"].items()}
        for name, r in results.items()
    }
    assert metric["enum_bound"]["kernels.sym_offdiag_weighted_contract.calls"] == 0
    assert metric["enum_bound"]["chaos.decompose.calls"] > 0
    assert metric["beyond_cap"]["chaos.decompose.calls"] == 0
    assert metric["beyond_cap"]["kernels.sym_offdiag_weighted_contract.calls"] > 0
    assert metric["small_sweep"]["chenstein.solve.calls"] > 0
