"""Run the example scripts end to end on small inputs, so a renamed or
removed package name cannot break them silently."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize(
    "script,args,expected",
    [
        (
            "bernoulli_experiment.py",
            ["--trials", "20", "--size-max", "10"],
            "20 trials, all dominated",
        ),
        (
            "j2_rate_experiment.py",
            ["--n-max", "20", "--machinery-up-to", "6", "--out", "{tmp}/rate.csv"],
            "wrote 19 rows to ",
        ),
        ("stein_factor_audit.py", ["--sets", "20"], "  lambda "),
    ],
    ids=["bernoulli_experiment", "j2_rate_experiment", "stein_factor_audit"],
)
def test_script_runs(tmp_path, script, args, expected):
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
