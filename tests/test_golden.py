"""Byte-for-byte reports of a few small runs, recorded in tests/data/golden.

Every value is a correctly rounded sum or a closed form, so a change to how
sums are formed must leave these bytes alone.  No recorded value is a sum
that is exactly zero: the sign of such a sum follows ``math.fsum``'s rule,
which differs between Python versions.
"""

import os

import pytest

from radstein.cli import EXIT_DOMINATION, EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
# p_k = 0.02 + 0.005k for k < 30, spelled as Python prints them.
P30 = [repr(0.02 + 0.005 * k) for k in range(30)]

CASES = [
    ("chaos_n10", ["bound", "chaos_n10.json"], EXIT_OK),
    ("jm_n30_mc", ["bound", "jm_n30_mc.json"], EXIT_OK),
    ("bernoulli_n9", ["bound", "bernoulli_n9.json"], EXIT_OK),
    (
        "bernoulli_n30_mc",
        ["bernoulli", "--p", *P30, "--mc-samples", "20000", "--seed", "5"],
        EXIT_OK,
    ),
    ("j2_example_n9", ["bound", "j2_example_n9.json"], EXIT_DOMINATION),
    ("verify_seed0", ["verify", "--seed", "0"], EXIT_OK),
    ("j2_rate_2_14", ["j2-rate", "--n-min", "2", "--n-max", "14"], EXIT_DOMINATION),
]


@pytest.mark.parametrize("name, args, code", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_the_recording(name, args, code, tmp_path):
    args = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in args]
    out = tmp_path / f"{name}.out"
    assert main([*args, "--out", str(out)]) == code
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as handle:
        assert out.read_bytes() == handle.read()
