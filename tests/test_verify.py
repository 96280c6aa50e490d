import pytest

from radstein.verify import CheckResult, run_verification

# Worst residual of each check at seeds 0 and 1, in run order, as float.hex.
PINNED = {
    0: ["0x1.0000000000000p-48", "0x1.3000000000000p-42", "0x1.8000000000000p-45",
        "0x1.0000000000000p-49", "0x0.0p+0", "0x1.0000000000000p-48",
        "0x1.9d9c000000000p-47", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    1: ["0x1.0000000000000p-49", "0x1.c000000000000p-39", "0x1.8900000000000p-51",
        "0x1.0000000000000p-50", "0x0.0p+0", "0x1.0000000000000p-47",
        "0x1.c600000000000p-48", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-52"],
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_worst_residuals_are_pinned_bit_for_bit(seed):
    report = run_verification(seed)
    assert [c.max_residual.hex() for c in report.checks] == PINNED[seed]
    assert all(type(c.max_residual) is float for c in report.checks)


def test_row_format_always_carries_the_witness():
    row = CheckResult("isometry", 0.0, 1e-10, True).as_dict()
    assert list(row) == ["name", "max_residual", "tolerance", "passed", "witness"]
    assert row["witness"] is None


def test_only_a_failing_check_reports_its_witness():
    clean = run_verification(0)
    assert clean.passed and all(c.witness is None for c in clean.checks)
    corrupted = run_verification(0, corrupt="product_formula")
    assert not corrupted.passed
    assert corrupted.first_failure().name == "product_formula"
    failing = [c for c in corrupted.checks if not c.passed]
    assert [c.name for c in failing] == ["product_formula"]
    witness = failing[0].witness
    assert sorted(witness) == ["f", "g", "orders", "outcome", "p"]
    assert 0 <= witness["outcome"] < 2 ** len(witness["p"])
    assert all(c.witness is None for c in corrupted.checks if c.passed)
    # The corruption touches no random draw: every other check is unchanged.
    for a, b in zip(clean.checks, corrupted.checks):
        if a.name != "product_formula":
            assert a == b


def test_unknown_corruption_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown corruption tag"):
        run_verification(0, corrupt="isometry")
