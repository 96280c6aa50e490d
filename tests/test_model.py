import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein.errors import (
    EmptyModel,
    EnumerationCapExceeded,
    IndexOutOfRange,
    LengthMismatch,
    NonIntegerValue,
    OutOfRangeProbability,
)
from radstein.model import (
    FunctionalTable,
    Outcome,
    build_model,
    distribution,
    expectation,
    flip,
    outcome_weight,
    stable_sum,
    stable_sums,
    standardized_value,
    variance,
)

import oracles

probabilities = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
prob_vectors = st.lists(probabilities, min_size=1, max_size=10)


class TestBuildModel:
    def test_symmetric_case_kills_phi(self):
        model = build_model([0.5, 0.5])
        assert model.phi.tolist() == [0.0, 0.0]

    def test_quarter_probability(self):
        model = build_model([0.25])
        assert model.phi[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)

    def test_skewed_probability(self):
        model = build_model([0.1])
        assert model.sigma[0] == pytest.approx(0.3, abs=1e-15)
        assert model.phi[0] == pytest.approx(0.8 / 0.3, abs=1e-15)

    @pytest.mark.parametrize("bad", [[0.0], [1.0], [-0.2], [1.3], [0.4, float("nan")]])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRangeProbability):
            build_model(bad)

    def test_empty(self):
        with pytest.raises(EmptyModel):
            build_model([])

    @given(prob_vectors)
    def test_derived_identities(self, p):
        model = build_model(p)
        np.testing.assert_allclose(model.sigma**2, model.p * model.q, atol=1e-15)
        np.testing.assert_allclose(
            model.phi * model.sigma, model.q - model.p, atol=1e-15
        )

    def test_enumeration_cap(self):
        model = build_model([0.5] * 25)
        with pytest.raises(EnumerationCapExceeded):
            model.outcome_weights


class TestOutcomeWeight:
    def test_single_fair_coin(self):
        model = build_model([0.5])
        assert outcome_weight(model, Outcome((1,))) == 0.5

    def test_product_of_marginals(self):
        model = build_model([0.1, 0.2])
        assert outcome_weight(model, Outcome((1, -1))) == pytest.approx(0.08, abs=1e-15)

    def test_length_mismatch(self):
        model = build_model([0.1, 0.2])
        with pytest.raises(LengthMismatch):
            outcome_weight(model, Outcome((1,)))

    @given(prob_vectors)
    def test_weights_form_probability_measure(self, p):
        model = build_model(p)
        w = model.outcome_weights
        assert np.all(w >= 0)
        assert abs(math.fsum(w) - 1.0) < 1e-12


class TestStandardizedValue:
    def test_symmetric(self):
        model = build_model([0.5])
        assert standardized_value(model, 1, Outcome((1,))) == 1.0

    def test_quarter(self):
        model = build_model([0.25])
        assert standardized_value(model, 1, Outcome((1,))) == pytest.approx(
            math.sqrt(3.0)
        )

    @given(prob_vectors)
    def test_mean_zero_variance_one(self, p):
        model = build_model(p)
        w = model.outcome_weights
        for k in range(1, model.size + 1):
            y = model.y_table(k)
            assert abs(math.fsum(w * y)) < 1e-12
            assert abs(math.fsum(w * y * y) - 1.0) < 1e-12

    def test_orthonormal_pairs(self):
        model = build_model([0.2, 0.7, 0.4])
        w = model.outcome_weights
        for k in range(1, 4):
            for j in range(1, 4):
                got = math.fsum(w * model.y_table(k) * model.y_table(j))
                assert abs(got - (1.0 if k == j else 0.0)) < 1e-12

    def test_index_out_of_range(self):
        model = build_model([0.5])
        with pytest.raises(IndexOutOfRange):
            standardized_value(model, 2, Outcome((1,)))


class TestStructureIdentity:
    @given(prob_vectors)
    def test_pointwise(self, p):
        model = build_model(p)
        for k in range(1, model.size + 1):
            y = model.y_table(k)
            np.testing.assert_allclose(
                y * y, 1.0 + model.phi[k - 1] * y, atol=1e-12
            )


class TestFlip:
    def test_forces_sign(self):
        assert flip(Outcome((-1, -1)), 1, 1) == Outcome((1, -1))

    def test_idempotent(self):
        omega = Outcome((-1, 1, -1))
        once = flip(omega, 2, 1)
        assert flip(once, 2, 1) == once

    def test_fixed_point(self):
        omega = Outcome((-1, 1))
        assert flip(omega, 2, 1) is omega

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            flip(Outcome((1,)), 2, 1)


class TestExpectationVariance:
    def test_constant(self):
        model = build_model([0.3, 0.6])
        table = FunctionalTable.constant(model, 4.25)
        assert expectation(model, table) == pytest.approx(4.25, abs=1e-15)
        assert variance(model, table) == pytest.approx(0.0, abs=1e-15)

    def test_standardized_coordinate(self):
        model = build_model([0.17, 0.83])
        table = FunctionalTable(model, model.y_table(2))
        assert abs(expectation(model, table)) < 1e-12
        assert variance(model, table) == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_sum_moments(self):
        model = build_model([0.1, 0.2])
        idx = np.arange(4)
        values = ((idx & 1) > 0) * 1.0 + ((idx & 2) > 0) * 1.0
        table = FunctionalTable(model, values)
        assert expectation(model, table) == pytest.approx(0.3, abs=1e-12)
        assert variance(model, table) == pytest.approx(0.25, abs=1e-12)

    def test_matches_direct_enumeration(self):
        rng = random.Random(3)
        model = build_model(oracles.rand_model_p(rng, 5))
        values = np.array([rng.uniform(-2, 2) for _ in range(32)])
        table = FunctionalTable(model, values)
        assert expectation(model, table) == pytest.approx(
            oracles.brute_expect(model.p, values), abs=1e-13
        )


class TestDistribution:
    def test_constant(self):
        model = build_model([0.4, 0.4])
        dist = distribution(model, FunctionalTable.constant(model, 3.0))
        assert dist.pmf == {3: 1.0}

    def test_single_bernoulli(self):
        model = build_model([0.3])
        table = FunctionalTable(model, np.array([0.0, 1.0]))
        dist = distribution(model, table)
        assert dist.pmf[0] == pytest.approx(0.7, abs=1e-15)
        assert dist.pmf[1] == pytest.approx(0.3, abs=1e-15)

    def test_non_integer_reports_outcome(self):
        model = build_model([0.5, 0.5])
        table = FunctionalTable(model, np.array([0.0, 1.0, 2.0, 2.5]))
        with pytest.raises(NonIntegerValue) as err:
            distribution(model, table)
        assert err.value.outcome_index == 3
        assert err.value.value == 2.5

    def test_negative_rejected(self):
        model = build_model([0.5])
        with pytest.raises(NonIntegerValue):
            distribution(model, FunctionalTable(model, np.array([-1.0, 2.0])))

    def test_mean_consistency(self):
        rng = random.Random(11)
        model = build_model(oracles.rand_model_p(rng, 6))
        table = FunctionalTable(model, oracles.rand_integer_table(rng, 64))
        dist = distribution(model, table)
        assert dist.mean() == pytest.approx(expectation(model, table), abs=1e-10)
        assert abs(math.fsum(dist.pmf.values()) - 1.0) < 1e-12

    def test_table_rejects_bad_pmf(self):
        from radstein.model import DistributionTable

        with pytest.raises(ValueError):
            DistributionTable({0: 0.5, 1: 0.4})
        with pytest.raises(ValueError):
            DistributionTable({0: 1.2, 1: -0.2})
        with pytest.raises(ValueError):
            DistributionTable({-1: 0.5, 1: 0.5})


class TestOutcomeIndexing:
    def test_round_trip_and_weight_table_agreement(self):
        model = build_model([0.2, 0.7, 0.45])
        for idx in range(8):
            omega = Outcome.from_index(idx, 3)
            assert omega.index == idx
            assert outcome_weight(model, omega) == pytest.approx(
                model.outcome_weights[idx], abs=1e-16
            )


def fsum_rows(rows):
    """``math.fsum`` of each row, or the exception of the first row it rejects."""
    try:
        return [math.fsum(r) for r in rows.tolist()]
    except (ValueError, OverflowError) as err:
        return err


def same_sums(got, want):
    if isinstance(want, Exception):
        return isinstance(got, type(want)) and str(got) == str(want)
    return [x.hex() for x in got] == [x.hex() for x in want]


def kernel_sums(rows):
    try:
        return stable_sums(rows)
    except (ValueError, OverflowError) as err:
        return err


# Row lengths below, at and above the fsum fallback and the 2^16 block.
ROW_LENGTHS = [0, 1, 7, 300, 511, 512, 513, 700, 1000, 1500, 2047, 2048, 3001, 4099, 9000]
ROW_LENGTHS += [1 << 16, (1 << 16) + 9]
SPECIALS = [
    "zeros", "negative_zeros", "zero_row", "negative_zero_row", "cancel",
    "subnormal", "nan", "inf", "minus_inf", "both_inf", "overflow", "positive",
]


@st.composite
def row_batches(draw):
    """A (rows, length) float array: random significands times 2^e for e in
    [low, low + spread], clipped to the finite range, plus special values."""
    seed = draw(st.integers(0, 2**32 - 1))
    length = draw(st.sampled_from(ROW_LENGTHS))
    count = draw(st.integers(1, 5)) if length <= 1 << 14 else 1
    low = draw(st.integers(-1090, 1030))
    spread = draw(st.sampled_from([0, 1, 4, 30, 120, 700, 2200]))
    specials = draw(st.sets(st.sampled_from(SPECIALS), max_size=2))
    rng = np.random.default_rng(seed)
    shape = (count, length)
    exps = np.clip(rng.integers(low, low + spread + 1, shape), -1100, 1023)
    rows = np.ldexp(rng.uniform(1.0, 2.0, shape), exps) / 2.0
    if "positive" not in specials:
        rows *= rng.choice([-1.0, 1.0], shape)
    if length == 0:
        return rows
    pick = rng.random(shape) < 0.2
    if "zeros" in specials:
        rows[pick] = 0.0
    if "negative_zeros" in specials:
        rows[pick] = -0.0
    if "subnormal" in specials:
        rows[pick] = rng.integers(-(1 << 52), 1 << 52, shape)[pick] * 2.0**-1074
    if "cancel" in specials:
        half = length // 2
        rows[:, half : 2 * half] = -rows[:, :half][:, rng.permutation(half)]
    if "zero_row" in specials:
        rows[rng.integers(count)] = rng.choice([-0.0, 0.0], length)
    if "negative_zero_row" in specials:
        rows[rng.integers(count)] = -0.0
    if "overflow" in specials:
        rows[rng.integers(count), rng.integers(length, size=3)] = 1.5e308
    where = (rng.integers(count), rng.integers(length))
    for name, value in (("nan", math.nan), ("inf", math.inf), ("minus_inf", -math.inf)):
        if name in specials:
            rows[where] = value
    if "both_inf" in specials and length > 1:
        rows[where[0], :2] = (math.inf, -math.inf)
    return rows


class TestStableSums:
    @settings(max_examples=300, derandomize=True)
    @given(rows=row_batches())
    def test_equals_live_fsum_row_by_row(self, rows):
        assert same_sums(kernel_sums(rows), fsum_rows(rows))

    @pytest.mark.parametrize("kind", ["weights", "signed", "cancelling", "wide"])
    def test_single_long_row_at_n20(self, kind):
        rng = np.random.default_rng(len(kind))
        n = 1 << 20
        if kind == "weights":
            row = np.cumprod(rng.uniform(0.05, 0.95, n)) ** 0.01
        elif kind == "signed":
            row = rng.standard_normal(n) * 1e6
        elif kind == "cancelling":
            half = rng.standard_normal(n // 2) * np.exp(rng.uniform(-40, 40, n // 2))
            row = np.concatenate((half, -half[::-1]))
            row[123] += 2.0**-600
        else:
            row = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-980, 980, n))
        want = math.fsum(row.tolist())
        assert stable_sums(row[None, :])[0].hex() == want.hex()
        assert stable_sum(row).hex() == want.hex()

    def test_multi_row_batches_split_into_blocks(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((40, 3000)) * np.exp(rng.uniform(-60, 60, (40, 1)))
        assert same_sums(stable_sums(rows), fsum_rows(rows))

    def test_zero_sums_take_fsum_sign(self):
        rng = np.random.default_rng(9)
        half = rng.standard_normal(2048) * np.exp(rng.uniform(-30, 30, 2048))
        rows = np.stack(
            (
                np.full(4096, -0.0),
                np.full(4096, 0.0),
                rng.choice([-0.0, 0.0], 4096),
                np.concatenate((half, -half[::-1])),
                np.concatenate((half, -half[::-1])) * -0.0,
            )
        )
        assert same_sums(stable_sums(rows), fsum_rows(rows))

    def test_stable_sum_passes_lists_and_generators_to_fsum(self, monkeypatch):
        import radstein.model as model_mod

        def refuse(rows):
            raise AssertionError("stable_sums called")

        monkeypatch.setattr(model_mod, "stable_sums", refuse)
        values = [0.1] * 3000
        assert stable_sum(values) == math.fsum(values)
        assert stable_sum(x for x in values) == math.fsum(values)
        with pytest.raises(AssertionError, match="stable_sums called"):
            stable_sum(np.array(values))
