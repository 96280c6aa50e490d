import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein.errors import (
    EmptyModel,
    EnumerationCapExceeded,
    IndexOutOfRange,
    NonIntegerValue,
    OutOfRangeProbability,
)
from radstein.chaos import ChaosExpansion, evaluate_on_signs, to_table
from radstein.distance import atom_law
from radstein.kernels import Kernel
from radstein.model import (
    FunctionalTable,
    build_model,
    distribution,
    expectation,
    run_sums,
    stable_sum,
    stable_sums,
    sums_by_key,
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
        arrays = (model.p, model.q, model.sigma, model.phi, model.outcome_weights)
        assert not any(a.flags.writeable for a in arrays)

    def test_enumeration_cap(self):
        model = build_model([0.5] * 25)
        with pytest.raises(EnumerationCapExceeded):
            model.outcome_weights


class TestOutcomeWeight:
    def test_single_fair_coin(self):
        model = build_model([0.5])
        assert model.outcome_weights.tolist() == [0.5, 0.5]

    def test_product_of_marginals(self):
        # bitmask 1: omega_1 = +1, omega_2 = -1
        model = build_model([0.1, 0.2])
        assert model.outcome_weights[1] == pytest.approx(0.08, abs=1e-15)

    @given(prob_vectors)
    def test_weights_form_probability_measure(self, p):
        model = build_model(p)
        w = model.outcome_weights
        assert np.all(w >= 0)
        assert abs(math.fsum(w) - 1.0) < 1e-12


class TestStandardizedValue:
    def test_symmetric(self):
        model = build_model([0.5])
        assert model.y_table(1).tolist() == [-1.0, 1.0]

    def test_quarter(self):
        model = build_model([0.25])
        assert model.y_plus[0] == pytest.approx(math.sqrt(3.0))

    @given(prob_vectors)
    def test_every_reader_matches_oracle_bit_for_bit(self, p):
        model = build_model(p)
        n = model.size
        signs = np.array([[1] * n, [-1] * n], dtype=np.int8)
        for k in range(1, n + 1):
            unit = ChaosExpansion(0.0, {1: Kernel(1, {(k,): 1.0})})
            table = to_table(model, unit).values
            on_signs = evaluate_on_signs(model, unit, signs)
            y_table = model.y_table(k)
            for sign, y, idx, row in (
                (1, model.y_plus, (1 << n) - 1, 0),
                (-1, model.y_minus, 0, 1),
            ):
                want = oracles.y_val(model.p.tolist(), k, (sign,) * n).hex()
                got = (y[k - 1], y_table[idx], table[idx], on_signs[row])
                assert [float(v).hex() for v in got] == [want] * 4
        assert not model.y_plus.flags.writeable
        assert not model.y_minus.flags.writeable

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
            model.y_table(2)


class TestStructureIdentity:
    @given(prob_vectors)
    def test_pointwise(self, p):
        model = build_model(p)
        for k in range(1, model.size + 1):
            y = model.y_table(k)
            np.testing.assert_allclose(
                y * y, 1.0 + model.phi[k - 1] * y, atol=1e-12
            )


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


def _integer_rule_inputs():
    """(call, error, message) for inputs whose index, order or support value
    is not an integer, each with its label as the test id."""
    from radstein.chenstein import truncation_point
    from radstein.errors import MalformedField
    from radstein.kernels import slice_kernel
    from radstein.malliavin import GradientField, divergence, gradient_chaos, gradient_pathwise
    from radstein.model import DistributionTable

    model = build_model([0.3, 0.6])
    table = FunctionalTable(model, [0.0, 1.0, 1.0, 2.0])
    k = Kernel(1, {(1,): 1.0})
    f = Kernel(2, {(1, 2): 1.0})
    expansion = ChaosExpansion(0.0, {2: f})
    field = GradientField({1.5: ChaosExpansion(1.0, {})})
    order = "chaos order must be an integer, got "
    index, coordinate = "index must be an integer, got ", "coordinate must be an integer, got "
    cases = [
        ("order_1.5", lambda: ChaosExpansion(0.0, {1.5: k}), ValueError, order + "1.5"),
        ("order_True", lambda: ChaosExpansion(0.0, {True: k}), ValueError, order + "True"),
        (
            "divergence_1.5",
            lambda: divergence(model, field),
            MalformedField,
            "component index must be an integer, got 1.5",
        ),
        (
            "support_1.5",
            lambda: DistributionTable({1.5: 1.0}),
            ValueError,
            "support must consist of nonnegative integers",
        ),
        ("slice_1.5", lambda: slice_kernel(f, 1.5), ValueError, index + "1.5"),
        ("slice_True", lambda: slice_kernel(f, True), ValueError, index + "True"),
        ("gradient_chaos_1.5", lambda: gradient_chaos(expansion, 1.5), ValueError, index + "1.5"),
        (
            "gradient_pathwise_True",
            lambda: gradient_pathwise(model, table, True),
            ValueError,
            coordinate + "True",
        ),
        (
            "gradient_pathwise_1.5",
            lambda: gradient_pathwise(model, table, 1.5),
            ValueError,
            coordinate + "1.5",
        ),
        (
            "truncation_2.7",
            lambda: truncation_point(1.0, 2.7),
            ValueError,
            "support_max must be an integer, got 2.7",
        ),
    ]
    return [pytest.param(*case, id=label) for label, *case in cases]


class TestIntegerRule:
    @pytest.mark.parametrize("call, error, message", _integer_rule_inputs())
    def test_refuses_a_value_that_is_not_an_integer(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_accepts_numpy_integers(self):
        from radstein.chaos import decompose
        from radstein.chenstein import TargetSet, solve, truncation_point
        from radstein.distance import tv_monte_carlo
        from radstein.kernels import slice_kernel
        from radstein.malliavin import GradientField, divergence, gradient_chaos, gradient_pathwise

        model = build_model([0.3, 0.6])
        f = Kernel(2, {(1, 2): 0.5})
        expansion = ChaosExpansion(0.0, {np.int64(2): f})
        assert list(expansion.kernels) == [2] and type(expansion.orders[0]) is int
        table = to_table(model, expansion)
        assert decompose(model, table).kernels[2].entries == f.entries
        for i in (1, 2):
            n = np.int64(i)
            assert slice_kernel(f, n).entries == slice_kernel(f, i).entries
            assert gradient_chaos(expansion, n).kernel(1).entries == {(3 - i,): 1.0}
            got = gradient_pathwise(model, table, n).values
            assert got.tobytes() == gradient_pathwise(model, table, i).values.tobytes()
        u = {np.int64(2): ChaosExpansion(1.0, {}), 1: ChaosExpansion(0.5, {})}
        assert divergence(model, GradientField(u)).kernels[1].entries == {(1,): 0.5, (2,): 1.0}
        target = TargetSet(frozenset({1}))
        want = solve(2.0, target, 20).values.tobytes()
        assert solve(2.0, target, np.int64(20)).values.tobytes() == want
        assert truncation_point(2.0, np.int64(30)) == truncation_point(2.0, 30)
        ones = lambda signs: np.ones(len(signs))
        mc = tv_monte_carlo(model, ones, 1.0, np.int64(10_000), np.uint64(3))
        assert mc == tv_monte_carlo(model, ones, 1.0, 10_000, 3)
        assert type(mc.samples) is int and type(mc.seed) is int


@st.composite
def valued_models(draw, pool):
    """A model of N = 1..10 coordinates and a table of values drawn from a
    few of ``pool``, so values repeat; sometimes a single value."""
    p = draw(st.lists(probabilities, min_size=1, max_size=10))
    size = 1 << len(p)
    choices = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        len(choices), size=size
    )
    return build_model(p), np.array(choices)[picks]


def fsum_law(model, keys):
    """{key: fsum of the weights at that key}, keyed by the first outcome's key."""
    w = model.outcome_weights
    law = {}
    for v in keys.tolist():
        if v not in law:
            law[v] = math.fsum(w[keys == v].tolist())
    return sorted(law.items())


class TestWeightPerValue:
    @settings(max_examples=200, derandomize=True)
    @given(valued_models([0.0, 1.0, 2.0, 3.0, 7.0, 2.0 + 1e-10, 5.0 - 1e-10]))
    def test_distribution_matches_fsum_per_value(self, case):
        model, values = case
        got = distribution(model, FunctionalTable(model, values)).pmf
        want = fsum_law(model, np.rint(values))
        assert [(k, v.hex()) for k, v in got.items()] == [
            (int(k), v.hex()) for k, v in want
        ]

    @settings(max_examples=200, derandomize=True)
    @given(valued_models([0.0, -0.0, 0.5, -1.25, 3.0, 1e-13, 2.0 / 3.0]))
    def test_atom_law_matches_fsum_per_atom(self, case):
        model, values = case
        got = atom_law(model, values)
        want = fsum_law(model, np.round(values, 12))
        assert [(k.hex(), v.hex()) for k, v in got.items()] == [
            (k.hex(), v.hex()) for k, v in want
        ]


class TestOutcomeIndexing:
    def test_round_trip_and_weight_table_agreement(self):
        p = [0.2, 0.7, 0.45]
        model = build_model(p)
        for idx, bits in enumerate(oracles.all_outcomes(3)):
            assert model.outcome_weights[idx] == pytest.approx(
                oracles.weight(p, bits), abs=1e-16
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


# Group sizes below, at and above the fsum fallback, and across the 2^14 block.
GROUP_SIZES = [0, 1, 7, 511, 512, 513, 2048, (1 << 14) - 3, (1 << 14) + 5]
GROUP_SPECIALS = [
    "plain", "cancel", "negative_cancel", "zeros", "negative_zeros",
    "nan", "inf", "minus_inf", "both_inf", "overflow", "both_inf", "overflow",
]


def group_values(rng, size, special):
    """``size`` floats of random significands and exponents, turned into a
    group of the kind ``special`` names."""
    low = int(rng.integers(-1080, 1000))
    spread = int(rng.choice([0, 4, 60, 700]))
    exps = np.clip(rng.integers(low, low + spread + 1, size), -1100, 1000)
    values = np.ldexp(rng.uniform(1.0, 2.0, size), exps)
    values *= rng.choice([-1.0, 1.0], size)
    if special in ("cancel", "negative_cancel"):  # an exact sum of zero
        half = size // 2
        values[half : 2 * half] = -values[:half][rng.permutation(half)]
        values[2 * half :] = 0.0
        if special == "negative_cancel":
            values *= -0.0
    elif special == "zeros":
        values = rng.choice([-0.0, 0.0], size)
    elif special == "negative_zeros":
        values = np.full(size, -0.0)
    elif size and special == "overflow":
        values[rng.integers(size, size=3)] = 1.5e308
    elif size and special in ("nan", "inf", "minus_inf"):
        values[rng.integers(size)] = {"nan": math.nan, "inf": math.inf}.get(
            special, -math.inf
        )
    elif size > 1 and special == "both_inf":
        values[:2] = (math.inf, -math.inf)
    return values


@st.composite
def keyed_groups(draw):
    """Keys and values of 1-7 groups, their members interleaved at random:
    1-D float keys (0.0 and -0.0 both in the pool) or 2-D int key rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 7))
    sizes = [draw(st.sampled_from(GROUP_SIZES)) for _ in range(count)]
    specials = [draw(st.sampled_from(GROUP_SPECIALS)) for _ in range(count)]
    width = draw(st.sampled_from([None, None, 0, 1, 3]))
    if width is None:
        pool = np.array([0.0, -0.0, 1.5, -2.0, 1e300])
    else:
        pool = rng.integers(-2, 3, (5, width))
    labels = np.concatenate([np.full(n, rng.integers(len(pool))) for n in sizes])
    values = np.concatenate(
        [group_values(rng, n, kind) for n, kind in zip(sizes, specials)]
    )
    shuffle = rng.permutation(labels.size)
    return pool[labels[shuffle].astype(int)], values[shuffle]


def as_key(key):
    """A key of ``keys.tolist()``: a float, or a key row as a tuple."""
    return tuple(key) if isinstance(key, list) else key


def fsum_groups(keys, values):
    """(key, fsum) per distinct key in order of first appearance, named by
    the first key; or the exception of the first group fsum rejects."""
    groups = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        groups.setdefault(as_key(key), []).append(value)
    try:
        return [(key, math.fsum(group)) for key, group in groups.items()]
    except (ValueError, OverflowError) as err:
        return err


def hexed(groups):
    if isinstance(groups, Exception):
        return type(groups), str(groups)
    return [(k.hex() if isinstance(k, float) else k, v.hex()) for k, v in groups]


class TestGroupedSums:
    """run_sums and sums_by_key against math.fsum per run or group, in
    float.hex, and the same exception from the same run or group."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=keyed_groups())
    def test_sums_by_key_equals_fsum_per_key(self, case):
        keys, values = case
        try:
            firsts, sums = sums_by_key(keys, values)
            got = list(zip(map(as_key, keys[firsts].tolist()), sums))
        except (ValueError, OverflowError) as err:
            got = err
        assert hexed(got) == hexed(fsum_groups(keys, values))
        if not isinstance(got, Exception):
            assert firsts.tolist() == sorted(firsts.tolist())

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from(GROUP_SIZES), min_size=1, max_size=5),
        specials=st.lists(st.sampled_from(GROUP_SPECIALS), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_sums_equals_fsum_per_run_in_the_order_given(
        self, sizes, specials, seed
    ):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [group_values(rng, n, kind) for n, kind in zip(sizes, specials)]
        )
        edges = np.cumsum([0, *sizes]).tolist()
        runs = rng.permutation(len(sizes)).tolist()
        starts, stops = [edges[i] for i in runs], [edges[i + 1] for i in runs]
        try:
            got = list(zip(starts, run_sums(values, starts, stops)))
        except (ValueError, OverflowError) as err:
            got = err
        try:
            want = [(a, math.fsum(values[a:b].tolist())) for a, b in zip(starts, stops)]
        except (ValueError, OverflowError) as err:
            want = err
        assert hexed(got) == hexed(want)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_short_groups_equal_fsum_per_key(self, data):
        """Groups of 1-4 values under 2-D int keys: a group of one or two
        takes one IEEE addition when its sum is finite and nonzero, and that
        is fsum's sum in bits; sums of +-0.0, overflowing pairs, infinities
        and NaN go to fsum, so the first group it rejects raises its error."""
        special = st.sampled_from(
            [0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308,
             5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
        )
        value = st.one_of(st.floats(allow_nan=False), special, st.floats(-4.0, 4.0))
        group = st.one_of(
            st.lists(value, min_size=1, max_size=4),
            st.floats(allow_nan=False, allow_infinity=False).map(lambda x: [x, -x]),
            st.sampled_from([[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0, -0.0]]),
        )
        groups = data.draw(st.lists(group, min_size=1, max_size=8), label="groups")
        labels = [g for g, members in enumerate(groups) for _ in members]
        shuffle = data.draw(st.permutations(range(len(labels))), label="order")
        keys = np.array([[g % 3, g // 3 - 1] for g in labels])[shuffle]
        values = np.array([v for members in groups for v in members])[shuffle]
        try:
            firsts, sums = sums_by_key(keys, values)
            got = list(zip(map(as_key, keys[firsts].tolist()), sums))
        except (ValueError, OverflowError) as err:
            got = err
        assert hexed(got) == hexed(fsum_groups(keys, values))

    def test_signed_zero_keys_merge_under_the_first(self):
        keys = np.array([-0.0, 1.0, 0.0, 1.0])
        firsts, sums = sums_by_key(keys, np.array([0.1, 0.2, 0.3, 0.4]))
        assert firsts.tolist() == [0, 1]
        assert [k.hex() for k in keys[firsts].tolist()] == [(-0.0).hex(), (1.0).hex()]
        assert sums == [math.fsum([0.1, 0.3]), math.fsum([0.2, 0.4])]
