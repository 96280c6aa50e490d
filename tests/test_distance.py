import functools
import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein import distance
from radstein.chaos import ChaosExpansion, evaluate_on_signs
from radstein.chenstein import (
    poisson_pmf,
    poisson_pmf_vector,
    poisson_tail,
    truncation_point,
)
from radstein.distance import (
    MAX_MC_SAMPLES,
    atom_law,
    tv_atoms_vs_poisson,
    tv_exact,
    tv_monte_carlo,
    w1_exact,
)
from radstein.errors import (
    EnumerationCapExceeded,
    InvalidLambda,
    LengthMismatch,
    TooFewSamples,
    TooManySamples,
)
from radstein.kernels import Kernel
from radstein.model import (
    DistributionTable,
    FunctionalTable,
    build_model,
    distribution,
)

import oracles


def truncated_poisson_table(lam):
    k_max = truncation_point(lam, 0)
    pmf = {k: poisson_pmf(lam, k) for k in range(k_max + 1)}
    total = math.fsum(pmf.values())
    return DistributionTable({k: v / total for k, v in pmf.items()})


class TestTvExact:
    def test_poisson_against_itself(self):
        dist = truncated_poisson_table(1.3)
        assert tv_exact(dist, 1.3).value < 1e-13

    def test_degenerate_small_mean(self):
        dist = DistributionTable({0: 1.0})
        lam = 1e-9
        got = tv_exact(dist, lam)
        assert got.value == pytest.approx(1.0 - math.exp(-lam), abs=1e-12)
        assert got.value < 1e-8

    def test_poisson_binomial_below_closed_form_bound(self):
        from radstein.bounds import bernoulli_bound

        p = [0.1] * 10
        dist = DistributionTable(oracles.poisson_binomial_pmf(p))
        bound = bernoulli_bound(p, 1.0)
        got = tv_exact(dist, 1.0)
        assert got.value <= bound.total
        assert got.tail_error < 1e-12

    def test_half_l1_equals_maximizing_set_form(self):
        rng = random.Random(2)
        model = build_model(oracles.rand_model_p(rng, 8))
        table = FunctionalTable(model, oracles.rand_integer_table(rng, 256))
        dist = distribution(model, table)
        lam = 2.3
        half_l1 = tv_exact(dist, lam)
        _, gap = oracles.tv_maximizing_set(dist.pmf, lam)
        assert half_l1.value == pytest.approx(gap, abs=1e-12 + half_l1.tail_error)

    def test_value_in_unit_interval(self):
        dist = DistributionTable({40: 1.0})
        assert 0.0 <= tv_exact(dist, 0.1).value <= 1.0

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            tv_exact(DistributionTable({0: 1.0}), -1.0)


class TestW1Exact:
    def test_identical_laws(self):
        dist = truncated_poisson_table(0.8)
        assert w1_exact(dist, 0.8).value < 1e-12

    def test_against_mean_difference_lower_bound(self):
        # W1 between integer laws is at least the mean gap.
        dist = DistributionTable({0: 0.5, 4: 0.5})
        lam = 1.0
        got = w1_exact(dist, lam)
        assert got.value >= abs(2.0 - lam) - 1e-12

    def test_w1_sums_cdf_and_tail_gaps_once(self):
        rng = random.Random(5)
        moved = 0
        for _ in range(400):
            support = rng.sample(range(10), rng.randint(1, 6))
            weights = [rng.random() for _ in support]
            dist = DistributionTable(
                {k: w / math.fsum(weights) for k, w in zip(support, weights)}
            )
            lam = rng.uniform(0.2, 6.0)
            k_max = truncation_point(lam, max(support))
            fun = np.zeros(k_max + 1)
            fun[list(dist.pmf)] = list(dist.pmf.values())
            pois = poisson_pmf_vector(lam, k_max)
            gaps = np.abs(np.cumsum(fun) - np.cumsum(pois)).tolist()
            tails = [poisson_tail(lam, k) for k in range(k_max + 1, k_max + 200)]
            tails = tails[: next(i for i, t in enumerate(tails) if t < 1e-20)]
            want = math.fsum(gaps + tails)
            moved += math.fsum(gaps) + math.fsum(tails) != want
            assert w1_exact(dist, lam).value == want
        assert moved > 0  # the case bites


class TestAtomLaw:
    def test_groups_weights_by_value(self):
        model = build_model([0.25, 0.5])
        values = np.array([1.0, 2.0, 1.0, 0.5])
        atoms = atom_law(model, values)
        w = model.outcome_weights
        assert atoms[1.0] == pytest.approx(w[0] + w[2])
        assert atoms[2.0] == pytest.approx(w[1])
        assert set(atoms) == {0.5, 1.0, 2.0}

    def test_non_integer_atoms_forced_to_full_mass(self):
        got = tv_atoms_vs_poisson({0.25: 0.5, -0.25: 0.5}, 1.0 / 16.0)
        assert got.value == pytest.approx(1.0, abs=1e-12)

    def test_masses_off_and_at_an_integer_are_correctly_rounded(self):
        assert 0.1 + 0.2 + 0.3 != math.fsum([0.1, 0.2, 0.3])  # the case bites
        off = {0.5: 0.1, 1.5: 0.2, 2.5: 0.3, 0.0: 0.4}
        near = {1.0 - 1e-10: 0.1, 1.0: 0.2, 1.0 + 1e-10: 0.3, 2.5: 0.4}
        merged = tv_atoms_vs_poisson({1.0: 0.6, 2.5: 0.4}, 1.0).value.hex()
        for atoms, want in ((off, "0x1.43a54e4e98864p-1"), (near, merged)):
            for ordered in (atoms, dict(reversed(atoms.items()))):
                assert tv_atoms_vs_poisson(ordered, 1.0).value.hex() == want

    def test_integer_atoms_match_poisson_mass(self):
        lam = 0.7
        atoms = {float(k): poisson_pmf(lam, k) for k in range(25)}
        atoms[0.0] += 1.0 - math.fsum(atoms.values())
        got = tv_atoms_vs_poisson(atoms, lam)
        assert got.value < 1e-10


class TestMonteCarlo:
    def _bernoulli_expansion(self, model):
        return ChaosExpansion(
            float(np.sum(model.p)),
            {
                1: Kernel(
                    1, {(k,): model.sigma[k - 1] for k in range(1, model.size + 1)}
                )
            },
        )

    def test_agrees_with_exact_within_three_standard_errors(self):
        model = build_model([0.08] * 10)
        expansion = self._bernoulli_expansion(model)
        lam = 0.8
        exact = tv_exact(
            distribution(
                model,
                FunctionalTable(
                    model,
                    evaluate_on_signs(
                        model,
                        expansion,
                        np.array(
                            [
                                [1 if (i >> k) & 1 else -1 for k in range(10)]
                                for i in range(1024)
                            ]
                        ),
                    ),
                ),
            ),
            lam,
        ).value
        mc = tv_monte_carlo(
            model,
            lambda signs: evaluate_on_signs(model, expansion, signs),
            lam,
            50_000,
            seed=7,
        )
        assert abs(mc.value - exact) <= 3.0 * mc.std_error + 1e-3

    def test_seed_reproducibility(self):
        model = build_model([0.2] * 6)
        expansion = self._bernoulli_expansion(model)
        runs = [
            tv_monte_carlo(
                model,
                lambda signs: evaluate_on_signs(model, expansion, signs),
                1.2,
                20_000,
                seed=123,
            ).value
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_error_decreases_with_samples(self):
        model = build_model([0.15] * 8)
        expansion = self._bernoulli_expansion(model)
        lam = float(np.sum(model.p))
        signs = np.array(
            [[1 if (i >> k) & 1 else -1 for k in range(8)] for i in range(256)]
        )
        exact = tv_exact(
            distribution(
                model,
                FunctionalTable(model, evaluate_on_signs(model, expansion, signs)),
            ),
            lam,
        ).value
        errors = [
            abs(
                tv_monte_carlo(
                    model,
                    lambda s: evaluate_on_signs(model, expansion, s),
                    lam,
                    samples,
                    seed=11,
                ).value
                - exact
            )
            for samples in (10_000, 100_000, 1_000_000)
        ]
        assert errors[2] < errors[0]
        assert errors[2] < errors[1] + 1e-4

    def test_too_few_samples(self):
        model = build_model([0.5, 0.5])
        with pytest.raises(TooFewSamples):
            tv_monte_carlo(model, lambda s: np.zeros(len(s)), 1.0, 100, seed=0)

    def test_too_many_samples_are_refused_before_the_first(self):
        def never(signs):
            raise AssertionError("sampled past the limit")

        model = build_model([0.5, 0.5])
        with pytest.raises(TooManySamples, match=f"at most {MAX_MC_SAMPLES} samples"):
            tv_monte_carlo(model, never, 1.0, MAX_MC_SAMPLES + 1, seed=0)
        assert MAX_MC_SAMPLES == 10**8

    def test_rejects_negative_and_fractional_samples(self):
        from radstein.errors import NonIntegerValue

        model = build_model([0.5, 0.5])
        with pytest.raises(NonIntegerValue):
            tv_monte_carlo(
                model, lambda s: np.full(len(s), -2.0), 1.0, 10_000, seed=0
            )
        with pytest.raises(NonIntegerValue):
            tv_monte_carlo(
                model, lambda s: np.full(len(s), 0.5), 1.0, 10_000, seed=0
            )

    def test_count_array_beyond_the_range_limit_is_refused(self):
        # A sampled value of 2^24 needs a count array of 2^24 + 1 entries,
        # more than one value table at the enumeration cap.
        model = build_model([0.5, 0.5])
        top = lambda s: np.full(len(s), 2.0**24)
        with pytest.raises(EnumerationCapExceeded, match="support value 16777216 "):
            tv_monte_carlo(model, top, 1.0, 10_000, seed=0)


def _all_plus_count(model, tuples):
    """Chaos expansion of the number of ``tuples`` whose coordinates are all
    +1: the product of the indicators p_i + sigma_i Y_i, expanded."""
    mean, kernels = 0.0, {}
    for t in tuples:
        for size in range(len(t) + 1):
            for keep in itertools.combinations(t, size):
                w = math.prod(model.p[i - 1] for i in t if i not in keep)
                w *= math.prod(model.sigma[i - 1] for i in keep) / math.factorial(size)
                if size == 0:
                    mean += w
                else:
                    entries = kernels.setdefault(size, {})
                    entries[keep] = entries.get(keep, 0.0) + w
    return ChaosExpansion(mean, {m: Kernel(m, e) for m, e in kernels.items()})


def _outcome(call):
    try:
        return call()
    except Exception as err:  # compared by type and message
        return type(err), str(err)


# Each fault replaces the value of every row whose first ``width``
# coordinates are all +1, or raises when a block holds such a row.
_FAULTS = {
    "fraction": lambda v: v + 0.25,
    "negative": lambda v: v - 1e3,
    "beyond_2^53": lambda v: np.full_like(v, 2.0**53),
    "range_limit": lambda v: np.full_like(v, 2.0**24),
}


def _faulty(evaluator, fault, width):
    def values(signs):
        out = evaluator(signs)
        hit = (signs[:, :width] == 1).all(axis=1)
        if fault == "raise" and hit.any():
            raise RuntimeError("evaluator failed")
        if fault in _FAULTS:
            out = np.where(hit, _FAULTS[fault](out), out)
        return out

    return values


class TestBlockStream:
    """The blocked, threaded sampler and the row-streaming evaluator against
    the one-generator, whole-block oracle of ``tests/oracles.py``."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("block", [4, 12, None])
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(case=st.integers(0, 2**32))
    def test_equals_the_sequential_stream(self, block, threads, case):
        rng = random.Random(case)
        n = rng.randint(1, 40)
        model = build_model([rng.uniform(0.05, 0.95) for _ in range(n)])
        order = rng.randint(1, min(3, n))
        tuples = [
            tuple(sorted(rng.sample(range(1, n + 1), order)))
            for _ in range(rng.randint(1, 4))
        ]
        expansion = _all_plus_count(model, tuples)
        samples = rng.randint(10_000, 10_099)
        seed = rng.choice([0, 2**128 - 1, rng.randrange(2**128)])
        fault = rng.choice([None, None, "raise", *_FAULTS])
        width = rng.randint(1, min(n, 6))
        lam = rng.uniform(0.5, 8.0)

        def run(estimate, evaluate):
            values = _faulty(functools.partial(evaluate, model, expansion), fault, width)
            return _outcome(lambda: estimate(model, values, lam, samples, seed))

        rows = distance._block_rows if block is None else (lambda n: block)
        with mock.patch.object(distance, "_block_rows", rows):
            want = run(
                oracles.sequential_tv_monte_carlo, oracles.columnwise_evaluate_on_signs
            )
            with mock.patch.object(distance, "_MC_THREADS", threads):
                got = run(tv_monte_carlo, evaluate_on_signs)
        assert got == want

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_evaluator_equals_the_columnwise_oracle(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
        model = build_model([rng.uniform(0.01, 0.99) for _ in range(n)])
        top = n + data.draw(st.sampled_from([0, 0, 0, 1]), label="beyond")
        kernels = {}
        for order in range(1, min(3, top) + 1):
            if rng.random() < 0.7:
                kernels[order] = Kernel(
                    order,
                    {
                        tuple(sorted(rng.sample(range(1, top + 1), order))): rng.uniform(
                            -2.0, 2.0
                        )
                        for _ in range(rng.randint(1, 60))
                    },
                )
        expansion = ChaosExpansion(rng.uniform(-1.0, 1.0), kernels)
        rows = data.draw(st.integers(0, 300), label="rows")
        dtype = data.draw(st.sampled_from([np.int8, np.int64, np.float64]), label="dtype")
        signs = np.where(
            np.random.default_rng(rng.randrange(2**32)).random((rows, n)) < 0.5, 1, -1
        ).astype(dtype)
        got = _outcome(lambda: evaluate_on_signs(model, expansion, signs))
        want = _outcome(
            lambda: oracles.columnwise_evaluate_on_signs(model, expansion, signs)
        )
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want

    def test_memory_is_one_block_not_one_chunk(self):
        model = build_model([0.1] * 40)
        expansion = ChaosExpansion(
            float(np.sum(model.p)),
            {1: Kernel(1, {(k,): model.sigma[k - 1] for k in range(1, 41)})},
        )
        values = functools.partial(evaluate_on_signs, model, expansion)
        tracemalloc.start()
        try:
            tv_monte_carlo(model, values, 4.0, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("seed", [2.5, True, -1, 2**128, "3", None])
    def test_seed_is_checked_before_the_first_sample(self, seed):
        def never(signs):
            raise AssertionError("sampled with a bad seed")

        model = build_model([0.5, 0.5])
        message = f"seed must be an integer in [0, 2^128), got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tv_monte_carlo(model, never, 1.0, 10_000, seed=seed)

    @pytest.mark.parametrize(
        "values",
        [
            lambda s: 0.0,
            lambda s: np.zeros(len(s) + 1),
            lambda s: np.zeros((len(s), 1)),
        ],
        ids=["scalar", "one_too_many", "column"],
    )
    def test_evaluator_returns_one_value_per_row(self, values):
        model = build_model([0.5, 0.5])
        with pytest.raises(LengthMismatch, match="evaluator returned shape "):
            tv_monte_carlo(model, values, 1.0, 10_000, seed=0)

    @pytest.mark.parametrize("samples", [10_000.9, 12_000.0, "12000", True, None])
    def test_samples_are_checked_before_the_first_sample(self, samples):
        def never(signs):
            raise AssertionError("sampled with a bad sample count")

        model = build_model([0.5, 0.5])
        message = f"samples must be an integer, got {samples!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tv_monte_carlo(model, never, 1.0, samples, seed=0)

    def test_a_failing_block_stops_the_sampling(self):
        from radstein.errors import NonIntegerValue

        calls = []

        def second_block_fails(signs):
            calls.append(len(signs))
            return np.full(len(signs), 0.5 if len(calls) == 2 else 1.0)

        model = build_model([0.5] * 40)
        assert 3 * distance._block_rows(40) < 20_000
        with pytest.raises(NonIntegerValue, match=r"^sampled value 0\.5 is not "):
            tv_monte_carlo(model, second_block_fails, 1.0, 20_000, seed=0)
        assert len(calls) == 2

    def test_largest_seed_is_reported_as_given(self):
        model = build_model([0.3, 0.4])
        count = lambda s: (s == 1).sum(axis=1)
        result = tv_monte_carlo(model, count, 0.7, 10_000, seed=2**128 - 1)
        assert result.seed == 2**128 - 1


class TestRangeLimit:
    @pytest.mark.parametrize(
        "lam,support", [(2**24 / 10, 0), (1.0, 2**24), (1e308, 0)]
    )
    def test_truncation_point_refuses_ranges_past_the_limit(self, lam, support):
        message = re.escape(f"lambda = {lam!r} and largest support value {support} ")
        with pytest.raises(EnumerationCapExceeded, match=message):
            truncation_point(lam, support)

    def test_truncation_point_keeps_the_largest_range_that_fits(self):
        assert truncation_point(1.0, 2**24 - 1) == 2**24 - 1
