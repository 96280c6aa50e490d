import math
import random
import re

import numpy as np
import pytest

from radstein.chaos import ChaosExpansion, evaluate_on_signs
from radstein.chenstein import poisson_pmf, truncation_point
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
