import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein import chenstein
from radstein.chenstein import (
    TargetSet,
    forward_diff,
    poisson_pmf,
    poisson_pmf_vector,
    poisson_set_prob,
    poisson_tail,
    second_forward_diff,
    solve,
    stein_factors,
    truncation_point,
)
from radstein.errors import EnumerationCapExceeded, InvalidLambda, RangeTooShort
from radstein.model import stable_sum

import oracles


class TestPoissonUtilities:
    def test_pmf_at_zero(self):
        assert poisson_pmf(2.5, 0) == pytest.approx(math.exp(-2.5), rel=1e-14)

    def test_point_set(self):
        assert poisson_set_prob(1.0, TargetSet(frozenset({0}))) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_full_set_has_probability_one(self):
        assert poisson_set_prob(3.0, TargetSet.naturals()) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_members_and_tail_are_summed_once(self):
        rng = random.Random(11)
        moved = 0
        for _ in range(400):
            lam = rng.uniform(0.1, 8.0)
            tail = rng.randint(0, 15)
            members = frozenset(rng.sample(range(15), rng.randint(1, 8)))
            terms = [poisson_pmf(lam, k) for k in sorted(members) if k < tail]
            want = math.fsum([*terms, poisson_tail(lam, tail)])
            moved += math.fsum(terms) + poisson_tail(lam, tail) != want
            assert poisson_set_prob(lam, TargetSet(members, tail)) == min(1.0, want)
        assert moved > 0  # the case bites

    def test_tail_plus_head_is_one(self):
        for lam in (0.1, 1.0, 7.5):
            head = stable_sum(poisson_pmf(lam, k) for k in range(12))
            assert head + poisson_tail(lam, 12) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("lam", [745.2, 800.0, 1000.0, 5000.0])
    def test_tail_where_the_first_terms_underflow(self, lam):
        """Above lam of about 700, pmf(lam, k) is 0 or subnormal for k well
        below lam: the tail starts at the first normal term, not at a zero."""
        ks = (1, 2, 10, math.floor(lam / 2), math.floor(lam))
        tails = {k: oracles.log_space_poisson_tail(lam, k) for k in ks}
        for k, want in tails.items():
            assert abs(poisson_tail(lam, k) - want) < 1e-10
        assert abs(poisson_set_prob(lam, TargetSet(frozenset(), 1)) - tails[1]) < 1e-10

    @pytest.mark.parametrize("function", [poisson_pmf, poisson_tail, poisson_pmf_vector])
    @pytest.mark.parametrize("k", [1.5, True, 2.0, "3", 2.5])
    def test_refuses_k_that_is_not_an_integer(self, function, k):
        name = "k_max" if function is poisson_pmf_vector else "k"
        message = rf"^{name} must be an integer, got {re.escape(repr(k))}$"
        with pytest.raises(ValueError, match=message):
            function(2.0, k)

    def test_numpy_integer_k_gives_the_int_bits(self):
        for lam in (0.3, 2.0, 17.5):
            for k in (0, 1, 4, 40):
                for function in (poisson_pmf, poisson_tail):
                    got = function(lam, np.int64(k))
                    assert type(got) is float and got.hex() == function(lam, k).hex()

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            poisson_pmf(0.0, 1)
        with pytest.raises(InvalidLambda):
            solve(-2.0, TargetSet(frozenset({1})), 10)

    def test_target_set_normalizes_members_into_tail(self):
        target = TargetSet(frozenset({1, 5, 9}), tail_start=4)
        assert target.members == frozenset({1})
        assert target.contains(5) and target.contains(100)

    def test_target_set_refuses_non_integral_values(self):
        with pytest.raises(ValueError, match="2.5"):
            TargetSet(frozenset({2.5, 1}))
        with pytest.raises(ValueError, match="3.9"):
            TargetSet(frozenset({1}), 3.9)
        with pytest.raises(ValueError, match="4.0"):
            TargetSet(frozenset({np.float64(4.0)}))
        with pytest.raises(ValueError, match="^target member must be an integer, got True$"):
            TargetSet(frozenset({True}))
        with pytest.raises(ValueError, match="^tail_start must be an integer, got True$"):
            TargetSet(frozenset(), tail_start=True)
        target = TargetSet(frozenset({np.int64(2), 5}), np.int32(4))
        assert target.members == frozenset({2}) and target.tail_start == 4
        assert all(type(k) is int for k in target.members)


class TestSolve:
    def test_oversized_k_max_is_refused_before_any_work(self):
        message = "lambda = 1.0 and k_max 1099511627776 need a range of more than"
        with pytest.raises(EnumerationCapExceeded, match=message):
            solve(1.0, TargetSet(frozenset({1})), 2**40)

    @pytest.mark.parametrize("k_max", [10.5, 10.0, "10", True])
    def test_non_integral_k_max_is_refused(self, k_max):
        with pytest.raises(ValueError, match=f"^k_max must be an integer, got {k_max!r}$"):
            solve(1.0, TargetSet(frozenset({1})), k_max)

    def test_solution_keeps_the_set_probability_it_was_solved_with(self):
        target = TargetSet(frozenset({0, 4}), 9)
        sol = solve(2.5, target, 40)
        assert sol.set_probability == poisson_set_prob(2.5, target)
        assert "set_probability" in vars(sol)

    def test_first_value_for_point_set(self):
        sol = solve(1.0, TargetSet(frozenset({0})), 50)
        assert sol.values[0] == 0.0
        assert sol.values[1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_full_set_gives_zero_solution(self):
        sol = solve(2.0, TargetSet.naturals(), 60)
        np.testing.assert_allclose(sol.values, 0.0, atol=1e-15)
        assert np.all(forward_diff(sol) == 0.0)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_equation_residual(self, lam):
        rng = random.Random(int(lam * 10))
        for _ in range(5):
            members = frozenset(k for k in range(11) if rng.random() < 0.5)
            sol = solve(lam, TargetSet(members), truncation_point(lam, 10))
            assert float(np.max(np.abs(sol.equation_residuals()))) < 1e-12

    @pytest.mark.parametrize("lam", [800.0, 1000.0])
    def test_equation_residual_where_the_first_tail_terms_underflow(self, lam):
        """P(Po(lam) >= 1) is about 1 though pmf(lam, 1) underflows to 0."""
        sol = solve(lam, TargetSet(frozenset(), 1), truncation_point(lam, 0))
        assert float(np.max(np.abs(sol.equation_residuals()))) < 1e-10

    @given(st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=40)
    def test_closed_form_matches_tabulation(self, lam):
        # High-precision reference on the whole range; the float formula is
        # only well conditioned up to k ~ lam + 1 and is checked there.
        members = frozenset({0, 2, 3, 7})
        target = TargetSet(members)
        pi = poisson_set_prob(lam, target)
        sol = solve(lam, target, 30)
        for k in range(1, 31):
            reference = oracles.stein_solution_highprec(lam, members, k)
            assert sol.values[k] == pytest.approx(reference, abs=1e-12)
        for k in range(1, min(30, math.ceil(lam) + 1) + 1):
            direct = oracles.stein_solution_formula(lam, target.contains, pi, k)
            assert sol.values[k] == pytest.approx(direct, abs=1e-10, rel=1e-9)

    def test_forward_recurrence_diverges_but_tabulation_does_not(self):
        # The forward recurrence amplifies rounding noise by k/lam per step,
        # so it is only a residual check here, never the construction.
        lam = 1.0
        target = TargetSet(frozenset({0}))
        sol = solve(lam, target, 120)
        pi = sol.set_probability
        f = 0.0
        by_recurrence = [0.0]
        for k in range(120):
            f = (k * f + (1.0 if target.contains(k) else 0.0) - pi) / lam if k else (
                (1.0 if target.contains(0) else 0.0) - pi
            ) / lam
            by_recurrence.append(f)
        assert abs(by_recurrence[-1]) > 1e10
        assert float(np.max(np.abs(sol.values))) < 1.0

    def test_poisson_characterization(self):
        # E[lam f(Z+1) - Z f(Z)] = 0 for Z ~ Po(lam) and bounded f.
        rng = random.Random(5)
        lam = 1.7
        k_max = truncation_point(lam, 0)
        f = np.array([0.0] + [rng.uniform(-1, 1) for _ in range(k_max + 1)])
        pmf = np.array([poisson_pmf(lam, k) for k in range(k_max + 1)])
        value = stable_sum(
            pmf[k] * (lam * f[k + 1] - k * f[k]) for k in range(k_max + 1)
        )
        assert abs(value) < 1e-12


class TestDifferences:
    def test_range_too_short(self):
        sol = solve(1.0, TargetSet(frozenset({0})), 1)
        with pytest.raises(RangeTooShort):
            forward_diff(sol)
        sol2 = solve(1.0, TargetSet(frozenset({0})), 2)
        with pytest.raises(RangeTooShort):
            second_forward_diff(sol2)

    def test_difference_bound(self):
        for lam in (0.1, 1.0, 5.0):
            factors = stein_factors(lam)
            sol = solve(lam, TargetSet(frozenset({0, 3})), truncation_point(lam, 5))
            assert float(np.max(np.abs(forward_diff(sol)))) <= factors.diff_bound + 1e-12


class TestSteinFactors:
    def test_unit_mean_values(self):
        factors = stein_factors(1.0)
        assert factors.sup_bound == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-15)
        assert factors.diff_bound == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        assert factors.second_diff_bound == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)), rel=1e-15
        )
        assert factors.second_diff_alternative == 2.0

    def test_second_difference_bound_never_exceeds_the_alternative(self):
        # 2(1 - e^{-lam})/lam <= 2/lam in floating point: -expm1(-lam) <= 1,
        # doubling is exact and rounded division is monotone.
        rng = random.Random(17)
        lams = [5e-324, 1e-300, 1e-17, 0.5, 1.0, 36.7, 745.2, 1e300, 1.7e308]
        lams += [10.0 ** rng.uniform(-320, 308) for _ in range(2000)]
        for lam in lams:
            factors = stein_factors(lam)
            assert factors.second_diff_bound <= factors.second_diff_alternative, lam

    def test_large_mean_sup_bound_below_one(self):
        assert stein_factors(100.0).sup_bound == pytest.approx(
            math.sqrt(2.0 / (math.e * 100.0)), rel=1e-15
        )

    @pytest.mark.parametrize("lam", [0.3, 1.0, 6.0])
    def test_bounds_and_residuals_with_cofinite_tails(self, lam):
        rng = random.Random(int(lam * 7))
        factors = stein_factors(lam)
        k_max = max(truncation_point(lam, 12), 3)
        for _ in range(12):
            members = frozenset(k for k in range(9) if rng.random() < 0.4)
            target = TargetSet(members, tail_start=rng.randint(0, 14))
            sol = solve(lam, target, k_max)
            assert float(np.max(np.abs(sol.equation_residuals()))) < 1e-12
            assert float(np.max(np.abs(sol.values))) <= factors.sup_bound + 1e-12
            assert (
                float(np.max(np.abs(forward_diff(sol))))
                <= factors.diff_bound + 1e-12
            )
            assert (
                float(np.max(np.abs(second_forward_diff(sol))))
                <= factors.second_diff_bound + 1e-12
            )

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_all_bounds_hold_on_random_sets(self, lam):
        rng = random.Random(int(lam * 100))
        factors = stein_factors(lam)
        k_max = max(truncation_point(lam, 12), 3)
        for _ in range(20):
            members = frozenset(k for k in range(13) if rng.random() < 0.45)
            sol = solve(lam, TargetSet(members), k_max)
            assert float(np.max(np.abs(sol.values))) <= factors.sup_bound + 1e-12
            assert (
                float(np.max(np.abs(forward_diff(sol))))
                <= factors.diff_bound + 1e-12
            )
            second = float(np.max(np.abs(second_forward_diff(sol))))
            assert second <= factors.second_diff_bound + 1e-12
            assert second <= factors.second_diff_alternative + 1e-12


def _same_as_loop(lam, target, k_max):
    sol = solve(lam, target, k_max)
    values, residuals = oracles.loop_solve(lam, target, k_max)
    assert sol.values.tobytes() == values.tobytes(), (lam, target, k_max)
    assert sol.equation_residuals().tobytes() == residuals.tobytes()


# solve(1.0, A, 2^18) keeps at most the values, one cache's worth of blocks
# and one block's products at once; the cache keeps at most _CACHED_TABLES
# tables of at most _TABLE_TERMS terms.
PEAK_MIB = 16
RETAINED_MIB = 8


class TestRatioTable:
    """solve's per-(lambda, k_max) ratio table against the loop that builds
    every term of every f(k) on its own, byte for byte."""

    def test_equals_loop_on_every_criterion_04_target(self):
        for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            k_max = max(truncation_point(lam, 10), 3)
            for mask in range(1 << 11):
                members = frozenset(k for k in range(11) if (mask >> k) & 1)
                _same_as_loop(lam, TargetSet(members), k_max)

    @pytest.mark.parametrize("lam", [0.001, 57.3, 300.0])
    def test_equals_loop_at_extreme_means_and_short_ranges(self, lam):
        rng = random.Random(repr(lam))
        targets = [TargetSet(), TargetSet.naturals()]  # f = 0, tail rows -0.0
        targets += [TargetSet(frozenset(), t) for t in (1, 5, math.ceil(lam) + 3)]
        targets += [
            TargetSet(
                frozenset(k for k in range(int(2 * lam) + 12) if rng.random() < 0.3),
                rng.choice([None, rng.randint(0, int(3 * lam) + 12)]),
            )
            for _ in range(3)
        ]
        for k_max in (1, 2, 3, truncation_point(lam, 12)):
            for target in targets:
                _same_as_loop(lam, target, k_max)

    def test_streamed_table_equals_loop(self):
        # More terms than one cached table may hold: built and used block by block.
        assert chenstein._cached_table(1.0, 1 << 16) is None
        _same_as_loop(1.0, TargetSet(frozenset({0, 2, 3}), 11), 1 << 16)

    def test_cold_warm_and_streamed_tables_agree(self, monkeypatch):
        target = TargetSet(frozenset({1, 4, 6}), 13)
        chenstein._cached_table.cache_clear()
        cold = solve(5.0, target, 80).values.tobytes()
        assert solve(5.0, target, 80).values.tobytes() == cold
        assert chenstein._cached_table.cache_info().hits >= 1
        chenstein._cached_table.cache_clear()
        monkeypatch.setattr(chenstein, "_TABLE_TERMS", 0)
        assert solve(5.0, target, 80).values.tobytes() == cold
        chenstein._cached_table.cache_clear()

    def test_memory_is_bounded(self):
        target = TargetSet(frozenset({1, 3}), 7)
        chenstein._cached_table.cache_clear()
        tracemalloc.start()
        try:
            sol = solve(1.0, target, 1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
            del sol
            for i in range(2 * chenstein._CACHED_TABLES):
                solve(1.0 + i / 16, target, 1 << 13)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            chenstein._cached_table.cache_clear()
        assert peak < PEAK_MIB << 20, peak
        assert retained < RETAINED_MIB << 20, retained
