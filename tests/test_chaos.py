import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein.chaos import (
    ChaosExpansion,
    covariance,
    decompose,
    evaluate_on_signs,
    multiply,
    to_table,
)
from radstein.errors import IndexOutOfRange
from radstein.kernels import Kernel, inner_product, sym_offdiag_weighted_contract
from radstein.model import (
    FunctionalTable,
    build_model,
    expectation,
    variance,
)

import oracles
from test_kernels import star_kernel


def integral_table(model, f):
    """J_order(f) on every outcome."""
    return to_table(model, ChaosExpansion(0.0, {f.order: f})).values


class TestIntegralValue:
    def test_indicator_kernel_gives_coordinate(self):
        model = build_model([0.3, 0.6])
        e2 = Kernel(1, {(2,): 1.0})
        got = integral_table(model, e2)
        np.testing.assert_allclose(got, model.y_table(2), atol=1e-15)

    def test_star_factorizes_into_product(self):
        # J_2 of the star kernel equals (n-1)/n^2 * Y_1 * sum_{i>=2} Y_i.
        for n in (2, 3, 4):
            model = build_model([1.0 / n] * n)
            got = integral_table(model, star_kernel(n))
            for idx in range(1 << n):
                y = [model.y_table(k)[idx] for k in range(1, n + 1)]
                direct = (n - 1) / n**2 * y[0] * math.fsum(y[1:])
                assert got[idx] == pytest.approx(direct, abs=1e-12)

    def test_index_out_of_range(self):
        model = build_model([0.3])
        with pytest.raises(IndexOutOfRange):
            integral_table(model, Kernel(1, {(2,): 1.0}))


class TestEvaluateAndTables:
    def test_constant_expansion(self):
        model = build_model([0.2, 0.8, 0.5])
        table = to_table(model, ChaosExpansion(2.5))
        np.testing.assert_allclose(table.values, 2.5)

    def test_mean_is_expectation(self):
        rng = random.Random(2)
        model = build_model(oracles.rand_model_p(rng, 5))
        expansion = ChaosExpansion(
            0.7,
            {1: oracles.rand_kernel(rng, 1, 5), 2: oracles.rand_kernel(rng, 2, 5)},
        )
        table = to_table(model, expansion)
        assert expectation(model, table) == pytest.approx(0.7, abs=1e-12)

    def test_variance_matches_kernel_norms(self):
        rng = random.Random(4)
        model = build_model(oracles.rand_model_p(rng, 6))
        kernels = {
            1: oracles.rand_kernel(rng, 1, 6),
            2: oracles.rand_kernel(rng, 2, 6),
            3: oracles.rand_kernel(rng, 3, 6),
        }
        expansion = ChaosExpansion(-0.3, kernels)
        table = to_table(model, expansion)
        by_norms = math.fsum(
            math.factorial(n) * inner_product(k, k) for n, k in kernels.items()
        )
        assert variance(model, table) == pytest.approx(by_norms, abs=1e-10)

    def test_table_matches_per_outcome_evaluation(self):
        rng = random.Random(6)
        model = build_model(oracles.rand_model_p(rng, 4))
        expansion = ChaosExpansion(0.1, {2: oracles.rand_kernel(rng, 2, 4)})
        table = to_table(model, expansion)
        brute = oracles.brute_table(model.p, expansion.mean, expansion.kernels)
        np.testing.assert_allclose(table.values, brute, atol=1e-12)

    def test_evaluate_on_signs_matches_table(self):
        rng = random.Random(8)
        model = build_model(oracles.rand_model_p(rng, 4))
        expansion = ChaosExpansion(
            0.4, {1: oracles.rand_kernel(rng, 1, 4), 3: oracles.rand_kernel(rng, 3, 4)}
        )
        table = to_table(model, expansion)
        signs = np.array(oracles.all_outcomes(4), dtype=np.int8)
        np.testing.assert_allclose(
            evaluate_on_signs(model, expansion, signs), table.values, atol=1e-12
        )

    def test_sparse_expansion_builds_rows_only_for_its_coordinates(self):
        import tracemalloc

        rng = random.Random(40)
        model = build_model(oracles.rand_model_p(rng, 40))
        used = [3, 11, 17, 29, 40]
        expansion = ChaosExpansion(
            0.7,
            {
                1: Kernel(1, {(i,): rng.uniform(-2.0, 2.0) for i in used}),
                2: Kernel(2, {(3, 29): 0.4, (11, 40): -1.3, (17, 29): 0.9}),
                3: Kernel(3, {(3, 17, 40): 2.1}),
            },
        )
        rows = 20_000
        signs = np.where(np.random.default_rng(4).random((rows, 40)) < 0.5, 1, -1)
        signs = signs.astype(np.int8)
        want = oracles.columnwise_evaluate_on_signs(model, expansion, signs)
        tracemalloc.start()
        try:
            got = evaluate_on_signs(model, expansion, signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        # The +-1 check over all 40 int8 columns takes about 10 rows of
        # doubles; a Y table over all 40 coordinates would take 40 more.
        assert peak <= 24 * 8 * rows


    @pytest.mark.parametrize(
        "signs,first",
        [
            ([[0, 2, 5]], "got 0 at row 0, column 0"),
            ([[1, -1, 1], [1, 2, 0]], "got 2 at row 1, column 1"),
            (np.array([[1, -128, 1]], dtype=np.int8), "got -128 at row 0, column 1"),
            ([[1.0, -1.0, 0.5]], "got 0.5 at row 0, column 2"),
            ([[1.0, float("nan"), 1.0]], "got nan at row 0, column 1"),
        ],
    )
    def test_entries_other_than_plus_or_minus_one_are_refused(self, signs, first):
        model = build_model([0.3] * 3)
        unit = ChaosExpansion(0.0, {1: Kernel(1, {(1,): 1.0})})
        with pytest.raises(ValueError, match=re.escape(first)):
            evaluate_on_signs(model, unit, np.array(signs))


class TestDecompose:
    def test_constant(self):
        model = build_model([0.4, 0.2])
        expansion = decompose(model, FunctionalTable.constant(model, 3.25))
        assert expansion.mean == pytest.approx(3.25, abs=1e-14)
        assert not expansion.kernels

    def test_product_of_two_coordinates(self):
        model = build_model([0.35, 0.65])
        table = FunctionalTable(model, model.y_table(1) * model.y_table(2))
        expansion = decompose(model, table)
        assert expansion.kernel(2).entries[(1, 2)] == pytest.approx(0.5, abs=1e-13)
        assert abs(expansion.mean) < 1e-13
        assert abs(oracles.kernel_value(expansion.kernel(1), (1,))) < 1e-13

    def test_bernoulli_sum(self):
        model = build_model([0.15, 0.55, 0.75])
        idx = np.arange(8)
        values = sum(((idx >> k) & 1).astype(float) for k in range(3))
        expansion = decompose(model, FunctionalTable(model, values))
        assert expansion.mean == pytest.approx(float(np.sum(model.p)), abs=1e-12)
        for k in range(1, 4):
            assert expansion.kernel(1).entries[(k,)] == pytest.approx(
                model.sigma[k - 1], abs=1e-12
            )

    def test_round_trip_both_ways(self):
        rng = random.Random(9)
        model = build_model(oracles.rand_model_p(rng, 6))
        values = np.array([rng.uniform(-4, 4) for _ in range(64)])
        table = FunctionalTable(model, values)
        back = to_table(model, decompose(model, table))
        np.testing.assert_allclose(back.values, values, atol=1e-9)

    def test_orthogonality_recovers_single_kernel(self):
        rng = random.Random(10)
        model = build_model(oracles.rand_model_p(rng, 5))
        f = oracles.rand_kernel(rng, 2, 5)
        expansion = decompose(model, to_table(model, ChaosExpansion(0.0, {2: f})))
        for key, value in f.entries.items():
            assert expansion.kernel(2).entries[key] == pytest.approx(value, abs=1e-12)
        for order, kernel in expansion.kernels.items():
            if order != 2:
                assert max(abs(v) for v in kernel.entries.values()) < 1e-12


class TestMultiply:
    def test_structure_identity_from_product(self):
        model = build_model([0.25, 0.7])
        e1 = Kernel(1, {(1,): 1.0})
        product = multiply(model, e1, e1)
        assert product.mean == pytest.approx(1.0, abs=1e-14)
        assert product.kernel(1).entries[(1,)] == pytest.approx(
            model.phi[0], abs=1e-13
        )

    def test_symmetric_model_keeps_only_fully_summed_terms(self):
        rng = random.Random(12)
        model = build_model([0.5] * 6)
        f = oracles.rand_kernel(rng, 2, 6)
        g = oracles.rand_kernel(rng, 3, 6)
        product = multiply(model, f, g)
        direct_mean = 0.0
        direct = {}
        for r in range(3):
            coeff = (
                math.factorial(r) * math.comb(2, r) * math.comb(3, r)
            )
            part = sym_offdiag_weighted_contract(model, f, g, r, r)
            if part.order == 0:
                direct_mean += coeff * part.entries.get((), 0.0)
            elif not part.is_zero():
                scaled = part.scaled(float(coeff))
                direct[part.order] = (
                    oracles.kernel_add(direct[part.order], scaled)
                    if part.order in direct
                    else scaled
                )
        assert product.mean == pytest.approx(direct_mean, abs=1e-13)
        assert set(product.kernels) == {o for o, k in direct.items() if not k.is_zero()}
        for order, kernel in direct.items():
            got = product.kernel(order)
            for key in set(kernel.entries) | set(got.entries):
                assert got.entries.get(key, 0.0) == pytest.approx(
                    kernel.entries.get(key, 0.0), abs=1e-13
                )

    def test_an_overflowing_mean_raises(self):
        # The (4, 4) term, 4! * 1e153 * 5e153 = 1.2e308, is finite; the mean,
        # that term scaled by 4!, is not.
        model = build_model([0.5] * 4)
        f = Kernel(4, {(1, 2, 3, 4): 1e153})
        g = Kernel(4, {(1, 2, 3, 4): 5e153})
        with pytest.raises(ValueError, match=r"^non-finite coefficient at \(\)$"):
            multiply(model, f, g)
        with pytest.raises(ValueError, match=r"^non-finite coefficient at \(\)$"):
            oracles.loop_multiply(model, f, g)

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=40)
    def test_pointwise_product_identity_property(self, seed):
        rng = random.Random(seed)
        size = rng.randint(2, 6)
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        model = build_model(oracles.rand_model_p(rng, size))
        f = oracles.rand_kernel(rng, n, size, density=0.5)
        g = oracles.rand_kernel(rng, m, size, density=0.5)
        lhs = (
            to_table(model, ChaosExpansion(0.0, {n: f})).values
            * to_table(model, ChaosExpansion(0.0, {m: g})).values
        )
        rhs = to_table(model, multiply(model, f, g)).values
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_pointwise_product_identity(self, seed):
        rng = random.Random(200 + seed)
        size = rng.randint(2, 8)
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        model = build_model(oracles.rand_model_p(rng, size))
        f = oracles.rand_kernel(rng, n, size)
        g = oracles.rand_kernel(rng, m, size)
        lhs = (
            to_table(model, ChaosExpansion(0.0, {n: f})).values
            * to_table(model, ChaosExpansion(0.0, {m: g})).values
        )
        rhs = to_table(model, multiply(model, f, g)).values
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10


class TestCovariance:
    def test_different_orders_vanish(self):
        model = build_model([0.3, 0.5, 0.7])
        f = Kernel(1, {(1,): 2.0})
        g = Kernel(2, {(1, 2): 1.0})
        assert covariance(model, f, g) == 0.0

    def test_variance_of_fixed_order(self):
        rng = random.Random(14)
        model = build_model(oracles.rand_model_p(rng, 6))
        f = oracles.rand_kernel(rng, 3, 6)
        table = to_table(model, ChaosExpansion(0.0, {3: f}))
        assert covariance(model, f, f) == pytest.approx(
            variance(model, table), abs=1e-10
        )

    def test_star_variance_closed_form(self):
        for n in (2, 5, 11):
            model = build_model([1.0 / n] * n)
            f = star_kernel(n)
            assert covariance(model, f, f) == pytest.approx(
                (n - 1) ** 3 / n**4, rel=1e-13
            )

    def test_matches_enumeration(self):
        rng = random.Random(15)
        model = build_model(oracles.rand_model_p(rng, 5))
        f = oracles.rand_kernel(rng, 2, 5)
        g = oracles.rand_kernel(rng, 2, 5)
        tf = to_table(model, ChaosExpansion(0.0, {2: f})).values
        tg = to_table(model, ChaosExpansion(0.0, {2: g})).values
        by_enum = math.fsum(model.outcome_weights * tf * tg)
        assert covariance(model, f, g) == pytest.approx(by_enum, abs=1e-10)
