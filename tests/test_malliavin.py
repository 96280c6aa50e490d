import math
import random

import numpy as np
import pytest

from radstein.chaos import ChaosExpansion, decompose, to_table
from radstein.errors import MalformedField
from radstein.kernels import Kernel, inner_product, slice_kernel
from radstein.malliavin import (
    GradientField,
    check_integration_by_parts,
    divergence,
    gradient_chaos,
    gradient_pathwise,
    iterated_gradient,
    minus_gradient_pseudo_inverse,
    ou_operator,
    pseudo_inverse,
)
from radstein.model import (
    FunctionalTable,
    build_model,
    expectation,
    stable_sum,
    variance,
)

import oracles


def rand_setup(seed, size=None, max_order=3):
    rng = random.Random(seed)
    size = size or rng.randint(3, 7)
    model = build_model(oracles.rand_model_p(rng, size))
    kernels = {}
    for order in range(1, min(max_order, size) + 1):
        if rng.random() < 0.85:
            kernels[order] = oracles.rand_kernel(rng, order, size)
    return rng, model, ChaosExpansion(rng.uniform(-1, 1), kernels)


class TestGradient:
    def test_constant_has_zero_gradient(self):
        model = build_model([0.3, 0.6])
        table = FunctionalTable.constant(model, 7.0)
        for k in (1, 2):
            assert np.all(gradient_pathwise(model, table, k).values == 0.0)

    def test_bernoulli_sum_gradient_is_sigma(self):
        model = build_model([0.15, 0.5, 0.82])
        idx = np.arange(8)
        values = sum(((idx >> k) & 1).astype(float) for k in range(3))
        table = FunctionalTable(model, values)
        for k in (1, 2, 3):
            np.testing.assert_allclose(
                gradient_pathwise(model, table, k).values, model.sigma[k - 1]
            )

    def test_fixed_order_gradient_drops_one_order(self):
        rng, model, _ = rand_setup(21)
        f = oracles.rand_kernel(rng, 3, model.size)
        table = to_table(model, ChaosExpansion(0.0, {3: f}))
        for k in range(1, model.size + 1):
            got = gradient_pathwise(model, table, k)
            sliced = slice_kernel(f, k)
            expected = to_table(
                model, ChaosExpansion(0.0, {2: sliced.scaled(3.0)})
            )
            np.testing.assert_allclose(got.values, expected.values, atol=1e-10)

    def test_gradient_independent_of_flipped_coordinate(self):
        rng, model, expansion = rand_setup(22)
        table = to_table(model, expansion)
        for k in range(1, model.size + 1):
            g = gradient_pathwise(model, table, k).values
            bit = 1 << (k - 1)
            idx = np.arange(model.num_outcomes)
            np.testing.assert_array_equal(g[idx | bit], g[idx & ~bit])

    def test_pathwise_agrees_with_chaos_route(self):
        _, model, expansion = rand_setup(23)
        table = to_table(model, expansion)
        for k in range(1, model.size + 1):
            pathwise = gradient_pathwise(model, table, k).values
            chaos = to_table(model, gradient_chaos(expansion, k)).values
            np.testing.assert_allclose(pathwise, chaos, atol=1e-10)


class TestIteratedGradient:
    def test_empty_index_list_returns_input(self):
        _, model, expansion = rand_setup(24)
        table = to_table(model, expansion)
        assert iterated_gradient(model, table, []) is table

    def test_second_gradient_of_linear_functional_vanishes(self):
        rng, model, _ = rand_setup(25)
        f = oracles.rand_kernel(rng, 1, model.size)
        table = to_table(model, ChaosExpansion(1.0, {1: f}))
        got = iterated_gradient(model, table, [1, 2])
        np.testing.assert_allclose(got.values, 0.0, atol=1e-12)

    def test_double_gradient_of_order_two_is_flat(self):
        rng, model, _ = rand_setup(26)
        f = oracles.rand_kernel(rng, 2, model.size)
        table = to_table(model, ChaosExpansion(0.0, {2: f}))
        for k in range(1, model.size + 1):
            for el in range(1, model.size + 1):
                got = iterated_gradient(model, table, [k, el])
                expected = 2.0 * f.value((el, k))
                np.testing.assert_allclose(got.values, expected, atol=1e-10)
                # independent route: flip both coordinates by hand
                sk = model.sigma[k - 1] * model.sigma[el - 1]
                idx = np.arange(model.num_outcomes)
                bk, bl = 1 << (k - 1), 1 << (el - 1)
                v = table.values
                by_flips = sk * (
                    v[(idx | bk) | bl]
                    - v[(idx | bk) & ~bl]
                    - v[(idx & ~bk) | bl]
                    + v[(idx & ~bk) & ~bl]
                )
                np.testing.assert_allclose(got.values, by_flips, atol=1e-10)


class TestOperators:
    def test_pseudo_inverse_of_single_order(self):
        rng, model, _ = rand_setup(27)
        f = oracles.rand_kernel(rng, 1, model.size)
        inverse = pseudo_inverse(ChaosExpansion(0.4, {1: f}))
        for k in range(1, model.size + 1):
            got = -to_table(model, gradient_chaos(inverse, k)).values
            np.testing.assert_allclose(got, f.value((k,)), atol=1e-12)

    def test_pseudo_inverse_scales_gradient_by_order(self):
        rng, model, _ = rand_setup(28)
        m = 3
        f = oracles.rand_kernel(rng, m, model.size)
        expansion = ChaosExpansion(0.0, {m: f})
        inverse = pseudo_inverse(expansion)
        for k in range(1, model.size + 1):
            lhs = -to_table(model, gradient_chaos(inverse, k)).values
            rhs = to_table(model, gradient_chaos(expansion, k)).values / m
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_ou_on_constants(self):
        assert not ou_operator(ChaosExpansion(5.0)).kernels

    def test_eigenfunction_relation(self):
        rng, model, _ = rand_setup(29)
        f = oracles.rand_kernel(rng, 2, model.size)
        got = ou_operator(ChaosExpansion(0.0, {2: f}))
        for key, value in f.entries.items():
            assert got.kernel(2).entries[key] == pytest.approx(-2.0 * value)

    def test_l_inverse_is_definitional_inverse(self):
        _, model, expansion = rand_setup(30)
        centered = ChaosExpansion(0.0, expansion.kernels)
        recovered = ou_operator(pseudo_inverse(centered))
        for order in centered.kernels:
            for key, value in centered.kernel(order).entries.items():
                assert recovered.kernel(order).entries[key] == pytest.approx(
                    value, abs=1e-13
                )


def route_case(rng, i):
    """Table i of the route comparison: N = 1 + i mod 10; every fifth table is
    constant and every fifth ignores one coordinate, so exactly zero and
    signed-zero coefficients occur."""
    size = 1 + i % 10
    p = oracles.rand_model_p(rng, size)
    if i % 3 == 0:
        p = [rng.choice([0.5, 0.25, 0.9]) for _ in range(size)]
    model = build_model(p)
    kind = i % 5
    if kind == 0:
        values = np.full(model.num_outcomes, rng.choice([0.0, 2.0, -1.5]))
    elif kind == 1:
        ignored = 1 << rng.randrange(size)
        base = [rng.uniform(-3, 3) for _ in range(model.num_outcomes)]
        values = np.array([base[idx & ~ignored] for idx in range(model.num_outcomes)])
    elif kind == 2:
        values = oracles.rand_integer_table(rng, model.num_outcomes)
    elif kind == 3:
        kernels = {
            order: oracles.rand_kernel(rng, order, size, density=0.4)
            for order in range(1, min(3, size) + 1)
        }
        values = to_table(model, ChaosExpansion(rng.uniform(-1, 1), kernels)).values
    else:
        values = np.array([rng.uniform(-1e3, 1e3) for _ in range(model.num_outcomes)])
    return model, FunctionalTable(model, values)


class TestCoefficientDomainRoute:
    def test_equals_kernel_route_byte_for_byte(self):
        rng = random.Random(4242)
        for i in range(300):
            model, table = route_case(rng, i)
            got = minus_gradient_pseudo_inverse(model, table)
            want = oracles.dict_minus_gradient_pseudo_inverse(model, table)
            assert len(got) == len(want) == model.size
            for k, (g, w) in enumerate(zip(got, want), start=1):
                assert g.values.tobytes() == w.tobytes(), (i, k)

    def test_non_finite_coefficient_is_rejected(self):
        model = build_model([0.5])
        table = FunctionalTable(model, np.array([-1.7e308, 1.7e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError):
                oracles.dict_minus_gradient_pseudo_inverse(model, table)
            with pytest.raises(ValueError, match="non-finite"):
                minus_gradient_pseudo_inverse(model, table)


class TestDivergence:
    def test_constant_components_give_order_one_integral(self):
        model = build_model([0.2, 0.5, 0.8])
        u = GradientField({k: ChaosExpansion(float(k)) for k in (1, 2, 3)})
        got = divergence(model, u)
        assert got.mean == 0.0
        assert got.kernel(1).entries == {(1,): 1.0, (2,): 2.0, (3,): 3.0}

    def test_adjointness(self):
        rng, model, expansion = rand_setup(31)
        table = to_table(model, expansion)
        u = GradientField(
            {
                k: ChaosExpansion(
                    rng.uniform(-1, 1),
                    {1: oracles.rand_kernel(rng, 1, model.size)},
                )
                for k in range(1, model.size + 1)
            }
        )
        lhs = expectation(
            model,
            FunctionalTable(
                model, table.values * to_table(model, divergence(model, u)).values
            ),
        )
        rhs = stable_sum(
            stable_sum(
                model.outcome_weights
                * gradient_pathwise(model, table, k).values
                * to_table(model, u.components[k]).values
            )
            for k in range(1, model.size + 1)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_divergence_of_gradient_matches_minus_ou(self):
        rng, model, _ = rand_setup(32)
        g = oracles.rand_kernel(rng, 2, model.size)
        expansion = ChaosExpansion(0.0, {2: g})
        u = GradientField(
            {k: gradient_chaos(expansion, k) for k in range(1, model.size + 1)}
        )
        got = divergence(model, u)
        for key, value in g.entries.items():
            assert got.kernel(2).entries[key] == pytest.approx(2.0 * value, abs=1e-13)

    def test_coefficients_are_correctly_rounded_sums(self):
        """Each coefficient is math.fsum of its contributions, pinned in
        float.hex: at (1, 2, 3), 0.1/3 + 0.2/3 + 0.2/3, which `+` in
        component order rounds twice to 0x1.5555555555556p-3."""
        model = build_model([0.3, 0.6, 0.5])
        u = GradientField(
            {
                1: ChaosExpansion(0.5, {2: Kernel(2, {(2, 3): 0.1})}),
                2: ChaosExpansion(0.0, {2: Kernel(2, {(1, 3): 0.2})}),
                3: ChaosExpansion(-0.25, {2: Kernel(2, {(1, 2): 0.2})}),
            }
        )
        got = divergence(model, u)
        assert {
            order: [(key, value.hex()) for key, value in kernel.entries.items()]
            for order, kernel in got.kernels.items()
        } == {
            1: [((1,), "0x1.0000000000000p-1"), ((3,), "-0x1.0000000000000p-2")],
            3: [((1, 2, 3), "0x1.5555555555555p-3")],
        }

    def test_random_fields_sum_each_tuple_once(self):
        """Order-2 components at N = 3, one entry each: every coefficient, in
        float.hex, is math.fsum of its three contributions."""
        rng = random.Random(2000)
        model = build_model([0.3, 0.6, 0.5])
        for _ in range(300):
            values = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            u = GradientField(
                {
                    k: ChaosExpansion(
                        0.0, {2: Kernel(2, {tuple(sorted({1, 2, 3} - {k})): v})}
                    )
                    for k, v in zip((1, 2, 3), values)
                }
            )
            (coefficient,) = divergence(model, u).kernel(3).entries.values()
            assert coefficient.hex() == math.fsum(v / 3 for v in values).hex()

    def test_component_index_out_of_range(self):
        model = build_model([0.5, 0.5])
        with pytest.raises(MalformedField):
            divergence(model, GradientField({5: ChaosExpansion(1.0)}))

    def test_component_order_too_large(self):
        model = build_model([0.5, 0.5])
        field = GradientField(
            {1: ChaosExpansion(0.0, {2: Kernel(2, {(1, 2): 1.0})})}
        )
        with pytest.raises(MalformedField):
            divergence(model, field)


class TestIntegrationByParts:
    def test_constant_right_factor(self):
        _, model, expansion = rand_setup(33)
        table = to_table(model, expansion)
        ones = FunctionalTable.constant(model, 1.0)
        assert check_integration_by_parts(model, table, ones) < 1e-12

    def test_self_pairing_recovers_variance(self):
        _, model, expansion = rand_setup(34)
        table = to_table(model, expansion)
        minus_dl = minus_gradient_pseudo_inverse(model, table)
        energy = stable_sum(
            stable_sum(
                model.outcome_weights
                * gradient_pathwise(model, table, k).values
                * minus_dl[k - 1].values
            )
            for k in range(1, model.size + 1)
        )
        assert energy == pytest.approx(variance(model, table), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pairs(self, seed):
        rng = random.Random(400 + seed)
        size = rng.randint(2, 10)
        model = build_model(oracles.rand_model_p(rng, size))
        f = FunctionalTable(model, np.array([rng.uniform(-3, 3) for _ in range(model.num_outcomes)]))
        g = FunctionalTable(model, np.array([rng.uniform(-3, 3) for _ in range(model.num_outcomes)]))
        assert check_integration_by_parts(model, f, g) < 1e-10


class TestDomainIdentity:
    @pytest.mark.parametrize("m", [1, 2])
    def test_iterated_gradient_energy(self, m):
        # E||D^m F||^2 = sum_{n >= m} n!/(n-m)! * n! ||f_n||^2
        import itertools

        _, model, expansion = rand_setup(35 + m, size=5)
        table = to_table(model, expansion)
        energy = stable_sum(
            stable_sum(
                model.outcome_weights
                * iterated_gradient(model, table, list(tup)).values ** 2
            )
            for tup in itertools.product(range(1, model.size + 1), repeat=m)
        )
        by_kernels = stable_sum(
            math.factorial(n) / math.factorial(n - m)
            * math.factorial(n)
            * inner_product(kernel, kernel)
            for n, kernel in expansion.kernels.items()
            if n >= m
        )
        assert energy == pytest.approx(by_kernels, abs=1e-10)


class TestInequalities:
    @pytest.mark.parametrize("seed", range(6))
    def test_mehler(self, seed):
        rng = random.Random(500 + seed)
        size = rng.randint(3, 6)
        model = build_model(oracles.rand_model_p(rng, size))
        kernels = {
            order: oracles.rand_kernel(rng, order, size) for order in (1, 2, 3)
        }
        expansion = ChaosExpansion(rng.uniform(-1, 1), kernels)
        table = to_table(model, expansion)
        inverse_table = to_table(model, pseudo_inverse(decompose(model, table)))
        for m in (1, 2):
            ks = [rng.randint(1, size) for _ in range(m)]
            lhs_t = iterated_gradient(model, inverse_table, ks).values
            rhs_t = iterated_gradient(model, table, ks).values
            for alpha in (1, 2):
                lhs = stable_sum(model.outcome_weights * np.abs(lhs_t) ** alpha)
                rhs = stable_sum(model.outcome_weights * np.abs(rhs_t) ** alpha)
                assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_poincare(self, seed):
        rng = random.Random(600 + seed)
        size = rng.randint(2, 7)
        model = build_model(oracles.rand_model_p(rng, size))
        table = FunctionalTable(
            model, np.array([rng.uniform(-2, 2) for _ in range(model.num_outcomes)])
        )
        energy = stable_sum(
            stable_sum(
                model.outcome_weights * gradient_pathwise(model, table, k).values ** 2
            )
            for k in range(1, size + 1)
        )
        assert variance(model, table) <= energy + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_quadratic_nonnegative_for_integer_values(self, seed):
        # x(x+1) >= 0 for integers x makes D_kF (D_kF + sigma X_k) >= 0
        # pointwise whenever F is integer-valued.
        rng = random.Random(700 + seed)
        size = rng.randint(2, 8)
        model = build_model(oracles.rand_model_p(rng, size))
        table = FunctionalTable(
            model, oracles.rand_integer_table(rng, model.num_outcomes)
        )
        idx = np.arange(model.num_outcomes)
        for k in range(1, size + 1):
            dk = gradient_pathwise(model, table, k).values
            x = np.where((idx >> (k - 1)) & 1 == 1, 1.0, -1.0)
            assert np.all(dk * (dk + model.sigma[k - 1] * x) >= -1e-12)
