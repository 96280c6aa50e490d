"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 5c (exact total variation of the order-2 star example dominated by
its closed-form total) is implemented faithfully and fails: the example's
functional takes values outside the nonnegative integers (already +-1/4 at
n = 2), so its law shares no support with any Poisson law and the exact
distance is 1, far above the closed-form total.  The test is left red on
purpose; see the repository README.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from radstein.bounds import (
    J2_RATE_CONSTANT,
    bernoulli_bound,
    bernoulli_sum_table,
    j1_bound,
    j2_example,
    j2_example_kernel,
    j2_example_machinery,
    jm_bound,
    main_bound,
    main_bound_reduced,
    second_order_bound,
    wasserstein_bound,
)
from radstein.chaos import ChaosExpansion, covariance, multiply, to_table
from radstein.chenstein import (
    TargetSet,
    forward_diff,
    second_forward_diff,
    solve,
    stein_factors,
    truncation_point,
)
from radstein.cli import main
from radstein.distance import atom_law, tv_atoms_vs_poisson, tv_exact, w1_exact
from radstein.kernels import Kernel, weighted_contract
from radstein.malliavin import (
    GradientField,
    check_integration_by_parts,
    divergence,
    gradient_chaos,
    gradient_pathwise,
    iterated_gradient,
    ou_operator,
    pseudo_inverse,
)
from radstein.model import (
    DistributionTable,
    FunctionalTable,
    build_model,
    distribution,
    expectation,
    stable_sum,
    variance,
)
import oracles


def report(criterion, passed=True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


def test_criterion_01_product_formula_pointwise():
    rng = random.Random(2024)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        size = rng.randint(2, 8)
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        model = build_model([rng.uniform(0.05, 0.95) for _ in range(size)])
        f = oracles.rand_kernel(rng, n, size)
        g = oracles.rand_kernel(rng, m, size)
        lhs = (
            to_table(model, ChaosExpansion(0.0, {n: f})).values
            * to_table(model, ChaosExpansion(0.0, {m: g})).values
        )
        rhs = to_table(model, multiply(model, f, g)).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.monotonic() - started
    assert worst < 1e-10, f"max pointwise product residual {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report("01 product-formula pointwise identity")


def test_criterion_02_symmetric_degeneration():
    rng = random.Random(7)
    model = build_model([0.5] * 7)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        f = oracles.rand_kernel(rng, n, 7)
        g = oracles.rand_kernel(rng, m, 7)
        for r in range(1, min(n, m) + 1):
            for ell in range(r):
                assert weighted_contract(model, f, g, r, ell).is_zero()
        product = multiply(model, f, g)
        plain = {}
        plain_mean = 0.0
        from oracles import kernel_add
        from radstein.kernels import sym_offdiag_weighted_contract

        for r in range(min(n, m) + 1):
            coeff = math.factorial(r) * math.comb(n, r) * math.comb(m, r)
            part = sym_offdiag_weighted_contract(model, f, g, r, r)
            if part.order == 0:
                plain_mean += coeff * part.entries.get((), 0.0)
            elif not part.is_zero():
                scaled = part.scaled(float(coeff))
                plain[part.order] = (
                    kernel_add(plain[part.order], scaled)
                    if part.order in plain
                    else scaled
                )
        # phi = 0 exactly at p = 1/2, so the l < r terms vanish exactly and
        # the two assemblies are bitwise identical.
        assert product.mean == plain_mean
        assert set(product.kernels) == {
            o for o, k in plain.items() if not k.is_zero()
        }
        for order, kernel in plain.items():
            assert product.kernel(order).entries == kernel.entries
    report("02 symmetric degeneration")


def test_criterion_03_operator_identities():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(100):
        size = rng.randint(2, 10)
        model = build_model([rng.uniform(0.05, 0.95) for _ in range(size)])
        expansion_f = ChaosExpansion(
            rng.uniform(-1, 1),
            {
                order: oracles.rand_kernel(rng, order, size, density=0.5)
                for order in (1, 2, 3)
                if order <= size and rng.random() < 0.9
            },
        )
        table_f = to_table(model, expansion_f)
        table_g = FunctionalTable(
            model,
            np.array([rng.uniform(-2, 2) for _ in range(model.num_outcomes)]),
        )

        # structure identity
        for k in range(1, size + 1):
            y = model.y_table(k)
            worst = max(
                worst, float(np.max(np.abs(y * y - 1.0 - model.phi[k - 1] * y)))
            )

        # isometry against enumeration
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        f = oracles.rand_kernel(rng, n, size)
        g = oracles.rand_kernel(rng, m, size)
        tf = to_table(model, ChaosExpansion(0.0, {n: f})).values
        tg = to_table(model, ChaosExpansion(0.0, {m: g})).values
        worst = max(
            worst,
            abs(
                stable_sum(model.outcome_weights * tf * tg)
                - covariance(model, f, g)
            ),
        )

        # adjointness
        u = GradientField(
            {
                k: ChaosExpansion(
                    rng.uniform(-1, 1),
                    {1: oracles.rand_kernel(rng, 1, size, density=0.5)},
                )
                for k in range(1, size + 1)
            }
        )
        lhs = stable_sum(
            model.outcome_weights
            * table_f.values
            * to_table(model, divergence(model, u)).values
        )
        rhs = stable_sum(
            stable_sum(
                model.outcome_weights
                * gradient_pathwise(model, table_f, k).values
                * to_table(model, u.components[k]).values
            )
            for k in range(1, size + 1)
        )
        worst = max(worst, abs(lhs - rhs))

        # L = -delta D, coefficientwise
        lhs_exp = ou_operator(expansion_f)
        delta_d = divergence(
            model,
            GradientField(
                {k: gradient_chaos(expansion_f, k) for k in range(1, size + 1)}
            ),
        )
        for order in set(lhs_exp.kernels) | set(delta_d.kernels):
            ka = lhs_exp.kernel(order)
            kb = delta_d.kernel(order)
            for key in set(ka.entries) | set(kb.entries):
                worst = max(
                    worst,
                    abs(ka.entries.get(key, 0.0) + kb.entries.get(key, 0.0)),
                )

        # integration by parts
        worst = max(worst, check_integration_by_parts(model, table_f, table_g))
    assert worst < 1e-10, f"max operator-identity residual {worst}"
    report("03 operator identities")


def test_criterion_04_chenstein_solver_exhaustive():
    lambdas = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
    worst_residual = 0.0
    worst_factor_excess = 0.0
    for lam in lambdas:
        factors = stein_factors(lam)
        k_max = max(truncation_point(lam, 10), 3)
        for mask in range(1 << 11):
            members = frozenset(k for k in range(11) if (mask >> k) & 1)
            sol = solve(lam, TargetSet(members), k_max)
            worst_residual = max(
                worst_residual, float(np.max(np.abs(sol.equation_residuals())))
            )
            worst_factor_excess = max(
                worst_factor_excess,
                float(np.max(np.abs(sol.values))) - factors.sup_bound,
                float(np.max(np.abs(forward_diff(sol)))) - factors.diff_bound,
                float(np.max(np.abs(second_forward_diff(sol))))
                - factors.second_diff_bound,
            )
    assert worst_residual < 1e-12, f"equation residual {worst_residual}"
    assert worst_factor_excess <= 1e-12, f"factor excess {worst_factor_excess}"
    report("04 Chen-Stein solver on exhaustive target sets")


def test_criterion_05a_j2_example_closed_forms():
    for n in range(2, 31):
        closed = j2_example(n)
        machinery = j2_example_machinery(n)
        for name in ("lam", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "total"):
            a, b = getattr(closed, name), getattr(machinery, name)
            if a == 0.0:
                assert abs(b) < 1e-25
            else:
                assert abs(a - b) / abs(a) < 1e-12
    report("05a closed forms match the contraction machinery")


def test_criterion_05b_rate_constant_up_to_ten_thousand():
    started = time.monotonic()
    for n in range(2, 10_001):
        record = j2_example(n)
        assert record.total * math.sqrt(n) <= J2_RATE_CONSTANT
    assert time.monotonic() - started < 120.0
    report("05b total * sqrt(n) below 5/2 + sqrt(2)")


@pytest.mark.known_failure
def test_criterion_05c_j2_example_exact_tv_dominated():
    """Faithful but deliberately failing: the example's law has no
    nonnegative-integer atoms, so its total variation distance to Po(lam) is
    exactly 1 for every n, while the closed-form total is far below 1."""
    failures = []
    for n in range(2, 13):
        record = j2_example(n)
        model, kernel = j2_example_kernel(n)
        table = to_table(model, ChaosExpansion(0.0, {2: kernel}))
        exact = tv_atoms_vs_poisson(atom_law(model, table.values), record.lam).value
        if exact > record.total + 1e-12:
            failures.append((n, exact, record.total))
    report("05c exact TV below the closed-form total", passed=not failures)
    assert not failures, (
        "the example functional is not integer-valued (values like +-1/4 at "
        "n=2), its law is disjoint from every Poisson law, and the exact "
        f"distance 1 exceeds the closed-form total: {failures[:3]}"
    )


def test_criterion_06_bernoulli_sums():
    rng = random.Random(606)
    for _ in range(50):
        size = rng.randint(1, 20)
        p = [rng.uniform(0.02, 0.8) for _ in range(size)]
        sum_p = math.fsum(p)
        dist = DistributionTable(oracles.poisson_binomial_pmf(p))
        for lam in (sum_p, 1.0, 2.0):
            closed = bernoulli_bound(p, lam)
            exact = tv_exact(dist, lam).value
            assert closed.total >= exact - 1e-12
        matched = bernoulli_bound(p, sum_p)
        cap = 3.0 * (1.0 - math.exp(-sum_p)) / sum_p * math.fsum(x * x for x in p)
        assert matched.total <= cap + 1e-12
    report("06 Bernoulli sums dominated and mean-matched inequality")


def test_criterion_07_domination_property():
    rng = random.Random(707)
    for _ in range(100):
        size = rng.randint(2, 12)
        model = build_model([rng.uniform(0.05, 0.95) for _ in range(size)])
        table = FunctionalTable(
            model, oracles.rand_integer_table(rng, model.num_outcomes)
        )
        lam = expectation(model, table)
        if lam <= 0.0:
            continue
        dist = distribution(model, table)
        exact_tv = tv_exact(dist, lam).value
        exact_w1 = w1_exact(dist, lam).value
        assert main_bound(model, table, lam).total >= exact_tv - 1e-12
        assert main_bound_reduced(model, table, lam).total >= exact_tv - 1e-12
        assert second_order_bound(model, table, lam).total >= exact_tv - 1e-12
        assert wasserstein_bound(model, table, lam).total >= exact_w1 - 1e-12
    report("07 bound domination on random integer functionals")


def test_criterion_07_negative_control_exit_code(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "model": {"p": [0.1] * 8},
                "functional": {"bernoulli": {}},
                "lambda": "mean",
                "bounds": ["main"],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert main(["bound", str(spec), "--out", str(out)]) == 0
    assert (
        main(
            [
                "bound",
                str(spec),
                "--inject-fault",
                "shrink-total",
                "--out",
                str(out),
            ]
        )
        == 4
    )
    report("07 negative control exit code 4")


def test_criterion_08_consistency_chain():
    rng = random.Random(808)
    # j1 equals the general bound on order-1 functionals
    for _ in range(10):
        size = rng.randint(2, 8)
        model = build_model([rng.uniform(0.1, 0.9) for _ in range(size)])
        f = Kernel(1, {(k,): model.sigma[k - 1] for k in range(1, size + 1)})
        shift = float(np.sum(model.p))
        table = to_table(model, ChaosExpansion(shift, {1: f}))
        lam = rng.uniform(0.2, 2.5)
        assert j1_bound(model, f, shift, lam).total == pytest.approx(
            main_bound(model, table, lam).total, abs=1e-10
        )
    # the general fixed-order bound at order 2 equals the explicit j2 form
    for _ in range(10):
        size = rng.randint(3, 7)
        p = [rng.uniform(0.1, 0.9) for _ in range(size)]
        model = build_model(p)
        f = oracles.rand_kernel(rng, 2, size)
        lam = rng.uniform(0.2, 2.5)
        shift = float(rng.randint(0, 3))
        assert jm_bound(model, f, shift, lam, check_integer=False).total == (
            pytest.approx(
                oracles.explicit_j2_bound(p, f, shift, lam)[1], abs=1e-10, rel=1e-10
            )
        )
    # the second-order bound collapses to the closed form on Bernoulli sums
    for _ in range(10):
        size = rng.randint(2, 8)
        model = build_model([rng.uniform(0.1, 0.9) for _ in range(size)])
        table = bernoulli_sum_table(model)
        lam = rng.uniform(0.2, 2.5)
        assert second_order_bound(model, table, lam).total == pytest.approx(
            bernoulli_bound(model.p, lam).total, abs=1e-10
        )
    report("08 consistency chain")


def test_criterion_09_mehler_and_poincare():
    rng = random.Random(909)
    for _ in range(100):
        size = rng.randint(2, 10)
        model = build_model([rng.uniform(0.05, 0.95) for _ in range(size)])
        table = FunctionalTable(
            model,
            np.array([rng.uniform(-2, 2) for _ in range(model.num_outcomes)]),
        )
        from radstein.chaos import decompose

        inverse_table = to_table(model, pseudo_inverse(decompose(model, table)))
        for m in (1, 2):
            ks = [rng.randint(1, size) for _ in range(m)]
            lhs_t = iterated_gradient(model, inverse_table, ks).values
            rhs_t = iterated_gradient(model, table, ks).values
            for alpha in (1, 2):
                lhs = stable_sum(model.outcome_weights * np.abs(lhs_t) ** alpha)
                rhs = stable_sum(model.outcome_weights * np.abs(rhs_t) ** alpha)
                assert lhs <= rhs + 1e-12
        energy = stable_sum(
            stable_sum(
                model.outcome_weights
                * gradient_pathwise(model, table, k).values ** 2
            )
            for k in range(1, size + 1)
        )
        assert variance(model, table) <= energy + 1e-12
    report("09 contraction and energy inequalities")


def test_criterion_10_reproducibility():
    from test_cli import run_subprocess

    verify_runs = [
        run_subprocess(["verify", "--seed", "5"], {"OMP_NUM_THREADS": t})
        for t in ("1", "8")
    ]
    assert verify_runs[0][0] == verify_runs[1][0] == 0
    assert verify_runs[0][1] == verify_runs[1][1]
    rate_runs = [
        run_subprocess(
            ["j2-rate", "--n-min", "2", "--n-max", "10"], {"OMP_NUM_THREADS": t}
        )
        for t in ("1", "8")
    ]
    assert rate_runs[0][0] == rate_runs[1][0]
    assert rate_runs[0][1] == rate_runs[1][1]
    assert len(verify_runs[0][1]) > 0 and len(rate_runs[0][1]) > 0
    report("10 byte-identical reports across runs and thread counts")
