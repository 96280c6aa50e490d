"""Seeded identity suites: every structural identity the package relies on,
rechecked by exhaustive enumeration over random instances.

Each check reports its maximal residual against a fixed tolerance.  The
``corrupt`` hook deliberately perturbs one computation so the negative-control
path (nonzero exit naming the failing check) can be exercised end to end.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .chaos import (
    ChaosExpansion,
    covariance,
    multiply,
    to_table,
)
from .chenstein import (
    TargetSet,
    forward_diff,
    second_forward_diff,
    solve,
    stein_factors,
    truncation_point,
)
from .kernels import Kernel
from .malliavin import (
    GradientField,
    check_integration_by_parts,
    divergence,
    gradient_chaos,
    gradient_pathwise,
    iterated_gradient,
    ou_operator,
    pseudo_inverse_table,
)
from .model import (
    FunctionalTable,
    ProbabilityModel,
    build_model,
    expectation,
    stable_sum,
    variance,
)

CORRUPTION_TAGS = ("product_formula",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    witness: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: tuple
    passed: bool

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)


def random_model(rng: random.Random, max_size: int = 8, min_size: int = 2) -> ProbabilityModel:
    n = rng.randint(min_size, max_size)
    return build_model([rng.uniform(0.05, 0.95) for _ in range(n)])


def random_kernel(
    rng: random.Random, order: int, size: int, density: float = 0.6
) -> Kernel:
    entries = {}
    for key in itertools.combinations(range(1, size + 1), order):
        if rng.random() < density:
            entries[key] = rng.uniform(-1.0, 1.0)
    if not entries and order <= size:
        key = tuple(sorted(rng.sample(range(1, size + 1), order)))
        entries[key] = rng.uniform(0.2, 1.0)
    return Kernel(order, entries)


def random_expansion(
    rng: random.Random, size: int, max_order: int = 3, density: float = 0.4
) -> ChaosExpansion:
    kernels = {}
    for order in range(1, min(max_order, size) + 1):
        if rng.random() < 0.8:
            kernels[order] = random_kernel(rng, order, size, density)
    return ChaosExpansion(rng.uniform(-1.0, 1.0), kernels)


def _kernel_payload(f: Kernel) -> list:
    return [[list(key), value] for key, value in sorted(f.entries.items())]


def _check_structure_identity(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        model = random_model(rng)
        for k in range(1, model.size + 1):
            y = model.y_table(k)
            resid = np.max(np.abs(y * y - 1.0 - model.phi[k - 1] * y))
            worst = max(worst, float(resid))
    return CheckResult("structure_identity", worst, 1e-12, worst <= 1e-12)


def _check_product_formula(rng: random.Random, corrupt: bool) -> CheckResult:
    worst = 0.0
    witness = None
    for _ in range(12):
        model = random_model(rng, max_size=7)
        n = rng.randint(1, min(3, model.size))
        m = rng.randint(1, min(3, model.size))
        f = random_kernel(rng, n, model.size)
        g = random_kernel(rng, m, model.size)
        product = multiply(model, f, g)
        if corrupt and product.kernels:
            top = max(product.kernels)
            product = ChaosExpansion(
                product.mean,
                {
                    o: (k.scaled(1.001) if o == top else k)
                    for o, k in product.kernels.items()
                },
            )
        lhs = (
            to_table(model, ChaosExpansion(0.0, {n: f})).values
            * to_table(model, ChaosExpansion(0.0, {m: g})).values
        )
        rhs = to_table(model, product).values
        resid = float(np.max(np.abs(lhs - rhs)))
        if resid > worst:
            worst = resid
            witness = {
                "orders": [n, m],
                "p": model.p.tolist(),
                "f": _kernel_payload(f),
                "g": _kernel_payload(g),
                "outcome": int(np.argmax(np.abs(lhs - rhs))),
            }
    passed = worst <= 1e-10
    return CheckResult(
        "product_formula", worst, 1e-10, passed, witness if not passed else None
    )


def _check_isometry(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(12):
        model = random_model(rng, max_size=7)
        n = rng.randint(1, min(3, model.size))
        m = rng.randint(1, min(3, model.size))
        f = random_kernel(rng, n, model.size)
        g = random_kernel(rng, m, model.size)
        tf = to_table(model, ChaosExpansion(0.0, {n: f}))
        tg = to_table(model, ChaosExpansion(0.0, {m: g}))
        by_enum = stable_sum(model.outcome_weights * tf.values * tg.values)
        resid = abs(by_enum - covariance(model, f, g))
        worst = max(worst, resid)
    return CheckResult("isometry", worst, 1e-10, worst <= 1e-10)


def _check_adjointness(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        model = random_model(rng, max_size=6, min_size=3)
        f_table = to_table(model, random_expansion(rng, model.size))
        u = GradientField(
            {
                k: random_expansion(rng, model.size, max_order=min(2, model.size - 1))
                for k in range(1, model.size + 1)
            }
        )
        delta_table = to_table(model, divergence(model, u))
        lhs = stable_sum(model.outcome_weights * f_table.values * delta_table.values)
        rhs = stable_sum(
            stable_sum(
                model.outcome_weights
                * gradient_pathwise(model, f_table, k).values
                * to_table(model, u.components[k]).values
            )
            for k in range(1, model.size + 1)
        )
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("adjointness", worst, 1e-10, worst <= 1e-10)


def _expansion_gap(a: ChaosExpansion, b: ChaosExpansion) -> float:
    gap = abs(a.mean - b.mean)
    for order in set(a.kernels) | set(b.kernels):
        ka, kb = a.kernel(order), b.kernel(order)
        for key in set(ka.entries) | set(kb.entries):
            gap = max(gap, abs(ka.entries.get(key, 0.0) - kb.entries.get(key, 0.0)))
    return gap


def _check_l_equals_minus_delta_d(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        model = random_model(rng, max_size=6, min_size=3)
        expansion = random_expansion(
            rng, model.size, max_order=min(3, model.size - 1)
        )
        lhs = ou_operator(expansion)
        field_u = GradientField(
            {
                k: gradient_chaos(expansion, k)
                for k in range(1, model.size + 1)
            }
        )
        rhs = divergence(model, field_u)
        negated = ChaosExpansion(
            -rhs.mean, {o: k.scaled(-1.0) for o, k in rhs.kernels.items()}
        )
        worst = max(worst, _expansion_gap(lhs, negated))
    return CheckResult("l_equals_minus_delta_d", worst, 1e-10, worst <= 1e-10)


def _check_integration_by_parts(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        model = random_model(rng, max_size=7)
        f = to_table(model, random_expansion(rng, model.size))
        g = to_table(model, random_expansion(rng, model.size))
        worst = max(worst, check_integration_by_parts(model, f, g))
    return CheckResult("integration_by_parts", worst, 1e-10, worst <= 1e-10)


def _random_target(rng: random.Random) -> TargetSet:
    members = frozenset(k for k in range(13) if rng.random() < 0.4)
    tail = rng.choice([None, None, None, rng.randint(0, 15)])
    return TargetSet(members, tail)


def _check_chenstein_equation(rng: random.Random) -> CheckResult:
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        for _ in range(6):
            target = _random_target(rng)
            solution = solve(lam, target, truncation_point(lam, 12))
            worst = max(worst, float(np.max(np.abs(solution.equation_residuals()))))
    return CheckResult("chenstein_equation", worst, 1e-12, worst <= 1e-12)


def _check_stein_factors(rng: random.Random) -> CheckResult:
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        factors = stein_factors(lam)
        for _ in range(6):
            target = _random_target(rng)
            solution = solve(lam, target, max(truncation_point(lam, 12), 3))
            worst = max(
                worst,
                float(np.max(np.abs(solution.values))) - factors.sup_bound,
                float(np.max(np.abs(forward_diff(solution)))) - factors.diff_bound,
                float(np.max(np.abs(second_forward_diff(solution))))
                - min(factors.second_diff_bound, factors.second_diff_alternative),
            )
    worst = max(worst, 0.0)
    return CheckResult("stein_factors", worst, 1e-12, worst <= 1e-12)


def _check_mehler(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(8):
        model = random_model(rng, max_size=6, min_size=3)
        expansion = random_expansion(rng, model.size, max_order=min(3, model.size))
        table = to_table(model, expansion)
        inverse_table = pseudo_inverse_table(model, table)
        for m in (1, 2):
            ks = [rng.randint(1, model.size) for _ in range(m)]
            lhs_tab = iterated_gradient(model, inverse_table, ks)
            rhs_tab = iterated_gradient(model, table, ks)
            for alpha in (1, 2):
                lhs = expectation(
                    model, FunctionalTable(model, np.abs(lhs_tab.values) ** alpha)
                )
                rhs = expectation(
                    model, FunctionalTable(model, np.abs(rhs_tab.values) ** alpha)
                )
                worst = max(worst, lhs - rhs)
    worst = max(worst, 0.0)
    return CheckResult("mehler_inequality", worst, 1e-12, worst <= 1e-12)


def _check_poincare(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        model = random_model(rng, max_size=7)
        table = to_table(model, random_expansion(rng, model.size))
        energy = stable_sum(
            stable_sum(
                model.outcome_weights * gradient_pathwise(model, table, k).values ** 2
            )
            for k in range(1, model.size + 1)
        )
        worst = max(worst, variance(model, table) - energy)
    worst = max(worst, 0.0)
    return CheckResult("poincare_inequality", worst, 1e-12, worst <= 1e-12)


def run_verification(seed: int = 0, corrupt: str | None = None) -> VerificationReport:
    """Run every identity suite with a fixed seed; deterministic output."""
    if corrupt is not None and corrupt not in CORRUPTION_TAGS:
        raise ValueError(f"unknown corruption tag {corrupt!r}")
    rng = random.Random(seed)
    checks = (
        _check_structure_identity(rng),
        _check_product_formula(rng, corrupt == "product_formula"),
        _check_isometry(rng),
        _check_adjointness(rng),
        _check_l_equals_minus_delta_d(rng),
        _check_integration_by_parts(rng),
        _check_chenstein_equation(rng),
        _check_stein_factors(rng),
        _check_mehler(rng),
        _check_poincare(rng),
    )
    return VerificationReport(
        seed=seed, checks=checks, passed=all(c.passed for c in checks)
    )
