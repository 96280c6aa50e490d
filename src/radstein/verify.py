"""Seeded identity suites: every structural identity the package relies on,
rechecked by exhaustive enumeration over random instances.

Each suite yields one residual per random instance (or per quantity of one).
The table ``_CHECKS`` holds every check's name, tolerance and suite in run
order; one runner reports each check's worst residual against its tolerance,
and a failing ``product_formula`` names its worst instance as the witness.
The ``corrupt`` hook deliberately perturbs one computation so the
negative-control path (nonzero exit naming the failing check) can be
exercised end to end.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosExpansion, covariance, multiply, to_table
from .chenstein import TargetSet, forward_diff, second_forward_diff, solve
from .chenstein import stein_factors, truncation_point
from .kernels import Kernel
from .malliavin import GradientField, _gradient_pairing, check_integration_by_parts
from .malliavin import divergence, gradient_chaos, gradient_pathwise
from .malliavin import iterated_gradient, ou_operator, pseudo_inverse_table
from .model import FunctionalTable, ProbabilityModel, build_model, expectation
from .model import stable_sum, variance

CORRUPTION_TAGS = ("product_formula",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    witness: dict | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witness": self.witness,
        }


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
    return [list(pair) for pair in sorted(zip((f.keys + 1).tolist(), f.values.tolist()))]


def _kernel_table(model: ProbabilityModel, f: Kernel) -> np.ndarray:
    """The values of the single multiple integral J_n(f) on every outcome."""
    return to_table(model, ChaosExpansion(0.0, {f.order: f})).values


def _random_pair(rng: random.Random) -> tuple:
    """A model with N <= 7 and kernels f, g of random orders n, m <= 3."""
    model = random_model(rng, max_size=7)
    n = rng.randint(1, min(3, model.size))
    m = rng.randint(1, min(3, model.size))
    return model, random_kernel(rng, n, model.size), random_kernel(rng, m, model.size)


def _structure_identity(rng: random.Random):
    for _ in range(10):
        model = random_model(rng)
        for k in range(1, model.size + 1):
            y = model.y_table(k)
            yield float(np.max(np.abs(y * y - 1.0 - model.phi[k - 1] * y)))


def _product_formula(rng: random.Random, corrupt: bool):
    for _ in range(12):
        model, f, g = _random_pair(rng)
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
        lhs = _kernel_table(model, f) * _kernel_table(model, g)
        gap = np.abs(lhs - to_table(model, product).values)
        yield float(np.max(gap)), {
            "orders": [f.order, g.order],
            "p": model.p.tolist(),
            "f": _kernel_payload(f),
            "g": _kernel_payload(g),
            "outcome": int(np.argmax(gap)),
        }


def _isometry(rng: random.Random):
    for _ in range(12):
        model, f, g = _random_pair(rng)
        by_enum = stable_sum(
            model.outcome_weights * _kernel_table(model, f) * _kernel_table(model, g)
        )
        yield abs(by_enum - covariance(model, f, g))


def _adjointness(rng: random.Random):
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
        ks = range(1, model.size + 1)
        rhs = _gradient_pairing(
            model,
            (gradient_pathwise(model, f_table, k).values for k in ks),
            (to_table(model, u.components[k]).values for k in ks),
        )
        yield abs(lhs - rhs)


def _expansion_gap(a: ChaosExpansion, b: ChaosExpansion) -> float:
    """The largest |a - b| over the means and the kernel coefficients, each
    held at its index set's bitmask (the orders' masks are disjoint)."""
    size = max(a.max_index(), b.max_index())

    def coefficients(e: ChaosExpansion) -> np.ndarray:
        c = np.zeros(1 << size)
        c[0] = e.mean
        for f in e.kernels.values():
            c[(1 << f.keys).sum(axis=1)] = f.values
        return c

    return float(np.abs(coefficients(a) - coefficients(b)).max())


def _l_equals_minus_delta_d(rng: random.Random):
    for _ in range(10):
        model = random_model(rng, max_size=6, min_size=3)
        expansion = random_expansion(
            rng, model.size, max_order=min(3, model.size - 1)
        )
        field_u = GradientField(
            {k: gradient_chaos(expansion, k) for k in range(1, model.size + 1)}
        )
        rhs = divergence(model, field_u)
        negated = ChaosExpansion(
            -rhs.mean, {o: k.scaled(-1.0) for o, k in rhs.kernels.items()}
        )
        yield _expansion_gap(ou_operator(expansion), negated)


def _integration_by_parts(rng: random.Random):
    for _ in range(10):
        model = random_model(rng, max_size=7)
        f = to_table(model, random_expansion(rng, model.size))
        g = to_table(model, random_expansion(rng, model.size))
        yield check_integration_by_parts(model, f, g)


def _random_target(rng: random.Random) -> TargetSet:
    members = frozenset(k for k in range(13) if rng.random() < 0.4)
    tail = rng.choice([None, None, None, rng.randint(0, 15)])
    return TargetSet(members, tail)


_LAMBDAS = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)


def _chenstein_equation(rng: random.Random):
    for lam in _LAMBDAS:
        for _ in range(6):
            solution = solve(lam, _random_target(rng), truncation_point(lam, 12))
            yield float(np.max(np.abs(solution.equation_residuals())))


def _stein_factors(rng: random.Random):
    """sup|f|, sup|delta f| and sup|delta^2 f| less their factors; the factor
    2(1 - e^{-lam})/lam never exceeds the alternative 2/lam, so it is the
    one held to."""
    for lam in _LAMBDAS:
        factors = stein_factors(lam)
        for _ in range(6):
            target = _random_target(rng)
            solution = solve(lam, target, max(truncation_point(lam, 12), 3))
            yield float(np.max(np.abs(solution.values))) - factors.sup_bound
            yield float(np.max(np.abs(forward_diff(solution)))) - factors.diff_bound
            second = float(np.max(np.abs(second_forward_diff(solution))))
            yield second - factors.second_diff_bound


def _mehler(rng: random.Random):
    """E|D^m L^{-1} F|^alpha less E|D^m F|^alpha, for m, alpha in {1, 2}."""
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
                lhs, rhs = (
                    expectation(model, FunctionalTable(model, np.abs(t.values) ** alpha))
                    for t in (lhs_tab, rhs_tab)
                )
                yield lhs - rhs


def _poincare(rng: random.Random):
    """Var F less sum_k E[(D_k F)^2]."""
    for _ in range(10):
        model = random_model(rng, max_size=7)
        table = to_table(model, random_expansion(rng, model.size))
        energy = stable_sum(
            stable_sum(
                model.outcome_weights * gradient_pathwise(model, table, k).values ** 2
            )
            for k in range(1, model.size + 1)
        )
        yield variance(model, table) - energy


# The checks in run order: name -> (tolerance, suite).  A suite yields its
# residuals, or (residual, instance) pairs; the one-sided inequalities yield
# the raw difference, and the worst residual starts from 0.0.
_CHECKS = {
    "structure_identity": (1e-12, _structure_identity),
    "product_formula": (1e-10, _product_formula),
    "isometry": (1e-10, _isometry),
    "adjointness": (1e-10, _adjointness),
    "l_equals_minus_delta_d": (1e-10, _l_equals_minus_delta_d),
    "integration_by_parts": (1e-10, _integration_by_parts),
    "chenstein_equation": (1e-12, _chenstein_equation),
    "stein_factors": (1e-12, _stein_factors),
    "mehler_inequality": (1e-12, _mehler),
    "poincare_inequality": (1e-12, _poincare),
}


def _run_check(name: str, tolerance: float, residuals) -> CheckResult:
    """The worst residual against the tolerance; a failing check names the
    instance of its worst residual as its witness, where the suite gives one."""
    worst, witness = 0.0, None
    for item in residuals:
        resid, instance = item if type(item) is tuple else (item, None)
        if resid > worst:
            worst, witness = resid, instance
    passed = worst <= tolerance
    return CheckResult(name, worst, tolerance, passed, None if passed else witness)


def run_verification(seed: int = 0, corrupt: str | None = None) -> VerificationReport:
    """Run every identity suite with a fixed seed; deterministic output."""
    if corrupt is not None and corrupt not in CORRUPTION_TAGS:
        raise ValueError(f"unknown corruption tag {corrupt!r}")
    rng = random.Random(seed)
    checks = tuple(
        _run_check(
            name,
            tolerance,
            suite(rng, corrupt == name) if name in CORRUPTION_TAGS else suite(rng),
        )
        for name, (tolerance, suite) in _CHECKS.items()
    )
    return VerificationReport(
        seed=seed, checks=checks, passed=all(c.passed for c in checks)
    )
