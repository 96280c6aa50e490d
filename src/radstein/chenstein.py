"""Poisson law utilities and the Chen-Stein equation solver.

For a target set A and mean lambda the equation reads

    lambda f(k+1) - k f(k) = 1_A(k) - P(Po(lambda) in A),

with f(0) = 0 by convention.  The tabulation evaluates the closed-form
solution per k, via the prefix sum for k below the mean and the equivalent
tail sum above it (the two agree because the full series telescopes to zero).
Both variants generate terms by downward/upward ratio recurrences inside the
floating range, so no factorial is ever formed and no forward recurrence can
amplify rounding error across the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidLambda, RangeTooShort
from .model import stable_sum

_TAIL_EPS = 1e-14
_TERM_EPS = 1e-22


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise InvalidLambda(f"Poisson mean must be positive and finite, got {lam!r}")
    return lam


def poisson_log_pmf(lam: float, k: int) -> float:
    lam = _check_lambda(lam)
    if k < 0:
        raise ValueError(f"Poisson support is nonnegative, got {k}")
    return -lam + k * math.log(lam) - math.lgamma(k + 1)


def poisson_pmf(lam: float, k: int) -> float:
    """e^{-lam} lam^k / k!, evaluated in log space."""
    return math.exp(poisson_log_pmf(lam, k))


def poisson_pmf_vector(lam: float, k_max: int) -> np.ndarray:
    """pmf on 0..k_max as one array."""
    lam = _check_lambda(lam)
    ks = np.arange(k_max + 1)
    with np.errstate(divide="ignore"):
        logs = -lam + ks * math.log(lam) - np.array(
            [math.lgamma(k + 1) for k in range(k_max + 1)]
        )
    return np.exp(logs)


def poisson_tail(lam: float, k: int) -> float:
    """P(Po(lam) >= k), summed upward until terms vanish."""
    lam = _check_lambda(lam)
    if k <= 0:
        return 1.0
    terms = []
    t = poisson_pmf(lam, k)
    j = k
    while t > 0.0 and (j <= lam or t > _TERM_EPS * 1e-3):
        terms.append(t)
        j += 1
        t *= lam / j
    return min(1.0, stable_sum(terms))


def truncation_point(lam: float, support_max: int = 0) -> int:
    """Smallest k with Poisson tail mass beyond k below 1e-14, at least
    max(support_max, 10 lam, 10)."""
    lam = _check_lambda(lam)
    k = max(int(support_max), math.ceil(10 * lam), 10)
    while poisson_tail(lam, k + 1) >= _TAIL_EPS:
        k += 1
    return k


@dataclass(frozen=True)
class TargetSet:
    """A subset of the nonnegative integers: finite members plus an optional
    cofinite tail [tail_start, infinity)."""

    members: frozenset = frozenset()
    tail_start: int | None = None

    def __post_init__(self):
        members = frozenset(int(k) for k in self.members)
        if any(k < 0 for k in members):
            raise ValueError("target sets live on the nonnegative integers")
        if self.tail_start is not None:
            tail = int(self.tail_start)
            if tail < 0:
                raise ValueError("tail must start at a nonnegative integer")
            members = frozenset(k for k in members if k < tail)
            object.__setattr__(self, "tail_start", tail)
        object.__setattr__(self, "members", members)

    @classmethod
    def naturals(cls) -> "TargetSet":
        return cls(frozenset(), 0)

    def contains(self, k: int) -> bool:
        return k in self.members or (
            self.tail_start is not None and k >= self.tail_start
        )


def poisson_set_prob(lam: float, target: TargetSet) -> float:
    """P(Po(lam) in A) with exact tail handling."""
    lam = _check_lambda(lam)
    total = stable_sum(poisson_pmf(lam, k) for k in sorted(target.members))
    if target.tail_start is not None:
        total += poisson_tail(lam, target.tail_start)
    return min(1.0, total)


@dataclass(frozen=True, eq=False)
class SteinSolution:
    """Tabulated solution f_{lam,A} on 0..k_max, with f(0) = 0."""

    lam: float
    target: TargetSet
    k_max: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.k_max + 1,):
            raise ValueError("values must cover 0..k_max")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @cached_property
    def set_probability(self) -> float:
        return poisson_set_prob(self.lam, self.target)

    def equation_residuals(self) -> np.ndarray:
        """lam f(k+1) - k f(k) - (1_A(k) - P(Po in A)) over 0..k_max-1."""
        ks = np.arange(self.k_max)
        ind = np.array([1.0 if self.target.contains(int(k)) else 0.0 for k in ks])
        return (
            self.lam * self.values[1:]
            - ks * self.values[:-1]
            - (ind - self.set_probability)
        )


def _solve_prefix(lam: float, target: TargetSet, pi: float, k: int) -> float:
    # f(k) = sum_{j<k} (1_A(j) - pi) * (k-1)! lam^{j-k} / j!, largest term last
    terms = []
    t = 1.0 / lam
    for j in range(k - 1, -1, -1):
        b = (1.0 if target.contains(j) else 0.0) - pi
        terms.append(b * t)
        t *= j / lam
    return stable_sum(terms)


def _solve_tail(lam: float, target: TargetSet, pi: float, k: int) -> float:
    # f(k) = -sum_{j>=k} (1_A(j) - pi) * (k-1)! lam^{j-k} / j!, terms decay
    terms = []
    t = 1.0 / k
    j = k
    while t > _TERM_EPS or j <= lam + 1:
        b = (1.0 if target.contains(j) else 0.0) - pi
        terms.append(b * t)
        j += 1
        t *= lam / j
    return -stable_sum(terms)


def solve(lam: float, target: TargetSet, k_max: int) -> SteinSolution:
    """Tabulate the bounded solution of the Chen-Stein equation on 0..k_max."""
    lam = _check_lambda(lam)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    pi = poisson_set_prob(lam, target)
    switch = math.ceil(lam) + 1
    values = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        values[k] = (
            _solve_prefix(lam, target, pi, k)
            if k <= switch
            else _solve_tail(lam, target, pi, k)
        )
    return SteinSolution(lam, target, k_max, values)


def forward_diff(solution: SteinSolution) -> np.ndarray:
    """First forward difference f(k+1) - f(k) on 0..k_max-1."""
    if solution.k_max < 2:
        raise RangeTooShort("need k_max >= 2 for a forward difference")
    return np.diff(solution.values)


def second_forward_diff(solution: SteinSolution) -> np.ndarray:
    """Second forward difference on 0..k_max-2."""
    if solution.k_max < 3:
        raise RangeTooShort("need k_max >= 3 for a second forward difference")
    return np.diff(solution.values, n=2)


@dataclass(frozen=True)
class SteinFactors:
    """Uniform bounds on sup|f|, sup|delta f| and sup|delta^2 f|."""

    sup_bound: float
    diff_bound: float
    second_diff_bound: float
    second_diff_alternative: float


def stein_factors(lam: float) -> SteinFactors:
    """The classical factors; the bound computations use 2(1-e^{-lam})/lam,
    while 2/lam is exposed as the alternative second-difference bound."""
    lam = _check_lambda(lam)
    one_minus = -math.expm1(-lam)
    return SteinFactors(
        sup_bound=min(1.0, math.sqrt(2.0 / (math.e * lam))),
        diff_bound=one_minus / lam,
        second_diff_bound=2.0 * one_minus / lam,
        second_diff_alternative=2.0 / lam,
    )
