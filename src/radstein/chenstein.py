"""Poisson law utilities and the Chen-Stein equation solver.

For a target set A and mean lambda the equation reads

    lambda f(k+1) - k f(k) = 1_A(k) - P(Po(lambda) in A),

with f(0) = 0 by convention.  f(k) is the prefix sum over j < k of
(1_A(j) - pi) t(j, k), t(j, k) = (k-1)! lambda^(j-k) / j!, for k up to
ceil(lambda) + 1, and minus the tail sum over j >= k above it (the full
series telescopes to zero).  The ratios t depend on lambda and k only, not on
A, so they are tabulated once per (lambda, k_max), each by the multiplications
of the downward or upward ratio recurrence along its row: no factorial is
formed and no forward recurrence amplifies rounding.  f(k) is the correctly
rounded sum (``model.run_sums``) of its row's products (1_A(j) - pi) * t(j, k),
so the order in which the terms come does not matter.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EnumerationCapExceeded, InvalidLambda, RangeTooShort
from .model import ENUMERATION_CAP, _frozen, _integer, run_sums, stable_sum

_TAIL_EPS = 1e-14
_TERM_EPS = 1e-22
_NORMAL_MIN = sys.float_info.min
# The most entries a Poisson range or a count array may have: as many as one
# value table at the enumeration cap.
_RANGE_LIMIT = 1 << ENUMERATION_CAP
# Ratio tables are built in blocks of about _BLOCK_TERMS grid cells; up to
# _CACHED_TABLES tables of at most _TABLE_TERMS terms (4 MiB) each are kept.
_BLOCK_TERMS = 1 << 16
_TABLE_TERMS = 1 << 18
_CACHED_TABLES = 8


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise InvalidLambda(f"Poisson mean must be positive and finite, got {lam!r}")
    return lam


def poisson_pmf(lam: float, k: int) -> float:
    """e^{-lam} lam^k / k!, evaluated in log space."""
    lam = _check_lambda(lam)
    k = _integer(k, "k")
    if k < 0:
        raise ValueError(f"Poisson support is nonnegative, got {k}")
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def poisson_pmf_vector(lam: float, k_max: int) -> np.ndarray:
    """pmf on 0..k_max as one array."""
    lam = _check_lambda(lam)
    k_max = _integer(k_max, "k_max")
    ks = np.arange(k_max + 1)
    with np.errstate(divide="ignore"):
        logs = -lam + ks * math.log(lam) - np.array(
            [math.lgamma(k + 1) for k in range(k_max + 1)]
        )
    return np.exp(logs)


def poisson_tail(lam: float, k: int) -> float:
    """P(Po(lam) >= k): the pmf summed upward until terms vanish, from the
    first j >= k whose pmf is a normal float.  Below lam the pmf rises in j,
    so where e^-lam underflows that j is found by bisection; each term
    skipped is below 2^-1022."""
    lam = _check_lambda(lam)
    k = _integer(k, "k")
    if k <= 0:
        return 1.0
    t, j, top = poisson_pmf(lam, k), k, math.floor(lam)
    if t < _NORMAL_MIN and k < top and poisson_pmf(lam, top) >= _NORMAL_MIN:
        while top - j > 1:
            mid = (j + top) // 2
            j, top = (mid, top) if poisson_pmf(lam, mid) < _NORMAL_MIN else (j, mid)
        j, t = top, poisson_pmf(lam, top)
    terms = []
    while t > 0.0 and (j <= lam or t > _TERM_EPS * 1e-3):
        terms.append(t)
        j += 1
        t *= lam / j
    return min(1.0, stable_sum(terms))


def _check_range(top, lam: float, value: int, name="largest support value") -> None:
    """Raise EnumerationCapExceeded unless a range 0..top fits _RANGE_LIMIT."""
    if top >= _RANGE_LIMIT:
        raise EnumerationCapExceeded(
            f"lambda = {lam!r} and {name} {value} need a range of more than "
            f"{_RANGE_LIMIT} = 2^{ENUMERATION_CAP} entries"
        )


def truncation_point(lam: float, support_max: int = 0) -> int:
    """Smallest k with Poisson tail mass beyond k below 1e-14, at least
    max(support_max, 10 lam, 10); the range 0..k must fit _RANGE_LIMIT."""
    lam = _check_lambda(lam)
    support_max = _integer(support_max, "support_max")
    _check_range(max(support_max, 10 * lam), lam, support_max)
    k = max(support_max, math.ceil(10 * lam), 10)
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
        members = frozenset(_integer(k, "target member") for k in self.members)
        if any(k < 0 for k in members):
            raise ValueError("target sets live on the nonnegative integers")
        if self.tail_start is not None:
            tail = _integer(self.tail_start, "tail_start")
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

    def _indicator(self, lo: int, span: int) -> np.ndarray:
        """1_A(j) for j = lo..lo+span-1."""
        ind = np.zeros(span)
        ind[[k - lo for k in self.members if lo <= k < lo + span]] = 1.0
        if self.tail_start is not None:
            ind[max(self.tail_start - lo, 0) :] = 1.0
        return ind


def poisson_set_prob(lam: float, target: TargetSet) -> float:
    """P(Po(lam) in A) with exact tail handling."""
    lam = _check_lambda(lam)
    terms = [poisson_pmf(lam, k) for k in sorted(target.members)]
    if target.tail_start is not None:
        terms.append(poisson_tail(lam, target.tail_start))
    return min(1.0, stable_sum(terms))


@dataclass(frozen=True, eq=False)
class SteinSolution:
    """Tabulated solution f_{lam,A} on 0..k_max, with f(0) = 0."""

    lam: float
    target: TargetSet
    k_max: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.k_max + 1,):
            raise ValueError("values must cover 0..k_max")
        object.__setattr__(self, "values", _frozen(v))

    @cached_property
    def set_probability(self) -> float:
        return poisson_set_prob(self.lam, self.target)

    def equation_residuals(self) -> np.ndarray:
        """lam f(k+1) - k f(k) - (1_A(k) - P(Po in A)) over 0..k_max-1."""
        ks = np.arange(self.k_max)
        ind = self.target._indicator(0, self.k_max)
        return (
            self.lam * self.values[1:]
            - ks * self.values[:-1]
            - (ind - self.set_probability)
        )


def _table_blocks(lam: float, k_max: int):
    """Rows k = 1..k_max of the ratio table, in blocks (k, lo, span, edges,
    cols - lo, ratios) of consecutive rows, row i holding terms edges[i] to
    edges[i+1]-1, each block run along a grid of about _BLOCK_TERMS cells that
    is widened until every row has ended."""
    switch = min(math.ceil(lam) + 1, k_max)
    k, width = 1, switch + 1
    while k <= k_max:
        tail = k > switch
        stop = (k_max if tail else switch) + 1
        ks = np.arange(k, min(k + max(1, _BLOCK_TERMS // width), stop))[:, None]
        # prefix: t = 1/lam at j = k-1, then t *= j/lam down to j = 0; tail:
        # t = 1/k at j = k, then j += 1 and t *= lam/j while the rule holds
        cols = ks + np.arange(width) if tail else ks - 1 - np.arange(width)
        steps = lam / cols if tail else (cols + 1) / lam
        steps[:, :1] = 1.0 / ks if tail else 1.0 / lam
        ratios = np.multiply.accumulate(steps, axis=1)
        going = (ratios > _TERM_EPS) | (cols <= lam + 1)
        keep = np.logical_and.accumulate(going, axis=1) & (cols >= 0)
        if keep[:, -1].any():  # a row may run on past the grid
            width *= 2
            continue
        lo, lengths, cols = k if tail else 0, keep.sum(axis=1), cols[keep]
        edges = np.concatenate(([0], lengths.cumsum()))
        yield k, lo, int(cols.max()) + 1 - lo, edges, cols - lo, ratios[keep]
        k, width = int(ks[-1, 0]) + 1, int(lengths.max()) + 1 if tail else width


@lru_cache(maxsize=_CACHED_TABLES)
def _cached_table(lam: float, k_max: int) -> list | None:
    """The blocks of _table_blocks if they hold at most _TABLE_TERMS terms."""
    blocks, size = [], 0
    for block in _table_blocks(lam, k_max):
        blocks.append(block)
        size += block[-1].size
        if size > _TABLE_TERMS:
            return None
    return blocks


def solve(lam: float, target: TargetSet, k_max: int) -> SteinSolution:
    """Tabulate the bounded solution of the Chen-Stein equation on 0..k_max."""
    lam = _check_lambda(lam)
    k_max = _integer(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    _check_range(k_max, lam, k_max, "k_max")
    pi = poisson_set_prob(lam, target)
    values = np.zeros(k_max + 1)
    blocks = _cached_table(lam, k_max) or _table_blocks(lam, k_max)
    for k, lo, span, edges, cols, ratios in blocks:
        terms = (target._indicator(lo, span) - pi)[cols] * ratios
        sums = run_sums(terms, edges[:-1].tolist(), edges[1:].tolist())
        values[k : k + len(sums)] = sums
    values[math.ceil(lam) + 2 :] *= -1.0  # tail rows: f(k) = -sum over j >= k
    solution = SteinSolution(lam, target, k_max, values)
    solution.__dict__["set_probability"] = pi  # as the cached property stores it
    return solution


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
