"""Finite biased Rademacher model and exact enumeration of its sample space.

Coordinates are 1-based in every public signature.  Internally an outcome is a
bitmask ``idx`` in ``0..2^N-1`` where bit ``k-1`` set means coordinate ``k``
equals +1; outcomes are always iterated by ascending bitmask.

Sums are correctly rounded, by this module alone: :func:`stable_sum`,
:func:`stable_sums` (per row), :func:`run_sums` (per run) and
:func:`sums_by_key` (per key) return the bits of ``math.fsum`` over each sum's
terms.  Arrays are summed exactly per (row, binary exponent) with
``np.bincount`` over the high 27 and the low 26 bits of each significand; the
bins add up exactly to the row's sum, and one ``math.fsum`` over them rounds
it once.  ``math.fsum`` runs on the values themselves for short input (rows
or runs below 512 values, or fewer than 2048 values in all), non-finite input
and input with an exponent outside +-990.  A key of one or two values whose
IEEE sum is finite and nonzero takes that sum, which is the correctly
rounded one.

The package's other value rules live here too: a model derives its arrays
once from the validated p, and models and tables hold them read-only
(:func:`_frozen`); :func:`_integer` is the integer rule for indices, orders
and counts (numpy integers pass, 1.5 and bools raise); :func:`_check_table`
matches a table to a model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyModel,
    EnumerationCapExceeded,
    IndexOutOfRange,
    LengthMismatch,
    NonIntegerValue,
    OutOfRangeProbability,
)

ENUMERATION_CAP = 24
INTEGER_TOLERANCE = 1e-9
# Integers that are counted (pmf keys, Monte Carlo counts) stay below 2^53.
COUNT_LIMIT = 2.0**53


# stable_sums bins each row by binary exponent.  frexp writes x = m 2^e with
# 0.5 <= |m| < 1 and a 53-bit m, so m 2^27 = hi + lo with hi an integer of
# magnitude at most 2^27 and lo a multiple of 2^-26 in [0, 1).  A block holds
# at most SUM_BLOCK (< 2^26) values, so the sums of hi and of lo per (row, e)
# are exact in binary64, and so are those sums scaled by 2^(e-27) while |e|
# stays within _BINNED_EXPONENT: no overflow, and no bit falls below the
# subnormal range.
_BINNED_MIN_ROW = 512  # for shorter rows, or fewer values in all, fsum
_BINNED_MIN_SIZE = 2048  # over tolist() is faster
_BINNED_EXPONENT = 990
# Values per block of stable_sums and per batch fed to it: 2^14 keeps a
# block's temporaries in a core's L2 cache, and ran faster than 2^13 or 2^16.
SUM_BLOCK = 1 << 14


def stable_sum(values) -> float:
    """Correctly rounded sum of floats, independent of ordering and chunking:
    the bits of ``math.fsum(values)``.  A 1-D float64 array goes through
    :func:`stable_sums`; anything else goes to ``math.fsum`` as it is."""
    if type(values) is np.ndarray and values.ndim == 1 and values.dtype == np.float64:
        return stable_sums(values[None, :])[0]
    return math.fsum(values)


def stable_sums(rows) -> list:
    """Correctly rounded sum of each row of a 2-D float array, exactly
    ``[math.fsum(r) for r in rows.tolist()]``.

    Each row's values are split into exact per-exponent bins (see
    ``_exponent_bins``), which add up exactly to the row's sum, so one
    ``math.fsum`` over a row's 2 x (exponent span) bin values rounds that sum
    once, correctly, like ``math.fsum`` over the row.  The work goes in blocks
    of at most 2^14 values.  ``math.fsum`` sums the rows directly when they
    are shorter than 512 values or hold fewer than 2048 in all (it is faster
    there), when a value is non-finite, and when a binary exponent lies
    outside +-990 (where a scaled bin could round).
    """
    rows = np.asarray(rows, dtype=float)
    count, n = rows.shape
    if n < _BINNED_MIN_ROW or count * n < _BINNED_MIN_SIZE:
        return [stable_sum(r) for r in rows.tolist()]
    width = min(n, SUM_BLOCK)
    step = max(1, SUM_BLOCK // n)
    parts = [[] for _ in range(count)]
    for start in range(0, count, step):
        for col in range(0, n, width):
            bins = _exponent_bins(rows[start : start + step, col : col + width])
            if bins is None:
                return [math.fsum(memoryview(r)) for r in rows]
            for part, row_bins in zip(parts[start : start + step], bins.tolist()):
                part += row_bins
    sums = [stable_sum(part) for part in parts]
    for i, s in enumerate(sums):
        if s == 0.0:
            sums[i] = _zero_row_sum(rows[i])
    return sums


def _exponent_bins(block: np.ndarray):
    """Per row of ``block``, the exact values sum(hi) 2^(e-27) and
    sum(lo) 2^(e-27) for every e from the block's least to its greatest
    exponent, as a (rows, 2 x span) array; None if a value is non-finite or
    an exponent lies outside the guard."""
    m, e = np.frexp(block)
    low, high = int(e.min()), int(e.max())
    if low < -_BINNED_EXPONENT or high > _BINNED_EXPONENT:
        return None
    span = high - low + 1
    rows = block.shape[0]
    e += (np.arange(rows, dtype=e.dtype) * span - low)[:, None]
    lo = np.multiply(m, 2.0**27, out=m)
    hi = np.floor(lo)
    with np.errstate(invalid="ignore"):  # inf - inf marks a non-finite value
        lo -= hi
    index, size = e.ravel(), rows * span
    bins = np.concatenate(
        (np.bincount(index, hi.ravel(), size), np.bincount(index, lo.ravel(), size))
    )
    if not np.isfinite(bins).all():
        return None
    scaled = np.ldexp(bins.reshape(2, rows, span), np.arange(low - 27, high - 26))
    return scaled.transpose(1, 0, 2).reshape(rows, 2 * span)


def _zero_row_sum(row: np.ndarray) -> float:
    """``math.fsum`` of a row whose exact sum is zero: the sign of a zero sum
    is fsum's own rule, which depends on the Python version."""
    if row.any():
        return math.fsum(memoryview(row))
    return math.fsum([-0.0] if np.signbit(row).all() else [0.0])


def run_sums(values: np.ndarray, starts, stops) -> list:
    """Correctly rounded sum of each run ``values[start:stop]`` of a 1-D
    float64 array, in the order of the (start, stop) pairs: ``math.fsum`` of
    a memoryview slice below 512 values, :func:`stable_sums` from there on."""
    view = memoryview(values)
    return [
        math.fsum(view[start:stop])
        if stop - start < _BINNED_MIN_ROW
        else stable_sums(values[None, start:stop])[0]
        for start, stop in zip(starts, stops)
    ]


def _key_runs(keys: np.ndarray) -> tuple:
    """(order, edges) of ``keys`` (1-D, or 2-D rows): ``order`` sorts them
    stably, so each run of equal keys keeps its input order, and ``edges``
    holds where each run starts in that order, then the end."""
    rows = keys if keys.ndim == 2 else keys[:, None]
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    new = np.ones(len(rows) + 1, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:-1])
    del ordered  # at 2^N keys, gone before the caller sorts its values
    return order, new.nonzero()[0]


def _sums_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
    """:func:`sums_by_key` with the sums as a float64 array.  A group of one
    or two values whose IEEE sum is finite and nonzero takes that sum, which
    is then ``math.fsum``'s correctly rounded one; zero sums (fsum's sign
    rule), non-finite ones and longer groups go to :func:`run_sums`, in
    group order, so the first group that fails raises."""
    order, edges = _key_runs(keys)
    firsts = order[edges[:-1]]
    emit = firsts.argsort()
    starts, stops = edges[:-1][emit], edges[1:][emit]
    ordered = values[order]
    second = np.zeros(len(starts))  # a group's second value, if it has two
    pair = stops - starts == 2
    second[pair] = ordered[starts[pair] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = ordered[starts] + second
    slow = ((stops - starts > 2) | ~np.isfinite(sums) | (sums == 0.0)).nonzero()[0]
    if len(slow):
        sums[slow] = run_sums(ordered, starts[slow].tolist(), stops[slow].tolist())
    return firsts[emit], sums


def sums_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
    """Correctly rounded sum of the float64 ``values`` of each key: ``keys``
    is 1-D (floats, 0.0 and -0.0 being one key, or tuples) or 2-D int rows.
    Returns each group's first position, ascending, and the groups' sums in
    that order, summed in that order: an error comes from the first that fails."""
    firsts, sums = _sums_by_key(keys, values)
    return firsts, sums.tolist()


def _integer(value, name: str, error=ValueError) -> int:
    """``value`` as an int by ``operator.index``: numpy integers pass, and 1.5
    or a bool raise ``error``."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values``, an array that no one else holds, made read-only."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class ProbabilityModel:
    """Success probabilities p_1..p_N with derived q, sigma = sqrt(pq), phi.

    phi_k = (q_k - p_k) / sqrt(p_k q_k) vanishes exactly when p_k = 1/2; the
    standardized coordinate satisfies Y_k^2 = 1 + phi_k * Y_k pointwise.
    Y_k is sqrt(q_k/p_k) on {omega_k = +1} and -sqrt(p_k/q_k) on
    {omega_k = -1}: ``y_plus`` and ``y_minus`` at index k - 1."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise EmptyModel("model needs a nonempty probability vector")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
            raise OutOfRangeProbability(
                f"all probabilities must lie strictly inside (0, 1), got {p.tolist()}"
            )
        q = 1.0 - p
        sigma = np.sqrt(p * q)
        for name, values in zip(
            ("p", "q", "sigma", "phi", "y_plus", "y_minus"),
            (p, q, sigma, (q - p) / sigma, np.sqrt(q / p), -np.sqrt(p / q)),
        ):
            object.__setattr__(self, name, _frozen(values))

    @property
    def size(self) -> int:
        return int(self.p.size)

    @property
    def num_outcomes(self) -> int:
        self.require_enumerable()
        return 1 << self.size

    def require_enumerable(self) -> None:
        if self.size > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"N={self.size} exceeds the exhaustive-enumeration cap of "
                f"{ENUMERATION_CAP}; use the Monte Carlo path instead"
            )

    def check_index(self, k: int) -> None:
        k = _integer(k, "coordinate")
        if not 1 <= k <= self.size:
            raise IndexOutOfRange(f"coordinate {k} outside 1..{self.size}")

    @cached_property
    def outcome_weights(self) -> np.ndarray:
        """P(omega) for every bitmask, built by doubling; sums to 1."""
        self.require_enumerable()
        w = np.ones(1)
        for k in range(self.size):
            w = np.concatenate([w * self.q[k], w * self.p[k]])
        return _frozen(w)

    def y_table(self, k: int) -> np.ndarray:
        """Y_k over all outcomes, indexed by bitmask."""
        self.check_index(k)
        idx = np.arange(self.num_outcomes)
        bit = (idx >> (k - 1)) & 1
        return np.where(bit == 1, self.y_plus[k - 1], self.y_minus[k - 1])


def build_model(p) -> ProbabilityModel:
    """Validate a probability vector and derive q, sigma, phi."""
    return ProbabilityModel(np.atleast_1d(np.asarray(p, dtype=float)))


@dataclass(frozen=True, eq=False)
class FunctionalTable:
    """Exact values F(omega) for all 2^N outcomes, indexed by bitmask."""

    model: ProbabilityModel
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.model.num_outcomes,):
            raise LengthMismatch(
                f"table has {v.shape} values, model enumerates "
                f"{self.model.num_outcomes} outcomes"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("functional table contains non-finite values")
        object.__setattr__(self, "values", _frozen(v))

    @classmethod
    def constant(cls, model: ProbabilityModel, c: float) -> "FunctionalTable":
        return cls(model, np.full(model.num_outcomes, float(c)))


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Exact pmf of an integer-valued functional on its observed support."""

    pmf: dict

    def __post_init__(self):
        try:
            bad = any(int(k) != k or k < 0 for k in self.pmf)
        except (OverflowError, ValueError):  # int() of inf or nan
            bad = True
        if bad:
            raise ValueError("support must consist of nonnegative integers")
        pmf = {int(k): float(v) for k, v in self.pmf.items()}
        if any(v < 0.0 for v in pmf.values()):
            raise ValueError("probabilities must be nonnegative")
        total = stable_sum(pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "pmf", dict(sorted(pmf.items())))

    def mean(self) -> float:
        return stable_sum(k * v for k, v in self.pmf.items())


def _check_table(model: ProbabilityModel, table: FunctionalTable) -> None:
    if table.model is not model and table.values.shape != (model.num_outcomes,):
        raise LengthMismatch("table does not match the model")


def expectation(model: ProbabilityModel, table: FunctionalTable) -> float:
    """Exact E[F] = sum over outcomes of weight * value."""
    _check_table(model, table)
    return stable_sum(model.outcome_weights * table.values)


def variance(model: ProbabilityModel, table: FunctionalTable) -> float:
    """Exact Var(F) via the centered two-pass formula; never negative."""
    mu = expectation(model, table)
    v = stable_sum(model.outcome_weights * (table.values - mu) ** 2)
    return max(v, 0.0)


def rounded_integers(
    values: np.ndarray, countable: bool = False, sampled: bool = False
) -> np.ndarray:
    """Values rounded to the nearest integers, as floats.  Raises
    NonIntegerValue for the value farthest from an integer if it is off by
    more than 1e-9, else for the first negative value and, when ``countable``,
    for the first value not below 2^53: from there on a float no longer tells
    neighbouring integers apart, so such values cannot be counted (NaN fails
    that test too).  ``sampled`` values are reported without an outcome."""
    rounded = np.rint(values)
    err = np.abs(values - rounded)
    worst = int(np.argmax(err))
    if err[worst] > INTEGER_TOLERANCE:
        _reject(values, worst, sampled, f"is not an integer within {INTEGER_TOLERANCE}")
    negative = rounded < 0
    if negative.any():
        _reject(values, int(np.argmax(negative)), sampled, "is negative")
    if countable:
        too_large = ~(rounded < COUNT_LIMIT)
        if too_large.any():
            problem = "is not an integer below 2^53"
            _reject(values, int(np.argmax(too_large)), sampled, problem)
    return rounded


def _reject(values: np.ndarray, i: int, sampled: bool, problem: str) -> None:
    value = float(values[i])
    if sampled:
        raise NonIntegerValue(f"sampled value {value!r} {problem}", value=value)
    raise NonIntegerValue(
        f"value {value!r} at outcome {i} {problem}", outcome_index=i, value=value
    )


def integer_values(table: FunctionalTable) -> np.ndarray:
    """Table values rounded to nonnegative integers (as floats), rejecting
    any value off by more than 1e-9."""
    return rounded_integers(table.values)


def distribution(model: ProbabilityModel, table: FunctionalTable) -> DistributionTable:
    """Exact pmf of an integer-valued functional, weights aggregated per value
    and correctly rounded; values must lie below 2^53."""
    _check_table(model, table)
    values = rounded_integers(table.values, countable=True)
    firsts, sums = sums_by_key(values, model.outcome_weights)
    return DistributionTable(dict(zip(values[firsts].tolist(), sums)))
