"""Finite biased Rademacher model and exact enumeration of its sample space.

Coordinates are 1-based in every public signature.  Internally an outcome is a
bitmask ``idx`` in ``0..2^N-1`` where bit ``k-1`` set means coordinate ``k``
equals +1; outcomes are always iterated by ascending bitmask.
"""

from __future__ import annotations

import math
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


def stable_sum(values) -> float:
    """Correctly rounded sum of floats, independent of ordering and chunking."""
    return math.fsum(values)


@dataclass(frozen=True, eq=False)
class ProbabilityModel:
    """Success probabilities p_1..p_N with derived q, sigma = sqrt(pq), phi.

    phi_k = (q_k - p_k) / sqrt(p_k q_k) vanishes exactly when p_k = 1/2; the
    standardized coordinate satisfies Y_k^2 = 1 + phi_k * Y_k pointwise.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise EmptyModel("model needs a nonempty probability vector")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
            raise OutOfRangeProbability(
                f"all probabilities must lie strictly inside (0, 1), got {p.tolist()}"
            )
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def size(self) -> int:
        return int(self.p.size)

    @cached_property
    def q(self) -> np.ndarray:
        q = 1.0 - self.p
        q.flags.writeable = False
        return q

    @cached_property
    def sigma(self) -> np.ndarray:
        s = np.sqrt(self.p * self.q)
        s.flags.writeable = False
        return s

    @cached_property
    def phi(self) -> np.ndarray:
        f = (self.q - self.p) / self.sigma
        f.flags.writeable = False
        return f

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
        if not 1 <= k <= self.size:
            raise IndexOutOfRange(f"coordinate {k} outside 1..{self.size}")

    @cached_property
    def outcome_weights(self) -> np.ndarray:
        """P(omega) for every bitmask, built by doubling; sums to 1."""
        self.require_enumerable()
        w = np.ones(1)
        for k in range(self.size):
            w = np.concatenate([w * self.q[k], w * self.p[k]])
        w.flags.writeable = False
        return w

    def y_plus(self, k: int) -> float:
        """Value of Y_k on {omega_k = +1}, i.e. sqrt(q_k/p_k)."""
        self.check_index(k)
        return math.sqrt(self.q[k - 1] / self.p[k - 1])

    def y_minus(self, k: int) -> float:
        """Value of Y_k on {omega_k = -1}, i.e. -sqrt(p_k/q_k)."""
        self.check_index(k)
        return -math.sqrt(self.p[k - 1] / self.q[k - 1])

    def y_table(self, k: int) -> np.ndarray:
        """Y_k over all outcomes, indexed by bitmask."""
        self.check_index(k)
        idx = np.arange(self.num_outcomes)
        bit = (idx >> (k - 1)) & 1
        return np.where(bit == 1, self.y_plus(k), self.y_minus(k))


@dataclass(frozen=True)
class Outcome:
    """One realization of the sign sequence, bits[k-1] = omega_k in {-1,+1}."""

    bits: tuple

    def __post_init__(self):
        if not all(b in (-1, 1) for b in self.bits):
            raise ValueError(f"outcome bits must be -1 or +1, got {self.bits}")
        object.__setattr__(self, "bits", tuple(self.bits))

    @classmethod
    def from_index(cls, idx: int, size: int) -> "Outcome":
        return cls(tuple(1 if (idx >> k) & 1 else -1 for k in range(size)))

    @property
    def index(self) -> int:
        m = 0
        for k, b in enumerate(self.bits):
            if b == 1:
                m |= 1 << k
        return m

    def __len__(self) -> int:
        return len(self.bits)


def build_model(p) -> ProbabilityModel:
    """Validate a probability vector and derive q, sigma, phi."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.size == 0:
        raise EmptyModel("model needs a nonempty probability vector")
    return ProbabilityModel(arr)


def outcome_weight(model: ProbabilityModel, omega: Outcome) -> float:
    """Product measure weight of a single outcome."""
    if len(omega) != model.size:
        raise LengthMismatch(
            f"outcome has {len(omega)} coordinates, model has {model.size}"
        )
    w = 1.0
    for k, b in enumerate(omega.bits):
        w *= model.p[k] if b == 1 else model.q[k]
    return w


def standardized_value(model: ProbabilityModel, k: int, omega: Outcome) -> float:
    """Y_k(omega) = (omega_k - p_k + q_k) / (2 sqrt(p_k q_k))."""
    model.check_index(k)
    if len(omega) != model.size:
        raise LengthMismatch(
            f"outcome has {len(omega)} coordinates, model has {model.size}"
        )
    return model.y_plus(k) if omega.bits[k - 1] == 1 else model.y_minus(k)


def flip(omega: Outcome, k: int, sign: int) -> Outcome:
    """Return omega with coordinate k forced to sign; idempotent."""
    if not 1 <= k <= len(omega):
        raise IndexOutOfRange(f"coordinate {k} outside 1..{len(omega)}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if omega.bits[k - 1] == sign:
        return omega
    bits = list(omega.bits)
    bits[k - 1] = sign
    return Outcome(tuple(bits))


@dataclass(frozen=True, eq=False)
class FunctionalTable:
    """Exact values F(omega) for all 2^N outcomes, indexed by bitmask."""

    model: ProbabilityModel
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.model.num_outcomes,):
            raise LengthMismatch(
                f"table has {v.shape} values, model enumerates "
                f"{self.model.num_outcomes} outcomes"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("functional table contains non-finite values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, model: ProbabilityModel, c: float) -> "FunctionalTable":
        return cls(model, np.full(model.num_outcomes, float(c)))


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Exact pmf of an integer-valued functional on its observed support."""

    pmf: dict

    def __post_init__(self):
        pmf = {int(k): float(v) for k, v in self.pmf.items()}
        if any(k < 0 for k in pmf):
            raise ValueError("support must consist of nonnegative integers")
        if any(v < 0.0 for v in pmf.values()):
            raise ValueError("probabilities must be nonnegative")
        total = stable_sum(pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "pmf", dict(sorted(pmf.items())))

    @property
    def support(self) -> list:
        return list(self.pmf)

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
    _check_table(model, table)
    mu = expectation(model, table)
    v = stable_sum(model.outcome_weights * (table.values - mu) ** 2)
    return max(v, 0.0)


def integer_values(table: FunctionalTable) -> np.ndarray:
    """Round table values to integers, rejecting any value off by > 1e-9."""
    rounded = np.rint(table.values)
    err = np.abs(table.values - rounded)
    bad = int(np.argmax(err))
    if err[bad] > INTEGER_TOLERANCE:
        raise NonIntegerValue(
            f"value {table.values[bad]!r} at outcome {bad} is not an integer "
            f"within {INTEGER_TOLERANCE}",
            outcome_index=bad,
            value=float(table.values[bad]),
        )
    if np.any(rounded < 0):
        neg = int(np.argmax(rounded < 0))
        raise NonIntegerValue(
            f"value {table.values[neg]!r} at outcome {neg} is negative",
            outcome_index=neg,
            value=float(table.values[neg]),
        )
    return rounded.astype(np.int64)


def distribution(model: ProbabilityModel, table: FunctionalTable) -> DistributionTable:
    """Exact pmf of an integer-valued functional, weights aggregated per value."""
    _check_table(model, table)
    ints = integer_values(table)
    w = model.outcome_weights
    order = np.argsort(ints, kind="stable")
    sorted_ints = ints[order]
    sorted_w = w[order]
    pmf = {}
    start = 0
    while start < len(sorted_ints):
        val = sorted_ints[start]
        stop = int(np.searchsorted(sorted_ints, val, side="right"))
        pmf[int(val)] = stable_sum(sorted_w[start:stop])
        start = stop
    return DistributionTable(pmf)
