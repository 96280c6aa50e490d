"""Discrete multiple stochastic integrals and chaos decompositions.

J_n(f) = n! * sum over increasing tuples of f * Y_{i_1} ... Y_{i_n}; the
products of distinct standardized coordinates form an orthonormal basis of the
2^N-dimensional outcome space, so every value table decomposes uniquely into a
mean plus stochastic integrals of orders 1..N.  The transform in both
directions runs as an N-stage butterfly over the outcome bitmask, one fixed
deterministic pass per coordinate.  Every function here that takes a model
and kernels raises IndexOutOfRange for an index beyond N before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch
from .kernels import (
    Kernel,
    _check_kernel_indices,
    _contract_rows,
    _finite_nonzero,
    _made,
    _slice_contract_rows,
    inner_product,
)
from .model import FunctionalTable, ProbabilityModel, _check_table, _integer


@dataclass(frozen=True, eq=False)
class ChaosExpansion:
    """Mean plus one kernel per chaos order; empty kernels are not stored."""

    mean: float = 0.0
    kernels: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for order, kernel in self.kernels.items():
            order = _integer(order, "chaos order")
            if order < 1:
                raise ValueError("chaos orders start at 1; constants go in mean")
            if kernel.order != order:
                raise ValueError(
                    f"kernel of order {kernel.order} stored under order {order}"
                )
            if not kernel.is_zero():
                clean[order] = kernel
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "kernels", dict(sorted(clean.items())))

    @property
    def orders(self) -> list:
        return list(self.kernels)

    def kernel(self, order: int) -> Kernel:
        return self.kernels[order] if order in self.kernels else Kernel.zero(order)

    def max_order(self) -> int:
        return max(self.kernels, default=0)

    def max_index(self) -> int:
        return max((k.max_index() for k in self.kernels.values()), default=0)


def _forward_transform(model: ProbabilityModel, values: np.ndarray) -> np.ndarray:
    """c[mask] = E[F * prod_{k in mask} Y_k] for every subset bitmask.

    Works on conditional values coordinate by coordinate: marginalizing gives
    q * lo + p * hi, and the Y_k-coefficient is sigma_k * (hi - lo) because
    Y_k(+1) - Y_k(-1) = 1/sigma_k.  The difference form makes coefficients of
    coordinates the table does not depend on exactly zero.
    """
    a = values.astype(float).copy()
    for k in range(model.size):
        p, q, sigma = model.p[k], model.q[k], model.sigma[k]
        a = a.reshape(-1, 2, 1 << k)
        lo = a[:, 0, :].copy()
        hi = a[:, 1, :]
        a[:, 0, :] = q * lo + p * hi
        a[:, 1, :] = sigma * (hi - lo)
        a = a.reshape(-1)
    return a


def _inverse_transform(model: ProbabilityModel, coeffs: np.ndarray) -> np.ndarray:
    """Values of sum_S c_S prod_{k in S} Y_k on every outcome bitmask."""
    a = coeffs.astype(float).copy()
    for k in range(model.size):
        ym, yp = model.y_minus[k], model.y_plus[k]
        a = a.reshape(-1, 2, 1 << k)
        without = a[:, 0, :].copy()
        with_k = a[:, 1, :].copy()
        a[:, 0, :] = without + with_k * ym
        a[:, 1, :] = without + with_k * yp
        a = a.reshape(-1)
    return a


def to_table(model: ProbabilityModel, expansion: ChaosExpansion) -> FunctionalTable:
    """Evaluate an expansion on all 2^N outcomes."""
    coeffs = np.zeros(model.num_outcomes)
    coeffs[0] = expansion.mean
    for order, kernel in expansion.kernels.items():
        _check_kernel_indices(model, kernel)
        masks = (1 << kernel.keys).sum(axis=1)  # N <= 24: int32 holds each bit
        coeffs[masks] = float(math.factorial(order)) * kernel.values
    return FunctionalTable(model, _inverse_transform(model, coeffs))


def mask_orders(size: int) -> np.ndarray:
    """Chaos order popcount(mask) of every subset bitmask 0..2^size - 1."""
    orders = np.zeros(1, dtype=np.uint8)
    for _ in range(size):
        orders = np.concatenate([orders, orders + 1])
    return orders


def decompose(model: ProbabilityModel, table: FunctionalTable) -> ChaosExpansion:
    """Unique chaos representation of a value table.

    Projects onto the orthonormal basis of Y-products: the coefficient at an
    increasing tuple S of size n is E[F * prod_{k in S} Y_k] / n!.
    """
    _check_table(model, table)
    coeffs = _forward_transform(model, table.values)
    masks = np.flatnonzero(coeffs[1:]) + 1
    orders = mask_orders(model.size)[masks]
    kernels = {}
    # Each order in order of its first mask, its masks ascending.
    for order in dict.fromkeys(orders.tolist()):
        picked = masks[orders == order]
        bits = np.nonzero((picked[:, None] >> np.arange(model.size)) & 1)[1]
        keys = bits.astype(np.int32).reshape(len(picked), order)
        values = coeffs[picked] / math.factorial(order)
        kernels[order] = _made(order, *_finite_nonzero(keys, values))
    return ChaosExpansion(float(coeffs[0]), kernels)


def _formula_terms(n: int, m: int, with_mean: bool) -> list:
    """The product formula's terms (r, l, scale) of J_n(f) J_m(g),
    scale = r! C(n,r) C(m,r) C(r,l), r = 0..min(n, m), l = 0..r, ascending;
    the order-0 term (r = l = n = m) only with_mean: one engine call's
    terms for ``multiply`` and for :func:`_slice_formula`."""
    return [
        (r, ell, math.perm(n, r) * math.comb(m, r) * math.comb(r, ell))
        for r in range(min(n, m) + 1)
        for ell in range(r + 1)
        if n + m - r - ell > 0 or with_mean
    ]


def _slice_formula(model: ProbabilityModel, f: Kernel) -> tuple:
    """(keys, values, rows): f's slice rows and the key rows and
    coefficients by order of the product formula above order 0 of every
    nonzero slice with itself, slice k under lead k - 1, from one engine
    call over all slices (``_slice_contract_rows``)."""
    n = f.order - 1
    return _slice_contract_rows(model, f, _formula_terms(n, n, False))


def multiply(model: ProbabilityModel, f: Kernel, g: Kernel) -> ChaosExpansion:
    """Chaos expansion of the pointwise product J_n(f) * J_m(g): the product
    formula's kernels above order 0 plus the mean n! (f contracted with g at
    (n, n)) when the orders agree, all from one engine call; a coefficient
    is the correctly rounded sum of its correctly rounded terms."""
    if f.order < 1 or g.order < 1:
        raise ValueError("product formula applies to orders >= 1")
    rows = _contract_rows(model, f, g, _formula_terms(f.order, g.order, True))
    kernels = {s: _made(s, keys[:, 1:], values) for s, (keys, values) in rows.items()}
    mean = kernels.pop(0).values.sum() if 0 in kernels else 0.0
    return ChaosExpansion(mean, kernels)


def evaluate_on_signs(
    model: ProbabilityModel, expansion: ChaosExpansion, signs: np.ndarray
) -> np.ndarray:
    """Vectorized evaluation on a (rows, N) matrix of +-1 signs.

    Serves as the Monte Carlo evaluator for models beyond the enumeration cap.
    Raises ValueError naming the first entry (in row-major order) that is
    neither +1 nor -1.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] != model.size:
        raise LengthMismatch("sign matrix must have one column per coordinate")
    bad = np.abs(signs) != 1
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), model.size)
        raise ValueError(
            f"sign matrix entries must be +1 or -1, got {signs[row, col].item()!r} "
            f"at row {row}, column {col}"
        )
    for kernel in expansion.kernels.values():
        _check_kernel_indices(model, kernel)
    # One contiguous row of Y values per coordinate a kernel uses, so each
    # factor streams; row_of maps a coordinate to its row.
    used = np.zeros(model.size, dtype=bool)
    for kernel in expansion.kernels.values():
        used[kernel.keys] = True
    cols = np.flatnonzero(used)
    row_of = np.cumsum(used) - 1
    plus = np.ascontiguousarray(signs.T[cols]) == 1
    y = np.where(plus, model.y_plus[cols, None], model.y_minus[cols, None])
    out = np.full(signs.shape[0], expansion.mean)
    for order, kernel in expansion.kernels.items():
        scale = math.factorial(order)
        rows = row_of[kernel.keys].tolist()
        for (i1, *rest), coeff in zip(rows, kernel.values.tolist()):
            prod = (scale * coeff) * y[i1]
            for i in rest:
                prod *= y[i]
            out += prod
    return out


def covariance(model: ProbabilityModel, f: Kernel, g: Kernel) -> float:
    """E[J_n(f) J_m(g)]: n! <f, g> when orders agree, 0 otherwise."""
    _check_kernel_indices(model, f, g)
    if f.order != g.order:
        return 0.0
    return math.factorial(f.order) * inner_product(f, g)
