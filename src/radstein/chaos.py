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
    _add_rows,
    _check_finite,
    _check_kernel_indices,
    _contract_rows,
    _kernel,
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
        return self.kernels.get(order, Kernel.zero(order))

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
        scale = math.factorial(order)
        for key, value in kernel.entries.items():
            mask = 0
            for i in key:
                mask |= 1 << (i - 1)
            coeffs[mask] = scale * value
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
    orders = mask_orders(model.size)
    kernels: dict[int, dict] = {}
    for mask in (np.flatnonzero(coeffs[1:]) + 1).tolist():
        order = int(orders[mask])
        key = tuple(k + 1 for k in range(model.size) if (mask >> k) & 1)
        kernels.setdefault(order, {})[key] = coeffs[mask] / math.factorial(order)
    return ChaosExpansion(
        float(coeffs[0]),
        {order: Kernel(order, entries) for order, entries in kernels.items()},
    )


def _product_formula(
    model: ProbabilityModel, f: Kernel, g: Kernel, shift: int, with_mean: bool
) -> tuple:
    """(mean, rows) of :func:`_grouped`: the product formula's kernels by
    order, from one engine call.  With n = order(f) - shift and
    m = order(g) - shift, the symmetrized off-diagonal weighted contractions
    of f with g at (r + shift, l + shift), r = 0..min(n,m), l = 0..r: at
    shift 0 the kernels of J_n(f) J_m(g), at shift 1 with g = f of order m
    those of sum_k (D_k J_m(f))^2 / m^2.  The order-0 term is formed only
    with_mean."""
    n, m = f.order - shift, g.order - shift
    terms = [(r, ell) for r in range(min(n, m) + 1) for ell in range(r + 1)]
    terms = [(r, ell) for r, ell in terms if n + m - r - ell > 0 or with_mean]
    shifted = [(r + shift, ell + shift) for r, ell in terms]
    return _grouped(n, m, terms, _contract_rows(model, f, g, shifted))


def _grouped(n: int, m: int, terms: list, parts) -> tuple:
    """(mean, rows) of the product formula's parts at terms, each a
    (key rows, coefficients) pair of the engine: rows maps each order to its
    key rows and coefficients, the parts of that order scaled by
    r! C(n,r) C(m,r) C(r,l) and added in term order, one IEEE addition per
    key and zero sums dropped (raising as ``scaled`` and such a sum of Kernels
    would, part by part and, within a part, lead by lead); order 0 is the mean."""
    mean, grouped = 0.0, {}
    for (r, ell), (keys, values) in zip(terms, parts):
        if not len(values):
            continue
        coefficient = math.factorial(r) * math.comb(n, r) * math.comb(m, r)
        coefficient *= math.comb(r, ell)
        order = keys.shape[1] - 1
        if order == 0:
            mean = coefficient * float(values[0])
            continue
        with np.errstate(over="ignore"):
            scaled = float(coefficient) * values
        if order in grouped:
            grouped[order] = _add_rows(grouped[order], (keys, scaled))
            if not np.isfinite(grouped[order][1]).all():
                # A non-finite scaled value stays so in its sum.  Lead by
                # lead, the scaled part's error comes before the sums', as
                # each slice's ``scaled`` and then its sum raise.
                _check_finite(*map(np.concatenate, zip((keys, scaled), grouped[order])))
        else:
            _check_finite(keys, scaled)
            grouped[order] = keys, scaled
    return mean, grouped


def _slice_formula(model: ProbabilityModel, f: Kernel) -> tuple:
    """(keys, values, rows): f's slice rows (``_slice_contract_rows``) and
    the :func:`_grouped` rows of the product formula of every nonzero slice
    with itself, slice k under lead k - 1, from one engine call and one
    grouping over all slices, which raise in (r, l)-then-k order."""
    n = f.order - 1
    terms = [(r, ell) for r in range(n + 1) for ell in range(r + 1) if r + ell < 2 * n]
    keys, values, parts = _slice_contract_rows(model, f, terms)
    return keys, values, _grouped(n, n, terms, parts)[1]


def multiply(model: ProbabilityModel, f: Kernel, g: Kernel) -> ChaosExpansion:
    """Chaos expansion of the pointwise product J_n(f) * J_m(g): the product
    formula's kernels above order 0 plus the mean n! (f contracted with g at
    (n, n)) when the orders agree, all from one engine call."""
    if f.order < 1 or g.order < 1:
        raise ValueError("product formula applies to orders >= 1")
    mean, grouped = _product_formula(model, f, g, 0, True)
    return ChaosExpansion(mean, {s: _kernel(*rows) for s, rows in grouped.items()})


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
    # factor streams.
    used = sorted({i for f in expansion.kernels.values() for key in f.entries for i in key})
    cols = np.array(used, dtype=np.intp) - 1
    plus = np.ascontiguousarray(signs.T[cols]) == 1
    y = dict(zip(used, np.where(plus, model.y_plus[cols, None], model.y_minus[cols, None])))
    out = np.full(signs.shape[0], expansion.mean)
    for order, kernel in expansion.kernels.items():
        scale = math.factorial(order)
        for (i1, *rest), coeff in kernel.entries.items():
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
