"""Discrete Malliavin operators: gradient, divergence, L and its inverse.

The gradient has two interchangeable routes: pathwise, by flipping one
coordinate of the value table, and through the chaos expansion, by slicing
kernels.  L^{-1} likewise acts either on the mask-indexed coefficient array
(:func:`pseudo_inverse_table`) or on a ``ChaosExpansion`` of sparse kernels
(:func:`pseudo_inverse`).  Bound computations and ``verify`` use the
pathwise gradient and the coefficient-domain L^{-1}; the ``Kernel`` route
stays as the independent cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chaos import ChaosExpansion, _forward_transform, _inverse_transform, mask_orders
from .errors import IndexOutOfRange, LengthMismatch, MalformedField
from .kernels import Kernel, _check_kernel_indices, slice_kernel
from .model import FunctionalTable, ProbabilityModel, expectation, stable_sum


def flip_difference(model: ProbabilityModel, values: np.ndarray, k: int) -> np.ndarray:
    """sqrt(p_k q_k) (F with omega_k = +1 minus F with omega_k = -1), once per
    pair of outcomes that differ only in omega_k, shaped (2^N / 2^k, 2^(k-1))."""
    pairs = values.reshape(-1, 2, 1 << (k - 1))
    return model.sigma[k - 1] * (pairs[:, 1] - pairs[:, 0])


def _gradient_into(out: np.ndarray, model: ProbabilityModel, values: np.ndarray, k: int):
    """Write D_k of ``values`` over all outcomes into ``out``.  For an
    integer-valued F no entry overflows: sqrt(p q) <= 1/2, so |D_k F| and
    |D_l D_k F| stay below max F."""
    out.reshape(-1, 2, 1 << (k - 1))[...] = flip_difference(model, values, k)[:, None, :]


def gradient_pathwise(model: ProbabilityModel, table: FunctionalTable, k: int) -> FunctionalTable:
    """D_k F = sqrt(p_k q_k) (F with omega_k = +1 minus F with omega_k = -1)."""
    model.check_index(k)
    out = np.empty(table.values.shape)
    _gradient_into(out, model, table.values, k)
    return FunctionalTable(model, out)


def gradient_chaos(expansion: ChaosExpansion, k: int) -> ChaosExpansion:
    """Chaos form of D_k: order n maps to n J_{n-1}(f_n(., k))."""
    if k < 1:
        raise IndexOutOfRange(f"index {k} is not positive")
    mean = 0.0
    kernels = {}
    for order, kernel in expansion.kernels.items():
        sliced = slice_kernel(kernel, k).scaled(float(order))
        if sliced.is_zero():
            continue
        if order == 1:
            mean = sliced.entries.get((), 0.0)
        else:
            kernels[order - 1] = sliced
    return ChaosExpansion(mean, kernels)


def iterated_gradient(model: ProbabilityModel, table: FunctionalTable, ks) -> FunctionalTable:
    """Right fold of single pathwise gradients; an empty index list returns F."""
    out = table
    for k in ks:
        out = gradient_pathwise(model, out, k)
    return out


def ou_operator(expansion: ChaosExpansion) -> ChaosExpansion:
    """L F = -sum_n n J_n(f_n); constants are annihilated."""
    return ChaosExpansion(
        0.0,
        {order: kernel.scaled(-float(order)) for order, kernel in expansion.kernels.items()},
    )


def pseudo_inverse(expansion: ChaosExpansion) -> ChaosExpansion:
    """L^{-1} applied to the centered part: -sum_n (1/n) J_n(f_n), mean 0."""
    return ChaosExpansion(
        0.0,
        {order: kernel.scaled(-1.0 / order) for order, kernel in expansion.kernels.items()},
    )


@dataclass(frozen=True, eq=False)
class GradientField:
    """A sequence u = (u_k), one chaos expansion per coordinate 1..N."""

    components: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "components", dict(sorted(self.components.items())))


def divergence(model: ProbabilityModel, u: GradientField) -> ChaosExpansion:
    """The adjoint of the gradient, assembled from component kernels.

    Reading u_k = sum_n J_{n-1}(f_n(., k)) recovers f_n on the slice through
    k; the divergence is sum_n J_n of the symmetrized, off-diagonal
    restriction of the assembled f_n.  Averaging over which argument carries k
    performs the symmetrization directly on increasing tuples; each
    coefficient is the correctly rounded sum of its contributions.
    """
    raw: dict[int, list] = {}  # order -> (tuple, contribution) pairs
    for k, component in u.components.items():
        if not 1 <= int(k) <= model.size:
            raise MalformedField(f"component index {k} outside 1..{model.size}")
        _check_kernel_indices(model, *component.kernels.values())
        if component.max_order() >= model.size:
            raise MalformedField(
                f"component {k} holds order {component.max_order()}, so the "
                f"assembled kernel would exceed order N = {model.size}"
            )
        k = int(k)
        if component.mean != 0.0:
            raw.setdefault(1, []).append(((k,), component.mean))
        for order, kernel in component.kernels.items():
            raw.setdefault(order + 1, []).extend(
                (key + (k,), value / (order + 1))
                for key, value in kernel.entries.items()
                if k not in key  # a diagonal position, masked away
            )
    return ChaosExpansion(0.0, {n: Kernel.from_pairs(n, p) for n, p in raw.items()})


def pseudo_inverse_table(model: ProbabilityModel, table: FunctionalTable) -> FunctionalTable:
    """L^{-1}(F - E[F]) on every outcome, computed in the coefficient domain:
    L multiplies the order-n chaos by -n, so the coefficient c at a mask of
    popcount n becomes n! * ((-1/n) * (c / n!)) + 0.0 between two butterflies.
    That is the rounding of decompose, pseudo_inverse and to_table, whose
    dropped zero entries leave +0.0, so both routes agree bit for bit."""
    if table.values.shape != (model.num_outcomes,):
        raise LengthMismatch("table does not match the model")
    coeffs = _forward_transform(model, table.values)
    orders = mask_orders(model.size)
    fact = np.array([float(math.factorial(n)) for n in range(model.size + 1)])[orders]
    minus_inv = np.array([0.0] + [-1.0 / n for n in range(1, model.size + 1)])[orders]
    scaled = fact * (minus_inv * (coeffs / fact)) + 0.0
    scaled[0] = 0.0
    if not np.all(np.isfinite(scaled)):
        raise ValueError("non-finite chaos coefficient")
    return FunctionalTable(model, _inverse_transform(model, scaled))


def minus_gradient_pseudo_inverse(
    model: ProbabilityModel, table: FunctionalTable
) -> list:
    """Tables of -D_k L^{-1}(F - E[F]) for k = 1..N, gradients by flipping."""
    inverse_table = pseudo_inverse_table(model, table)
    return [
        FunctionalTable(model, -gradient_pathwise(model, inverse_table, k).values)
        for k in range(1, model.size + 1)
    ]


def _gradient_pairing(model: ProbabilityModel, a_values, b_values) -> float:
    """sum_k E[A_k B_k] for paired value arrays A_k, B_k, k = 1..N: each
    expectation the exact sum of (w A_k) B_k over the outcomes."""
    return stable_sum(
        stable_sum(model.outcome_weights * a * b) for a, b in zip(a_values, b_values)
    )


def check_integration_by_parts(
    model: ProbabilityModel, table_f: FunctionalTable, table_g: FunctionalTable
) -> float:
    """|E[(F - E[F]) G] - E[<-D L^{-1}(F - E[F]), D G>]|, exact by enumeration."""
    mean_f = expectation(model, table_f)
    lhs = stable_sum(
        model.outcome_weights * (table_f.values - mean_f) * table_g.values
    )
    rhs = _gradient_pairing(
        model,
        (t.values for t in minus_gradient_pseudo_inverse(model, table_f)),
        (gradient_pathwise(model, table_g, k).values for k in range(1, model.size + 1)),
    )
    return abs(lhs - rhs)
