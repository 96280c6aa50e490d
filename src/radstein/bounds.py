"""Explicit Poisson-approximation bounds, exact by enumeration or closed form.

Every operation returns a :class:`BoundReport` whose three public terms sum
to the total: the mean-shift term, the variance-like term, and the remainder
collecting everything else.  A ``detail`` mapping carries the finer per-term
split for reporting.  Gradients entering expectations are computed by
coordinate flips on value tables, and -D L^{-1}(F - E[F]) by L^{-1} in the
coefficient domain (:func:`radstein.malliavin.pseudo_inverse_table`), the
route ``verify`` checks too; the sparse ``Kernel`` route is the independent
cross-check in the tests.  The closed-form J_m bounds take their kernels
by order from the product formula behind ``multiply``, the code path that
``verify`` certifies, as arrays up to their norms (:func:`_jm_blocks`),
which :func:`j2_example_machinery` reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chaos import (
    ChaosExpansion,
    _product_formula,
    _slice_formula,
    mask_orders,
    to_table,
)
from .chenstein import _check_lambda, stein_factors
from .errors import OrderTooSmall
from .kernels import (
    Kernel,
    _check_kernel_indices,
    _made,
    _summed,
    inner_product,
    norm_sq,
)
from .malliavin import _gradient_into, flip_difference, pseudo_inverse_table
from .model import (
    SUM_BLOCK,
    FunctionalTable,
    ProbabilityModel,
    build_model,
    expectation,
    integer_values,
    stable_sum,
    stable_sums,
    variance,
)

J2_RATE_CONSTANT = 2.5 + math.sqrt(2.0)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: lambda, three nonnegative terms, their total."""

    lam: float
    term_mean_shift: float
    term_variance_like: float
    term_remainder: float
    total: float
    method: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        terms = (self.term_mean_shift, self.term_variance_like, self.term_remainder)
        if any(t < 0 for t in terms):
            raise ValueError(f"bound terms must be nonnegative, got {terms}")
        if abs(self.total - stable_sum(terms)) > 1e-12:
            raise ValueError("total must equal the sum of the three terms")


def _report(lam, t1, t2, t3, method, detail=None) -> BoundReport:
    return BoundReport(
        lam=lam,
        term_mean_shift=t1,
        term_variance_like=t2,
        term_remainder=t3,
        total=stable_sum((t1, t2, t3)),
        method=method,
        detail=detail or {},
    )


STREAMED_METHODS = ("main", "main_reduced", "wasserstein")


def enumeration_bounds(model: ProbabilityModel, table: FunctionalTable, lam: float) -> dict:
    """The bounds of :data:`STREAMED_METHODS` from one pass over k = 1..N, as
    method -> report, in that order.  The pass keeps E[F],
    <DF, -DL^{-1}(F - EF)> and the signed remainder summed over k: O(2^N)
    memory.  D_k F and -D_k L^{-1}(F - EF) do not depend on omega_k, so each
    is formed on half the outcomes, and integrating X_k out of the remainder
    is exact: ``main_reduced`` reports main's remainder.  Wasserstein's
    remainder is half of main's: halving is exact in binary floating point
    unless a per-outcome term is subnormal."""
    lam = _check_lambda(lam)
    integer_values(table)
    mean = expectation(model, table)
    inverse = pseudo_inverse_table(model, table).values
    inner = np.zeros(model.num_outcomes)
    signed = np.zeros(model.num_outcomes)
    for k in range(1, model.size + 1):
        sigma, halves = model.sigma[k - 1], (-1, 2, 1 << (k - 1))
        dk = flip_difference(model, table.values, k)
        dl = flip_difference(model, inverse, k)
        inner.reshape(halves)[...] -= (dk * dl)[:, None]
        abs_dl = np.abs(dl, out=dl)
        scaled, signed_k = (1.0 / sigma) * dk, signed.reshape(halves)
        for half, shift in ((0, -sigma), (1, sigma)):
            term = dk + shift
            term *= scaled
            signed_k[:, half] += np.multiply(term, abs_dl, out=term)
    # Weighted in place: the pass's last half tables are still alive here.
    np.abs(np.subtract(lam, inner, out=inner), out=inner)
    gap = stable_sum(np.multiply(model.outcome_weights, inner, out=inner))
    remainder = stable_sum(np.multiply(model.outcome_weights, signed, out=signed))
    factors = stein_factors(lam)
    sup_f, diff_f = factors.sup_bound, factors.diff_bound
    c2 = min(1.0, 8.0 / (3.0 * math.sqrt(2.0 * math.e * lam)))
    c3 = min(4.0 / 3.0, 2.0 / lam)
    main = (sup_f * abs(lam - mean), diff_f * gap, diff_f * remainder)
    wasserstein = (abs(lam - mean), c2 * gap, c3 * (0.5 * remainder))
    return {m: _report(lam, *t, m) for m, t in zip(STREAMED_METHODS, (main, main, wasserstein))}


def main_bound(model: ProbabilityModel, table: FunctionalTable, lam: float) -> BoundReport:
    """The general total-variation bound for an N0-valued functional.

    Terms: (1 ^ sqrt(2/(e lam))) |lam - E F|, then (1-e^{-lam})/lam times the
    expected absolute carre-du-champ gap |lam - <DF, -DL^{-1}(F-EF)>|, then the
    same factor times E<(1/sqrt(pq)) DF (DF + sqrt(pq) X), |-DL^{-1}(F-EF)|>.
    """
    return enumeration_bounds(model, table, lam)["main"]


def main_bound_reduced(
    model: ProbabilityModel, table: FunctionalTable, lam: float
) -> BoundReport:
    """Same bound with the sign variable integrated out of the third term:
    sqrt(pq) X is replaced by its mean sqrt(pq)(p - q) coordinatewise.  D_k F
    and D_k L^{-1}F do not depend on omega_k, so that step is exact and the
    report is :func:`main_bound`'s under this method name."""
    return enumeration_bounds(model, table, lam)["main_reduced"]


def wasserstein_bound(
    model: ProbabilityModel, table: FunctionalTable, lam: float
) -> BoundReport:
    """Wasserstein-distance analogue with the Lipschitz-test-class factors
    1, 1 ^ 8/(3 sqrt(2 e lam)) and 4/3 ^ 2/lam; the second-difference factor
    multiplies the half-weighted gradient product."""
    return enumeration_bounds(model, table, lam)["wasserstein"]


def j1_bound(
    model: ProbabilityModel,
    f: Kernel,
    shift: float,
    lam: float,
    check_integer: bool = True,
) -> BoundReport:
    """Closed-form bound for F = shift + J_1(f), integer-valuedness checked by
    enumeration.

    The remainder follows the evaluated form
    sum_k (f(k)^2 + sqrt(pq)(p-q) f(k)) |f(k)| / sqrt(pq); the displayed
    monotone variant |f(k)|^3 + sqrt(pq)(p-q) f(k)^2 coincides with it for
    entrywise nonnegative kernels and is reported in the detail map.
    """
    lam = _check_lambda(lam)
    if f.order != 1:
        raise OrderTooSmall(f"expected an order-1 kernel, got order {f.order}")
    _check_kernel_indices(model, f)
    if check_integer:
        integer_values(to_table(model, ChaosExpansion(float(shift), {1: f})))
    factors = stein_factors(lam)
    sup_f, diff_f = factors.sup_bound, factors.diff_bound
    mean = float(shift)
    norm2 = inner_product(f, f)
    per_k = []
    per_k_abs = []
    for k, c in zip(f.keys[:, 0].tolist(), f.values.tolist()):
        sigma = model.sigma[k]
        drift = sigma * (model.p[k] - model.q[k])
        per_k.append((c * c + drift * c) * abs(c) / sigma)
        per_k_abs.append((abs(c) ** 3 + drift * c * c) / sigma)
    t1 = sup_f * abs(lam - mean)
    t2 = diff_f * abs(lam - norm2)
    t3 = diff_f * stable_sum(per_k)
    alt = diff_f * stable_sum(per_k_abs)
    return _report(lam, t1, t2, t3, "j1", {"term_remainder_monotone_variant": alt})


def bernoulli_bound(p, lam: float) -> BoundReport:
    """Closed-form bound for a sum of independent Bernoulli(p_k) variables."""
    lam = _check_lambda(lam)
    model = build_model(p)
    factors = stein_factors(lam)
    sup_f, diff_f = factors.sup_bound, factors.diff_bound
    sum_p = stable_sum(model.p)
    sum_pq = stable_sum(model.p * model.q)
    sum_ppq = stable_sum(model.p * model.p * model.q)
    t1 = sup_f * abs(lam - sum_p)
    t2 = diff_f * abs(lam - sum_pq)
    t3 = 2.0 * diff_f * sum_ppq
    return _report(lam, t1, t2, t3, "bernoulli")


def _jm_blocks(model: ProbabilityModel, f: Kernel):
    """Squared norms (``norm_sq``) of the J_m bound's blocks for f of order
    m >= 2, from the product formula's key rows by order: first {s: norm} of
    f's order-s kernels at shift 1, then (k, norm of f_k, {s: norm}) for each
    nonzero slice f_k = f(., k), k ascending, of its kernels with itself,
    order m - 1 plus f_k (1/m) sqrt(pq)(p - q) by one more correctly rounded
    sum per key (``kernels._summed``), all slices from one ``_slice_formula``
    call.  Slice k's kernels are the rows under lead k - 1.  Formed as
    consumed, so errors come as the product formula raises them: f's block
    (an index beyond N raises there), the slices', then the drift sum's
    first overflow."""
    m = f.order
    rows = _product_formula(model, f, f, 1, False)
    yield {s: norm_sq(_made(s, keys[:, 1:], v)) for s, (keys, v) in rows.items()}
    keys, values, sliced = _slice_formula(model, f)
    drifted = (model.sigma * (model.p - model.q) / m)[keys[:, 0]] * values
    sliced[m - 1] = _summed(*map(np.concatenate, zip(sliced[m - 1], (keys, drifted))))
    # The slice rows come lead by lead, each lead's first row where it changes.
    leads = keys[np.flatnonzero(np.diff(keys[:, 0], prepend=-1)), 0]

    def norms(order, rows, sums):
        """Each lead's norm of the Kernel of the rows under it, in their order."""
        stable = np.argsort(rows[:, 0], kind="stable")
        rows, sums = rows[stable], sums[stable]
        ends = np.searchsorted(rows[:, 0], leads, "right").tolist()
        runs = zip([0, *ends], ends)
        return [norm_sq(_made(order, rows[a:b, 1:], sums[a:b])) for a, b in runs]

    slices = norms(m - 1, keys, values)
    runs = {s: norms(s, *order_rows) for s, order_rows in sliced.items()}
    for i, x in enumerate(leads.tolist()):
        yield x + 1, slices[i], {s: run[i] for s, run in runs.items()}


def jm_bound(
    model: ProbabilityModel,
    f: Kernel,
    shift: float,
    lam: float,
    check_integer: bool = True,
) -> BoundReport:
    """Bound for F = shift + J_m(f) with m >= 2 from the squared norms of
    :func:`_jm_blocks`.  The remainder has two square-root blocks: the
    fluctuation of the gradient inner product around its mean, and the
    sqrt(Var F)-weighted block over coordinates, whose order-(m-1) group
    carries the extra drift summand (1/m) sqrt(pq)(p - q) f(., k).
    """
    lam = _check_lambda(lam)
    m = f.order
    if m < 2:
        raise OrderTooSmall(f"fixed-order bound needs order >= 2, got {m}")
    if check_integer:
        integer_values(to_table(model, ChaosExpansion(float(shift), {m: f})))
    factors = stein_factors(lam)
    sup_f, diff_f = factors.sup_bound, factors.diff_bound
    var = math.factorial(m) * inner_product(f, f)

    blocks = _jm_blocks(model, f)
    fluct = stable_sum(math.factorial(s) * v for s, v in next(blocks).items())
    t3 = diff_f * math.sqrt(m * m * fluct)

    per_k = []
    for k, fk, norms in blocks:
        pieces = [(math.factorial(m - 1) * fk) ** 2]
        pieces += [math.factorial(s) * v for s, v in norms.items()]
        per_k.append(stable_sum(pieces) / float(model.p[k - 1] * model.q[k - 1]))
        if math.isinf(per_k[-1]):
            raise OverflowError(f"the coordinate block of slice {k} overflows")
    t4 = diff_f * math.sqrt(var) * math.sqrt(m ** 3 * stable_sum(per_k))

    t1 = sup_f * abs(lam - float(shift))
    t2 = diff_f * abs(lam - var)
    return _report(
        lam,
        t1,
        t2,
        stable_sum((t3, t4)),
        "jm",
        {"term_fluctuation": t3, "term_coordinate_block": t4, "order": m},
    )


def j2_bound(
    model: ProbabilityModel,
    f: Kernel,
    shift: float,
    lam: float,
    check_integer: bool = True,
) -> BoundReport:
    """Order-2 bound for F = shift + J_2(f): :func:`jm_bound` at m = 2.

    At m = 2 the grouped contractions carry the explicit coefficients 4, 8
    (fluctuation block) and 8, 16, 8 (coordinate block); the report is tagged
    ``method="j2"``.  Kernels of any other order are rejected.
    """
    lam = _check_lambda(lam)
    if f.order != 2:
        raise OrderTooSmall(f"expected an order-2 kernel, got order {f.order}")
    return replace(jm_bound(model, f, shift, lam, check_integer), method="j2")


def _weighted_sums(a: np.ndarray, tables: np.ndarray) -> list:
    """[fsum(a * t) for t in tables], in batches of about SUM_BLOCK doubles."""
    step = max(1, SUM_BLOCK // a.size)
    sums = []
    for i in range(0, len(tables), step):
        sums += stable_sums(a * tables[i : i + step])
    return sums


def second_order_bound(
    model: ProbabilityModel, table: FunctionalTable, lam: float
) -> BoundReport:
    """Second-order bound from first and second gradient moments only.

    No chaos decomposition enters: all five terms are moments of D_k F and
    D_l D_k F, each computed exactly by enumeration.  The moments
    m2(l, j, k) = E[(D_l D_j F)^2 (D_l D_k F)^2] are streamed over l: only
    the N - 1 tables (D_l D_j F)^2, j != l, of one l are held at a time
    (D_l D_l F = 0, so m2(l, l, k) and m2(l, j, l) are exact zeros, or NaN
    where the other factor is infinite).  m1 and each l's m2 are (N, N)
    arrays, summed whole into the triple terms.  Memory: the N first-gradient tables
    D_k F, their squares until the first moments are summed, one l's N - 1
    tables, and batches of about 2^14 doubles: about 2N tables of 2^N
    doubles plus under 2 MiB (tracemalloc: 35 tables at N = 14 and 16).
    """
    lam = _check_lambda(lam)
    integer_values(table)
    factors = stein_factors(lam)
    sup_f, diff_f = factors.sup_bound, factors.diff_bound
    w = model.outcome_weights
    n = model.size
    mean = expectation(model, table)
    var = variance(model, table)

    grads = np.empty((n, model.num_outcomes))
    for k in range(1, n + 1):
        _gradient_into(grads[k - 1], model, table.values, k)
    grad_sq = grads * grads
    m1 = np.empty((n, n))
    per_k = []
    for j in range(n):
        weighted = w * grad_sq[j]
        m1[j, j:] = m1[j:, j] = _weighted_sums(weighted, grad_sq[j:])
        sigma = model.sigma[j]
        drift = sigma * (model.p[j] - model.q[j])
        quartic = stable_sum(weighted * (grads[j] + drift) ** 2)
        quadratic = stable_sum(weighted)
        per_k.append(math.sqrt(max(quartic, 0.0) * max(quadratic, 0.0)) / sigma)
    t5 = diff_f * stable_sum(per_k)
    del grad_sq

    mixed, scaled = [], []
    second_sq = np.empty((n - 1, model.num_outcomes))
    for el in range(n):
        others = [j for j in range(n) if j != el]
        for row, j in zip(second_sq, others):
            # D_l D_j F for j < l and D_j D_l F for j > l: the two orders round apart.
            inner, outer = (j, el) if j < el else (el, j)
            _gradient_into(row, model, grads[inner], outer + 1)
        np.multiply(second_sq, second_sq, out=second_sq)
        m2 = np.zeros((n, n))
        for row, j in zip(second_sq, others):
            m2[j, others] = _weighted_sums(w * row, second_sq)
        cross = np.where(np.isinf(second_sq).any(axis=1), np.nan, 0.0)
        m2[others, el] = m2[el, others] = cross
        mixed.append(np.sqrt(np.maximum(m1, 0.0) * np.maximum(m2, 0.0)))
        scaled.append(m2 / (model.p[el] * model.q[el]))
    t3 = diff_f * math.sqrt(3.75 * stable_sum(np.ravel(mixed)))
    t4 = diff_f * math.sqrt(0.75 * max(stable_sum(np.ravel(scaled)), 0.0))

    t1 = sup_f * abs(lam - mean)
    t2 = diff_f * abs(lam - var)
    return _report(
        lam,
        t1,
        t2,
        stable_sum((t3, t4, t5)),
        "second_order",
        {"term_mixed_triple": t3, "term_scaled_triple": t4, "term_coordinate": t5},
    )


@dataclass(frozen=True)
class J2Example:
    """Closed-form record for the 1/n star example in one fixed chaos."""

    n: int
    lam: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float
    total: float


def j2_example_kernel(n: int) -> tuple:
    """The model p_k = 1/n and the star kernel with value (n-1)/(2 n^2) on
    every pair {1, j}, j = 2..n."""
    if n < 2:
        raise ValueError(f"the example needs n >= 2, got {n}")
    model = build_model([1.0 / n] * n)
    value = (n - 1) / (2.0 * n * n)
    kernel = Kernel(2, {(1, j): value for j in range(2, n + 1)})
    return model, kernel


def _j2_example_record(n, lam, a1, a3, a4, a5, a6, a7) -> J2Example:
    """Assemble A1 + 2 sqrt(A3) + 2 sqrt(2 A4) + 2 sqrt(2 A5) + 4 sqrt(A6);
    A2 vanishes because lambda is matched to the variance."""
    total = stable_sum(
        (
            a1,
            2 * math.sqrt(a3),
            2 * math.sqrt(2 * a4),
            2 * math.sqrt(2 * a5),
            4 * math.sqrt(a6),
        )
    )
    return J2Example(n, lam, a1, 0.0, a3, a4, a5, a6, a7, total)


def j2_example(n: int) -> J2Example:
    """Closed forms of the example's bound ingredients and their assembly.

    total = A1 + 2 sqrt(A3) + 2 sqrt(2 A4) + 2 sqrt(2 A5) + 4 sqrt(A6), which
    stays below (5/2 + sqrt 2) / sqrt(n) for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"the example needs n >= 2, got {n}")
    nf = float(n)
    lam = (nf - 1) ** 3 / nf ** 4
    a1 = lam
    a3 = (nf - 1) ** 4 * (nf - 2) ** 2 / (16 * nf ** 7)
    a4 = (nf - 1) ** 5 * (nf - 2) / (16 * nf ** 8)
    a5 = (nf - 1) ** 4 / (16 * nf ** 5)
    a6 = (nf - 1) ** 4 * (nf - 2) / (16 * nf ** 6)
    return _j2_example_record(n, lam, a1, a3, a4, a5, a6, 0.0)


def j2_example_machinery(n: int) -> J2Example:
    """The same record recomputed from :func:`jm_bound`'s own blocks
    (:func:`_jm_blocks`): A3 and A4 from the order-1 and order-2 groups of f
    at shift 1, A5, A6 and A7 from each slice's squared norm, order-2 group
    and drifted order-1 group; must match the closed forms to 1e-12
    relative."""
    model, f = j2_example_kernel(n)
    lam = 2.0 * inner_product(f, f)
    blocks = _jm_blocks(model, f)
    fluct = next(blocks)
    a3, a4 = fluct.get(1, 0.0), fluct.get(2, 0.0)
    parts = []
    for k, fk, norms in blocks:  # no slice is zero
        pq = model.p[k - 1] * model.q[k - 1]
        squares = (fk ** 2, norms.get(2, 0.0), norms[1])
        parts.append([x / pq for x in squares])
    a5, a6, a7 = (stable_sum(column) for column in zip(*parts))
    return _j2_example_record(n, lam, abs(lam - 0.0), a3, a4, a5, a6, a7)


def bernoulli_sum_table(model: ProbabilityModel) -> FunctionalTable:
    """Value table of sum_k (X_k + 1)/2, the Bernoulli-sum functional."""
    return FunctionalTable(model, mask_orders(model.size).astype(float))
