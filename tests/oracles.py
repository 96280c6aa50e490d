"""Independent brute-force implementations used as test oracles.

Everything here works from first principles on explicit outcome lists and
index loops, never through the package's transforms or sparse algebra, so
agreement is evidence rather than tautology.  The exceptions reproduce an
earlier production route that the current one must match bit for bit: the
all-pairs scan of the fused kernel contraction, the postings-map engine that
ran it one (r, l) at a time, the sparse-kernel computation of
-D L^{-1}(F - E[F]) with the per-method enumeration bounds built on it, the
second-order bound that holds every D_j D_l F table and sums each moment
with its own ``math.fsum``, the product formula's (r, l) loop written out
separately for ``multiply`` and for the J_m bound's grouped kernels (f's,
and all slices' term by term), each term one call, the terms of one order
added by one ``math.fsum`` per key (:func:`fsum_by_order`), the
Monte Carlo distance drawn from one sequential generator in whole chunks with
the evaluator reading one strided column per factor, and the Chen-Stein
solution built term by term from the ratio recurrences for each k, and the
dict route: a kernel as {1-based index tuple: coefficient} (:class:`DictKernel`)
with the operations that walked it, which the array Kernel must match bit for
bit, row order and first error included.
:func:`kernel_add` is the key-by-key sum of two Kernels, one IEEE addition
per key: where at most two terms share an order, the product formula's sum
equals it.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from radstein.bounds import BoundReport
from radstein.chaos import (
    ChaosExpansion,
    _forward_transform,
    _inverse_transform,
    decompose,
    mask_orders,
    to_table,
)
from radstein.chenstein import (
    _TERM_EPS,
    _check_lambda,
    _check_range,
    poisson_set_prob,
)
from radstein import distance
from radstein.errors import (
    IndexOutOfRange,
    LengthMismatch,
    MalformedField,
    OrderMismatch,
    TooFewSamples,
    TooManySamples,
)
from radstein.kernels import (
    Kernel,
    RawTensor,
    _check_contraction_indices,
    _check_kernel_indices,
    inner_product,
    norm_sq,
    slice_kernel,
)
from radstein.malliavin import gradient_pathwise, pseudo_inverse
from radstein.model import (
    FunctionalTable,
    _check_table,
    _integer,
    rounded_integers,
    stable_sum,
)


def kernel_add(f: Kernel, g: Kernel) -> Kernel:
    """f + g: one IEEE addition per key, zero sums dropped."""
    if f.order != g.order:
        raise OrderMismatch(f"orders {f.order} and {g.order} differ")
    acc = dict(f.entries)
    for key, value in g.entries.items():
        acc[key] = acc.get(key, 0.0) + value
    return Kernel(f.order, acc)


def kernel_value(f, key) -> float:
    """Value of the function f represents at an arbitrary index tuple."""
    key = tuple(key)
    if len(set(key)) != len(key):
        return 0.0
    return f.entries.get(tuple(sorted(key)), 0.0)


# The dict route.  Indices and orders follow the package's integer rule.


def _dict_indices(key) -> tuple:
    key = tuple(key)
    try:
        return tuple([_integer(i, "index") for i in key])
    except ValueError:
        raise ValueError(f"tuple {key} holds an index that is not an integer") from None


@dataclass(frozen=True, eq=False)
class DictKernel:
    """A kernel as {1-based strictly increasing index tuple: coefficient} in
    the caller's order: order an integer, each entry of that length,
    positive, strictly increasing and finite, in turn; zeros dropped."""

    order: int
    entries: dict

    def __post_init__(self):
        order = _integer(self.order, "kernel order")
        if order < 0:
            raise ValueError("kernel order must be nonnegative")
        clean = {}
        for key, value in self.entries.items():
            key = _dict_indices(key)
            value = float(value)
            if len(key) != order:
                raise ValueError(f"tuple {key} has length {len(key)}, expected {order}")
            if any(i < 1 for i in key):
                raise IndexOutOfRange(f"tuple {key} contains a non-positive index")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"tuple {key} is not strictly increasing")
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient at {key}")
            if value != 0.0:
                clean[key] = value
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def built(cls, order, entries):
        """From float entries at valid keys: only finiteness is checked, at
        the first key in order, and zeros are dropped."""
        for key, value in entries.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient at {key}")
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "order", order)
        object.__setattr__(kernel, "entries", {k: v for k, v in entries.items() if v})
        return kernel

    def is_zero(self):
        return not self.entries

    def max_index(self):
        return max((t[-1] for t in self.entries if t), default=0)

    def scaled(self, a):
        a = float(a)
        return DictKernel.built(self.order, {t: a * c for t, c in self.entries.items()})


def as_dict_kernel(f) -> DictKernel:
    return DictKernel(f.order, dict(f.entries))


def dict_rows(f) -> tuple:
    """A DictKernel's (order, key rows, values) as a Kernel holds them, in
    its order, as bytes."""
    keys = np.array(list(f.entries), np.int32).reshape(len(f.entries), f.order) - 1
    return f.order, keys.tobytes(), np.array(list(f.entries.values()), float).tobytes()


def array_rows(f) -> tuple:
    """A Kernel's (order, key rows, values) as bytes: int32 keys compare
    equal to :func:`dict_rows`' only."""
    return f.order, f.keys.tobytes(), f.values.tobytes()


def dict_from_pairs(order, pairs) -> DictKernel:
    """Duplicates summed by one ``math.fsum`` per key, in order of first
    appearance, raising at the first that fails, then the DictKernel's
    checks."""
    groups = {}
    for key, value in pairs:
        key = tuple(sorted(_dict_indices(key)))
        if len(set(key)) != len(key):
            raise ValueError(f"tuple {key} repeats an index")
        groups.setdefault(key, []).append(float(value))
    return DictKernel(order, {key: math.fsum(values) for key, values in groups.items()})


def dict_inner_product(f, g) -> float:
    if f.order != g.order:
        raise OrderMismatch(f"orders {f.order} and {g.order} differ")
    small, large = (f, g) if len(f.entries) <= len(g.entries) else (g, f)
    return math.factorial(f.order) * math.fsum(
        c * large.entries.get(t, 0.0) for t, c in small.entries.items()
    )


def dict_slice_kernel(f, k) -> DictKernel:
    if f.order < 1:
        raise OrderMismatch("cannot slice a scalar kernel")
    k = _integer(k, "index")
    if k < 1:
        raise IndexOutOfRange(f"index {k} is not positive")
    return DictKernel.built(
        f.order - 1,
        {tuple(i for i in key if i != k): v for key, v in f.entries.items() if k in key},
    )


def dict_to_table(model, expansion) -> FunctionalTable:
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


def dict_evaluate_on_signs(model, expansion, signs) -> np.ndarray:
    """The evaluator on valid +-1 signs: one row of Y values per coordinate
    used, each entry's product accumulated in entry order."""
    for kernel in expansion.kernels.values():
        _check_kernel_indices(model, kernel)
    used = sorted({i for f in expansion.kernels.values() for key in f.entries for i in key})
    cols = np.array(used, dtype=np.intp) - 1
    plus = np.ascontiguousarray(np.asarray(signs).T[cols]) == 1
    y = dict(zip(used, np.where(plus, model.y_plus[cols, None], model.y_minus[cols, None])))
    out = np.full(len(signs), expansion.mean)
    for order, kernel in expansion.kernels.items():
        scale = math.factorial(order)
        for (i1, *rest), coeff in kernel.entries.items():
            prod = (scale * coeff) * y[i1]
            for i in rest:
                prod *= y[i]
            out += prod
    return out


def dict_decompose(model, table) -> ChaosExpansion:
    """Kernels keyed mask by mask, ascending, each order's built in order of
    its first mask."""
    _check_table(model, table)
    coeffs = _forward_transform(model, table.values)
    orders = mask_orders(model.size)
    kernels = {}
    for mask in (np.flatnonzero(coeffs[1:]) + 1).tolist():
        order = int(orders[mask])
        key = tuple(k + 1 for k in range(model.size) if (mask >> k) & 1)
        kernels.setdefault(order, {})[key] = coeffs[mask] / math.factorial(order)
    return ChaosExpansion(
        float(coeffs[0]), {order: DictKernel(order, e) for order, e in kernels.items()}
    )


def dict_gradient_chaos(expansion, k) -> ChaosExpansion:
    k = _integer(k, "index")
    if k < 1:
        raise IndexOutOfRange(f"index {k} is not positive")
    mean, kernels = 0.0, {}
    for order, kernel in expansion.kernels.items():
        sliced = dict_slice_kernel(kernel, k).scaled(float(order))
        if sliced.is_zero():
            continue
        if order == 1:
            mean = sliced.entries.get((), 0.0)
        else:
            kernels[order - 1] = sliced
    return ChaosExpansion(mean, kernels)


def dict_divergence(model, u) -> ChaosExpansion:
    """Each component's contributions as (tuple, value) pairs, merged per
    order by :func:`dict_from_pairs`."""
    raw = {}
    for k, component in u.components.items():
        k = _integer(k, "component index", MalformedField)
        if not 1 <= k <= model.size:
            raise MalformedField(f"component index {k} outside 1..{model.size}")
        _check_kernel_indices(model, *component.kernels.values())
        if component.max_order() >= model.size:
            raise MalformedField(
                f"component {k} holds order {component.max_order()}, so the "
                f"assembled kernel would exceed order N = {model.size}"
            )
        if component.mean != 0.0:
            raw.setdefault(1, []).append(((k,), component.mean))
        for order, kernel in component.kernels.items():
            raw.setdefault(order + 1, []).extend(
                (key + (k,), value / (order + 1))
                for key, value in kernel.entries.items()
                if k not in key
            )
    return ChaosExpansion(0.0, {n: dict_from_pairs(n, p) for n, p in raw.items()})


def all_outcomes(n):
    """Sign tuples ordered by ascending bitmask (bit k-1 set means +1)."""
    return [
        tuple(1 if (idx >> k) & 1 else -1 for k in range(n)) for idx in range(1 << n)
    ]


def weight(p, bits):
    w = 1.0
    for pk, b in zip(p, bits):
        w *= pk if b == 1 else 1.0 - pk
    return w


def y_val(p, k, bits):
    """Standardized value of coordinate k (1-based) at an outcome."""
    pk = p[k - 1]
    qk = 1.0 - pk
    return math.sqrt(qk / pk) if bits[k - 1] == 1 else -math.sqrt(pk / qk)


def brute_integral(p, kernel, bits):
    """n! sum over increasing tuples of coeff * product of Y's."""
    if kernel.order == 0:
        return kernel.entries.get((), 0.0)
    total = 0.0
    for key, coeff in sorted(kernel.entries.items()):
        prod = coeff
        for i in key:
            prod *= y_val(p, i, bits)
        total += prod
    return math.factorial(kernel.order) * total


def brute_table(p, mean, kernels):
    """Value table of mean + sum of integrals, one outcome at a time."""
    outs = all_outcomes(len(p))
    vals = []
    for bits in outs:
        v = mean
        for kernel in kernels.values():
            v += brute_integral(p, kernel, bits)
        vals.append(v)
    return np.array(vals)


def brute_expect(p, values):
    outs = all_outcomes(len(p))
    return math.fsum(weight(p, bits) * v for bits, v in zip(outs, values))


def full_function(kernel):
    """The kernel as an explicit dict over all argument orderings."""
    out = {}
    for key, value in kernel.entries.items():
        for perm in set(itertools.permutations(key)):
            out[perm] = value
    return out


def kernel_as_raw(f):
    """Expand a kernel to its full RawTensor, one entry per rearrangement."""
    entries = {}
    for key, value in f.entries.items():
        for perm in itertools.permutations(key):
            entries[perm] = value
    return RawTensor(f.order, entries)


def to_kernel(t):
    """Symmetrize a RawTensor, drop diagonal positions, store increasing
    tuples."""
    groups = {}
    for key, value in t.entries.items():
        if len(set(key)) != len(key):
            continue
        groups.setdefault(tuple(sorted(key)), []).append(value)
    size = math.factorial(t.order)
    entries = {}
    for rep, values in groups.items():
        if len(values) == size and all(v == values[0] for v in values):
            entries[rep] = values[0]
        else:
            entries[rep] = stable_sum(values) / size
    return Kernel(t.order, entries)


def brute_contract(f, g, r, ell, support):
    """Direct nested-loop evaluation of the contraction definition."""
    ff, gg = full_function(f), full_function(g)
    n, m = f.order, g.order
    out = {}
    for fi in itertools.product(support, repeat=n - r):
        for ki in itertools.product(support, repeat=r - ell):
            for gj in itertools.product(support, repeat=m - r):
                total = math.fsum(
                    ff.get(fi + ki + a, 0.0) * gg.get(gj + ki + a, 0.0)
                    for a in itertools.product(support, repeat=ell)
                    if len(set(a)) == ell
                )
                if total != 0.0:
                    out[fi + ki + gj] = total
    return out


def all_pairs_sym_offdiag_weighted_contract(model, f, g, r, ell):
    """The fused symmetrized off-diagonal weighted contraction computed by
    intersecting every pair of entries of f and g, with phi read from the
    model and the result built through the public Kernel constructor."""
    n, m = f.order, g.order
    out_order = n + m - r - ell
    base = (
        math.factorial(n - r)
        * math.factorial(r - ell)
        * math.factorial(m - r)
        * math.factorial(ell)
        / math.factorial(out_order)
    )
    terms = {}
    for tf, cf in f.entries.items():
        set_f = frozenset(tf)
        for tg, cg in g.entries.items():
            common = set_f.intersection(tg)
            if len(common) != r:
                continue
            union = set_f.union(tg)
            prod = base * cf * cg
            for summed in itertools.combinations(sorted(common), ell):
                w = prod
                for k in sorted(common.difference(summed)):
                    w *= model.phi[k - 1]
                key = tuple(sorted(union.difference(summed)))
                terms.setdefault(key, []).append(w)
    return Kernel(out_order, {key: math.fsum(vals) for key, vals in terms.items()})


def _pairs_sharing(f, g, r):
    """Yield (T_f, f(T_f), T_g, g(T_g), shared indices) for every entry pair
    sharing exactly r indices, in the order of an all-pairs scan.

    For r >= 1 a postings map from coordinate to the positions of the g
    entries containing it counts the shared indices of each f entry against
    only the g entries it meets; for r = 0 the disjoint pairs are scanned.
    """
    g_items = list(g.entries.items())
    if r == 0:
        for tf, cf in f.entries.items():
            set_f = frozenset(tf)
            for tg, cg in g_items:
                if set_f.isdisjoint(tg):
                    yield tf, cf, tg, cg, frozenset()
        return
    postings = {}
    for j, (tg, _) in enumerate(g_items):
        for i in tg:
            postings.setdefault(i, []).append(j)
    for tf, cf in f.entries.items():
        shared = Counter(
            itertools.chain.from_iterable(postings.get(i, ()) for i in tf)
        )
        set_f = frozenset(tf)
        for j in sorted(j for j, count in shared.items() if count == r):
            tg, cg = g_items[j]
            yield tf, cf, tg, cg, set_f.intersection(tg)


def postings_sym_offdiag_weighted_contract(model, f, g, r, ell):
    """The one-call-per-(r, l) engine that ``kernels._contract_rows``
    replaced: a postings map rebuilt on each call, and each split's weight
    and key formed in pure Python.  It raises InvalidContractionIndices
    first, IndexOutOfRange at the first kept index beyond N, then what
    ``math.fsum`` or the non-finite check meets."""
    n, m = f.order, g.order
    _check_contraction_indices(n, m, r, ell)
    out_order = n + m - r - ell
    base = (
        math.factorial(n - r)
        * math.factorial(r - ell)
        * math.factorial(m - r)
        * math.factorial(ell)
        / math.factorial(out_order)
    )
    phi = model.phi.tolist()
    terms = {}
    for tf, cf, tg, cg, common in _pairs_sharing(f, g, r):
        union = common.union(tf, tg)
        prod = base * cf * cg
        for summed in itertools.combinations(sorted(common), ell):
            kept = sorted(common.difference(summed))
            w = prod
            for k in kept:
                model.check_index(k)
                w *= phi[k - 1]
            key = tuple(sorted(union.difference(summed)))
            terms.setdefault(key, []).append(w)
    return Kernel(out_order, {key: math.fsum(vals) for key, vals in terms.items()})


def fsum_by_order(parts):
    """The product formula's sum on dicts, by its rule: parts are (order,
    scale, {(lead, key): value}) in term order.  Each value is multiplied by
    its part's scale, then the values of one (lead, key) of an order are
    added by one ``math.fsum``, in order of first appearance, orders in
    order of their first part.  Each order raises at its first sum that
    fails in ``math.fsum``, else at its first non-finite sum, as the
    ValueError of ``Kernel`` naming the key; zero sums are dropped.  Returns
    {order: {(lead, key): sum}}."""
    by_order = {}
    for order, scale, entries in parts:
        grouped = by_order.setdefault(order, {})
        for lead_key, value in entries.items():
            grouped.setdefault(lead_key, []).append(scale * value)
    out = {}
    for order, grouped in by_order.items():
        sums = {lead_key: math.fsum(values) for lead_key, values in grouped.items()}
        for (_, key), value in sums.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient at {key}")
        out[order] = {lead_key: value for lead_key, value in sums.items() if value}
    return out


def _led(kernel, lead=0):
    return {(lead, key): value for key, value in kernel.entries.items()}


def fsum_contracts(model, f, g, terms):
    """{order: Kernel} of the terms (r, l, scale): each (r, l) formed by one
    :func:`postings_sym_offdiag_weighted_contract` call, in term order, then
    summed by :func:`fsum_by_order`."""
    parts = []
    for r, ell, scale in terms:
        part = postings_sym_offdiag_weighted_contract(model, f, g, r, ell)
        parts.append((part.order, scale, _led(part)))
    return {
        order: Kernel(order, {key: v for (_, key), v in sums.items()})
        for order, sums in fsum_by_order(parts).items()
    }


def loop_multiply(model, f, g):
    """J_n(f) J_m(g) as (mean, {order: kernel}): every (r, l) term of the
    product formula, the order-0 one included, by :func:`fsum_contracts`."""
    n, m = f.order, g.order
    terms = [
        (r, ell, math.factorial(r) * math.comb(n, r) * math.comb(m, r) * math.comb(r, ell))
        for r in range(0, min(n, m) + 1)
        for ell in range(0, r + 1)
    ]
    kernels = fsum_contracts(model, f, g, terms)
    mean = kernels.pop(0, Kernel.zero(0)).entries.get((), 0.0)
    return mean, {o: k for o, k in kernels.items() if not k.is_zero()}


def jm_coefficient(m, r, ell):
    return float(
        math.factorial(r - 1)
        * math.comb(m - 1, r - 1) ** 2
        * math.comb(r - 1, ell - 1)
    )


def _jm_terms(m):
    """(r, l, order) of the J_m bound's kernels above order 0: r = 1..m,
    l = 1..r, order 2m - r - l."""
    return [
        (r, ell, 2 * m - r - ell)
        for r in range(1, m + 1)
        for ell in range(1, r + 1)
        if 2 * m - r - ell > 0
    ]


def grouped_kernels(model, f, m):
    """Kernels above order 0 of sum_k (D_k J_m(f))^2 / m^2 (f of order m) or
    of (J_{m-1}(f))^2 (f a slice of order m - 1), by order: the contraction
    at (r, l) shifted down by m - order(f), one call each, r = 1..m,
    l = 1..r, with coefficient (r-1)! C(m-1, r-1)^2 C(r-1, l-1) at order
    2m - r - l, summed by :func:`fsum_contracts`."""
    offset = m - f.order
    terms = [(r - offset, ell - offset, jm_coefficient(m, r, ell)) for r, ell, _ in _jm_terms(m)]
    return fsum_contracts(model, f, f, terms)


def slice_grouped_kernels(model, f):
    """(slices, sums): the nonzero slices (k, f_k), k ascending, and the
    :func:`grouped_kernels` sums of all of them at once, as
    {order: {(k - 1, key): sum}}, formed in the batched engine's order: term
    by term, one call per slice, raising at the first term that fails
    (within it, the first slice's ``math.fsum`` error, else the first
    slice's non-finite sum), then :func:`fsum_by_order` over each term's
    slices in turn."""
    m = f.order
    slices = [(k, slice_kernel(f, k)) for k in range(1, model.size + 1)]
    slices = [(k, fk) for k, fk in slices if not fk.is_zero()]
    parts = []
    for r, ell, s in _jm_terms(m):
        found = {}
        for k, fk in slices:
            try:
                part = postings_sym_offdiag_weighted_contract(model, fk, fk, r - 1, ell - 1)
            except (ValueError, OverflowError) as err:
                found[str(err).startswith("non-finite coefficient"), k] = err
                continue
            parts.append((s, jm_coefficient(m, r, ell), _led(part, k - 1)))
        if found:
            raise found[min(found)]
    return slices, fsum_by_order(parts)


def _drifted(model, slices, special, m):
    """{k - 1: special kernel entries} of each slice: its order-(m - 1) sums
    plus f_k (1/m) sqrt(pq)(p - q), one ``math.fsum`` per key, raising at the
    first that fails, in order of first appearance (``special``'s keys, then
    each slice's)."""
    values = {lead_key: [v] for lead_key, v in special.items()}
    for k, fk in slices:
        sigma = model.sigma[k - 1]
        drift = sigma * (model.p[k - 1] - model.q[k - 1])
        for key, v in fk.scaled(drift / m).entries.items():
            values.setdefault((k - 1, key), []).append(v)
    out = {}
    for (lead, key), vals in values.items():
        out.setdefault(lead, {})[key] = math.fsum(vals)
    return out


def _slice_pieces(model, f, slices, sums, special):
    """Each slice's coordinate-block summand of the J_m bound from its
    squared norms."""
    m = f.order
    per_k = []
    for k, fk in slices:
        pieces = [(math.factorial(m - 1) * norm_sq(fk)) ** 2]
        for s, entries in sums.items():
            if s != m - 1:
                kernel = Kernel(s, {key: v for (x, key), v in entries.items() if x == k - 1})
                pieces.append(math.factorial(s) * norm_sq(kernel))
        kernel = Kernel(m - 1, special.get(k - 1, {}))
        pieces.append(math.factorial(m - 1) * norm_sq(kernel))
        per_k.append(stable_sum(pieces) / float(model.p[k - 1] * model.q[k - 1]))
        if math.isinf(per_k[-1]):
            raise OverflowError(f"the coordinate block of slice {k} overflows")
    return per_k


def grouped_jm_bound(model, f, shift, lam):
    """The fixed-order bound for shift + J_m(f) built on
    :func:`kernel_route_jm_terms`, with the Chen-Stein factors written out;
    lam is checked by the caller and no integer check is made."""
    m = f.order
    sup_f = min(1.0, math.sqrt(2.0 / (math.e * lam)))
    diff_f = -math.expm1(-lam) / lam
    var = math.factorial(m) * inner_product(f, f)
    t3, t4 = kernel_route_jm_terms(model, f, lam)
    t1 = sup_f * abs(lam - float(shift))
    t2 = diff_f * abs(lam - var)
    t34 = math.fsum((t3, t4))
    return BoundReport(
        lam,
        t1,
        t2,
        t34,
        math.fsum((t1, t2, t34)),
        "jm",
        {"term_fluctuation": t3, "term_coordinate_block": t4, "order": m},
    )


def kernel_route_jm_terms(model, f, lam):
    """(term_fluctuation, term_coordinate_block) of ``jm_bound`` computed on
    ``Kernel`` objects and dicts, with no engine code of the package: the
    index check first, then f's kernels (:func:`grouped_kernels`), all
    slices' kernels (:func:`slice_grouped_kernels`), each slice's special
    kernel with its drift summand (:func:`_drifted`), and each norm from
    ``norm_sq``, raising what that route meets, in its order."""
    from radstein.chenstein import stein_factors

    _check_kernel_indices(model, f)
    m = f.order
    diff_f = stein_factors(lam).diff_bound
    var = math.factorial(m) * inner_product(f, f)
    grouped = grouped_kernels(model, f, m)
    fluct = stable_sum(math.factorial(s) * norm_sq(k) for s, k in grouped.items())
    slices, sums = slice_grouped_kernels(model, f)
    special = _drifted(model, slices, sums.get(m - 1, {}), m)
    per_k = _slice_pieces(model, f, slices, sums, special)
    t3 = diff_f * math.sqrt(m * m * fluct)
    return t3, diff_f * math.sqrt(var) * math.sqrt(m ** 3 * stable_sum(per_k))


def explicit_j2_bound(p, f, shift, lam):
    """Order-2 total-variation bound for shift + J_2(f) in its explicit form,
    with coefficients 4, 8 (fluctuation block) and 8, 16, 8 (coordinate
    block), every contraction evaluated by :func:`brute_contract` and phi
    derived from p.  Returns (remainder term, total)."""
    support = list(range(1, len(p) + 1))
    q = [1.0 - pk for pk in p]
    sigma = [math.sqrt(pk * qk) for pk, qk in zip(p, q)]
    phi = [(qk - pk) / s for pk, qk, s in zip(p, q, sigma)]
    sup_f = min(1.0, math.sqrt(2.0 / (math.e * lam)))
    diff_f = -math.expm1(-lam) / lam

    def offdiag_sq(entries):
        return math.fsum(
            v * v for key, v in entries.items() if len(set(key)) == len(key)
        )

    def phi_weighted(entries):
        return {(i,): v * phi[i - 1] for (i,), v in entries.items()}

    var = 2.0 * (2 * math.fsum(c * c for c in f.entries.values()))
    first_block = math.sqrt(
        4.0 * offdiag_sq(phi_weighted(brute_contract(f, f, 2, 1, support)))
        + 8.0 * offdiag_sq(brute_contract(f, f, 1, 1, support))
    )
    ff = full_function(f)
    per_k = []
    for k in support:
        fk = Kernel(1, {(i,): ff[(i, k)] for i in support if (i, k) in ff})
        if fk.is_zero():
            continue
        drift = sigma[k - 1] * (p[k - 1] - q[k - 1])
        sq_norm = math.fsum(c * c for c in fk.entries.values())
        tensor_sq = offdiag_sq(brute_contract(fk, fk, 0, 0, support))
        mixed = phi_weighted(brute_contract(fk, fk, 1, 0, support))
        for key, c in fk.entries.items():
            mixed[key] = mixed.get(key, 0.0) + 0.5 * drift * c
        mixed_sq = offdiag_sq(mixed)
        per_k.append(
            (8.0 * sq_norm * sq_norm + 16.0 * tensor_sq + 8.0 * mixed_sq)
            / (p[k - 1] * q[k - 1])
        )
    second_block = math.sqrt(var) * math.sqrt(math.fsum(per_k))
    t1 = sup_f * abs(lam - shift)
    t2 = diff_f * abs(lam - var)
    t3 = math.fsum((diff_f * first_block, diff_f * second_block))
    return t3, math.fsum((t1, t2, t3))


def poisson_binomial_pmf(p):
    """Exact pmf of a sum of independent Bernoulli(p_k), by PGF convolution."""
    probs = np.array([1.0])
    for pk in p:
        nxt = np.zeros(len(probs) + 1)
        nxt[:-1] = probs * (1.0 - pk)
        nxt[1:] += probs * pk
        probs = nxt
    return {k: float(v) for k, v in enumerate(probs) if v > 0.0}


def tv_maximizing_set(pmf, lam):
    """The set A* = {k : pmf(k) > P(Po(lam) = k)} and its gap
    pmf(A*) - P(Po(lam) in A*), which is the total variation distance.  A*
    lies inside pmf's support, so no truncation is needed."""
    pois = {k: math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in pmf}
    star = [k for k in sorted(pmf) if pmf[k] > pois[k]]
    return star, math.fsum(pmf[k] - pois[k] for k in star)


def stein_solution_formula(lam, contains, pi, k):
    """(k-1)!/lam^k * sum_{j<k} (1_A(j) - pi) lam^j / j!, literal factorials.

    Only well conditioned for k up to about lam + 1: beyond that the factor
    (k-1)!/lam^k amplifies the rounding of pi without bound.
    """
    total = 0.0
    for j in range(k):
        total += ((1.0 if contains(j) else 0.0) - pi) * lam ** j / math.factorial(j)
    return math.factorial(k - 1) / lam ** k * total


def stein_solution_highprec(lam, members, k, digits=150):
    """The same prefix formula in high-precision decimal arithmetic.

    With the set probability carried at full precision the cancellation for
    k >> lam is resolved exactly, so this is a trustworthy reference for the
    bounded solution on k <= 30 at any lam in [0.05, 50].
    """
    import decimal

    with decimal.localcontext(decimal.Context(prec=digits)):
        lam_d = decimal.Decimal(repr(lam))
        exp_neg = (-lam_d).exp()
        pi = sum(
            exp_neg * lam_d**j / math.factorial(j) for j in sorted(members)
        )
        total = sum(
            ((1 if j in members else 0) - pi) * lam_d**j / math.factorial(j)
            for j in range(k)
        )
        value = decimal.Decimal(math.factorial(k - 1)) / lam_d**k * total
        return float(value)


def rand_model_p(rng, size, lo=0.05, hi=0.95):
    return [rng.uniform(lo, hi) for _ in range(size)]


def rand_kernel(rng, order, size, density=0.6, lo=-1.0, hi=1.0):
    entries = {}
    for key in itertools.combinations(range(1, size + 1), order):
        if rng.random() < density:
            entries[key] = rng.uniform(lo, hi)
    if not entries and order <= size:
        key = tuple(sorted(rng.sample(range(1, size + 1), order)))
        entries[key] = rng.uniform(0.2, 1.0)
    return Kernel(order, entries)


def rand_integer_table(rng, num_outcomes, top=6):
    return np.array([float(rng.randint(0, top)) for _ in range(num_outcomes)])


def dict_minus_gradient_pseudo_inverse(model, table):
    """Arrays of -D_k L^{-1}(F - E[F]) for k = 1..N through the kernel route:
    decompose, pseudo_inverse, to_table, then one coordinate flip per k."""
    inverse_table = to_table(model, pseudo_inverse(decompose(model, table)))
    return [
        -gradient_pathwise(model, inverse_table, k).values
        for k in range(1, model.size + 1)
    ]


def dict_route_bound(model, table, lam, method):
    """Terms (mean shift, variance-like, remainder) of the enumeration bound
    ``method`` ("main", "main_reduced" or "wasserstein"), one method per call,
    each gradient a full table and -D L^{-1} from the kernel route.
    "main_reduced" sums the remainder per k with X_k integrated out, the
    other order of main's sum: the package reports main's remainder for it,
    and this order is the independent cross-check."""
    w = model.outcome_weights
    idx = np.arange(model.num_outcomes)
    grads = [
        gradient_pathwise(model, table, k).values for k in range(1, model.size + 1)
    ]
    minus_dl = dict_minus_gradient_pseudo_inverse(model, table)
    inner = np.zeros(model.num_outcomes)
    for dk, gk in zip(grads, minus_dl):
        inner += dk * gk
    gap = math.fsum(w * np.abs(lam - inner))
    mean = math.fsum(w * table.values)
    sup_f = min(1.0, math.sqrt(2.0 / (math.e * lam)))
    diff_f = -math.expm1(-lam) / lam
    if method == "main_reduced":
        per_k = []
        for k, (dk, gk) in enumerate(zip(grads, minus_dl), start=1):
            sigma = model.sigma[k - 1]
            drift = sigma * (model.p[k - 1] - model.q[k - 1])
            per_k.append((1.0 / sigma) * math.fsum(w * dk * (dk + drift) * np.abs(gk)))
        return sup_f * abs(lam - mean), diff_f * gap, diff_f * math.fsum(per_k)
    scale = 0.5 if method == "wasserstein" else 1.0
    third = np.zeros(model.num_outcomes)
    for k, (dk, gk) in enumerate(zip(grads, minus_dl), start=1):
        sigma = model.sigma[k - 1]
        sign = np.where((idx >> (k - 1)) & 1 == 1, 1.0, -1.0)
        third += (scale / sigma) * dk * (dk + sigma * sign) * np.abs(gk)
    remainder = math.fsum(w * third)
    if method == "main":
        return sup_f * abs(lam - mean), diff_f * gap, diff_f * remainder
    c2 = min(1.0, 8.0 / (3.0 * math.sqrt(2.0 * math.e * lam)))
    c3 = min(4.0 / 3.0, 2.0 / lam)
    return abs(lam - mean), c2 * gap, c3 * remainder


def _fsum_array(values):
    return math.fsum(values.tolist())


def dict_second_order_bound(model, table, lam):
    """The second-order bound with every gradient a full table, all
    N(N+1)/2 second-gradient tables kept in a dict, and one ``math.fsum`` per
    moment; lam is checked and F's integer values are enforced by the caller."""
    w = model.outcome_weights
    n = model.size
    mean = _fsum_array(w * table.values)
    var = max(_fsum_array(w * (table.values - mean) ** 2), 0.0)
    sup_f = min(1.0, math.sqrt(2.0 / (math.e * lam)))
    diff_f = -math.expm1(-lam) / lam

    grads = [gradient_pathwise(model, table, k).values for k in range(1, n + 1)]
    grad_sq = [g * g for g in grads]
    second_sq = {}
    for j in range(1, n + 1):
        dj = FunctionalTable(model, grads[j - 1])
        for el in range(j, n + 1):
            d2 = gradient_pathwise(model, dj, el).values
            second_sq[(j, el)] = d2 * d2

    def dd_sq(j, el):
        return second_sq[(j, el)] if j <= el else second_sq[(el, j)]

    first_moments = {}
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            first_moments[(j, k)] = _fsum_array(w * grad_sq[j - 1] * grad_sq[k - 1])

    def m1(j, k):
        return first_moments[(j, k)] if j <= k else first_moments[(k, j)]

    triple_mixed = []
    triple_scaled = []
    for el in range(1, n + 1):
        pq = model.p[el - 1] * model.q[el - 1]
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                m2 = _fsum_array(w * dd_sq(el, j) * dd_sq(el, k))
                triple_mixed.append(math.sqrt(max(m1(j, k), 0.0) * max(m2, 0.0)))
                triple_scaled.append(m2 / pq)
    t3 = diff_f * math.sqrt(3.75 * math.fsum(triple_mixed))
    t4 = diff_f * math.sqrt(0.75 * max(math.fsum(triple_scaled), 0.0))

    per_k = []
    for k in range(1, n + 1):
        sigma = model.sigma[k - 1]
        drift = sigma * (model.p[k - 1] - model.q[k - 1])
        dk = grads[k - 1]
        quartic = _fsum_array(w * grad_sq[k - 1] * (dk + drift) ** 2)
        quadratic = _fsum_array(w * grad_sq[k - 1])
        per_k.append(math.sqrt(max(quartic, 0.0) * max(quadratic, 0.0)) / sigma)
    t5 = diff_f * math.fsum(per_k)

    t1 = sup_f * abs(lam - mean)
    t2 = diff_f * abs(lam - var)
    return BoundReport(
        lam,
        t1,
        t2,
        math.fsum((t3, t4, t5)),
        math.fsum((t1, t2, math.fsum((t3, t4, t5)))),
        "second_order",
        {"term_mixed_triple": t3, "term_scaled_triple": t4, "term_coordinate": t5},
    )


def columnwise_evaluate_on_signs(model, expansion, signs):
    """The functional on a (rows, N) sign matrix from a (rows, N) table of
    Y values, one strided column per factor; any entry other than 1 reads as
    -1."""
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] != model.size:
        raise LengthMismatch("sign matrix must have one column per coordinate")
    y = np.where(signs == 1, model.y_plus, model.y_minus)
    out = np.full(signs.shape[0], expansion.mean)
    for order, kernel in expansion.kernels.items():
        _check_kernel_indices(model, kernel)
        scale = math.factorial(order)
        for key, coeff in kernel.entries.items():
            prod = np.full(signs.shape[0], scale * coeff)
            for i in key:
                prod *= y[:, i - 1]
            out += prod
    return out


def sequential_tv_monte_carlo(model, evaluator, lam, samples, seed):
    """Monte Carlo total variation from one Philox generator keyed by the
    seed, drawn, evaluated and counted in whole blocks of
    ``distance._block_rows(model.size)`` outcomes (read at call time, so a
    test may patch it)."""
    lam = _check_lambda(lam)
    least, most = distance.MIN_MC_SAMPLES, distance.MAX_MC_SAMPLES
    if samples < least:
        raise TooFewSamples(f"need at least {least} samples, got {samples}")
    if samples > most:
        raise TooManySamples(f"at most {most} samples allowed, got {samples}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = np.zeros(1, dtype=np.int64)
    done = 0
    while done < samples:
        block = min(distance._block_rows(model.size), samples - done)
        u = gen.random((block, model.size))
        signs = np.where(u < model.p, 1, -1).astype(np.int8)
        values = np.asarray(evaluator(signs), dtype=float)
        ints = rounded_integers(values, countable=True, sampled=True).astype(np.int64)
        top = int(ints.max())
        if top >= counts.size:
            _check_range(top, lam, top)
            counts = np.concatenate(
                [counts, np.zeros(top + 1 - counts.size, dtype=np.int64)]
            )
        counts += np.bincount(ints, minlength=counts.size)
        done += block
    pmf = {k: c / samples for k, c in enumerate(counts) if c > 0}
    spread = stable_sum(p * (1.0 - p) for p in pmf.values())
    return replace(
        distance._half_l1_vs_poisson(pmf, lam),
        method="monte_carlo",
        samples=samples,
        seed=int(seed),
        std_error=0.5 * math.sqrt(spread / samples),
    )


def _solve_prefix(lam, target, pi, k):
    # f(k) = sum_{j<k} (1_A(j) - pi) * (k-1)! lam^{j-k} / j!, largest term last
    terms = []
    t = 1.0 / lam
    for j in range(k - 1, -1, -1):
        b = (1.0 if target.contains(j) else 0.0) - pi
        terms.append(b * t)
        t *= j / lam
    return stable_sum(terms)


def _solve_tail(lam, target, pi, k):
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


def loop_solve(lam, target, k_max):
    """The Chen-Stein solution on 0..k_max and its equation residuals on
    0..k_max-1, each term of each f(k) generated and tested for membership in
    its own loop step: (values, residuals)."""
    lam = _check_lambda(lam)
    pi = poisson_set_prob(lam, target)
    switch = math.ceil(lam) + 1
    values = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        values[k] = (
            _solve_prefix(lam, target, pi, k)
            if k <= switch
            else _solve_tail(lam, target, pi, k)
        )
    ks = np.arange(k_max)
    ind = np.array([1.0 if target.contains(int(k)) else 0.0 for k in ks])
    pi = poisson_set_prob(lam, target)
    return values, lam * values[1:] - ks * values[:-1] - (ind - pi)
