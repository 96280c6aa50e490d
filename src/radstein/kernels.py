"""Sparse symmetric off-diagonal kernels and their contraction algebra.

A :class:`Kernel` of order n holds ``keys``, an (nnz, n) int32 array of
0-based indices with strictly increasing rows, and ``values``, float64 with
no zeros, both read-only.  It represents the symmetric function on N^n that
takes a row's value on every rearrangement of its indices and 0 whenever two
arguments coincide.  Rows keep the order they arose in (the caller's mapping,
first appearance for ``from_pairs``, first contribution for the engine, the
parent's for ``scaled`` and :func:`slice_kernel`); row-by-row sums and
first-bad-key errors follow it, and an operation that needs sorted keys sorts
inside itself.  ``entries``, {1-based index tuple: value}, is a read-only
view derived from the arrays for readers outside the package.  Norms and
inner products are taken over all of N^n: a squared norm is n! times the
sum of squared coefficients, by one rule (:func:`_norms_sq`).

Contractions identify r argument pairs between two kernels and sum l of the
identified pairs over off-diagonal l-tuples.  Intermediate results need be
neither symmetric nor off-diagonal, so they live in :class:`RawTensor`, whose
entries enumerate every nonzero position explicitly.  Argument blocks of a
contraction of f (order n) with g (order m) are laid out as

    (n - r free f-slots, r - l identified-but-unsummed slots, m - r free g-slots)

and the weighted contraction multiplies each entry by the product of the
model's phi over the identified-but-unsummed slots.

:class:`RawTensor` and the plain contractions built on it (:func:`contract`,
:func:`weighted_contract`) expand every permutation explicitly: they are the
reference path that tests check against, outside the top-level API.  The
bounds and the product formula use one engine, ``_weighted_contracts``, fed
the entry pairs of f and g (``_contract_rows``) or of every slice of f with
itself at once (``_slice_contract_rows``), both found through the postings of
the second kernel's indices (``_pairs_by_shared_count``).
It takes terms (r, l, scale) and returns key rows (a lead, then the indices)
and coefficients by output order, which the product formula hands on and the
J_m bounds reduce to norms.  A coefficient is the correctly rounded sum of
its terms, each correctly rounded and scaled; errors come term by term, then
order by order.  Both entry points reject a kernel index beyond N before any
work (:func:`_check_kernel_indices`), so the engine reads phi at each index
directly.  Kernels built here from valid kernels (the engine's output,
``scaled``, :func:`slice_kernel`) are not re-parsed: at most finiteness is
checked and zeros are dropped (:func:`_finite_nonzero`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidContractionIndices,
    OrderMismatch,
)
from .model import (
    ProbabilityModel,
    _frozen,
    _integer,
    _key_runs,
    _sums_by_key,
    run_sums,
    stable_sum,
)

# The largest index a Kernel's int32 key rows hold.
_INDEX_LIMIT = np.iinfo(np.int32).max


def _indices(key) -> tuple:
    """key's indices by ``model._integer``."""
    key = tuple(key)
    try:
        return tuple([_integer(i, "index") for i in key])
    except ValueError:
        raise ValueError(f"tuple {key} holds an index that is not an integer") from None


def _validate(tensor, name: str, increasing: bool) -> None:
    """Set a new Kernel's or RawTensor's order, an integer by
    ``model._integer`` and nonnegative, and its entries: index tuples of that
    length, positive (and if ``increasing``, a Kernel's, strictly
    increasing), each with a finite value; zero values are dropped, and a
    Kernel keeps no index beyond int32."""
    order = _integer(tensor.order, f"{name} order")
    if order < 0:
        raise ValueError(f"{name} order must be nonnegative")
    clean = {}
    for key, value in tensor.entries.items():
        key = _indices(key)
        value = float(value)
        if len(key) != order:
            raise ValueError(f"tuple {key} has length {len(key)}, expected {order}")
        if any(i < 1 for i in key):
            raise IndexOutOfRange(f"tuple {key} contains a non-positive index")
        if increasing and any(a >= b for a, b in zip(key, key[1:])):
            raise ValueError(f"tuple {key} is not strictly increasing")
        if not math.isfinite(value):
            raise ValueError(f"non-finite coefficient at {key}")
        if increasing and value != 0.0 and key and key[-1] > _INDEX_LIMIT:
            raise IndexOutOfRange(f"tuple {key} holds an index beyond {_INDEX_LIMIT}")
        if value != 0.0:
            clean[key] = value
    object.__setattr__(tensor, "order", order)
    object.__setattr__(tensor, "entries", clean)


class Kernel:
    """Symmetric off-diagonal kernel of ``order``, ``keys`` and ``values``;
    order 0 holds a single scalar at ()."""

    def __init__(self, order: int, entries):
        self.__dict__.update(order=order, entries=entries)
        self.__post_init__()

    def __post_init__(self):
        """Check the caller's ``entries`` and replace them by key rows and
        values, in the mapping's order."""
        _validate(self, "kernel", True)
        clean = self.__dict__.pop("entries")
        keys = np.array([i - 1 for key in clean for i in key], np.int32)
        self.__dict__.update(
            keys=_frozen(keys.reshape(len(clean), self.order)),
            values=_frozen(np.fromiter(clean.values(), float, len(clean))),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Kernel.{name}")

    @cached_property
    def entries(self) -> MappingProxyType:
        keys = map(tuple, (self.keys + 1).tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    @classmethod
    def zero(cls, order: int) -> "Kernel":
        return cls(order, {})

    @classmethod
    def from_pairs(cls, order: int, pairs) -> "Kernel":
        """Build from [index-tuple, coefficient] pairs, rows in order of first
        appearance; duplicates merge by their correctly rounded sum, so their
        order does not matter (OverflowError if the sum leaves the float
        range).  A key is grouped by its place in that order."""
        groups, index, values = {}, [], []
        for key, value in pairs:
            key = tuple(sorted(_indices(key)))
            if len(set(key)) != len(key):
                raise ValueError(f"tuple {key} repeats an index")
            index.append(groups.setdefault(key, len(groups)))
            values.append(float(value))
        sums = _sums_by_key(np.array(index, np.intp), np.array(values, float))[1]
        return cls(order, dict(zip(groups, sums.tolist())))

    def is_zero(self) -> bool:
        return not len(self.values)

    def max_index(self) -> int:
        return int(self.keys[:, -1].max()) + 1 if self.keys.size else 0

    def scaled(self, a: float) -> "Kernel":
        with np.errstate(over="ignore", invalid="ignore"):
            return _made(self.order, *_finite_nonzero(self.keys, float(a) * self.values))


def _finite_nonzero(keys: np.ndarray, values: np.ndarray, lead: int = 0) -> tuple:
    """(keys, values) without the zero values, raising the ValueError of
    ``Kernel(order, mapping)`` at the first non-finite value, named by its
    0-based key row after the ``lead`` columns."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < len(values):
        key = keys[np.flatnonzero(~finite)[0], lead:] + 1
        raise ValueError(f"non-finite coefficient at {tuple(key.tolist())}")
    if np.count_nonzero(values) == len(values):
        return keys, values
    return keys[values != 0.0], values[values != 0.0]


def _made(order: int, keys: np.ndarray, values: np.ndarray) -> Kernel:
    """The Kernel of finite nonzero ``values`` at 0-based key rows that are
    strictly increasing and distinct, in row order, made read-only."""
    kernel = object.__new__(Kernel)
    kernel.__dict__.update(order=order, keys=_frozen(keys), values=_frozen(values))
    return kernel


@dataclass(frozen=True, eq=False)
class RawTensor:
    """Finitely supported function on N^n with no symmetry requirement."""

    order: int
    entries: dict

    def __post_init__(self):
        _validate(self, "tensor", False)

    def is_zero(self) -> bool:
        return not self.entries


def _norms_sq(order: int, values: np.ndarray, starts, stops) -> np.ndarray:
    """Squared norms over N^order of the runs ``values[start:stop]``: order!
    times each run's correctly rounded sum of squares (``run_sums``), or inf."""
    with np.errstate(over="ignore"):
        return math.factorial(order) * np.array(run_sums(values * values, starts, stops))


def norm_sq(t) -> float:
    """Squared l2 norm over all of N^order, for a Kernel by :func:`_norms_sq`."""
    if isinstance(t, Kernel):
        return _norms_sq(t.order, t.values, [0], [len(t.values)]).item()
    return stable_sum(v * v for v in t.entries.values())


def norm(t) -> float:
    return math.sqrt(norm_sq(t))


def inner_product(f: Kernel, g: Kernel) -> float:
    """l2 inner product over N^order; orders must agree: the correctly
    rounded sum, over the rows of the kernel with fewer rows, of its value
    times the other's at that row or 0.0, rows matched by one stable sort of
    both kernels' rows."""
    if f.order != g.order:
        raise OrderMismatch(f"orders {f.order} and {g.order} differ")
    small, large = (f, g) if len(f.values) <= len(g.values) else (g, f)
    rank, edges = _key_runs(np.concatenate((small.keys, large.keys)))
    pairs = edges[:-1][np.diff(edges) == 2]  # a row of small, then its match
    matched = np.zeros(len(small.values))
    matched[rank[pairs]] = large.values[rank[pairs + 1] - len(small.values)]
    with np.errstate(over="ignore"):
        products = small.values * matched
    return math.factorial(f.order) * stable_sum(products)


def slice_kernel(f: Kernel, k: int) -> Kernel:
    """The order-(order-1) kernel f(., k) with one argument fixed at k, rows
    in f's order."""
    if f.order < 1:
        raise OrderMismatch("cannot slice a scalar kernel")
    k = _integer(k, "index")
    if k < 1:
        raise IndexOutOfRange(f"index {k} is not positive")
    rows = (f.keys == k - 1).nonzero()[0]  # the rows holding k, in f's order
    keys = f.keys[rows]
    keys = keys[keys != k - 1].reshape(len(rows), f.order - 1)
    return _made(f.order - 1, keys, f.values[rows])


def _check_kernel_indices(model: ProbabilityModel, *kernels: Kernel) -> None:
    top = max((f.max_index() for f in kernels), default=0)
    if top > model.size:
        raise IndexOutOfRange(f"kernel references index {top}, model has {model.size}")


def _check_contraction_indices(n: int, m: int, r: int, ell: int) -> None:
    if not (0 <= r <= min(n, m)) or not (0 <= ell <= r):
        raise InvalidContractionIndices(
            f"need 0 <= l <= r <= min(n, m) = {min(n, m)}, got r={r}, l={ell}"
        )


def contract(f: Kernel, g: Kernel, r: int, ell: int) -> RawTensor:
    """Contraction identifying r argument pairs and summing out l of them.

    The result has order n + m - r - l with the block layout documented in the
    module docstring.  Each output coefficient is the correctly rounded sum of
    all products contributing to that position, so the result is independent
    of enumeration order.
    """
    n, m = f.order, g.order
    _check_contraction_indices(n, m, r, ell)
    terms: dict[tuple, list] = {}
    for tf, cf in f.entries.items():
        set_f = frozenset(tf)
        for tg, cg in g.entries.items():
            common = set_f.intersection(tg)
            if len(common) < r:
                continue
            prod = cf * cg
            for identified in itertools.combinations(sorted(common), r):
                free_f = tuple(i for i in tf if i not in identified)
                free_g = tuple(j for j in tg if j not in identified)
                for summed in itertools.combinations(identified, ell):
                    kept = tuple(i for i in identified if i not in summed)
                    weight = math.factorial(ell)  # orderings of the summed tuple
                    for fi in itertools.permutations(free_f):
                        for ki in itertools.permutations(kept):
                            for gj in itertools.permutations(free_g):
                                terms.setdefault(fi + ki + gj, []).extend(
                                    [prod] * weight
                                )
    entries = {key: stable_sum(vals) for key, vals in terms.items()}
    return RawTensor(n + m - r - ell, entries)


def weighted_contract(
    model: ProbabilityModel, f: Kernel, g: Kernel, r: int, ell: int
) -> RawTensor:
    """Contraction with phi weights on the identified-but-unsummed slots.

    For l = r this is the plain contraction (empty phi product); for l < r it
    requires r >= 1 and multiplies each entry by phi over the kept slots, so a
    symmetric model (phi = 0) annihilates every l < r term.
    """
    n, m = f.order, g.order
    if ell == r:
        return contract(f, g, r, r)
    if not (1 <= r <= min(n, m)) or not (0 <= ell <= r - 1):
        raise InvalidContractionIndices(
            f"weighted contraction needs 1 <= r <= min(n, m) and 0 <= l < r, "
            f"got r={r}, l={ell}"
        )
    raw = contract(f, g, r, ell)
    lo = n - r
    hi = n - r + (r - ell)
    entries = {}
    for key, value in raw.entries.items():
        w = value
        for k in key[lo:hi]:
            model.check_index(k)
            w *= model.phi[k - 1]
        entries[key] = w
    return RawTensor(raw.order, entries)


def _pairs_by_shared_count(tf, tg, counts, lead=None) -> dict:
    """r -> (f rows, g rows) of the entry pairs sharing exactly r indices, in
    (f row, g row) order; each row of tf and tg holds one entry's indices.
    Each index of each f row meets the g rows that hold it (its postings),
    and one ``np.unique`` counts the meetings of each pair that meets, so no
    other pair is formed and no BLAS call is made.  With ``lead`` (one per
    row of tf, which is then tg too), or when r = 0 is asked for, each index
    is keyed by (lead, index), lead 0 if there is none, and each row gains a
    column holding only its lead: then exactly the same-lead pairs meet, a
    pair sharing r indices r + 1 times."""
    extra = lead is not None or 0 in counts
    if extra:

        def keyed(rows):
            """Index i under lead k as k 2^32 + i + 1, after the lead column k 2^32."""
            k = np.zeros(len(rows), np.int64) if lead is None else lead.astype(np.int64) << 32
            return np.column_stack((k, rows + 1 + k[:, None]))

        tf, tg = keyed(tf), keyed(tg)
    width_f, width_g = tf.shape[1], tg.shape[1]
    index = tg.ravel()
    postings = np.argsort(index)
    index = index[postings]
    lo = np.searchsorted(index, tf.ravel(), "left")
    size = np.searchsorted(index, tf.ravel(), "right") - lo
    # The t-th meeting of an index of f (from 0) is with its posting lo + t.
    first = np.repeat(lo - np.cumsum(size) + size, size)
    g_row = postings[np.arange(len(first)) + first] // width_g
    f_row = np.repeat(np.arange(size.size) // width_f, size)
    pair, shared = np.unique(f_row * len(tg) + g_row, return_counts=True)
    return {r: np.divmod(pair[shared == r + extra], len(tg)) for r in counts}


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple:
    """The correctly rounded sum (``model._sums_by_key``) of each key row's
    values, keys in order of first appearance, raising at the first sum that
    fails, else at the first non-finite one; zero sums are dropped."""
    firsts, sums = _sums_by_key(keys, values)
    return _finite_nonzero(keys[firsts], sums, 1)


def _weighted_contracts(model, n, m, terms, lead, tf, cf, tg, cg, pairs) -> dict:
    """{output order n + m - r - l: (key rows, coefficients)} of the terms
    (r, l, scale), (r, l) checked first, each scale at least 1, from the
    pairs ``pairs[r]`` of rows of tf and tg (0-based indices, order n and m,
    values cf and cg) under the lead of their tf row.  A key row is the
    lead, then the indices ascending.  Each split of a pair's r shared
    indices into l summed and r - l kept ones adds

        (n-r)! (r-l)! (m-r)! l! / |U|!  *  f(T_f) g(T_g)  *  phi(kept)

    (multiplied left to right, phi in ascending index order) at the tuple
    U = (T_f union T_g) minus the summed indices.  A term's coefficients are
    the :func:`_summed` sums of its contributions, keyed in order of first
    contribution (pair by pair, each pair's splits in turn), raising at that
    term, then multiplied by its scale.  An order with several terms sums
    their scaled coefficients per key once more (:func:`_summed`, term by
    term); then each order, in order of its first term, raises at its first
    non-finite coefficient.  The pairs come lead by lead.
    """
    for r, ell, _ in terms:
        _check_contraction_indices(n, m, r, ell)
    parts, current = {}, None
    for r, ell, scale in terms:
        out_order = n + m - r - ell
        if r != current:
            current, (rows_f, rows_g) = r, pairs[r]
            count = len(rows_f)
            both = np.sort(np.concatenate((tf[rows_f], tg[rows_g]), axis=1), axis=1)
            repeat = np.zeros(both.shape, dtype=bool)
            repeat[:, 1:] = both[:, 1:] == both[:, :-1]
            common = both[repeat].reshape(count, r)
            union = both[~repeat].reshape(count, n + m - r)
            cf_pairs, cg_pairs, leads = cf[rows_f], cg[rows_g], lead[rows_f]
        base = math.prod(map(math.factorial, (n - r, r - ell, m - r, ell)))
        base /= math.factorial(out_order)
        # Rows in scan order, lead first: pair by pair, each pair's splits.
        splits = list(itertools.combinations(range(r), ell))
        keys = np.empty((count, len(splits), 1 + out_order), np.int32)
        keys[:, :, 0] = leads[:, None]
        weights = np.empty((count, len(splits)))
        with np.errstate(over="ignore", invalid="ignore"):
            prod = base * cf_pairs * cg_pairs
            for s, summed in enumerate(splits):
                gone = (union[:, :, None] == common[:, None, list(summed)]).any(2)
                keys[:, s, 1:] = union[~gone].reshape(count, out_order)
                w = prod
                for k in sorted(set(range(r)).difference(summed)):
                    w = w * model.phi[common[:, k]]
                weights[:, s] = w
        keys, sums = _summed(keys.reshape(-1, 1 + out_order), weights.reshape(-1))
        with np.errstate(over="ignore"):
            parts.setdefault(out_order, []).append((keys, float(scale) * sums))
    rows = {}
    for out_order, group in parts.items():
        if len(group) == 1:
            rows[out_order] = _finite_nonzero(*group[0], 1)
        else:
            rows[out_order] = _summed(*map(np.concatenate, zip(*group)))
    return rows


def _contract_rows(model: ProbabilityModel, f: Kernel, g: Kernel, terms: list) -> dict:
    """The key rows and coefficients by output order (``_weighted_contracts``,
    lead 0) of the terms (r, l, scale): the symmetrized off-diagonal parts of
    ``weighted_contract(model, f, g, r, l)``, from the pairs of f and g
    sharing r indices, scaled and summed per order.  An index beyond N raises
    first, then an invalid (r, l), then each term's errors in term order and
    each order's."""
    _check_kernel_indices(model, f, g)
    pairs = _pairs_by_shared_count(f.keys, g.keys, {r for r, _, _ in terms})
    lead = np.zeros(len(f.keys), np.int32)
    args = terms, lead, f.keys, f.values, g.keys, g.values, pairs
    return _weighted_contracts(model, f.order, g.order, *args)


def _slice_contract_rows(model: ProbabilityModel, f: Kernel, terms: list) -> tuple:
    """(keys, values, rows): f's slices as key rows and values, each entry
    once per index k it holds, without k, led by k - 1 (lead by lead,
    ascending, each lead in f's order), and the key rows and coefficients by
    output order (``_weighted_contracts``) of the terms (r, l, scale) for all
    slices at once, slice k's under lead k - 1.  Each lead's pairs are its
    rows paired row by row, each with its lead's rows in order, found under
    the lead (``_pairs_by_shared_count``).  An index beyond N raises before
    any work; then the engine's errors, a term's at its first failing slice
    and an order's at its first key in output order (term by term, each
    term's slices in turn)."""
    if f.order < 1:
        raise OrderMismatch("cannot slice a scalar kernel")
    _check_kernel_indices(model, f)
    n = f.order - 1
    # Row (entry, index k of it) is the entry without k, led by k - 1.
    lead = f.keys.reshape(-1)
    drop = np.tile(~np.eye(f.order, dtype=bool), (len(f.keys), 1))
    rows = np.repeat(f.keys, f.order, axis=0)[drop].reshape(len(lead), n)
    order = np.argsort(lead, kind="stable")  # lead by lead, each in f's order
    lead, rows, cf = lead[order], rows[order], np.repeat(f.values, f.order)[order]
    pairs = _pairs_by_shared_count(rows, rows, {r for r, _, _ in terms}, lead)
    args = n, n, terms, lead, rows, cf, rows, cf, pairs
    return np.column_stack((lead, rows)), cf, _weighted_contracts(model, *args)


def sym_offdiag_weighted_contract(
    model: ProbabilityModel, f: Kernel, g: Kernel, r: int, ell: int
) -> Kernel:
    """The symmetrized off-diagonal part of ``weighted_contract(model, f, g,
    r, l)`` as a Kernel: :func:`_contract_rows` at the one term (r, l) with
    scale 1, which raises as it does."""
    ((order, (keys, values)),) = _contract_rows(model, f, g, [(r, ell, 1)]).items()
    return _made(order, keys[:, 1:], values)
