"""Sparse symmetric off-diagonal kernels and their contraction algebra.

A :class:`Kernel` of order n stores one coefficient per strictly increasing
1-based index tuple and represents the symmetric function on N^n that takes
that value on every rearrangement of the tuple and 0 whenever two arguments
coincide.  Norms and inner products are always taken over all of N^n, so a
squared kernel norm is n! times the sum of squared stored coefficients.

Contractions identify r argument pairs between two kernels and sum l of the
identified pairs over off-diagonal l-tuples.  Intermediate results need be
neither symmetric nor off-diagonal, so they live in :class:`RawTensor`, whose
entries enumerate every nonzero position explicitly.  Argument blocks of a
contraction of f (order n) with g (order m) are laid out as

    (n - r free f-slots, r - l identified-but-unsummed slots, m - r free g-slots)

and the weighted contraction multiplies each entry by the product of the
model's phi over the identified-but-unsummed slots.

:class:`RawTensor` and the plain contractions built on it (:func:`contract`,
:func:`weighted_contract`, :func:`to_kernel`, :func:`kernel_as_raw`) expand
every permutation explicitly: they are the reference path that tests check
against, outside the top-level API.  The bounds and the product formula use
only :func:`sym_offdiag_weighted_contracts` (all nnz_f x nnz_g entry pairs,
in numpy blocks of about ``_PAIR_BLOCK``) and :func:`slice_weighted_contracts`
(each slice's pairs, from postings): one emission of the symmetrized
off-diagonal kernels at every (r, l).
Kernels that this module builds from valid kernels (the engine's output,
``scaled``, :func:`kernel_add`, :func:`slice_kernel`) are not re-parsed:
only finiteness is checked and zeros are dropped.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidContractionIndices,
    OrderMismatch,
)
from .model import ProbabilityModel, stable_sum, sums_by_key


def _validate_entries(order: int, entries: dict, increasing: bool) -> dict:
    clean = {}
    for key, value in entries.items():
        key = tuple(int(i) for i in key)
        value = float(value)
        if len(key) != order:
            raise ValueError(f"tuple {key} has length {len(key)}, expected {order}")
        if any(i < 1 for i in key):
            raise IndexOutOfRange(f"tuple {key} contains a non-positive index")
        if increasing and any(a >= b for a, b in zip(key, key[1:])):
            raise ValueError(f"tuple {key} is not strictly increasing")
        if not math.isfinite(value):
            raise ValueError(f"non-finite coefficient at {key}")
        if value != 0.0:
            clean[key] = value
    return clean


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric off-diagonal kernel; order 0 holds a single scalar at ()."""

    order: int
    entries: dict

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("kernel order must be nonnegative")
        object.__setattr__(
            self, "entries", _validate_entries(self.order, self.entries, True)
        )

    @classmethod
    def _built(cls, order: int, entries: dict) -> "Kernel":
        """Kernel from float entries this module built out of valid kernels
        (keys already strictly increasing tuples of positive ints of length
        ``order``): only finiteness is checked and zeros are dropped."""
        if not all(map(math.isfinite, entries.values())):
            key = next(k for k, v in entries.items() if not math.isfinite(v))
            raise ValueError(f"non-finite coefficient at {key}")
        if not all(entries.values()):
            entries = {key: value for key, value in entries.items() if value}
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "order", order)
        object.__setattr__(kernel, "entries", entries)
        return kernel

    @classmethod
    def zero(cls, order: int) -> "Kernel":
        return cls(order, {})

    @classmethod
    def scalar(cls, c: float) -> "Kernel":
        return cls(0, {(): c} if c != 0.0 else {})

    @classmethod
    def from_pairs(cls, order: int, pairs) -> "Kernel":
        """Build from [index-tuple, coefficient] pairs; duplicates merge by
        their correctly rounded sum, so their order does not matter
        (OverflowError if the sum leaves the float range)."""
        keys, values = [], []
        for key, value in pairs:
            key = tuple(sorted(int(i) for i in key))
            if len(set(key)) != len(key):
                raise ValueError(f"tuple {key} repeats an index")
            keys.append(key)
            values.append(float(value))
        tuples = np.fromiter(keys, dtype=object, count=len(keys))
        firsts, sums = sums_by_key(tuples, np.array(values))
        return cls(order, dict(zip(tuples[firsts].tolist(), sums)))

    def is_zero(self) -> bool:
        return not self.entries

    def value(self, key) -> float:
        """Value of the represented function at an arbitrary index tuple."""
        key = tuple(key)
        if len(set(key)) != len(key):
            return 0.0
        return self.entries.get(tuple(sorted(key)), 0.0)

    def max_index(self) -> int:
        return max((t[-1] for t in self.entries if t), default=0)

    def scaled(self, a: float) -> "Kernel":
        a = float(a)
        return Kernel._built(self.order, {t: a * c for t, c in self.entries.items()})


@dataclass(frozen=True, eq=False)
class RawTensor:
    """Finitely supported function on N^n with no symmetry requirement."""

    order: int
    entries: dict

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("tensor order must be nonnegative")
        object.__setattr__(
            self, "entries", _validate_entries(self.order, self.entries, False)
        )

    def is_zero(self) -> bool:
        return not self.entries


def kernel_as_raw(f: Kernel) -> RawTensor:
    """Expand a kernel to its full tensor, one entry per rearrangement."""
    entries = {}
    for key, value in f.entries.items():
        for perm in itertools.permutations(key):
            entries[perm] = value
    return RawTensor(f.order, entries)


def norm_sq(t) -> float:
    """Squared l2 norm over all of N^order."""
    if isinstance(t, Kernel):
        return math.factorial(t.order) * stable_sum(
            c * c for c in t.entries.values()
        )
    return stable_sum(v * v for v in t.entries.values())


def norm(t) -> float:
    return math.sqrt(norm_sq(t))


def inner_product(f: Kernel, g: Kernel) -> float:
    """l2 inner product over N^order; orders must agree."""
    if f.order != g.order:
        raise OrderMismatch(f"orders {f.order} and {g.order} differ")
    small, large = (f, g) if len(f.entries) <= len(g.entries) else (g, f)
    return math.factorial(f.order) * stable_sum(
        c * large.entries.get(t, 0.0) for t, c in small.entries.items()
    )


def slice_kernel(f: Kernel, k: int) -> Kernel:
    """The order-(order-1) kernel f(., k) with one argument fixed at k."""
    if f.order < 1:
        raise OrderMismatch("cannot slice a scalar kernel")
    if k < 1:
        raise IndexOutOfRange(f"index {k} is not positive")
    return Kernel._built(
        f.order - 1,
        {
            tuple(i for i in key if i != k): value
            for key, value in f.entries.items()
            if k in key
        },
    )


def kernel_add(f: Kernel, g: Kernel) -> Kernel:
    if f.order != g.order:
        raise OrderMismatch(f"orders {f.order} and {g.order} differ")
    acc = dict(f.entries)
    for key, value in g.entries.items():
        acc[key] = acc.get(key, 0.0) + value
    return Kernel._built(f.order, acc)


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


def to_kernel(t: RawTensor) -> Kernel:
    """Symmetrize, drop diagonal positions, store increasing tuples."""
    groups: dict[tuple, list] = {}
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


# Entry pairs of f and g whose shared-index counts are formed at once.
_PAIR_BLOCK = 1 << 15


def _ranked(kernels) -> tuple:
    """Their indices, ascending, and each one's (index rank rows, values)."""
    names = sorted({i for h in kernels for key in h.entries for i in key})
    rank = {k: i for i, k in enumerate(names)}  # indices become their ranks
    rows = [[[rank[i] for i in key] for key in h.entries] for h in kernels]
    return names, [
        (np.array(r, np.int32).reshape(len(r), h.order), np.array([*h.entries.values()]))
        for r, h in zip(rows, kernels)
    ]


def _pairs_by_shared_count(tf: np.ndarray, tg: np.ndarray, counts) -> dict:
    """r -> (f rows, g rows) of the entry pairs sharing exactly r indices, in
    all-pairs scan order; each row of tf and tg holds one entry's indices.
    Counts are formed for about ``_PAIR_BLOCK`` pairs at a time."""
    step = max(1, _PAIR_BLOCK // max(1, len(tg)))
    found = {r: [(np.empty(0, np.intp),) * 2] for r in counts}
    for lo in range(0, len(tf), step):
        same = tf[lo : lo + step, None, :, None] == tg[None, :, None, :]
        shared = same.sum(axis=(2, 3))
        for r, pairs in found.items():
            i, j = np.nonzero(shared == r)
            pairs.append((i + lo, j))
    return {r: [np.concatenate(a) for a in zip(*p)] for r, p in found.items()}


def _weighted_contracts(model, names, n, m, terms, lead, tf, cf, tg, cg, pairs):
    """Per (r, l) of terms in order (checked first), the kernel under each
    lead, ascending, of the pairs ``pairs[r]`` of rows of tf and tg (index
    ranks, order n and m, values cf and cg); lead is per tf row.  Each split
    of a pair's r shared indices into l summed and r - l kept ones adds

        (n-r)! (r-l)! (m-r)! l! / |U|!  *  f(T_f) g(T_g)  *  phi(kept)

    (multiplied left to right, phi in ascending index order) at the tuple
    U = (T_f union T_g) minus the summed indices.  Each coefficient is the
    correctly rounded sum of its contributions (``model.sums_by_key``, the
    lead as first key column), keyed and summed in order of first
    contribution, pair by pair, each pair's splits in turn.
    """
    for r, ell in terms:
        _check_contraction_indices(n, m, r, ell)
    inside = bisect.bisect_right(names, model.size)  # ranks of indices 1..N
    phi = np.full(len(names), np.nan)
    phi[:inside] = model.phi[[k - 1 for k in names[:inside]]]
    names, wanted = np.array(names, dtype=object), sorted(set(lead.tolist()))
    current = None
    for r, ell in terms:
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
        if ell < r and count and common[:, -1].max() >= inside:
            # The first pair meeting an index beyond N, at its first split.
            row = common[np.argmax(common[:, -1] >= inside)]
            model.check_index(names[row[max(ell, np.argmax(row >= inside))]])
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
                    w = w * phi[common[:, k]]
                weights[:, s] = w
        keys, weights = keys.reshape(-1, 1 + out_order), weights.reshape(-1)
        firsts, sums = sums_by_key(keys, weights)
        columns = [names[c].tolist() for c in keys[firsts, 1:].T]
        tuples = zip(*columns) if out_order else [()] * len(sums)
        # The pairs come lead by lead, so each lead's groups form one run.
        ends = np.searchsorted(keys[firsts, 0], wanted, "right")
        items, sizes = zip(tuples, sums), np.diff(ends, prepend=0).tolist()
        yield [Kernel._built(out_order, dict(itertools.islice(items, z))) for z in sizes]


def sym_offdiag_weighted_contracts(
    model: ProbabilityModel, f: Kernel, g: Kernel, terms: list
):
    """Iterator over ``to_kernel(weighted_contract(model, f, g, r, l))`` at
    each (r, l) of terms in order, fed to ``_weighted_contracts`` from an
    all-pairs scan under one lead.  An invalid (r, l) raises before any
    kernel is formed; each kernel raises what its own computation meets when
    it is reached."""
    names, (f_rows, g_rows) = _ranked((f, g))
    pairs = _pairs_by_shared_count(f_rows[0], g_rows[0], {r for r, _ in terms})
    lead = np.zeros(max(1, len(f.entries)), np.int32)
    args = names, f.order, g.order, terms, lead, *f_rows, *g_rows, pairs
    yield from (kernels[0] for kernels in _weighted_contracts(model, *args))


def slice_weighted_contracts(model: ProbabilityModel, f: Kernel, terms: list) -> dict:
    """k -> [sym_offdiag_weighted_contract(model, f_k, f_k, r, l) for (r, l)
    in terms] for each k = 1..N, ascending, whose slice f_k is nonzero, from
    one emission under lead k.  Its pairs are the postings of k (the entries
    of f holding k, in f's order) paired a-major, k dropped from both."""
    if f.order < 1:
        raise OrderMismatch("cannot slice a scalar kernel")
    n = f.order - 1
    names, [(tf, cf)] = _ranked((f,))
    # Row (entry, index k of it) is the entry without k, led by k's rank.
    lead = tf.reshape(-1)
    drop = np.tile(~np.eye(f.order, dtype=bool), (len(tf), 1))
    rows = np.repeat(tf, f.order, axis=0)[drop].reshape(len(lead), n)
    order = np.argsort(lead, kind="stable")  # lead by lead, each in f's order
    order = order[lead[order] < bisect.bisect_right(names, model.size)]
    lead, rows, cf = lead[order], rows[order], np.repeat(cf, f.order)[order]
    # Each lead's ordered pairs (a, b) of rows, a-major: row a meets the size
    # rows of its lead, from the first one on.
    size, first = np.bincount(lead)[lead], np.searchsorted(lead, lead)
    a = np.repeat(np.arange(len(lead)), size)
    b = np.arange(len(a)) - np.repeat(np.cumsum(size) - size - first, size)
    shared = (rows[a, :, None] == rows[b, None, :]).sum(axis=(1, 2))
    pairs = {r: (a[shared == r], b[shared == r]) for r, _ in terms}
    args = names, n, n, terms, lead, rows, cf, rows, cf, pairs
    slices = sorted(set(lead.tolist()))
    parts = zip(*_weighted_contracts(model, *args)) if terms else [()] * len(slices)
    return {names[i]: list(p) for i, p in zip(slices, parts)}


def sym_offdiag_weighted_contract(
    model: ProbabilityModel, f: Kernel, g: Kernel, r: int, ell: int
) -> Kernel:
    """Kernel form of the weighted contraction at one (r, l): the one-term
    call of :func:`sym_offdiag_weighted_contracts`."""
    return next(sym_offdiag_weighted_contracts(model, f, g, [(r, ell)]))
