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
:func:`weighted_contract`) expand every permutation explicitly: they are the
reference path that tests check against, outside the top-level API.  The
bounds and the product formula use one engine, ``_weighted_contracts``, fed
by an all-pairs scan of f and g (``_contract_rows``) or by the pairs of every
slice of f with itself at once (``_slice_contract_rows``).  It takes terms
(r, l, scale) and returns key rows (a lead, then the indices) and
coefficients by output order, which the product formula hands on and the
J_m bounds reduce to norms; :func:`sym_offdiag_weighted_contract` builds
the Kernel of one (r, l).  A coefficient is the correctly rounded sum of its
terms, each correctly rounded and scaled; errors come term by term, then
order by order.
Both entry points reject a kernel index beyond N before any work
(:func:`_check_kernel_indices`), so the engine reads phi at each index
directly.  Kernels built here from valid kernels (the engine's output,
``scaled``, :func:`slice_kernel`) are not re-parsed: only finiteness is
checked and zeros are dropped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidContractionIndices,
    OrderMismatch,
)
from .model import (
    ProbabilityModel,
    _integer,
    _sums_by_key,
    run_sums,
    stable_sum,
    sums_by_key,
)


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
    length, positive (and strictly increasing if ``increasing``), each with a
    finite value; zero values are dropped."""
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
        if value != 0.0:
            clean[key] = value
    object.__setattr__(tensor, "order", order)
    object.__setattr__(tensor, "entries", clean)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric off-diagonal kernel; order 0 holds a single scalar at ()."""

    order: int
    entries: dict

    def __post_init__(self):
        _validate(self, "kernel", True)

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
            key = tuple(sorted(_indices(key)))
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
        _validate(self, "tensor", False)

    def is_zero(self) -> bool:
        return not self.entries


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
    k = _integer(k, "index")
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


# Entry pairs of f and g whose shared-index counts are formed at once.
_PAIR_BLOCK = 1 << 15


def _rows(h: Kernel) -> tuple:
    """h's entries as (0-based index rows, values), in h's order."""
    rows = np.array([*h.entries], np.int32).reshape(len(h.entries), h.order) - 1
    return rows, np.array([*h.entries.values()])


def _kernel(keys: np.ndarray, values: np.ndarray) -> Kernel:
    """The kernel of finite ``values`` at key rows (a lead, then 0-based
    indices ascending), in row order, the lead dropped."""
    order = keys.shape[1] - 1
    tuples = zip(*(keys[:, 1:] + 1).T.tolist()) if order else [()] * len(values)
    return Kernel._built(order, dict(zip(tuples, values.tolist())))


def _check_finite(keys: np.ndarray, values: np.ndarray) -> None:
    """Raise ``Kernel._built``'s ValueError at the first non-finite value,
    named by its key row without the lead."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        key = tuple((keys[bad[0], 1:] + 1).tolist())
        raise ValueError(f"non-finite coefficient at {key}")


def _runs_by_lead(keys: np.ndarray, values: np.ndarray, leads: list) -> dict:
    """lead -> its (key rows, values), in their order, for every lead of
    ``leads`` (ascending, holding every lead of keys)."""
    order = np.argsort(keys[:, 0], kind="stable")
    keys, values = keys[order], values[order]
    ends = np.searchsorted(keys[:, 0], leads, "right").tolist()
    return {x: (keys[a:b], values[a:b]) for x, a, b in zip(leads, [0, *ends], ends)}


def _norm_sq(keys: np.ndarray, values: np.ndarray) -> float:
    """:func:`norm_sq` of ``_kernel(keys, values)``, without building it:
    the same correctly rounded sum (``run_sums``) of the squares."""
    with np.errstate(over="ignore"):
        squares = values * values
    return math.factorial(keys.shape[1] - 1) * run_sums(squares, [0], [len(squares)])[0]


def _shared_counts(rows_f: np.ndarray, rows_g: np.ndarray) -> np.ndarray:
    """How many indices each row of rows_f shares with each row of rows_g:
    the product A_f A_g^T of their 0/1 incidence matrices, formed sparsely
    and exactly in integers: each index of each f row meets the g rows that
    hold it (its postings), and ``np.bincount`` counts the meetings of each
    pair.  No BLAS call is made, so no BLAS thread is woken."""
    width_f, width_g = rows_f.shape[1], rows_g.shape[1]
    if not (width_f and width_g):
        return np.zeros((len(rows_f), len(rows_g)), np.intp)
    index = rows_g.ravel()
    postings = np.argsort(index, kind="stable")
    index = index[postings]
    lo = np.searchsorted(index, rows_f.ravel(), "left")
    size = np.searchsorted(index, rows_f.ravel(), "right") - lo
    # The t-th meeting of an index of f (from 0) is with its posting lo + t.
    first = np.repeat(lo - np.cumsum(size) + size, size)
    g_row = postings[np.arange(len(first)) + first] // width_g
    f_row = np.repeat(np.arange(size.size) // width_f, size)
    counts = np.bincount(f_row * len(rows_g) + g_row, minlength=len(rows_f) * len(rows_g))
    return counts.reshape(len(rows_f), len(rows_g))


def _lead_blocks(lead: np.ndarray) -> list:
    """(lo, hi, c0, c1): rows lo..hi paired with rows c0..c1, covering every
    pair of rows under one lead (``lead`` ascending) once, about
    ``_PAIR_BLOCK`` pairs at a time: runs of whole leads of at most
    sqrt(_PAIR_BLOCK) rows among themselves, and a longer lead's rows in
    steps, each with all of its lead."""
    side = math.isqrt(_PAIR_BLOCK)
    bounds = [0, *(np.flatnonzero(np.diff(lead)) + 1).tolist(), len(lead)]
    blocks, c0 = [], 0
    for s, e in zip(bounds, bounds[1:]):
        if e - s > side:
            if c0 < s:
                blocks.append((c0, s, c0, s))
            step = max(1, _PAIR_BLOCK // (e - s))
            blocks += [(lo, min(lo + step, e), s, e) for lo in range(s, e, step)]
            c0 = e
        elif e - c0 > side:
            blocks.append((c0, s, c0, s))
            c0 = s
    if c0 < len(lead):
        blocks.append((c0, len(lead), c0, len(lead)))
    return blocks


def _pairs_by_shared_count(tf, tg, counts, lead=None) -> dict:
    """r -> (f rows, g rows) of the entry pairs sharing exactly r indices, f
    row by f row, each in g's order; each row of tf and tg holds one entry's
    indices.  With ``lead`` (ascending, one per row of tf, which is then tg
    too) only pairs of rows under one lead are formed (:func:`_lead_blocks`);
    otherwise all pairs, about ``_PAIR_BLOCK`` at a time."""
    if lead is None:
        step = max(1, _PAIR_BLOCK // max(1, len(tg)))
        blocks = [(lo, lo + step, 0, len(tg)) for lo in range(0, len(tf), step)]
    else:
        blocks = _lead_blocks(lead)
    found = {r: [(np.empty(0, np.intp),) * 2] for r in counts}
    for lo, hi, c0, c1 in blocks:
        shared = _shared_counts(tf[lo:hi], tg[c0:c1])
        if lead is not None:
            shared[lead[lo:hi, None] != lead[None, c0:c1]] = -1
        for r, pairs in found.items():
            i, j = np.nonzero(shared == r)
            pairs.append((i + lo, j + c0))
    return {r: [np.concatenate(a) for a in zip(*p)] for r, p in found.items()}


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple:
    """The correctly rounded sum (``model._sums_by_key``) of each key row's
    values, keys in order of first appearance, raising at the first sum that
    fails, else at the first non-finite one; zero sums are dropped."""
    firsts, sums = _sums_by_key(keys, values)
    keys = keys[firsts]
    _check_finite(keys, sums)
    kept = sums != 0.0
    return keys[kept], sums[kept]


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
            _check_finite(*group[0])
            rows[out_order] = group[0]
        else:
            rows[out_order] = _summed(*map(np.concatenate, zip(*group)))
    return rows


def _contract_rows(model: ProbabilityModel, f: Kernel, g: Kernel, terms: list) -> dict:
    """The key rows and coefficients by output order (``_weighted_contracts``,
    lead 0) of the terms (r, l, scale): the symmetrized off-diagonal parts of
    ``weighted_contract(model, f, g, r, l)``, from an all-pairs scan, scaled
    and summed per order.  An index beyond N raises first, then an invalid
    (r, l), then each term's errors in term order and each order's."""
    _check_kernel_indices(model, f, g)
    (tf, cf), (tg, cg) = _rows(f), _rows(g)
    pairs = _pairs_by_shared_count(tf, tg, {r for r, _, _ in terms})
    lead = np.zeros(len(tf), np.int32)
    return _weighted_contracts(model, f.order, g.order, terms, lead, tf, cf, tg, cg, pairs)


def _slice_contract_rows(model: ProbabilityModel, f: Kernel, terms: list) -> tuple:
    """(keys, values, rows): f's slices as key rows and values, each entry
    once per index k it holds, without k, led by k - 1 (lead by lead,
    ascending, each lead in f's order), and the key rows and coefficients by
    output order (``_weighted_contracts``) of the terms (r, l, scale) for all
    slices at once, slice k's under lead k - 1.  Each lead's pairs are its
    rows paired row by row, each with its lead's rows in order.  An index
    beyond N raises before any work; then the engine's errors, a term's at
    its first failing slice and an order's at its first key in output order
    (term by term, each term's slices in turn)."""
    if f.order < 1:
        raise OrderMismatch("cannot slice a scalar kernel")
    _check_kernel_indices(model, f)
    n = f.order - 1
    tf, cf = _rows(f)
    # Row (entry, index k of it) is the entry without k, led by k - 1.
    lead = tf.reshape(-1)
    drop = np.tile(~np.eye(f.order, dtype=bool), (len(tf), 1))
    rows = np.repeat(tf, f.order, axis=0)[drop].reshape(len(lead), n)
    order = np.argsort(lead, kind="stable")  # lead by lead, each in f's order
    lead, rows, cf = lead[order], rows[order], np.repeat(cf, f.order)[order]
    pairs = _pairs_by_shared_count(rows, rows, {r for r, _, _ in terms}, lead)
    args = n, n, terms, lead, rows, cf, rows, cf, pairs
    return np.column_stack((lead, rows)), cf, _weighted_contracts(model, *args)


def sym_offdiag_weighted_contract(
    model: ProbabilityModel, f: Kernel, g: Kernel, r: int, ell: int
) -> Kernel:
    """The symmetrized off-diagonal part of ``weighted_contract(model, f, g,
    r, l)`` as a Kernel: :func:`_contract_rows` at the one term (r, l) with
    scale 1, which raises as it does."""
    (rows,) = _contract_rows(model, f, g, [(r, ell, 1)]).values()
    return _kernel(*rows)
