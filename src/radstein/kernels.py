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
:func:`weighted_contract`, :func:`symmetrize`, :func:`to_kernel`,
:func:`kernel_as_raw`) are the reference path: they expand every permutation
explicitly and serve as the definition that tests check against.  The bounds
and the product formula use only :func:`sym_offdiag_weighted_contract`, which
computes the symmetrized off-diagonal kernel directly from sparse entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InvalidContractionIndices,
    OrderMismatch,
)
from .model import ProbabilityModel, stable_sum


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
    def zero(cls, order: int) -> "Kernel":
        return cls(order, {})

    @classmethod
    def scalar(cls, c: float) -> "Kernel":
        return cls(0, {(): c} if c != 0.0 else {})

    @classmethod
    def from_pairs(cls, order: int, pairs) -> "Kernel":
        """Build from [index-tuple, coefficient] pairs, merging duplicates."""
        acc = {}
        for key, value in pairs:
            key = tuple(sorted(int(i) for i in key))
            if len(set(key)) != len(key):
                raise ValueError(f"tuple {key} repeats an index")
            acc[key] = acc.get(key, 0.0) + float(value)
        return cls(order, acc)

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
        return Kernel(self.order, {t: a * c for t, c in self.entries.items()})


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

    def value(self, key) -> float:
        return self.entries.get(tuple(key), 0.0)


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
    return Kernel(
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
    return Kernel(f.order, acc)


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
        _check_contraction_indices(n, m, r, ell)
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


def _orbit_size(key) -> int:
    counts = {}
    for i in key:
        counts[i] = counts.get(i, 0) + 1
    size = math.factorial(len(key))
    for c in counts.values():
        size //= math.factorial(c)
    return size


def symmetrize(t: RawTensor) -> RawTensor:
    """Average over all argument permutations; a norm-nonincreasing projection.

    Orbits whose stored values are all equal and complete pass through
    unchanged, which makes the operation exact on already-symmetric input.
    """
    groups: dict[tuple, list] = {}
    for key, value in t.entries.items():
        groups.setdefault(tuple(sorted(key)), []).append(value)
    entries = {}
    for rep, values in groups.items():
        size = _orbit_size(rep)
        if len(values) == size and all(v == values[0] for v in values):
            avg = values[0]
        else:
            avg = stable_sum(values) / size
        if avg != 0.0:
            for perm in set(itertools.permutations(rep)):
                entries[perm] = avg
    return RawTensor(t.order, entries)


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


def sym_offdiag_weighted_contract(
    model: ProbabilityModel, f: Kernel, g: Kernel, r: int, ell: int
) -> Kernel:
    """Kernel form of the weighted contraction, fused for sparsity.

    Computes ``to_kernel(weighted_contract(model, f, g, r, l))`` without
    materializing the intermediate tensor: once the result is symmetrized and
    restricted to off-diagonal tuples, only kernel-entry pairs sharing exactly
    r indices contribute, and each split of the shared indices into l summed
    and r - l kept ones adds

        (n-r)! (r-l)! (m-r)! l! / |U|!  *  phi(kept)  *  f(T_f) g(T_g)

    at the increasing tuple U = (T_f union T_g) minus the summed indices.
    """
    n, m = f.order, g.order
    _check_contraction_indices(n, m, r, ell)  # l < r already forces r >= 1
    out_order = n + m - r - ell
    base = (
        math.factorial(n - r)
        * math.factorial(r - ell)
        * math.factorial(m - r)
        * math.factorial(ell)
        / math.factorial(out_order)
    )
    terms: dict[tuple, list] = {}
    for tf, cf in f.entries.items():
        set_f = frozenset(tf)
        for tg, cg in g.entries.items():
            common = set_f.intersection(tg)
            if len(common) != r:
                continue
            union = set_f.union(tg)
            prod = base * cf * cg
            for summed in itertools.combinations(sorted(common), ell):
                kept = sorted(common.difference(summed))
                w = prod
                for k in kept:
                    model.check_index(k)
                    w *= model.phi[k - 1]
                key = tuple(sorted(union.difference(summed)))
                terms.setdefault(key, []).append(w)
    entries = {key: stable_sum(vals) for key, vals in terms.items()}
    return Kernel(out_order, entries)
