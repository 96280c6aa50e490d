"""Exact and Monte Carlo distances between an integer law and a Poisson law.

Both laws live on the nonnegative integers, so total variation is half the l1
distance of the pmfs and the maximizing set is {k : pmf_F(k) > pmf_Po(k)};
the integer-lattice Wasserstein distance is the summed absolute CDF gap.  The
Poisson law is truncated where its tail drops below 1e-14 and the discarded
mass is reported explicitly as ``tail_error``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .chenstein import (
    _check_lambda,
    _check_range,
    poisson_pmf_vector,
    poisson_tail,
    truncation_point,
)
from .errors import LengthMismatch, TooFewSamples, TooManySamples
from .model import (
    INTEGER_TOLERANCE,
    DistributionTable,
    ProbabilityModel,
    _integer,
    rounded_integers,
    stable_sum,
    sums_by_key,
)

MIN_MC_SAMPLES = 10_000
MAX_MC_SAMPLES = 10**8  # about 90 s at 10^6 samples/s
SEED_LIMIT = 2**128  # Philox keys are 128-bit
# Outcomes are drawn, evaluated, checked and counted in blocks small enough to
# stay in cache, drawn ahead of the evaluator on up to four helper threads.
_BLOCK_BYTES = 1 << 20
if hasattr(os, "sched_getaffinity"):
    _MC_THREADS = min(len(os.sched_getaffinity(0)), 4)
else:
    _MC_THREADS = min(os.cpu_count() or 1, 4)
ATOM_DECIMALS = 12


@dataclass(frozen=True)
class DistanceResult:
    value: float
    tail_error: float
    method: str
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None


def _laws_on_range(pmf: dict, lam: float) -> tuple:
    """lam checked, the truncation point k_max for the law ``pmf`` and
    Po(lam), and both pmfs as arrays on 0..k_max (law first)."""
    lam = _check_lambda(lam)
    k_max = truncation_point(lam, max(pmf, default=0))
    fun = np.zeros(k_max + 1)
    fun[list(pmf)] = list(pmf.values())
    return lam, k_max, fun, poisson_pmf_vector(lam, k_max)


def _half_l1_vs_poisson(
    pmf: dict, lam: float, off_mass: float = 0.0
) -> DistanceResult:
    """Total variation between Po(lam) and the law with masses ``pmf`` on
    nonnegative integers plus ``off_mass`` off them: half the l1 gap up to the
    truncation point, plus the Poisson tail beyond it (``tail_error``), plus
    ``off_mass``."""
    lam, k_max, fun, pois = _laws_on_range(pmf, lam)
    tail = poisson_tail(lam, k_max + 1)
    value = 0.5 * stable_sum((stable_sum(np.abs(fun - pois)), tail, off_mass))
    return DistanceResult(value=min(value, 1.0), tail_error=tail, method="exact")


def tv_exact(dist: DistributionTable, lam: float) -> DistanceResult:
    """Exact total variation distance to Po(lam)."""
    return _half_l1_vs_poisson(dist.pmf, lam)


def w1_exact(dist: DistributionTable, lam: float) -> DistanceResult:
    """Exact Wasserstein-1 distance to Po(lam) on the integer lattice."""
    lam, k_max, fun, pois = _laws_on_range(dist.pmf, lam)
    gaps = np.abs(np.cumsum(fun) - np.cumsum(pois))
    # Beyond k_max the functional's CDF is 1; add the remaining Poisson gaps.
    extra_terms = []
    k = k_max + 1
    while True:
        t = poisson_tail(lam, k)
        if t < 1e-20:
            break
        extra_terms.append(t)
        k += 1
    extra = stable_sum(extra_terms)
    return DistanceResult(
        value=stable_sum(np.concatenate((gaps, extra_terms))),
        tail_error=extra + poisson_tail(lam, k_max + 1),
        method="exact",
    )


def _block_rows(n: int) -> int:
    """Rows per sampled block at ``n`` coordinates: a multiple of 4 whose
    uniforms take at most :data:`_BLOCK_BYTES`."""
    return max(4, _BLOCK_BYTES // (8 * n) // 4 * 4)


def _sample_signs(p: np.ndarray, seed: int, first: int, rows: int) -> np.ndarray:
    """Sign rows ``first``.. ``first + rows - 1`` of the stream keyed by
    ``seed``, as int8.  Philox4x64 yields four uniforms per counter step and
    ``first`` is a multiple of 4, so starting at counter ``first * N // 4``
    reads exactly the uniforms one sequential generator would give these rows."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=first * p.size // 4))
    signs = (gen.random((rows, p.size)) < p).view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def tv_monte_carlo(
    model: ProbabilityModel,
    evaluator,
    lam: float,
    samples: int,
    seed: int,
) -> DistanceResult:
    """Monte Carlo total variation estimate for models beyond the enumeration cap.

    Outcomes are sampled by inverse transform per coordinate from a Philox
    counter-based stream keyed by ``seed``, an int in [0, 2^128).  Outcome i
    always takes uniforms i*N .. i*N + N - 1 of the stream, so the estimate
    depends on the seed alone, not on scheduling or thread count.  Helper
    threads (one per CPU in the process's affinity, at most four) draw
    blocks of B rows ahead, B a multiple of 4 whose B*N uniforms fill at
    most 1 MiB.  The evaluator maps a (rows, N) int8 sign matrix to one value
    per row; it is called on consecutive blocks of B rows and a shorter last
    one, in order, on the calling thread.  Each block's values are checked
    for integrality and counted before the next block is evaluated.
    """
    from concurrent.futures import ThreadPoolExecutor

    lam = _check_lambda(lam)
    samples = _integer(samples, "samples")
    if samples < MIN_MC_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    if samples > MAX_MC_SAMPLES:
        raise TooManySamples(f"at most {MAX_MC_SAMPLES} samples allowed, got {samples}")
    with contextlib.suppress(ValueError):  # refused below, naming the range
        seed = _integer(seed, "seed")
    if type(seed) is not int or not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    counts = np.zeros(1, dtype=np.int64)
    block = _block_rows(model.size)
    with ThreadPoolExecutor(_MC_THREADS) as pool:
        jobs = (
            pool.submit(_sample_signs, model.p, seed, first, min(block, samples - first))
            for first in range(0, samples, block)
        )
        # A few blocks in flight hide the sampling and bound the memory.
        pending = deque(itertools.islice(jobs, 2 * _MC_THREADS))
        while pending:
            signs = pending.popleft().result()
            pending.extend(itertools.islice(jobs, 1))
            values = np.asarray(evaluator(signs), dtype=float)
            if values.shape != (len(signs),):
                raise LengthMismatch(
                    f"evaluator returned shape {values.shape} for {len(signs)} sign rows"
                )
            ints = rounded_integers(values, countable=True, sampled=True).astype(np.int64)
            top = int(ints.max())
            if top >= counts.size:
                _check_range(top, lam, top)
                counts = np.concatenate(
                    [counts, np.zeros(top + 1 - counts.size, dtype=np.int64)]
                )
            counts += np.bincount(ints, minlength=counts.size)
    pmf = {k: c / samples for k, c in enumerate(counts) if c > 0}
    spread = stable_sum(p * (1.0 - p) for p in pmf.values())
    return replace(
        _half_l1_vs_poisson(pmf, lam),
        method="monte_carlo",
        samples=samples,
        seed=seed,
        std_error=0.5 * math.sqrt(spread / samples),
    )


def atom_law(model: ProbabilityModel, values: np.ndarray) -> dict:
    """Exact law of an arbitrary real-valued table: atom -> probability, in
    ascending order, each probability correctly rounded.

    Values are grouped after rounding to :data:`ATOM_DECIMALS` places so that
    float noise does not split atoms; an atom is named by its first outcome's
    value (so 0.0 and -0.0 merge).
    """
    atoms = np.round(np.asarray(values, float), ATOM_DECIMALS)
    firsts, sums = sums_by_key(atoms, model.outcome_weights)
    return dict(sorted(zip(atoms[firsts].tolist(), sums)))


def tv_atoms_vs_poisson(atoms: dict, lam: float) -> DistanceResult:
    """Total variation between an arbitrary finite discrete law and Po(lam).

    Atoms within 1e-9 of a nonnegative integer are matched against the Poisson
    pmf; all other atoms are disjoint from the Poisson support and contribute
    their full mass; each sum of masses is correctly rounded.
    """
    keys = []  # the integer an atom is matched to, or -1 for one off them
    for x in atoms:
        r = round(float(x))
        keys.append(r if r >= 0 and abs(float(x) - r) <= INTEGER_TOLERANCE else -1)
    probs = np.array(list(atoms.values()), dtype=float)
    firsts, sums = sums_by_key(np.array(keys, dtype=float), probs)
    masses = {keys[i]: mass for i, mass in zip(firsts.tolist(), sums)}
    off_mass = masses.pop(-1, 0.0)
    return _half_l1_vs_poisson(masses, lam, off_mass)
