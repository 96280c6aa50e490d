"""Exact and Monte Carlo distances between an integer law and a Poisson law.

Both laws live on the nonnegative integers, so total variation is half the l1
distance of the pmfs and the maximizing set is {k : pmf_F(k) > pmf_Po(k)};
the integer-lattice Wasserstein distance is the summed absolute CDF gap.  The
Poisson law is truncated where its tail drops below 1e-14 and the discarded
mass is reported explicitly as ``tail_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chenstein import (
    _check_lambda,
    poisson_pmf_vector,
    poisson_tail,
    truncation_point,
)
from .errors import NonIntegerValue, TooFewSamples
from .model import (
    INTEGER_TOLERANCE,
    DistributionTable,
    ProbabilityModel,
    stable_sum,
)

MIN_MC_SAMPLES = 10_000
_MC_CHUNK = 1 << 16
_MC_MAX_VALUE = 2.0**53


@dataclass(frozen=True)
class DistanceResult:
    value: float
    tail_error: float
    method: str
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None


def _pmf_array(pmf: dict, k_max: int) -> np.ndarray:
    arr = np.zeros(k_max + 1)
    for k, v in pmf.items():
        if k <= k_max:
            arr[k] = v
    return arr


def tv_pmfs(p: dict, q: dict) -> float:
    """Half-l1 distance between two integer pmfs (self-test helper)."""
    support = set(p) | set(q)
    return 0.5 * stable_sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in sorted(support))


def w1_pmfs(p: dict, q: dict) -> float:
    """Summed absolute CDF gap between two integer pmfs (self-test helper)."""
    top = max(max(p, default=0), max(q, default=0))
    pa = np.cumsum(_pmf_array(p, top))
    qa = np.cumsum(_pmf_array(q, top))
    return stable_sum(np.abs(pa - qa))


def _half_l1_vs_poisson(pmf: dict, lam: float) -> tuple:
    k_max = truncation_point(lam, max(pmf, default=0))
    pois = poisson_pmf_vector(lam, k_max)
    fun = _pmf_array(pmf, k_max)
    tail = poisson_tail(lam, k_max + 1)
    value = 0.5 * (stable_sum(np.abs(fun - pois)) + tail)
    return value, tail


def tv_exact(dist: DistributionTable, lam: float) -> DistanceResult:
    """Exact total variation distance to Po(lam)."""
    lam = _check_lambda(lam)
    value, tail = _half_l1_vs_poisson(dist.pmf, lam)
    return DistanceResult(value=min(value, 1.0), tail_error=tail, method="exact")


def tv_maximizing_set(dist: DistributionTable, lam: float) -> tuple:
    """The set A* = {k : pmf_F(k) > pmf_Po(k)} and its probability gap."""
    lam = _check_lambda(lam)
    k_max = truncation_point(lam, max(dist.pmf, default=0))
    pois = poisson_pmf_vector(lam, k_max)
    fun = _pmf_array(dist.pmf, k_max)
    star = [k for k in range(k_max + 1) if fun[k] > pois[k]]
    gap = stable_sum(fun[k] - pois[k] for k in star)
    return star, gap


def w1_exact(dist: DistributionTable, lam: float) -> DistanceResult:
    """Exact Wasserstein-1 distance to Po(lam) on the integer lattice."""
    lam = _check_lambda(lam)
    k_max = truncation_point(lam, max(dist.pmf, default=0))
    pois_cdf = np.cumsum(poisson_pmf_vector(lam, k_max))
    fun_cdf = np.cumsum(_pmf_array(dist.pmf, k_max))
    value = stable_sum(np.abs(fun_cdf - pois_cdf))
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
        value=value + extra, tail_error=extra + poisson_tail(lam, k_max + 1),
        method="exact",
    )


def tv_monte_carlo(
    model: ProbabilityModel,
    evaluator,
    lam: float,
    samples: int,
    seed: int,
) -> DistanceResult:
    """Monte Carlo total variation estimate for models beyond the enumeration cap.

    Outcomes are sampled by inverse transform per coordinate from a Philox
    counter-based stream keyed by the seed, consumed in fixed-size chunks, so
    the estimate is reproducible for a given seed regardless of scheduling.
    The evaluator maps a (chunk, N) sign matrix to functional values.
    """
    lam = _check_lambda(lam)
    samples = int(samples)
    if samples < MIN_MC_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = np.zeros(1, dtype=np.int64)
    done = 0
    while done < samples:
        chunk = min(_MC_CHUNK, samples - done)
        u = gen.random((chunk, model.size))
        signs = np.where(u < model.p, 1, -1).astype(np.int8)
        values = np.asarray(evaluator(signs), dtype=float)
        rounded = np.rint(values)
        err = np.abs(values - rounded)
        worst = int(np.argmax(err))
        if err[worst] > INTEGER_TOLERANCE:
            raise NonIntegerValue(
                f"sampled value {float(values[worst])!r} is not an integer",
                value=float(values[worst]),
            )
        if np.any(rounded < 0):
            neg = int(np.argmax(rounded < 0))
            raise NonIntegerValue(
                f"sampled value {float(values[neg])!r} is negative",
                value=float(values[neg]),
            )
        # Values index the int64 counts; at 2^53 and above a float no longer
        # tells neighbouring integers apart.  NaN fails the comparison too.
        too_large = ~(rounded < _MC_MAX_VALUE)
        if too_large.any():
            big = int(np.argmax(too_large))
            raise NonIntegerValue(
                f"sampled value {float(values[big])!r} is not an integer below 2^53",
                value=float(values[big]),
            )
        ints = rounded.astype(np.int64)
        top = int(ints.max())
        if top >= counts.size:
            counts = np.concatenate(
                [counts, np.zeros(top + 1 - counts.size, dtype=np.int64)]
            )
        counts += np.bincount(ints, minlength=counts.size)
        done += chunk
    pmf = {k: c / samples for k, c in enumerate(counts) if c > 0}
    value, tail = _half_l1_vs_poisson(pmf, lam)
    spread = stable_sum(p * (1.0 - p) for p in pmf.values())
    return DistanceResult(
        value=min(value, 1.0),
        tail_error=tail,
        method="monte_carlo",
        samples=samples,
        seed=int(seed),
        std_error=0.5 * math.sqrt(spread / samples),
    )


def atom_law(model: ProbabilityModel, values: np.ndarray, decimals: int = 12) -> dict:
    """Exact law of an arbitrary real-valued table: atom -> probability.

    Values are grouped after rounding to ``decimals`` places so that float
    noise does not split atoms.
    """
    w = model.outcome_weights
    keyed = np.round(np.asarray(values, dtype=float), decimals)
    order = np.argsort(keyed, kind="stable")
    atoms = {}
    start = 0
    sorted_vals = keyed[order]
    sorted_w = w[order]
    while start < len(sorted_vals):
        val = sorted_vals[start]
        stop = int(np.searchsorted(sorted_vals, val, side="right"))
        atoms[float(val)] = stable_sum(sorted_w[start:stop])
        start = stop
    return atoms


def tv_atoms_vs_poisson(atoms: dict, lam: float) -> DistanceResult:
    """Total variation between an arbitrary finite discrete law and Po(lam).

    Atoms within 1e-9 of a nonnegative integer are matched against the Poisson
    pmf; all other atoms are disjoint from the Poisson support and contribute
    their full mass.
    """
    lam = _check_lambda(lam)
    integer_mass: dict[int, float] = {}
    off_mass = 0.0
    for x, prob in atoms.items():
        r = round(float(x))
        if r >= 0 and abs(float(x) - r) <= INTEGER_TOLERANCE:
            integer_mass[int(r)] = integer_mass.get(int(r), 0.0) + prob
        else:
            off_mass += prob
    k_max = truncation_point(lam, max(integer_mass, default=0))
    pois = poisson_pmf_vector(lam, k_max)
    fun = _pmf_array(integer_mass, k_max)
    tail = poisson_tail(lam, k_max + 1)
    value = 0.5 * (stable_sum(np.abs(fun - pois)) + tail + off_mass)
    return DistanceResult(value=min(value, 1.0), tail_error=tail, method="exact")
