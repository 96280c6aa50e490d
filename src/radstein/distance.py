"""Exact and Monte Carlo distances between an integer law and a Poisson law.

Both laws live on the nonnegative integers, so total variation is half the l1
distance of the pmfs and the maximizing set is {k : pmf_F(k) > pmf_Po(k)};
the integer-lattice Wasserstein distance is the summed absolute CDF gap.  The
Poisson law is truncated where its tail drops below 1e-14 and the discarded
mass is reported explicitly as ``tail_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chenstein import (
    _check_lambda,
    poisson_pmf_vector,
    poisson_tail,
    truncation_point,
)
from .errors import TooFewSamples
from .model import (
    INTEGER_TOLERANCE,
    DistributionTable,
    ProbabilityModel,
    rounded_integers,
    stable_sum,
    weight_per_value,
)

MIN_MC_SAMPLES = 10_000
_MC_CHUNK = 1 << 16
ATOM_DECIMALS = 12


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
    arr[list(pmf)] = list(pmf.values())
    return arr


def _half_l1_vs_poisson(
    pmf: dict, lam: float, off_mass: float = 0.0
) -> DistanceResult:
    """Total variation between Po(lam) and the law with masses ``pmf`` on
    nonnegative integers plus ``off_mass`` off them: half the l1 gap up to the
    truncation point, plus the Poisson tail beyond it (``tail_error``), plus
    ``off_mass``."""
    lam = _check_lambda(lam)
    k_max = truncation_point(lam, max(pmf, default=0))
    pois = poisson_pmf_vector(lam, k_max)
    fun = _pmf_array(pmf, k_max)
    tail = poisson_tail(lam, k_max + 1)
    value = 0.5 * (stable_sum(np.abs(fun - pois)) + tail + off_mass)
    return DistanceResult(value=min(value, 1.0), tail_error=tail, method="exact")


def tv_exact(dist: DistributionTable, lam: float) -> DistanceResult:
    """Exact total variation distance to Po(lam)."""
    return _half_l1_vs_poisson(dist.pmf, lam)


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
        ints = rounded_integers(values, countable=True, sampled=True).astype(np.int64)
        top = int(ints.max())
        if top >= counts.size:
            counts = np.concatenate(
                [counts, np.zeros(top + 1 - counts.size, dtype=np.int64)]
            )
        counts += np.bincount(ints, minlength=counts.size)
        done += chunk
    pmf = {k: c / samples for k, c in enumerate(counts) if c > 0}
    spread = stable_sum(p * (1.0 - p) for p in pmf.values())
    return replace(
        _half_l1_vs_poisson(pmf, lam),
        method="monte_carlo",
        samples=samples,
        seed=int(seed),
        std_error=0.5 * math.sqrt(spread / samples),
    )


def atom_law(model: ProbabilityModel, values: np.ndarray) -> dict:
    """Exact law of an arbitrary real-valued table: atom -> probability.

    Values are grouped after rounding to :data:`ATOM_DECIMALS` places so that
    float noise does not split atoms.
    """
    return weight_per_value(model, np.round(np.asarray(values, float), ATOM_DECIMALS))


def tv_atoms_vs_poisson(atoms: dict, lam: float) -> DistanceResult:
    """Total variation between an arbitrary finite discrete law and Po(lam).

    Atoms within 1e-9 of a nonnegative integer are matched against the Poisson
    pmf; all other atoms are disjoint from the Poisson support and contribute
    their full mass.
    """
    integer_mass: dict[int, float] = {}
    off_mass = 0.0
    for x, prob in atoms.items():
        r = round(float(x))
        if r >= 0 and abs(float(x) - r) <= INTEGER_TOLERANCE:
            integer_mass[int(r)] = integer_mass.get(int(r), 0.0) + prob
        else:
            off_mass += prob
    return _half_l1_vs_poisson(integer_mass, lam, off_mass)
