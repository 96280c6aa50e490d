"""Independent brute-force implementations used as test oracles.

Everything here works from first principles on explicit outcome lists and
index loops, never through the package's transforms or sparse algebra, so
agreement is evidence rather than tautology.
"""

import itertools
import math

import numpy as np

from radstein.kernels import Kernel


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
