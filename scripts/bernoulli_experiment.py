#!/usr/bin/env python3
"""Compare the Bernoulli-sum bound against the exact Poisson-binomial
distance on random probability vectors, and report how loose each term is.

Usage:
    python scripts/bernoulli_experiment.py --trials 200 --size-max 20
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from radstein.bounds import bernoulli_bound, bernoulli_sum_table
from radstein.distance import tv_exact
from radstein.model import build_model, distribution, stable_sum


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--size-max", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    ratios = []
    for _ in range(args.trials):
        size = rng.randint(1, args.size_max)
        p = [rng.uniform(0.01, 0.6) for _ in range(size)]
        model = build_model(p)
        lam = stable_sum(model.p)
        dist = distribution(model, bernoulli_sum_table(model))
        exact = tv_exact(dist, lam).value
        bound = bernoulli_bound(p, lam)
        assert bound.total >= exact - 1e-12, (p, lam)
        if exact > 0:
            ratios.append(bound.total / exact)

    ratios.sort()
    mid = ratios[len(ratios) // 2]
    print(f"{args.trials} trials, all dominated")
    print(
        f"bound/exact ratio: min {ratios[0]:.2f}  median {mid:.2f}  "
        f"max {ratios[-1]:.2f}"
    )


if __name__ == "__main__":
    main()
