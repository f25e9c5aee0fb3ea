#!/usr/bin/env python3
"""Profile the change-of-measure cost E[|u|^2]/2 across horizons and support
counts.

The weight R(u) concentrates like exp(-|u|^2/2), so this entropy decides
whether a weighted estimator is usable at a given sample budget: direct
Monte Carlo needs E[|u|^2] of order a few units at most.  Larger support
counts K both shrink the entropy and lighten the tail of |u|^2 (the smallest
Gram eigenvalue has density exponent (K - n - 1)/2 near zero).
"""

import argparse

import numpy as np

from carnot_coupling.girsanov import girsanov_normalization_check
from carnot_coupling.groups import CarnotElement, HeisenbergPoint, SkewMatrix, heis_to_carnot


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20240901)
    args = ap.parse_args()

    print(f"{'pair':34s} {'T':>6s} {'K':>3s} {'E|u|^2/2':>9s} {'bound':>8s} "
          f"{'E[R]':>7s} {'ent.gap z':>9s}")
    g = heis_to_carnot(HeisenbergPoint(0, 0, 0))
    pairs = [
        ("H (0,0,0)->(0,0,1)", g, heis_to_carnot(HeisenbergPoint(0, 0, 1))),
        ("H (0,0,0)->(1,0,0)", g, heis_to_carnot(HeisenbergPoint(1, 0, 0))),
        ("H (0,0,0)->(1,0,1)", g, heis_to_carnot(HeisenbergPoint(1, 0, 1))),
    ]
    for name, a, b in pairs:
        for T in (1.0, 4.0, 25.0, 100.0):
            for K in (5, 8, 12):
                rep = girsanov_normalization_check(a, b, T, K, args.N, args.seed)
                z = rep.entropy_gap.mean / max(rep.entropy_gap.stderr, 1e-300)
                print(f"{name:34s} {T:6.1f} {K:3d} {rep.mean_half_norm_sq.mean:9.3f} "
                      f"{rep.entropy_bound:8.2f} {rep.mean_R.mean:7.4f} {z:+9.2f}")

    g3 = CarnotElement.identity(3)
    gt3 = CarnotElement(np.zeros(3), SkewMatrix(3, np.array([0.3, 0, 0])))
    for T in (9.0, 25.0):
        for K in (7, 12):
            rep = girsanov_normalization_check(g3, gt3, T, K, args.N, args.seed)
            z = rep.entropy_gap.mean / max(rep.entropy_gap.stderr, 1e-300)
            print(f"{'G3 vertical 0.3':34s} {T:6.1f} {K:3d} "
                  f"{rep.mean_half_norm_sq.mean:9.3f} {rep.entropy_bound:8.2f} "
                  f"{rep.mean_R.mean:7.4f} {z:+9.2f}")


if __name__ == "__main__":
    main()
