#!/usr/bin/env python3
"""Sweep the horizon and compare coupling failure rates with the closed-form
total-variation bounds, on the Heisenberg group and on rank 3.

Writes one CSV row per (group, displacement, T): empirical failure, standard
error, proof-stage / rank-n bound, and the bound for the true TV distance
with the refined constants (reported for context; the sampler follows the
two-index construction, so only the proof-stage bound is a failure target).
"""

import argparse
import csv

import numpy as np

from carnot_coupling.coupling import failure_probability, tv_bound
from carnot_coupling.groups import CarnotElement, SkewMatrix


def heis(x1, x2, z):
    """The Heisenberg point (x1, x2, z): the rank-2 element with vertical entry z."""
    return CarnotElement(np.array([x1, x2], dtype=float), SkewMatrix(2, np.array([z], dtype=float)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--out", default="tv_decay_grid.csv")
    args = ap.parse_args()

    horizons = [1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 49.0, 100.0]
    rows = []

    pairs_h = [
        ("horizontal", heis(0, 0, 0), heis(1, 0, 0)),
        ("vertical", heis(0, 0, 0), heis(0, 0, 1)),
        ("mixed", heis(0, 0, 0), heis(1, 0, 1)),
    ]
    for name, g, gt in pairs_h:
        ests = failure_probability(g, gt, horizons, args.N, args.seed, two_index=True)
        for T, est in zip(horizons, ests):
            rows.append({
                "group": "heisenberg", "displacement": name, "T": T,
                "failure": est.mean, "stderr": est.stderr,
                "bound_proof_stage": tv_bound(g, gt, T, "proof-stage").total,
                "bound_refined_tv": tv_bound(g, gt, T, "improved-remark2").total,
            })
            print(f"H {name:10s} T={T:6.1f}: fail={est.mean:.4f} "
                  f"bound={rows[-1]['bound_proof_stage']:.4f}")

    g3 = CarnotElement.identity(3)
    pairs_3 = [
        ("horizontal", CarnotElement(np.array([1.0, 0, 0]), SkewMatrix.zero(3))),
        ("vertical", CarnotElement(np.zeros(3), SkewMatrix(3, np.array([1.0, 0, 0])))),
    ]
    for name, gt in pairs_3:
        ests = failure_probability(g3, gt, horizons, max(args.N // 5, 2), args.seed)
        for T, est in zip(horizons, ests):
            rows.append({
                "group": "carnot-3", "displacement": name, "T": T,
                "failure": est.mean, "stderr": est.stderr,
                "bound_proof_stage": tv_bound(g3, gt, T, "carnot-n").total,
                "bound_refined_tv": "",
            })
            print(f"G3 {name:9s} T={T:6.1f}: fail={est.mean:.4f} "
                  f"bound={rows[-1]['bound_proof_stage']:.4f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
