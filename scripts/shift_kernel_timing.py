#!/usr/bin/env python3
"""Per-stage times of the shift kernel `coupling.shift_batch` at the benchmark's shapes.

For each shape it prints the median over the repeats, in ms, of the probes
(`_probes`), the packed mismatches over T or -T (`_mismatches`), the
least-norm solve (`tsylvester_batch`), the pairing of the solution with the
draw (`shift_pairing`), and the whole `shift_batch`.  Every repeat draws fresh
rows, and BLAS runs one thread.  It exits with an error if the staged pairing
differs from the `dot` of `shift_batch` on the same draw.

    PYTHONPATH=src python3 scripts/shift_kernel_timing.py [--rows B] [--repeats R]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import time

import numpy as np

from carnot_coupling import coupling, mc
from carnot_coupling.groups import CarnotElement, SkewMatrix
from carnot_coupling.legendre import ORBIT_FLIP, ORBIT_MIRROR


def point(n, x, z):
    return CarnotElement(np.array(x, dtype=float), SkewMatrix(n, np.array(z, dtype=float)))


# (workload, n, K, path length L, horizons, sign-orbit points, g, g~)
SHAPES = [
    ("weighted-transfer norm", 2, 8, 26, [100.0], 1, point(2, [0, 0], [0]), point(2, [0, 0], [1])),
    ("weighted-transfer sin", 2, 8, 26, [16.0], 2,
     point(2, [0, 0], [0]), point(2, [0.3, 0.2], [0.05])),
    ("coupling-failure c3", 3, 7, 23, [1.0, 25.0], 1,
     point(3, [0] * 3, [0] * 3), point(3, [0] * 3, [1, 0, 0])),
    ("coupling-failure c4", 4, 9, 29, [1.0, 25.0], 1,
     point(4, [0] * 4, [0] * 6), point(4, [1, 0, 0, 0], [0] * 6)),
    ("long-path-gradient", 3, 12, 129, [1.0], 4,
     point(3, [0.1, -0.2, 0.3], [0.1, 0, -0.1]), point(3, [0.1, 0.8, 0.3], [0.1, 0, -0.1])),
]
STAGES = ("probes", "mismatch", "solve", "pairing", "shift_batch")


def stage_times(n, K, L, Ts, orbit, g, gt, rows, rng):
    """One repeat: the seconds of each stage on a fresh draw."""
    xi = rng.standard_normal((rows, L, n))
    scale = np.outer(Ts, ORBIT_MIRROR[:orbit]).ravel()
    t = [time.perf_counter()]
    p = coupling._probes(xi, K)
    t.append(time.perf_counter())
    w = coupling._mismatches(g, gt, np.asarray(Ts), xi, orbit) / scale[:, None, None]
    t.append(time.perf_counter())
    u, _ = coupling.tsylvester_batch(p, w)
    t.append(time.perf_counter())
    u0 = (g.x - gt.x) / np.sqrt(np.abs(scale))[:, None]
    flip = np.tile(ORBIT_FLIP[:orbit], len(Ts))
    start = time.perf_counter()
    dot, _ = coupling.shift_pairing(u0, np.swapaxes(u, -1, -2), xi, flip)
    pairing = time.perf_counter() - start
    start = time.perf_counter()
    shift = coupling.shift_batch(g, gt, Ts, xi, K, orbit)
    whole = time.perf_counter() - start
    if not np.array_equal(dot, shift.dot):
        raise SystemExit("the staged pairing differs from that of shift_batch")
    return [b - a for a, b in zip(t, t[1:])] + [pairing, whole]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=mc.BATCH_SIZE)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()
    rng = np.random.default_rng(20240901)
    print(f"B = {args.rows}, median of {args.repeats} repeats, ms")
    print(f"{'workload':24s} {'n':>2s} {'K':>3s} {'S':>2s} {'orbit':>5s} "
          + " ".join(f"{s:>11s}" for s in STAGES))
    for name, n, K, L, Ts, orbit, g, gt in SHAPES:
        runs = [stage_times(n, K, L, Ts, orbit, g, gt, args.rows, rng)
                for _ in range(args.repeats)]
        cells = [f"{1e3 * float(np.median(column)):.3f}" for column in zip(*runs)]
        print(f"{name:24s} {n:2d} {K:3d} {len(Ts):2d} {orbit:5d} "
              + " ".join(f"{c:>11s}" for c in cells))


if __name__ == "__main__":
    main()
