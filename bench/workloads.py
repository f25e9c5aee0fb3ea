"""The three benchmark workloads, their inputs and their correctness gates.

Each workload is a fixed list of estimator calls (one cycle).  The benchmark
runs the cycle again and again in one process, closed loop: each call starts
when the previous one has returned.  Call i of cycle c in a run with workload
seed s uses the estimator seed `split_seed(s, CYCLE_STRIDE * c + i)`, so
every cycle draws fresh samples (no result can be reused across cycles) and
a rerun of the same seed must repeat every estimate bit for bit.  No seed is
derived from Python's `hash()`, which is salted per process.

Inputs are fixed; only the seed varies between runs.  Why each was chosen is
written next to it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from carnot_coupling import cli
from carnot_coupling.catalog import CATALOG
from carnot_coupling.coupling import couple_carnot, couple_heisenberg
from carnot_coupling.girsanov import (
    bismut_gradient,
    finite_diff_gradient,
    girsanov_normalization_check,
    horizontal_direction,
    semigroup_transfer_check,
)
from carnot_coupling.groups import CarnotElement, HeisenbergPoint, SkewMatrix, heis_to_carnot
from carnot_coupling.mc import derive_rng, split_seed
from run import NAMES

CYCLE_STRIDE = 16
# Gates pool the first GATE_CYCLES cycles (the untimed one and the first timed
# ones, which every run makes), which halves their sigma against one cycle.
GATE_CYCLES = 4
# the cycles that re-check a failed gate on fresh samples, beyond any timed one
CONFIRM_CYCLE = 1 << 20
# positions of the untimed exact-meeting runs, beyond any cycle's
MEETING_POSITION = 1 << 32
# Every statistical gate is two-sided at 3 sigma, as in the acceptance suite.
# A correct estimator still misses it with probability 0.27% per gate, so a
# failed gate is re-checked once on GATE_CYCLES fresh cycles from
# CONFIRM_CYCLE on, and counts as failed only when both miss (confirm_gates).
SIGMA_K = 3.0
# Exact meeting: endpoint gaps of a met coupling run (acceptance criterion 1).
MEET_H_TOL = 1e-12
MEET_V_TOL = 1e-9
# Samples per estimator in the setup probe's warm-up calls.
WARMUP_N = 1024


@dataclass(frozen=True)
class Result:
    """What one call returned: every estimate (compared bit for bit with a
    rerun of the same seed) and the standard error its gated estimates reach."""

    values: dict
    se: float


@dataclass(frozen=True)
class Call:
    name: str
    samples: int  # coefficient streams drawn; both sides of a pair count
    run: Callable  # run(estimator_seed, tracer or None) -> Result


@dataclass(frozen=True)
class Workload:
    calls: list[Call]
    gates: Callable  # gates(list of per-cycle results) -> list[(name, passed)]
    untimed_gates: Callable = lambda seed: []  # run once per run, outside timing


def call_seed(seed: int, cycle: int, index: int) -> int:
    """Estimator seed of call `index` in cycle `cycle` of a run with `seed`."""
    return split_seed(seed, CYCLE_STRIDE * cycle + index)


def within(lhs: float, lhs_se: float, rhs: float, rhs_se: float = 0.0,
           k: float = SIGMA_K, bias: float = 0.0) -> bool:
    """Two-sided gate |lhs - rhs| <= k * pooled sigma + bias; NaN fails."""
    return bool(abs(lhs - rhs) <= k * math.hypot(lhs_se, rhs_se) + bias)


def pooled(cycles: list, call: int, key: str) -> tuple[float, float]:
    """Mean and standard error of one estimate pooled over equal-size cycles."""
    k = len(cycles)
    mean = math.fsum(c[call].values[key] for c in cycles) / k
    se = math.sqrt(math.fsum(c[call].values[key + "_se"] ** 2 for c in cycles)) / k
    return mean, se


def confirm_gates(first: list, rerun: Callable) -> list:
    """Gate outcomes, with each failure re-checked once.

    `rerun()` gives the gates on independent samples; it is called only when
    a gate failed.  A gate fails when it fails on both.
    """
    if all(ok for _, ok in first):
        return first
    return [(name, ok or ok2) for (name, ok), (_, ok2) in zip(first, rerun())]


def meets_exactly(h_gap: float, v_gap: float) -> bool:
    return bool(h_gap <= MEET_H_TOL and v_gap <= MEET_V_TOL)


def _est(prefix: str, e) -> dict:
    return {prefix: e.mean, prefix + "_se": e.stderr}


def _function(name: str, tracer):
    f = CATALOG[name]
    return f if tracer is None else tracer.timed_function(f)


# ---------------------------------------------------------------- weighted-transfer
#
# The hot path of acceptance criterion 7: Girsanov weights on the Heisenberg
# group (n = 2), K = 8 shifted blocks, short path L = 3K + 2 = 26.  Each
# sample pays one 2x2 Gram solve and the shift/density glue; the 25-term
# endpoint is cheap.  An n = 2 Sylvester change or a control variate shows
# here.  The three pairs are criterion 7 pairs.  It runs on two workers: on a
# shared 2-core machine, one worker gave samples/s that moved by +-20% from
# run to run, against +-5% for two workers in runs interleaved with them.

H = lambda *a: heis_to_carnot(HeisenbergPoint(*a))  # noqa: E731
WT_K = 8
WT_N = 1 << 16
# normalization and entropy identity: purely vertical displacement at T = 100,
# whose weights are light-tailed, so the E[R] = 1 gate is sharp
WT_NORM = (H(0, 0, 0), H(0, 0, 1), 100.0)
# sin-perturbation transfer: mixed displacement at T = 16, where the weight
# carries most of the variance, the case a control variate R - 1 targets;
# its weights are heavy-tailed, so time_to_se_s takes a median of se^2
WT_SIN = (H(0, 0, 0), H(0.3, 0.2, 0.05), 16.0)
# gaussian-bump transfer: horizontal displacement at T = 25
WT_BUMP = (H(0, 0, 0), H(0.5, 0, 0), 25.0)


def weighted_transfer(n: int, workers: int) -> Workload:
    def norm(est_seed, tracer):
        g, gt, T = WT_NORM
        rep = girsanov_normalization_check(g, gt, T, WT_K, n, est_seed, workers)
        values = {**_est("R", rep.mean_R), **_est("gap", rep.entropy_gap),
                  **_est("rlnr", rep.mean_entropy), **_est("half_u2", rep.mean_half_norm_sq)}
        return Result(values, max(rep.mean_R.stderr, rep.entropy_gap.stderr))

    def transfer(fname, pair):
        def run(est_seed, tracer):
            g, gt, T = pair
            tr = semigroup_transfer_check(_function(fname, tracer), g, gt, T, WT_K, n, est_seed,
                                          workers)
            values = {**_est("weighted", tr.weighted), **_est("direct", tr.direct)}
            return Result(values, math.hypot(tr.weighted.stderr, tr.direct.stderr))
        return run

    def gates(cycles):
        return [
            ("E[R]=1", within(*pooled(cycles, 0, "R"), 1.0)),
            ("entropy identity", within(*pooled(cycles, 0, "gap"), 0.0)),
            ("transfer sin-perturbation",
             within(*pooled(cycles, 1, "weighted"), *pooled(cycles, 1, "direct"))),
            ("transfer gaussian-bump",
             within(*pooled(cycles, 2, "weighted"), *pooled(cycles, 2, "direct"))),
        ]

    return Workload(
        calls=[
            Call("normalization", n, norm),
            Call("transfer-sin", 2 * n, transfer("sin-perturbation", WT_SIN)),
            Call("transfer-bump", 2 * n, transfer("gaussian-bump", WT_BUMP)),
        ],
        gates=gates,
    )


# ---------------------------------------------------------------- coupling-failure
#
# The coupling CLI end to end: `couple` at T in {1, 25} on three groups, in
# process, with a two-thread worker pool.  heisenberg takes the two-index path
# (no Sylvester solve); carnot-3 and carnot-4 solve at (n, m) = (3, 7) and
# (4, 9).  No endpoint is computed, so a Legendre change must leave this flat.
# N is sized so each group takes a similar share of the cycle.  The points
# are those of acceptance criteria 2 and 3; at each grid point the failure
# probability lies strictly inside (0, 1), so no standard error is zero.

CF_T = (1.0, 25.0)
CF_RUNS = 40  # untimed single coupling runs per (group, T) for exact meeting
CF_GROUPS = (
    # (group, g, gt, N)
    ("heisenberg", "0,0,0", "0,0,1", 1 << 19),
    ("carnot-3", "0,0,0,0,0,0", "0,0,0,1,0,0", 1 << 16),
    ("carnot-4", "0,0,0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0,0,0", 1 << 15),
)


def _coupling_run(group: str, g: str, gt: str) -> Callable:
    """One single-run coupling call for the group, as couple(T, rng)."""
    vals = [np.array([float(t) for t in p.split(",")]) for p in (g, gt)]
    if group == "heisenberg":
        a, b = (HeisenbergPoint(*v) for v in vals)
        return lambda T, rng: couple_heisenberg(a, b, T, rng)
    n = int(group.split("-")[1])
    a, b = (CarnotElement(v[:n], SkewMatrix(n, v[n:])) for v in vals)
    return lambda T, rng: couple_carnot(a, b, T, rng)


def coupling_failure(scratch: str, workers: int, small: bool) -> Workload:
    def couple(group, g, gt, n):
        out = os.path.join(scratch, f"couple-{group}.csv")

        def run(est_seed, tracer):
            argv = ["couple", "--group", group, "--g", g, "--gt", gt,
                    "--T", ",".join(repr(t) for t in CF_T), "--N", str(n),
                    "--seed", str(est_seed), "--workers", str(workers),
                    "--out", out]
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli"):
                    code = cli.main(argv)
            with open(out, "rb") as fh:
                data = fh.read()
            rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
            values = {"exit": float(code),
                      "artifact_sha256": hashlib.sha256(data).hexdigest()}
            for r in rows:
                values[f"fail_T{r['T']}"] = float(r["estimate"])
                values[f"fail_T{r['T']}_se"] = float(r["stderr"])
            return Result(values, max(float(r["stderr"]) for r in rows))
        return run

    def gates(cycles):
        return [(f"couple {grp} exit 0", all(c[i].values["exit"] == 0.0 for c in cycles))
                for i, (grp, *_) in enumerate(CF_GROUPS)]

    def meeting(seed):
        out = []
        for gi, (group, g, gt, _) in enumerate(CF_GROUPS):
            couple_once = _coupling_run(group, g, gt)
            for ti, T in enumerate(CF_T):
                rng = derive_rng(split_seed(seed, MEETING_POSITION + len(CF_T) * gi + ti))
                for _ in range(CF_RUNS):
                    oc = couple_once(T, rng)
                    if oc.success:
                        d = oc.diagnostics
                        out.append((f"exact meeting {group} T={T:g}",
                                    meets_exactly(d.horizontal_gap, d.vertical_gap)))
        return out

    sizes = [WARMUP_N if small else n for *_, n in CF_GROUPS]
    return Workload(
        calls=[Call(grp, len(CF_T) * n, couple(grp, g, gt, n))
               for (grp, g, gt, _), n in zip(CF_GROUPS, sizes)],
        gates=gates,
        untimed_gates=meeting,
    )


# ---------------------------------------------------------------- long-path-gradient
#
# Bismut integration-by-parts gradient against central finite differences on
# rank 3, at the point and horizontal direction of acceptance criterion 8,
# with a 129-term path (k_path = 128) and K = 12.  The Legendre area of the
# long path dominates: three endpoint evaluations per Sylvester solve.  It has
# the largest arrays, so peak RSS moves here, and an n = 2 change must leave
# it flat.

LP_K = 12
LP_KPATH = 128
LP_EPS = 1e-3
LP_N = 1 << 14
LP_G = CarnotElement(np.array([0.1, -0.2, 0.3]), SkewMatrix(3, np.array([0.1, 0.0, -0.1])))
LP_H = horizontal_direction(LP_G, 1)


def long_path_gradient(n: int) -> Workload:
    def bismut(est_seed, tracer):
        est = bismut_gradient(_function("gaussian-bump", tracer), LP_G, LP_H, 1.0, LP_K, n,
                              est_seed, k_path=LP_KPATH)
        return Result(_est("bismut", est), est.stderr)

    def fd(est_seed, tracer):
        est = finite_diff_gradient(_function("gaussian-bump", tracer), LP_G, LP_H, 1.0, LP_EPS,
                                   n, est_seed, K=LP_K, k_path=LP_KPATH)
        return Result(_est("fd", est), est.stderr)

    def gates(cycles):
        fd, fd_se = pooled(cycles, 1, "fd")
        bias = LP_EPS * (1.0 + abs(fd))
        return [("bismut vs finite differences",
                 within(*pooled(cycles, 0, "bismut"), fd, fd_se, bias=bias))]

    return Workload(calls=[Call("bismut", n, bismut), Call("finite-diff", n, fd)], gates=gates)


def build(name: str, scratch: str, workers: int, small: bool = False) -> Workload:
    """The workload's cycle; `small` gives the warm-up sizes of the setup probe."""
    if name == "weighted-transfer":
        return weighted_transfer(WARMUP_N if small else WT_N, workers)
    if name == "coupling-failure":
        return coupling_failure(scratch, workers, small)
    if name == "long-path-gradient":
        return long_path_gradient(WARMUP_N if small else LP_N)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
