"""Seeded, reproducible Monte Carlo estimation with fixed-order reduction.

Samples are drawn in fixed-size batches; batch b of a run with seed s uses a
Philox generator keyed by (s, b), so the sample set depends only on (seed, N)
and worker parallelism changes the partitioning, never the samples.  Batch
statistics are merged in batch order with the pairwise (Chan) update, which
keeps results bit-identical for a fixed (seed, N, workers) triple and avoids
cancellation at large N.

Each batch carries (n, mean, C), with C the co-moments of the sampler's d
columns that an estimate reads, C_jk = sum_i (x_ij - mean_j)(x_ik - mean_k),
merged as C_jk = C_a,jk + C_b,jk + delta_j delta_k n_a n_b / n (Chan, Golub &
LeVeque, 1983).  Column 0 of C (d, 1) is each column's M2, C_jj, computed
and merged by the expressions of a per-column M2 accumulator, so every plain
estimate is bit-identical to what that accumulator gives.  The
control-variate estimator of `run_vector_estimator` also reads column 1 of C
(d, 2), each column's co-moment C_jc with the last one, c = d - 1; every
entry is the one the full d x d matrix holds, bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.stats

__all__ = [
    "BATCH_SIZE",
    "MCEstimate",
    "ComparisonReport",
    "derive_rng",
    "split_seed",
    "run_vector_estimator",
    "ks_test",
    "two_sample_compare",
    "bound_check",
]

BATCH_SIZE = 1 << 14

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic substream for (seed, index) via a Philox key."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def split_seed(seed: int, tag: int) -> int:
    """Derive a distinct 64-bit seed; independent estimators must not share one."""
    return (seed * _GOLDEN + tag * 0xD1B54A32D192ED03 + 1) & _MASK64


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with standard error and seed provenance."""

    mean: float
    stderr: float
    n: int
    seed: int

    def interval(self, k: float = 3.0) -> tuple[float, float]:
        return (self.mean - k * self.stderr, self.mean + k * self.stderr)


@dataclass(frozen=True)
class ComparisonReport:
    """Two-sided comparison |lhs - rhs| <= k * pooled sigma."""

    lhs: float
    rhs: float
    margin: float
    sigma: float
    passed: bool
    k: float = 3.0


def _combine(stats_a, stats_b):
    """Merge (n, mean, C) co-moment accumulators; C is (d, 1) or (d, 2)."""
    na, ma, ca = stats_a
    nb, mb, cb = stats_b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    partners = np.stack([delta, np.full_like(delta, delta[-1])], axis=1)[:, :ca.shape[1]]
    com = ca + cb + (delta[:, None] * partners) * (na * nb / n)
    return n, mean, com


def _batch_stats(sampler, seed, batch_index, count, control=False):
    """(n, mean, C) of one batch; `control` adds column 1 of C, the co-moments with the last."""
    rng = derive_rng(seed, batch_index)
    vals = np.asarray(sampler(rng, count), dtype=float)
    if vals.shape[0] != count:
        raise ValueError("sampler returned wrong number of samples")
    if vals.ndim == 1 or vals.shape[1] == 1:
        # numpy sums a lone column pairwise
        vals = vals.reshape(count, 1)
        mean = vals.mean(axis=0)
        return count, mean, ((vals - mean) ** 2).sum(axis=0)[:, None]
    # numpy reduces a row-major (count, d) array over axis 0 one row at a time, a
    # running sum per column; the last entry of a 1-D cumsum over each contiguous
    # column adds in that same order, at a fraction of the cost, so every column
    # is summed exactly as a per-column accumulator of row-major batches sums it
    cols = np.ascontiguousarray(vals.T)
    mean = np.array([np.cumsum(c)[-1] for c in cols]) / count
    dev = cols - mean[:, None]
    com = np.empty((cols.shape[0], 2 if control else 1))
    com[:, 0] = [np.cumsum(dj * dj)[-1] for dj in dev]
    if control:
        com[:-1, 1] = [np.cumsum(dj * dev[-1])[-1] for dj in dev[:-1]]
        com[-1, 1] = com[-1, 0]
    return count, mean, com


def _stream_stats(sampler, N, seed, workers, control=False):
    n_batches = (N + BATCH_SIZE - 1) // BATCH_SIZE
    sizes = [min(BATCH_SIZE, N - b * BATCH_SIZE) for b in range(n_batches)]

    def batch(b):
        return _batch_stats(sampler, seed, b, sizes[b], control)

    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(batch, range(n_batches)))
    else:
        results = [batch(b) for b in range(n_batches)]
    acc = results[0]
    for nxt in results[1:]:
        acc = _combine(acc, nxt)
    return acc


def run_vector_estimator(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    N: int,
    seed: int,
    workers: int = 1,
    control_mean: float | None = None,
) -> list[MCEstimate]:
    """Estimate the mean of each output column of a batch sampler.

    The sampler maps (rng, count) to an array of shape (count,) or (count, d)
    and must draw randomness only from the passed generator.

    With `control_mean`, the last column c is a control variate whose mean is
    known to be `control_mean`, and each other column j is estimated by
    regression on it: mean_j - beta_j (mean_c - control_mean) with the
    in-sample beta_j = C_jc / C_cc (0 when C_cc = 0), and standard error
    sqrt(max(C_jj - beta_j C_jc, 0) / ((n - 2) n)), the residual variance on
    n - 2 degrees of freedom (Glasserman, Monte Carlo Methods in Financial
    Engineering, 2004, 4.1).  The in-sample beta costs no extra draws and
    biases the estimate by O(1/N).  The control column's plain estimate is
    returned last.
    """
    if N < 2:
        raise ValueError("need at least two samples")
    n, mean, com = _stream_stats(sampler, N, seed, workers, control_mean is not None)
    m2 = com[:, 0]
    se = np.sqrt(m2 / (n - 1) / n)
    plain = [MCEstimate(float(mean[j]), float(se[j]), n, seed) for j in range(mean.shape[0])]
    if control_mean is None:
        return plain
    c = mean.shape[0] - 1
    if c < 1:
        raise ValueError("a control variate needs the sampler to return at least two columns")
    if n < 3:
        raise ValueError("a control variate needs at least three samples")
    c_jc = com[:c, 1]
    beta = c_jc / m2[c] if m2[c] > 0 else np.zeros(c)
    adjusted = mean[:c] - beta * (mean[c] - control_mean)
    se_adj = np.sqrt(np.maximum(m2[:c] - beta * c_jc, 0.0) / ((n - 2) * n))
    return [MCEstimate(float(adjusted[j]), float(se_adj[j]), n, seed) for j in range(c)] + plain[c:]


def ks_test(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov p-value against a given CDF."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 50:
        raise ValueError("need at least 50 samples for a meaningful KS test")
    return float(scipy.stats.kstest(samples, cdf).pvalue)


def _as_mean_se(x) -> tuple[float, float]:
    if isinstance(x, MCEstimate):
        return x.mean, x.stderr
    return float(x), 0.0


def two_sample_compare(lhs, rhs, k: float = 3.0, bias: float = 0.0) -> ComparisonReport:
    """|lhs - rhs| <= k * pooled sigma + bias allowance; exact values allowed."""
    lm, ls = _as_mean_se(lhs)
    rm, rs = _as_mean_se(rhs)
    sigma = math.hypot(ls, rs)
    margin = lm - rm
    return ComparisonReport(lm, rm, margin, sigma, abs(margin) <= k * sigma + bias, k)


def bound_check(estimate, bound, k: float = 3.0) -> ComparisonReport:
    """One-sided check estimate <= bound + k * pooled sigma."""
    lm, ls = _as_mean_se(estimate)
    rm, rs = _as_mean_se(bound)
    sigma = math.hypot(ls, rs)
    return ComparisonReport(lm, rm, lm - rm, sigma, lm <= rm + k * sigma, k)
