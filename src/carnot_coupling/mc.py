"""Seeded, reproducible Monte Carlo estimation with fixed-order reduction.

Samples are drawn in fixed-size batches; batch b of a run with seed s uses a
Philox generator keyed by (s, b), so the sample set depends only on (seed, N)
and worker parallelism changes the partitioning, never the samples.  Batch
statistics are merged in batch order with the pairwise (Chan) update, which
keeps results bit-identical for a fixed (seed, N, workers) triple and avoids
cancellation at large N.
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
    """Merge (n, mean, M2) moment accumulators (vector-valued)."""
    na, ma, sa = stats_a
    nb, mb, sb = stats_b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = sa + sb + delta * delta * (na * nb / n)
    return n, mean, m2


def _batch_stats(sampler, seed, batch_index, count):
    rng = derive_rng(seed, batch_index)
    vals = np.asarray(sampler(rng, count), dtype=float)
    if vals.shape[0] != count:
        raise ValueError("sampler returned wrong number of samples")
    if vals.ndim == 1:
        vals = vals[:, None]
    mean = vals.mean(axis=0)
    m2 = ((vals - mean) ** 2).sum(axis=0)
    return count, mean, m2


def _stream_stats(sampler, N, seed, workers):
    n_batches = (N + BATCH_SIZE - 1) // BATCH_SIZE
    sizes = [min(BATCH_SIZE, N - b * BATCH_SIZE) for b in range(n_batches)]
    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda b: _batch_stats(sampler, seed, b, sizes[b]), range(n_batches))
            )
    else:
        results = [_batch_stats(sampler, seed, b, sizes[b]) for b in range(n_batches)]
    acc = results[0]
    for nxt in results[1:]:
        acc = _combine(acc, nxt)
    return acc


def run_vector_estimator(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    N: int,
    seed: int,
    workers: int = 1,
) -> list[MCEstimate]:
    """Estimate the mean of each output column of a batch sampler.

    The sampler maps (rng, count) to an array of shape (count,) or (count, d)
    and must draw randomness only from the passed generator.
    """
    if N < 2:
        raise ValueError("need at least two samples")
    n, mean, m2 = _stream_stats(sampler, N, seed, workers)
    var = m2 / (n - 1)
    se = np.sqrt(var / n)
    return [MCEstimate(float(mean[j]), float(se[j]), n, seed) for j in range(mean.shape[0])]


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
