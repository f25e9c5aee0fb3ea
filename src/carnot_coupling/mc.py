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

A batch is the unit of seeding, statistics and parallelism; a tile is the
unit of compute inside it.  Every sampler whose rows carry a coefficient
array draws it through `tiled_sampler`, in row tiles of at most TILE_BYTES
of coefficients, while the batch keeps its rows, its generator and its
statistics.  Tiles are sized by bytes, not rows: rows run from a few dozen
coefficients to a thousand, and a fixed row count would either pay the
Python overhead of a call per few short rows or hold megabytes of long ones.

Importing this module gives glibc malloc one arena and fixed mmap and trim
thresholds for the whole process (`_fix_malloc_thresholds`), so every
process reuses the heap of one tile's temporaries for the next.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BATCH_SIZE",
    "TILE_BYTES",
    "MCEstimate",
    "ComparisonReport",
    "derive_rng",
    "split_seed",
    "tile_rows",
    "tiled_sampler",
    "run_vector_estimator",
    "ks_test",
    "two_sample_compare",
    "bound_check",
]

BATCH_SIZE = 1 << 14
# coefficient bytes a row tile holds at most; see the module docstring
TILE_BYTES = 1 << 23

# glibc malloc maps a request of at least its mmap threshold afresh and gives
# free heap back to the system once more than its trim threshold lies free.
# By default both thresholds move with the largest mapped block freed so far,
# and each thread of a new pool may open an arena beside those the last
# pool's threads still hold.  Whether a tile's temporaries, a few MiB each,
# reuse heap or are faulted in again by every batch, and how much heap a
# process keeps, then depend on what it freed before, such as the modules it
# imported: 20k minor page faults per weighted-transfer cycle in one process
# and none in another, 99 or 120 MB peak RSS.  Fixed thresholds above every
# worker's tile temporaries and one arena make that the same in every
# process.  numpy takes and frees an array's memory while it holds the GIL,
# so pool workers and the draw-ahead helper seldom contend for the one arena.
_MMAP_THRESHOLD_BYTES = 2 * TILE_BYTES
_TRIM_THRESHOLD_BYTES = 8 * TILE_BYTES
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt, <malloc.h>


def _fix_malloc_thresholds() -> None:
    """Give glibc malloc one arena and fixed mmap and trim thresholds; a no-op
    where malloc has no mallopt."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_fix_malloc_thresholds()

# whether the batch running on this thread may draw ahead (`tiled_sampler`)
_spare_core = threading.local()

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic substream for (seed, index) via a Philox key."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def split_seed(seed: int, tag: int) -> int:
    """Derive a distinct 64-bit seed; independent estimators must not share one."""
    return (seed * _GOLDEN + tag * 0xD1B54A32D192ED03 + 1) & _MASK64


def tile_rows(row_values: int) -> int:
    """Most rows of a tile whose rows carry row_values float64 coefficients each."""
    return max(1, TILE_BYTES // (8 * row_values))


def _tiles(count: int, row_values: int) -> list[slice]:
    """The fewest slices of at most `tile_rows(row_values)` rows over count rows, in order,
    whose sizes differ by at most one."""
    tiles = -(-count // tile_rows(row_values))
    return [slice(count * t // tiles, count * (t + 1) // tiles) for t in range(tiles)]


def map_tiles(fn: Callable[[slice], np.ndarray], count: int, row_values: int) -> np.ndarray:
    """fn over the row tiles of a batch of `count` rows, its outputs stacked in row order.

    The rows are split evenly into the fewest tiles of at most
    `tile_rows(row_values)` rows, and fn(tile) gives the values of the rows
    of that slice, one per leading index.  The tiles run in order, so fn may
    draw from a generator.
    """
    out = None
    for t in _tiles(count, row_values):
        vals = np.asarray(fn(t))
        if out is None:
            out = np.empty((count,) + vals.shape[1:], dtype=vals.dtype)
        out[t] = vals
    return out


def tiled_sampler(fn: Callable[[np.ndarray], np.ndarray],
                  row_shape: tuple[int, ...]) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Batch sampler of fn over standard normal rows xi (count, *row_shape), tile by tile.

    This is the one way a multi-row coefficient stream is drawn.  Each tile
    of at most `tile_rows(row_values)` rows is drawn from the batch's
    generator in turn and evaluated (`map_tiles`), so one tile of xi is held
    at a time.  Back-to-back draws from one generator continue one stream,
    so when fn is row-wise the batch equals
    fn(rng.standard_normal((count, *row_shape))) bit for bit, whatever the
    tiling.  fn is called on the tiles in row order, so a sampler that draws
    per-row values before the coefficients can hand each tile the next rows
    of them.

    Draw-ahead: when the run leaves a core idle, 2 x min(workers, batches) <=
    the usable cores (`_stream_stats` says so per batch), and half a tile
    holds a row, the tiles hold `tile_rows(2 * row_values)` rows and one
    helper thread draws tile t + 1 while fn evaluates tile t; numpy's normal
    fill releases the GIL.  The same generator makes the same draws in the
    same order, one at a time, so the batch is bit-identical.  The tiles are
    drawn into two buffers of a half tile each, so the two in flight hold no
    more coefficients than one tile, no draw takes new heap, and fn's xi is
    valid only until fn returns.  A batch of one tile, or a run whose
    batches fill the cores, starts no thread.
    """
    row_values = math.prod(row_shape)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        ahead = getattr(_spare_core, "on", False) and 16 * row_values <= TILE_BYTES
        tile_values = 2 * row_values if ahead else row_values
        if not ahead or count <= tile_rows(tile_values):
            return map_tiles(lambda t: fn(rng.standard_normal((t.stop - t.start, *row_shape))),
                             count, tile_values)
        tiles = _tiles(count, tile_values)
        # tile k fills buffer k % 2 while tile k - 1 is evaluated
        buffers = np.empty((2, -(-count // len(tiles)), *row_shape))

        def fill(k):
            return rng.standard_normal(out=buffers[k % 2, :tiles[k].stop - tiles[k].start])

        with ThreadPoolExecutor(max_workers=1) as helper:
            drawn = [helper.submit(fill, 0)]

            def evaluate(t):
                k = len(drawn) - 1  # the index of tile t
                if k + 1 < len(tiles):
                    drawn.append(helper.submit(fill, k + 1))
                return fn(drawn[k].result())

            return map_tiles(evaluate, count, tile_values)

    return sampler


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


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream_stats(sampler, N, seed, workers, control=False):
    n_batches = (N + BATCH_SIZE - 1) // BATCH_SIZE
    sizes = [min(BATCH_SIZE, N - b * BATCH_SIZE) for b in range(n_batches)]

    spare = 2 * min(workers, n_batches) <= _usable_cores()

    def batch(b):
        _spare_core.on = spare  # read by `tiled_sampler` on this thread
        try:
            return _batch_stats(sampler, seed, b, sizes[b], control)
        finally:
            _spare_core.on = False

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
    """Exact one-sample Kolmogorov-Smirnov p-value against a given CDF.

    `scipy.stats.kstest` gives the exact p-value of the two-sided statistic
    D at n samples, kstwo.sf(D, n), not its asymptotic (Kolmogorov) limit.
    This is the only call that reads `scipy.stats`, whose import makes
    importing this package about seven times slower and its resident memory
    about three times larger (30 MB without it, 99 MB with it, on a 2-core
    x86-64 host), so it loads `scipy.stats` on first use and a run with no
    KS test never does.
    """
    import scipy.stats

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
