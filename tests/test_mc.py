"""Harness determinism, stream independence, interval calibration, KS helper."""

import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling import cli, coupling, mc
from carnot_coupling.catalog import CATALOG
from carnot_coupling.coupling import default_support_count, failure_probability
from carnot_coupling.girsanov import (
    bismut_gradient,
    finite_diff_gradient,
    girsanov_normalization_check,
    horizontal_direction,
    inequality_suite,
    semigroup_transfer_check,
    vertical_direction,
)
from carnot_coupling.groups import CarnotElement, HeisenbergPoint, SkewMatrix, heis_to_carnot
from carnot_coupling.mc import (
    derive_rng,
    ks_test,
    run_vector_estimator,
    split_seed,
    two_sample_compare,
)
from carnot_coupling.sylvester import SingularGramError, u_moment_check, wishart_inv_trace_mc


def normal_sampler(rng, count):
    return rng.standard_normal(count)


class TestRunEstimator:
    def test_constant_sampler(self):
        est = run_vector_estimator(lambda rng, c: np.full(c, 2.5), 1000, seed=0)[0]
        assert est.mean == 2.5 and est.stderr == 0.0 and est.n == 1000

    def test_standard_normal_mean(self):
        est = run_vector_estimator(normal_sampler, 1_000_000, seed=1)[0]
        assert abs(est.mean) <= 3.0 / math.sqrt(1_000_000)
        assert est.stderr == pytest.approx(1.0 / math.sqrt(1_000_000), rel=0.01)

    def test_doubling_samples_halves_stderr(self):
        a = run_vector_estimator(normal_sampler, 50_000, seed=2)[0]
        b = run_vector_estimator(normal_sampler, 200_000, seed=2)[0]
        assert b.stderr / a.stderr == pytest.approx(0.5, rel=0.2)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            run_vector_estimator(normal_sampler, 1, seed=0)

    def test_vector_columns(self):
        ests = run_vector_estimator(
            lambda rng, c: np.stack([np.full(c, 1.0), rng.standard_normal(c)], axis=1),
            10_000, seed=3,
        )
        assert len(ests) == 2 and ests[0].mean == 1.0


class TestDeterminism:
    def test_bitwise_reproducible(self):
        a = run_vector_estimator(normal_sampler, 123_457, seed=42)[0]
        b = run_vector_estimator(normal_sampler, 123_457, seed=42)[0]
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_workers_do_not_change_samples(self):
        a = run_vector_estimator(normal_sampler, 100_001, seed=7, workers=1)[0]
        b = run_vector_estimator(normal_sampler, 100_001, seed=7, workers=4)[0]
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_column_layout_does_not_change_the_estimate(self):
        # a column-major sampler output is summed in the same row order
        def sampler(rng, count):
            return np.asfortranarray(rng.standard_normal((count, 3)))

        def row_major(rng, count):
            return np.ascontiguousarray(sampler(rng, count))

        assert run_vector_estimator(sampler, 20_000, seed=8) == \
            run_vector_estimator(row_major, 20_000, seed=8)

    def test_different_seeds_differ(self):
        a = run_vector_estimator(normal_sampler, 10_000, seed=1)[0]
        b = run_vector_estimator(normal_sampler, 10_000, seed=2)[0]
        assert a.mean != b.mean

    def test_derive_rng_deterministic(self):
        x = derive_rng(5, 9).standard_normal(4)
        y = derive_rng(5, 9).standard_normal(4)
        assert np.array_equal(x, y)

    def test_split_seed_distinct(self):
        seeds = {split_seed(11, t) for t in range(100)}
        assert len(seeds) == 100


def _reference_m2_stream(sampler, N, seed):
    """The per-column (n, mean, M2) batch statistics and merge, kept as the reference."""
    def batch_stats(b, count):
        vals = np.ascontiguousarray(sampler(derive_rng(seed, b), count), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        mean = vals.mean(axis=0)
        return count, mean, ((vals - mean) ** 2).sum(axis=0)

    def combine(stats_a, stats_b):
        na, ma, sa = stats_a
        nb, mb, sb = stats_b
        n = na + nb
        delta = mb - ma
        return n, ma + delta * (nb / n), sa + sb + delta * delta * (na * nb / n)

    sizes = [min(mc.BATCH_SIZE, N - b) for b in range(0, N, mc.BATCH_SIZE)]
    acc = batch_stats(0, sizes[0])
    for b, count in enumerate(sizes[1:], start=1):
        acc = combine(acc, batch_stats(b, count))
    return acc, np.concatenate([sampler(derive_rng(seed, b), c) for b, c in enumerate(sizes)])


def correlated_columns(rng, count):
    x, y = rng.standard_normal((2, count))
    return np.stack([x, 0.5 * x + y, np.exp(x), np.full(count, 3.0)], axis=1)


def control_last(rng, count):
    """`correlated_columns` reversed: the constant column first, x last as the control."""
    return correlated_columns(rng, count)[:, ::-1]


class TestCoMoments:
    @pytest.mark.parametrize("N", [1024, 3 * 1024 - 5, 5 * 1024 - 100])  # 1, 3 and 5 batches
    def test_diagonal_is_the_per_column_m2_and_the_rest_the_covariance(self, N, monkeypatch):
        # column 0 is each column's M2, column 1 (with a control) its co-moment with the last
        monkeypatch.setattr(mc, "BATCH_SIZE", 1024)
        (ref_n, ref_mean, ref_m2), rows = _reference_m2_stream(control_last, N, 31)
        plain = mc._stream_stats(control_last, N, 31, 1)
        n, mean, com = mc._stream_stats(control_last, N, 31, 1, control=True)
        assert n == plain[0] == ref_n and np.array_equal(mean, ref_mean)
        assert np.array_equal(plain[1], ref_mean)
        assert com.shape == (4, 2) and plain[2].shape == (4, 1)
        assert np.array_equal(com[:, 0], ref_m2) and np.array_equal(plain[2][:, 0], ref_m2)
        cov = np.cov(rows, rowvar=False) * (N - 1)
        assert np.allclose(com[1:, 1], cov[1:, 3], rtol=1e-12, atol=0.0)
        assert com[0, 1] == 0.0 and com[3, 1] == com[3, 0]  # the constant column, the control


def _full_batch_stats(sampler, seed, batch_index, count):
    """The batch statistics with every co-moment, d x d, as `mc` computed them before."""
    vals = np.asarray(sampler(derive_rng(seed, batch_index), count), dtype=float)
    if vals.ndim == 1 or vals.shape[1] == 1:
        vals = vals.reshape(count, 1)
        mean = vals.mean(axis=0)
        return count, mean, ((vals - mean) ** 2).sum(axis=0)[:, None]
    cols = np.ascontiguousarray(vals.T)
    mean = np.array([np.cumsum(c)[-1] for c in cols]) / count
    dev = cols - mean[:, None]
    com = np.empty((cols.shape[0],) * 2)
    for j, k in zip(*np.triu_indices(cols.shape[0])):
        com[j, k] = com[k, j] = np.cumsum(dev[j] * dev[k])[-1]
    return count, mean, com


def _reference_batch_stats(vals):
    """The row-major axis-0 batch statistics, kept as the reference."""
    vals = np.ascontiguousarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    mean = vals.mean(axis=0)
    dev = vals - mean
    com = np.diag((dev ** 2).sum(axis=0))
    for j, k in zip(*np.triu_indices(vals.shape[1], 1)):
        com[j, k] = com[k, j] = np.cumsum(dev[:, j] * dev[:, k])[-1]
    return vals.shape[0], mean, com


class TestBatchStats:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), count=st.integers(5, 16384), seed=st.integers(0, 2 ** 32 - 1),
           column_major=st.booleans())
    def test_bit_identical_to_the_row_major_reductions(self, d, count, seed, column_major):
        rng = derive_rng(seed)
        # columns of very different scales and offsets, in a third of the cases one constant
        vals = (rng.standard_normal((count, d)) * np.exp(rng.uniform(-8, 8, d))
                + rng.uniform(-1e3, 1e3, d))
        if seed % 3 == 0:
            vals[:, -1] = vals[0, -1]
        if column_major:
            vals = np.asfortranarray(vals)
        samples = [vals[:, 0], vals] if d == 1 else [vals]
        ref_n, ref_mean, ref_com = _reference_batch_stats(vals)
        for out in samples:
            sampler = lambda rng, c: out  # noqa: E731
            full = _full_batch_stats(sampler, seed, 0, count)
            assert full[0] == ref_n
            assert np.array_equal(full[1], ref_mean) and np.array_equal(full[2], ref_com)
            for control in (False, True):
                n, mean, com = mc._batch_stats(sampler, seed, 0, count, control)
                assert n == ref_n and np.array_equal(mean, ref_mean)
                # the diagonal, and with a control and d > 1 the last column, of the full matrix
                assert np.array_equal(com[:, 0], np.diagonal(ref_com))
                assert com.shape[1] == (2 if control and d > 1 else 1)
                if com.shape[1] == 2:
                    assert np.array_equal(com[:, 1], ref_com[:, -1])


def _full_matrix_estimates(sampler, N, seed, control_mean):
    """(means, stderrs) of `run_vector_estimator` from the full d x d co-moment matrix."""
    acc = None
    for b, start in enumerate(range(0, N, mc.BATCH_SIZE)):
        nxt = _full_batch_stats(sampler, seed, b, min(mc.BATCH_SIZE, N - start))
        if acc is None:
            acc = nxt
            continue
        (na, ma, ca), (nb, mb, cb) = acc, nxt
        delta = mb - ma
        acc = (na + nb, ma + delta * (nb / (na + nb)),
               ca + cb + np.multiply.outer(delta, delta) * (na * nb / (na + nb)))
    n, mean, com = acc
    m2 = np.diagonal(com)
    se = np.sqrt(m2 / (n - 1) / n)
    if control_mean is None:
        return mean, se
    c = mean.shape[0] - 1
    c_jc = com[:c, c]
    beta = c_jc / com[c, c] if com[c, c] > 0 else np.zeros(c)
    adjusted = mean[:c] - beta * (mean[c] - control_mean)
    se_adj = np.sqrt(np.maximum(m2[:c] - beta * c_jc, 0.0) / ((n - 2) * n))
    return np.append(adjusted, mean[c]), np.append(se_adj, se[c])


class TestReadComoments:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("control_mean", [None, 0.5])
    def test_estimates_equal_those_of_the_full_matrix(self, d, control_mean, monkeypatch):
        # three batches, columns correlated with the last; d = 1 takes no control
        monkeypatch.setattr(mc, "BATCH_SIZE", 1024)

        def sampler(rng, count):
            z = rng.standard_normal((count, d))
            return z + 0.7 * z[:, -1:] * np.arange(1, d + 1) + np.arange(d)

        if control_mean is not None and d == 1:
            with pytest.raises(ValueError):
                run_vector_estimator(sampler, 3000, 44, control_mean=control_mean)
            return
        ests = run_vector_estimator(sampler, 3000, 44, control_mean=control_mean)
        mean, se = _full_matrix_estimates(sampler, 3000, 44, control_mean)
        assert [e.mean for e in ests] == list(mean) and [e.stderr for e in ests] == list(se)


class TestControlVariate:
    def test_removes_the_correlated_part(self):
        # y = x + e with E[x] = 0 known: the residual e has variance 1, the plain y 2
        def sampler(rng, count):
            x, e = rng.standard_normal((2, count))
            return np.stack([x + e, x], axis=1)

        N = 200_000
        adjusted, control = run_vector_estimator(sampler, N, seed=33, control_mean=0.0)
        plain = run_vector_estimator(sampler, N, seed=33)
        assert control == plain[1]
        assert adjusted.stderr == pytest.approx(1.0 / math.sqrt(N), rel=0.01)
        assert plain[0].stderr == pytest.approx(math.sqrt(2.0 / N), rel=0.01)
        assert abs(adjusted.mean) <= 3.0 * adjusted.stderr

    def test_constant_control_leaves_the_plain_estimate(self):
        def sampler(rng, count):
            return np.stack([rng.standard_normal(count), np.ones(count)], axis=1)

        N = 50_000
        adjusted, control = run_vector_estimator(sampler, N, seed=34, control_mean=1.0)
        plain, _ = run_vector_estimator(sampler, N, seed=34)
        assert adjusted.mean == plain.mean
        assert adjusted.stderr == pytest.approx(plain.stderr * math.sqrt((N - 1) / (N - 2)),
                                                rel=1e-14)
        assert (control.mean, control.stderr) == (1.0, 0.0)

    def test_control_needs_a_second_column(self):
        with pytest.raises(ValueError):
            run_vector_estimator(normal_sampler, 1000, seed=35, control_mean=0.0)


# every caller of run_vector_estimator, each as a function of workers
_H = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
_HT = heis_to_carnot(HeisenbergPoint(0.5, 0.0, 0.2))
_G3 = CarnotElement(np.array([0.1, -0.2, 0.3]), SkewMatrix(3, np.array([0.1, 0.0, -0.1])))
_G3T = CarnotElement(np.array([0.3, 0.0, 0.1]), SkewMatrix(3, np.array([0.0, 0.2, 0.0])))
_N = 4 * 1024 + 7
_SIN = CATALOG["sin-perturbation"]
ESTIMATORS = {
    "failure_probability-heisenberg": lambda w: failure_probability(
        heis_to_carnot(HeisenbergPoint(0, 0, 0)), heis_to_carnot(HeisenbergPoint(1, 0, 1)),
        [1.0, 25.0, 1.0], _N, 1, w, K=1),
    "failure_probability-carnot-3": lambda w: failure_probability(
        _G3, _G3T, [4.0, 25.0], _N, 2, w),
    "girsanov_normalization_check": lambda w: girsanov_normalization_check(
        _G3, _G3T, 9.0, 7, _N, 3, w),
    "semigroup_transfer_check": lambda w: semigroup_transfer_check(
        _SIN, _H, _HT, 4.0, 5, _N, 4, w),
    "bismut_gradient": lambda w: bismut_gradient(
        _SIN, _G3, vertical_direction(3, 1), 4.0, 7, _N, 5, w),
    "finite_diff_gradient": lambda w: finite_diff_gradient(
        _SIN, _H, horizontal_direction(_H, 0), 4.0, 1e-3, _N, 6, w),
    "inequality_suite": lambda w: inequality_suite(
        CATALOG["gaussian-bump"], _H, _HT, horizontal_direction(_H, 0), 4.0, _N, 7,
        workers=w, p_values=(2.0,)),
    "wishart_inv_trace_mc": lambda w: wishart_inv_trace_mc(3, 7, _N, 8, w),
    "u_moment_check": lambda w: u_moment_check(3, 7, _N, 9, w),
}


class TestEveryEstimator:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_same_result_for_one_and_four_workers(self, name, monkeypatch):
        monkeypatch.setattr(mc, "BATCH_SIZE", 1024)  # five batches
        run = ESTIMATORS[name]
        assert run(1) == run(4)

    def test_marginals_artifact_same_for_one_and_four_workers(self, monkeypatch, tmp_path):
        monkeypatch.setattr(mc, "BATCH_SIZE", 1024)
        argv = ["marginals", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--T", "1",
                "--N", str(_N), "--seed", "10"]
        outs = []
        for w in ("1", "4"):
            out = tmp_path / f"w{w}.csv"
            cli.main(argv + ["--workers", w, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# every row-tiled estimator, as a function of nothing, with the float64
# coefficients a row of it carries; batches of _TILE_BATCH rows, so N spans
# two full batches and a partial one
_TILE_BATCH = 64
_TILE_N = 2 * _TILE_BATCH + 5
_TILE_K3 = default_support_count(3)
TILED = {
    "failure_probability-heisenberg": (10, lambda: failure_probability(
        heis_to_carnot(HeisenbergPoint(0, 0, 0)), heis_to_carnot(HeisenbergPoint(1, 0, 1)),
        [1.0, 25.0], _TILE_N, 1, K=1)),
    "failure_probability-carnot-3": ((3 * _TILE_K3 + 2) * 3, lambda: failure_probability(
        _G3, _G3T, [4.0, 25.0], _TILE_N, 2)),
    "girsanov_normalization_check": (23 * 3, lambda: girsanov_normalization_check(
        _G3, _G3T, 9.0, 7, _TILE_N, 3)),
    "semigroup_transfer_check": (17 * 2, lambda: semigroup_transfer_check(
        _SIN, _H, _HT, 4.0, 5, _TILE_N, 4)),
    "bismut_gradient": (41 * 3, lambda: bismut_gradient(
        _SIN, _G3, vertical_direction(3, 1), 4.0, 7, _TILE_N, 5, k_path=40)),
    "finite_diff_gradient": (41 * 3, lambda: finite_diff_gradient(
        _SIN, _G3, horizontal_direction(_G3, 0), 4.0, 1e-3, _TILE_N, 6, K=7, k_path=40)),
    "inequality_suite": (17 * 2, lambda: inequality_suite(
        CATALOG["gaussian-bump"], _H, _HT, horizontal_direction(_H, 0), 4.0, _TILE_N, 7,
        p_values=(2.0,))),
    "marginals-moments": (257 * 3, lambda: run_vector_estimator(
        cli._legendre_moment_sampler(_G3, 1.0, 256), _TILE_N, 8)),
}


_HEAP_REUSE = """
import resource
import threading
import numpy as np
from carnot_coupling import mc

def tile(barrier):
    held = [np.ones(mc.TILE_BYTES // 16) for _ in range(4)]
    barrier.wait(60)  # both threads hold their four arrays at once, in every pool
    sum(float(t[-1]) for t in held)

def pool():
    barrier = threading.Barrier(2)
    threads = [threading.Thread(target=tile, args=(barrier,)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

pool()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    pool()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


_HEAP_REUSE_AHEAD = """
import resource
from carnot_coupling import mc
mc._usable_cores = lambda: 2  # a spare core on any host
tiles = []
sampler = mc.tiled_sampler(lambda xi: tiles.append(1) or (2.0 * xi).sum(axis=(1, 2)), (129, 3))
mc.run_vector_estimator(sampler, mc.BATCH_SIZE, 0)
print(len(tiles))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 11):
    mc.run_vector_estimator(sampler, mc.BATCH_SIZE, seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# the rows of the half tiles of 23 rows when a whole tile holds 10 rows
_AHEAD_TILES = [4, 5, 4, 5, 5]


class _RecordingGenerator:
    """A generator that records the rows, thread and overlap of each standard normal draw."""

    def __init__(self, rng, pause=0.0):
        self._rng = derive_rng(rng) if isinstance(rng, int) else rng
        self._pause = pause
        self._lock = threading.Lock()
        self._running = 0
        self.issued, self.threads, self.most_at_once = [], set(), 0

    def standard_normal(self, size=None, out=None):
        with self._lock:
            self.issued.append((size if out is None else out.shape)[0])
            self.threads.add(threading.current_thread())
            self._running += 1
            self.most_at_once = max(self.most_at_once, self._running)
        try:
            time.sleep(self._pause)
            return self._rng.standard_normal(size, out=out)
        finally:
            with self._lock:
                self._running -= 1


def _run_ahead(monkeypatch, fn, rng, cores, tile_rows=10):
    """The tiled sampler's values of fn over 23 rows of shape (3, 2) drawn from rng,
    as a batch of a run on `cores` usable cores, with tiles of `tile_rows` rows."""
    monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
    monkeypatch.setattr(mc, "TILE_BYTES", tile_rows * 8 * 6)
    values = []

    def sampler(_, count):
        values.append(mc.tiled_sampler(fn, (3, 2))(rng, count))
        return values[-1]

    run_vector_estimator(sampler, sum(_AHEAD_TILES), 0)
    return values[0]


class TestRowTiles:
    @pytest.mark.parametrize("count, tiles", [(1, 1), (8, 1), (9, 2), (100, 13), (16384, 2048)])
    def test_map_tiles_splits_rows_evenly_into_the_fewest_tiles(self, count, tiles, monkeypatch):
        monkeypatch.setattr(mc, "TILE_BYTES", 8 * 3 * 8)  # 8 rows of 3 values
        seen = []
        out = mc.map_tiles(lambda t: seen.append(t) or np.arange(t.start, t.stop), count, 3)
        sizes = [t.stop - t.start for t in seen]
        assert len(seen) == tiles and max(sizes) <= 8 and max(sizes) - min(sizes) <= 1
        assert out.tolist() == list(range(count))

    def test_tile_rows_are_sized_by_bytes(self):
        assert mc.tile_rows(129 * 3) == mc.TILE_BYTES // (8 * 129 * 3)
        assert mc.tile_rows(mc.TILE_BYTES) == 1  # a row larger than a tile is a tile

    @pytest.mark.parametrize("shape", [(8, 2), (129, 3)])
    def test_chunked_draws_equal_one_draw(self, shape):
        # the premise of the tiled draw: back-to-back draws continue one stream
        whole = derive_rng(31, 2).standard_normal((1000, *shape))
        for sizes in ([1000], [1] * 10 + [990], [7] * 142 + [6], [333, 333, 334]):
            rng = derive_rng(31, 2)
            chunks = np.concatenate([rng.standard_normal((k, *shape)) for k in sizes])
            assert np.array_equal(chunks, whole)

    @pytest.mark.parametrize("name", sorted(TILED))
    @pytest.mark.parametrize("cores", [1, 2], ids=["drawn-in-turn", "drawn-ahead"])
    def test_estimates_do_not_depend_on_the_tile(self, cores, name, monkeypatch):
        # one worker on two usable cores draws each tile while the last is evaluated
        row_values, run = TILED[name]
        monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
        monkeypatch.setattr(mc, "BATCH_SIZE", _TILE_BATCH)
        results = []
        for tile_bytes in (1, 7 * 8 * row_values, 1 << 40):  # 1 row, 7 rows, a whole batch
            monkeypatch.setattr(mc, "TILE_BYTES", tile_bytes)
            results.append(run())
        assert results[0] == results[1] == results[2]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
    def test_next_pool_reuses_the_heap_of_the_last(self):
        # each of two new threads holds four half-tile temporaries at once, as a
        # pool's workers do; with glibc's moving thresholds and an arena per
        # thread, ten such pools faulted in about 160 MiB afresh
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", _HEAP_REUSE], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 256  # pages faulted by ten pools

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
    def test_drawing_ahead_reuses_the_heap_of_the_last_batch(self):
        # a new helper thread per batch fills one half tile while the caller
        # evaluates the last, whose temporaries must reuse the heap of the batch before
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", _HEAP_REUSE_AHEAD], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        tiles, faults = map(int, proc.stdout.split())
        assert tiles == 13
        assert faults < 256  # pages faulted by ten batches

    def test_draws_ahead_in_tile_order_one_at_a_time(self, monkeypatch):
        rng = _RecordingGenerator(31)
        evaluated = []

        def fn(xi):
            # hold each tile until the next one's draw has been issued
            deadline = time.monotonic() + 10.0
            while len(rng.issued) <= len(evaluated) + 1 < len(_AHEAD_TILES) \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            evaluated.append((xi.copy(), len(rng.issued)))  # xi is valid until fn returns
            return xi[:, 0, 0]

        out = _run_ahead(monkeypatch, fn, rng, cores=2)
        assert rng.issued == _AHEAD_TILES and rng.most_at_once == 1
        assert [issued for _, issued in evaluated] == \
            [min(k + 2, len(_AHEAD_TILES)) for k in range(len(_AHEAD_TILES))]
        whole = derive_rng(31).standard_normal((sum(_AHEAD_TILES), 3, 2))
        assert np.array_equal(np.concatenate([xi for xi, _ in evaluated]), whole)
        assert np.array_equal(out, whole[:, 0, 0])
        assert threading.current_thread() not in rng.threads

    def test_error_during_a_draw_ahead_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(coupling, "COND_LIMIT", 0.0)  # every Gram row counts as singular
        monkeypatch.setattr(mc, "_usable_cores", lambda: 2)
        monkeypatch.setattr(mc, "tile_rows", lambda row_values: 7)
        rng = _RecordingGenerator(5, pause=0.05)  # the next tile's draw is in flight
        monkeypatch.setattr(mc, "derive_rng", lambda seed, index=0: rng)
        done = []
        batch_stats = mc._batch_stats
        monkeypatch.setattr(mc, "_batch_stats", lambda *a: done.append(batch_stats(*a)))
        threads = threading.active_count()
        with pytest.raises(SingularGramError, match="7 singular Gram draws in a tile of 7 rows"):
            bismut_gradient(_SIN, _G3, vertical_direction(3, 1), 4.0, 7, 98, 5)
        assert done == [] and threading.active_count() == threads
        assert rng.issued == [7, 7] and threading.current_thread() not in rng.threads

    @pytest.mark.parametrize("workers, cores, ahead", [
        (2, 2, False), (2, 4, True), (1, 2, True),
        (4, 8, True),  # three batches and their three helpers, six threads at once
    ])
    def test_batches_that_fill_the_cores_draw_in_turn(self, workers, cores, ahead, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
        monkeypatch.setattr(mc, "BATCH_SIZE", 64)
        monkeypatch.setattr(mc, "TILE_BYTES", 16 * 8 * 6)  # 8-row tiles, 4 rows drawing ahead
        drew, evaluated = set(), set()
        lock = threading.Lock()

        def fn(xi):
            evaluated.add(threading.current_thread())
            return xi[:, 0, 0]

        def sampler(rng, count):
            rng = _RecordingGenerator(rng)
            out = mc.tiled_sampler(fn, (3, 2))(rng, count)
            with lock:
                drew.update(rng.threads)
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_vector_estimator(sampler, 137, 9, workers) == \
                run_vector_estimator(lambda rng, c: rng.standard_normal((c, 3, 2))[:, 0, 0], 137, 9)
        finally:
            sys.setswitchinterval(interval)
        assert drew.isdisjoint(evaluated) if ahead else drew == evaluated

    def test_a_batch_of_one_tile_starts_no_thread(self, monkeypatch):
        rng = _RecordingGenerator(31)
        threads = threading.active_count()
        assert np.array_equal(_run_ahead(monkeypatch, lambda xi: xi[:, 0, 0], rng, cores=2,
                                         tile_rows=2 * sum(_AHEAD_TILES)),
                              derive_rng(31).standard_normal((sum(_AHEAD_TILES), 3, 2))[:, 0, 0])
        assert rng.issued == [sum(_AHEAD_TILES)] and rng.threads == {threading.current_thread()}
        assert threading.active_count() == threads

    @pytest.mark.parametrize("run", [
        lambda: failure_probability(_G3, _G3T, [4.0, 25.0], 98, 1),
        lambda: bismut_gradient(_SIN, _G3, vertical_direction(3, 1), 4.0, 7, 98, 5),
    ])
    def test_singular_row_raises_before_any_statistics(self, run, monkeypatch):
        # every shift goes through `coupling.shift_batch`, which reads this limit
        monkeypatch.setattr(coupling, "COND_LIMIT", 0.0)  # every Gram row counts as singular
        monkeypatch.setattr(mc, "tile_rows", lambda row_values: 7)  # 14 tiles of 7 rows
        done = []
        batch_stats = mc._batch_stats
        monkeypatch.setattr(mc, "_batch_stats", lambda *a: done.append(batch_stats(*a)))
        with pytest.raises(SingularGramError, match="7 singular Gram draws in a tile of 7 rows"):
            run()
        assert done == []


class TestStatisticalCalibration:
    def test_seed_independence_covariance(self):
        n_seeds = 200
        a = np.array([run_vector_estimator(normal_sampler, 400, seed=s)[0].mean for s in range(n_seeds)])
        b = np.array([run_vector_estimator(normal_sampler, 400, seed=s + 10_000)[0].mean
                      for s in range(n_seeds)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n_seeds)

    def test_three_sigma_interval_coverage(self):
        covered = 0
        trials = 1000
        for s in range(trials):
            est = run_vector_estimator(normal_sampler, 400, seed=split_seed(99, s))[0]
            lo, hi = est.interval(3.0)
            covered += lo <= 0.0 <= hi
        assert covered >= 990

    def test_two_sample_compare_pass_logic(self):
        rep = two_sample_compare(1.0, 1.05, k=3.0, bias=0.0)
        assert not rep.passed
        rep = two_sample_compare(1.0, 1.05, k=3.0, bias=0.1)
        assert rep.passed


class TestKS:
    def test_calibration_across_seeds(self):
        # n = 2000 per seed keeps the asymptotic p-value well calibrated
        hits = 0
        for s in range(100):
            x = derive_rng(1234, s).standard_normal(2000)
            hits += ks_test(x, scipy.stats.norm.cdf) > 0.01
        assert hits >= 98

    def test_power_against_shift(self):
        x = derive_rng(77).standard_normal(10_000) + 0.5
        assert ks_test(x, scipy.stats.norm.cdf) < 1e-3

    def test_identical_samples_zero_statistic(self):
        x = derive_rng(78).standard_normal(500)
        assert scipy.stats.ks_2samp(x, x).statistic == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.zeros(10), scipy.stats.norm.cdf)
