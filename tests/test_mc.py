"""Harness determinism, stream independence, interval calibration, KS helper."""

import math

import numpy as np
import pytest
import scipy.stats

from carnot_coupling.mc import (
    derive_rng,
    ks_test,
    run_vector_estimator,
    split_seed,
    two_sample_compare,
)


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
