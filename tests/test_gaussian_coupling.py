"""Reflection-maximal Gaussian coupling: marginals, meeting law, sharing."""

import math

import numpy as np
import pytest
import scipy.stats

from carnot_coupling.gaussian_coupling import (
    couple_to_shift,
    gaussian_tv,
    reflection_couple_batch,
)
from carnot_coupling.mc import derive_rng, ks_test


class TestGaussianTV:
    def test_zero_shift(self):
        assert gaussian_tv(0.0) == 0.0

    def test_limit_one(self):
        assert gaussian_tv(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_unit_shift_value(self):
        assert gaussian_tv(1.0) == pytest.approx(2 * scipy.stats.norm.cdf(0.5) - 1, rel=1e-12)
        assert gaussian_tv(1.0) == pytest.approx(0.38292, abs=5e-6)

    def test_below_first_moment_bound(self):
        for d in (0.1, 0.5, 1.0, 2.0):
            assert gaussian_tv(d) <= min(1.0, d / math.sqrt(2 * math.pi)) + 1e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_tv(-0.1)


class TestMaximalCoupling:
    def test_equal_means_always_meet(self):
        rng = derive_rng(1)
        G = rng.standard_normal((50, 2))
        Y, met = reflection_couple_batch(G, np.zeros((50, 2)), rng.uniform(size=50))
        assert met.all() and np.array_equal(Y, G)

    def test_met_implies_exact_equality(self):
        rng = derive_rng(2)
        G = rng.standard_normal((500, 3))
        shift = np.tile([0.5, 0.0, 0.0], (500, 1))
        Y, met = reflection_couple_batch(G, shift, rng.uniform(size=500))
        equal = np.all(Y == G, axis=1)
        assert np.array_equal(equal, met)
        assert met.any()

    def test_meeting_probability_matches_tv(self):
        rng = derive_rng(3)
        N, delta = 100_000, 1.0
        X = rng.standard_normal((N, 2))
        shift = np.tile([delta, 0.0], (N, 1))
        _, met = couple_to_shift(X, shift, rng.uniform(size=N))
        fail = 1.0 - met.mean()
        target = gaussian_tv(delta)
        se = math.sqrt(target * (1 - target) / N)
        assert abs(fail - target) <= 3 * se
        assert fail <= min(1.0, delta / math.sqrt(2 * math.pi)) + 3 * se

    def test_marginals_pass_ks(self):
        rng = derive_rng(4)
        N = 100_000
        m = np.array([0.3, -1.0])
        mp = np.array([1.0, 0.5])
        G = rng.standard_normal((N, 2))
        Y, _ = reflection_couple_batch(G, np.tile(mp - m, (N, 1)), rng.uniform(size=N))
        X_rows = m + G
        Y_rows = m + Y
        for i in range(2):
            assert ks_test(X_rows[:, i], scipy.stats.norm(loc=m[i]).cdf) > 0.01
            assert ks_test(Y_rows[:, i], scipy.stats.norm(loc=mp[i]).cdf) > 0.01

    def test_orthogonal_components_shared(self):
        rng = derive_rng(5)
        N = 10_000
        X = rng.standard_normal((N, 3))
        shift = np.tile([0.8, 0.0, 0.0], (N, 1))
        Xt, met = couple_to_shift(X, shift, rng.uniform(size=N))
        # only the shift direction may differ
        assert np.array_equal(Xt[:, 1:], X[:, 1:])
        assert np.array_equal(Xt[met], (X + shift)[met])

    def test_rotational_covariance_in_distribution(self):
        theta = 0.7
        Q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        m = np.array([0.4, -0.2])
        mp = np.array([-0.3, 0.5])
        N = 60_000

        def run(ma, mb, seed):
            rng = derive_rng(seed)
            G = rng.standard_normal((N, 2))
            Y, met = reflection_couple_batch(G, np.tile(mb - ma, (N, 1)), rng.uniform(size=N))
            return ma + G, ma + Y, met

        X1, Y1, met1 = run(m, mp, 6)
        X2, Y2, met2 = run(Q @ m, Q @ mp, 7)
        # meeting rate and first/second moments of the coupled pair transform covariantly
        se = 3.0 / math.sqrt(N)
        assert abs(met1.mean() - met2.mean()) <= se
        assert np.allclose((X1 @ Q.T).mean(axis=0), X2.mean(axis=0), atol=3 * 3 / math.sqrt(N))
        assert np.allclose((Y1 @ Q.T).mean(axis=0), Y2.mean(axis=0), atol=3 * 3 / math.sqrt(N))
        c1 = np.cov((Y1 @ Q.T).T)
        c2 = np.cov(Y2.T)
        assert np.allclose(c1, c2, atol=0.05)
