"""T-Sylvester particular solution and Wishart moment diagnostics."""

import math

import numpy as np
import pytest

from carnot_coupling.groups import SkewMatrix
from carnot_coupling.mc import derive_rng
from carnot_coupling.sylvester import (
    COND_LIMIT,
    SingularGramError,
    solve_tsylvester,
    tsylvester_batch,
    u_moment_check,
    wishart_inv_trace_mc,
)


def random_skew(n, rng):
    iu = np.triu_indices(n, k=1)
    w = np.zeros((n, n))
    vals = rng.standard_normal(len(iu[0]))
    w[iu] = vals
    w[iu[1], iu[0]] = -vals
    return w


class TestSolve:
    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 7))
        sol = solve_tsylvester(v, np.zeros((3, 3)))
        assert np.array_equal(sol.U, np.zeros((3, 7)))
        assert sol.residual == 0.0

    def test_rational_instance_small_residual(self):
        rng = np.random.default_rng(1)
        v = rng.integers(-8, 9, size=(2, 4)) / 4.0
        while np.linalg.matrix_rank(v) < 2:
            v = rng.integers(-8, 9, size=(2, 4)) / 4.0
        w = np.array([[0.0, 1.5], [-1.5, 0.0]])
        sol = solve_tsylvester(v, w)
        assert sol.residual <= 1e-10

    def test_gaussian_instance_residual_and_norm_bound(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 7))
        w = random_skew(3, rng)
        sol = solve_tsylvester(v, w)
        wnorm = math.sqrt(np.sum(w * w))
        assert sol.residual <= 1e-10 * (1.0 + wnorm)
        gram_inv_tr = np.trace(np.linalg.inv(v @ v.T))
        assert math.sqrt(np.sum(sol.U ** 2)) <= 0.5 * wnorm * math.sqrt(gram_inv_tr) + 1e-12

    def test_accepts_skewmatrix_rhs(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((2, 5))
        sol = solve_tsylvester(v, SkewMatrix(2, np.array([2.0])))
        assert sol.residual <= 1e-12 * 3

    def test_characterizing_relation(self):
        # the particular solution satisfies v u^t = -w/2, stronger than the equation
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 9))
        w = random_skew(4, rng)
        sol = solve_tsylvester(v, w)
        assert np.allclose(v @ sol.U.T, -0.5 * w, atol=1e-12)

    def test_reconstructed_lhs_antisymmetric_identically(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 8))
        sol = solve_tsylvester(v, random_skew(3, rng))
        lhs = sol.U @ v.T - v @ sol.U.T
        assert np.array_equal(lhs, -lhs.T)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((3, 7))
        w = random_skew(3, rng)
        base = solve_tsylvester(v, w)
        for c in (0.5, 2.0, 7.0):
            scaled = solve_tsylvester(c * v, w)
            assert np.allclose(scaled.U, base.U / c, rtol=1e-10)

    def test_singular_gram_rejected(self):
        v = np.ones((3, 6))
        with pytest.raises(SingularGramError):
            solve_tsylvester(v, np.zeros((3, 3)))

    def test_tall_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_tsylvester(np.ones((4, 3)), np.zeros((4, 4)))

    def test_batch_residuals(self):
        rng = derive_rng(7)
        for n in (2, 3, 4, 5, 6):
            m = 2 * n + 1
            count = 500
            v = rng.standard_normal((count, n, m))
            iu = np.triu_indices(n, k=1)
            w = np.zeros((count, n, n))
            vals = rng.standard_normal((count, len(iu[0])))
            w[:, iu[0], iu[1]] = vals
            w[:, iu[1], iu[0]] = -vals
            u, cond = tsylvester_batch(v, w)
            resid = u @ np.swapaxes(v, 1, 2) - v @ np.swapaxes(u, 1, 2) - w
            rnorm = np.sqrt(np.sum(resid ** 2, axis=(1, 2)))
            wnorm = np.sqrt(np.sum(w ** 2, axis=(1, 2)))
            assert np.max(rnorm / (1.0 + wnorm)) <= 1e-10

    def test_batch_flags_singular_row_and_solves_the_rest(self):
        rng = derive_rng(9)
        v = rng.standard_normal((4, 3, 7))
        v[2] = 1.0  # rank one: v v^t is exactly singular
        w = np.stack([random_skew(3, rng) for _ in range(4)])
        with np.errstate(all="raise"):
            u, cond = tsylvester_batch(v, w)
        assert cond[2] > COND_LIMIT
        assert not np.isfinite(u[2]).any()
        for i in (0, 1, 3):
            assert cond[i] <= COND_LIMIT and np.isfinite(u[i]).all()
            alone_u, alone_cond = tsylvester_batch(v[i:i + 1], w[i:i + 1])
            assert np.array_equal(alone_u[0], u[i]) and alone_cond[0] == cond[i]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_solve_is_batch_of_one(self, n):
        rng = derive_rng(10, n)
        v = rng.standard_normal((50, n, 2 * n + 1))
        w = np.stack([random_skew(n, rng) for _ in range(50)])
        u, cond = tsylvester_batch(v, w)
        for i in range(50):
            sol = solve_tsylvester(v[i], w[i])
            assert np.array_equal(sol.U, u[i]) and sol.cond == cond[i]

    def test_batch_zero_rhs(self):
        rng = derive_rng(8)
        v = rng.standard_normal((10, 3, 7))
        u, _ = tsylvester_batch(v, np.zeros((10, 3, 3)))
        assert np.array_equal(u, np.zeros((10, 3, 7)))


class TestWishartMoments:
    @pytest.mark.parametrize("n,m,target", [(2, 5, 1.0), (3, 7, 1.0)])
    def test_inverse_trace_identity(self, n, m, target):
        est = wishart_inv_trace_mc(n, m, 40_000, seed=n * 100 + m)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_integrability_precondition(self):
        with pytest.raises(ValueError):
            wishart_inv_trace_mc(3, 4, 100, seed=0)

    def test_u_moment_bound(self):
        for n, m in ((2, 5), (3, 7)):
            rep = u_moment_check(n, m, 60_000, seed=n * 10 + m)
            assert rep.passed
            assert rep.bound == pytest.approx(n * (n - 1) / (4.0 * (m - n - 1)), rel=1e-14)

    def test_u_moment_precondition(self):
        with pytest.raises(ValueError):
            u_moment_check(4, 5, 100, seed=0)
