"""The two T-Sylvester solutions (least-norm and the lemma's) and Wishart moment diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling.coupling import sylvester_system
from carnot_coupling.groups import HeisenbergPoint, SkewMatrix, heis_to_carnot, unpack_skew
from carnot_coupling.legendre import alpha
from carnot_coupling.mc import derive_rng
from carnot_coupling.sylvester import (
    COND_LIMIT,
    lemma_solution_batch,
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


def lemma_one(v, w):
    """The lemma solution of one system as a batch of one: (u, residual, cond)."""
    u, cond = lemma_solution_batch(v[None], w[None])
    residual = float(np.sqrt(np.sum((u[0] @ v.T - v @ u[0].T - w) ** 2)))
    return u[0], residual, cond[0]


class TestSolve:
    """The particular solution of the paper's lemma, v u^t = -w/2."""

    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 7))
        u, residual, _ = lemma_one(v, np.zeros((3, 3)))
        assert np.array_equal(u, np.zeros((3, 7)))
        assert residual == 0.0

    def test_rational_instance_small_residual(self):
        rng = np.random.default_rng(1)
        v = rng.integers(-8, 9, size=(2, 4)) / 4.0
        while np.linalg.matrix_rank(v) < 2:
            v = rng.integers(-8, 9, size=(2, 4)) / 4.0
        w = np.array([[0.0, 1.5], [-1.5, 0.0]])
        _, residual, _ = lemma_one(v, w)
        assert residual <= 1e-10

    def test_gaussian_instance_residual_and_norm_bound(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 7))
        w = random_skew(3, rng)
        u, residual, _ = lemma_one(v, w)
        wnorm = math.sqrt(np.sum(w * w))
        assert residual <= 1e-10 * (1.0 + wnorm)
        gram_inv_tr = np.trace(np.linalg.inv(v @ v.T))
        assert math.sqrt(np.sum(u ** 2)) <= 0.5 * wnorm * math.sqrt(gram_inv_tr) + 1e-12

    def test_accepts_skewmatrix_rhs(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((2, 5))
        _, residual, _ = lemma_one(v, SkewMatrix(2, np.array([2.0])).to_matrix())
        assert residual <= 1e-12 * 3

    def test_characterizing_relation(self):
        # the particular solution satisfies v u^t = -w/2, stronger than the equation
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 9))
        w = random_skew(4, rng)
        u, _, _ = lemma_one(v, w)
        assert np.allclose(v @ u.T, -0.5 * w, atol=1e-12)

    def test_reconstructed_lhs_antisymmetric_identically(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 8))
        u, _, _ = lemma_one(v, random_skew(3, rng))
        lhs = u @ v.T - v @ u.T
        assert np.array_equal(lhs, -lhs.T)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((3, 7))
        w = random_skew(3, rng)
        base, _, _ = lemma_one(v, w)
        for c in (0.5, 2.0, 7.0):
            scaled, _, _ = lemma_one(c * v, w)
            assert np.allclose(scaled, base / c, rtol=1e-10)

    def test_tall_matrix_rejected(self):
        # n > m leaves v v^t singular: the row is flagged, not solved
        u, _, cond = lemma_one(np.ones((4, 3)), np.zeros((4, 4)))
        assert cond > COND_LIMIT and np.isnan(u).all()

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
            u, cond = lemma_solution_batch(v, w)
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
            u, cond = lemma_solution_batch(v, w)
        assert cond[2] > COND_LIMIT
        assert not np.isfinite(u[2]).any()
        for i in (0, 1, 3):
            assert cond[i] <= COND_LIMIT and np.isfinite(u[i]).all()
            alone_u, alone_cond = lemma_solution_batch(v[i:i + 1], w[i:i + 1])
            assert np.array_equal(alone_u[0], u[i]) and alone_cond[0] == cond[i]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_solve_is_batch_of_one(self, n):
        rng = derive_rng(10, n)
        v = rng.standard_normal((50, n, 2 * n + 1))
        w = np.stack([random_skew(n, rng) for _ in range(50)])
        u, cond = lemma_solution_batch(v, w)
        for i in range(50):
            alone_u, alone_cond = lemma_solution_batch(v[i:i + 1], w[i:i + 1])
            assert np.array_equal(alone_u[0], u[i]) and alone_cond[0] == cond[i]

    def test_batch_zero_rhs(self):
        rng = derive_rng(8)
        v = rng.standard_normal((10, 3, 7))
        u, _ = lemma_solution_batch(v, np.zeros((10, 3, 3)))
        assert np.array_equal(u, np.zeros((10, 3, 7)))


def random_system(rng, count, n, m):
    v = rng.standard_normal((count, n, m))
    return v, unpack_skew(n, rng.standard_normal((count, n * (n - 1) // 2)))


def row_norm(a):
    return np.sqrt(np.sum(a * a, axis=(1, 2)))


# the shapes the shift solves: m = 1 is the two-index Heisenberg coupling
LEAST_NORM_SHAPES = [(2, 1)] + [(n, m) for n in range(2, 7) for m in (n + 2, 2 * n + 1)]


class TestLeastNorm:
    """The least-norm solution u = 2 W v, W skew with W G + G W = w/2."""

    @pytest.mark.parametrize("n,m", LEAST_NORM_SHAPES)
    def test_residual(self, n, m):
        v, w = random_system(derive_rng(20, 8 * n + m), 500, n, m)
        u, cond = tsylvester_batch(v, w)
        assert np.all(cond <= COND_LIMIT)
        resid = u @ np.swapaxes(v, 1, 2) - v @ np.swapaxes(u, 1, 2) - w
        assert np.max(row_norm(resid) / (1.0 + row_norm(w))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), extra=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1),
           decades=st.floats(0.0, 2.0))
    def test_never_longer_than_the_lemma_solution(self, n, extra, seed, decades):
        # rows of v scaled over `decades` spread the Gram eigenvalues apart
        v, w = random_system(np.random.default_rng(seed), 32, n, n + 2 + extra)
        v *= np.logspace(0.0, decades, n)[:, None]
        u, _ = tsylvester_batch(v, w)
        u_lemma, _ = lemma_solution_batch(v, w)
        assert np.all(row_norm(u) <= row_norm(u_lemma) * (1.0 + 1e-9))

    @pytest.mark.parametrize("m", [1, 4, 5])
    def test_rank2_closed_form_matches_the_eigenbasis_formula(self, m):
        v, w = random_system(derive_rng(21, m), 300, 2, m)
        lam, q = np.linalg.eigh(v @ np.swapaxes(v, 1, 2))
        qt = np.swapaxes(q, 1, 2)
        w_eig = qt @ w @ q
        W_eig = np.zeros_like(w_eig)
        W_eig[:, 0, 1] = w_eig[:, 0, 1] / (2.0 * (lam[:, 0] + lam[:, 1]))
        W_eig[:, 1, 0] = -W_eig[:, 0, 1]
        expected = 2.0 * (q @ W_eig @ qt) @ v
        u, cond = tsylvester_batch(v, w)
        assert np.all(cond == 1.0)
        assert np.allclose(u, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    def test_cond_is_that_of_the_skew_operator(self):
        # the matrix of W -> W G + G W on the basis E_ij - E_ji, i < j
        for n in (3, 4, 5):
            v, w = random_system(derive_rng(22, n), 20, n, n + 2)
            _, cond = tsylvester_batch(v, w)
            iu, ju = np.triu_indices(n, k=1)
            basis = unpack_skew(n, np.eye(len(iu)))
            for row, c in zip(v, cond):
                gram = row @ row.T
                images = basis @ gram + gram @ basis
                op = images[:, iu, ju].T
                assert c == pytest.approx(np.linalg.cond(op), rel=1e-9)

    def test_one_probe_is_the_two_index_rotation(self):
        # the hand-derived two-index shift c e2, e2 the probe turned by a right angle
        def rotation(w_packed, probes, scales, T):
            v = probes[:, :, 0]
            vnorm = np.linalg.norm(v, axis=1)
            e1 = v / vnorm[:, None]
            e2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1)
            c = -w_packed[:, 0] / (T * scales[0] * vnorm)
            return c[:, None] * e2

        rng = derive_rng(23)
        scale = math.hypot(alpha(3), alpha(2))
        for _ in range(20):
            g = heis_to_carnot(HeisenbergPoint(*rng.uniform(-2, 2, 3)))
            gt = heis_to_carnot(HeisenbergPoint(*rng.uniform(-2, 2, 3)))
            T = float(np.exp(rng.uniform(np.log(0.25), np.log(64.0))))
            w, V = sylvester_system(g, gt, T, rng.standard_normal((2000, 5, 2)), 1)
            u, _ = tsylvester_batch(V, unpack_skew(2, w))
            expected = rotation(w, V / (T * scale), [scale], T)
            err = np.linalg.norm(u[:, :, 0] - expected, axis=1)
            assert np.all(err <= 1e-14 * np.linalg.norm(expected, axis=1))

    @pytest.mark.parametrize("n,m", LEAST_NORM_SHAPES)
    def test_batch_of_one_equals_its_row(self, n, m):
        v, w = random_system(derive_rng(24, 8 * n + m), 40, n, m)
        u, cond = tsylvester_batch(v, w)
        for i in range(40):
            alone_u, alone_cond = tsylvester_batch(v[i:i + 1], w[i:i + 1])
            assert np.array_equal(alone_u[0], u[i]) and alone_cond[0] == cond[i]

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 7), (4, 9)])
    def test_flagged_rows_nan_and_the_rest_untouched(self, n, m):
        v, w = random_system(derive_rng(25, n), 12, n, m)
        v[2] = 0.0   # no probe at all
        v[7] = 1.0   # rank one: W -> W G + G W is singular for n >= 3, tr(G) W for n = 2
        flagged = np.isin(np.arange(12), [2, 7] if n >= 3 else [2])
        with np.errstate(all="raise"):
            u, cond = tsylvester_batch(v, w)
            kept_u, kept_cond = tsylvester_batch(v[~flagged], w[~flagged])
        assert np.all(cond[flagged] > COND_LIMIT) and np.isnan(u[flagged]).all()
        assert np.all(cond[~flagged] <= COND_LIMIT)
        assert np.array_equal(u[~flagged], kept_u) and np.array_equal(cond[~flagged], kept_cond)


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
