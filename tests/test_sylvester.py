"""The two T-Sylvester solutions (least-norm and the lemma's) and Wishart moment diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling.coupling import _mismatches, _probes
from carnot_coupling.groups import HeisenbergPoint, SkewMatrix, heis_to_carnot, pack_skew, unpack_skew
from carnot_coupling.legendre import alpha
from carnot_coupling.mc import derive_rng
from carnot_coupling.sylvester import (
    tsylvester_row_values,
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
    """The lemma solution of one system, w dense, as a batch of one: (u, residual, cond)."""
    u, cond = lemma_solution_batch(v[None], pack_skew(w)[None])
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
            u, cond = lemma_solution_batch(v, vals)
            resid = u @ np.swapaxes(v, 1, 2) - v @ np.swapaxes(u, 1, 2) - w
            rnorm = np.sqrt(np.sum(resid ** 2, axis=(1, 2)))
            wnorm = np.sqrt(np.sum(w ** 2, axis=(1, 2)))
            assert np.max(rnorm / (1.0 + wnorm)) <= 1e-10

    def test_batch_flags_singular_row_and_solves_the_rest(self):
        rng = derive_rng(9)
        v = rng.standard_normal((4, 3, 7))
        v[2] = 1.0  # rank one: v v^t is exactly singular
        w = pack_skew(np.stack([random_skew(3, rng) for _ in range(4)]))
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
        w = pack_skew(np.stack([random_skew(n, rng) for _ in range(50)]))
        u, cond = lemma_solution_batch(v, w)
        for i in range(50):
            alone_u, alone_cond = lemma_solution_batch(v[i:i + 1], w[i:i + 1])
            assert np.array_equal(alone_u[0], u[i]) and alone_cond[0] == cond[i]

    def test_batch_zero_rhs(self):
        rng = derive_rng(8)
        v = rng.standard_normal((10, 3, 7))
        u, _ = lemma_solution_batch(v, np.zeros((10, 3)))
        assert np.array_equal(u, np.zeros((10, 3, 7)))


def random_system(rng, count, n, m):
    """count systems (v, w), w packed."""
    v = rng.standard_normal((count, n, m))
    return v, rng.standard_normal((count, n * (n - 1) // 2))


def row_norm(a):
    return np.sqrt(np.sum(a * a, axis=(1, 2)))


def residual_norms(u, v, w):
    """Row norms of u v^t - v u^t - w and of w, for packed w."""
    w_mat = unpack_skew(v.shape[-2], w)
    resid = u @ np.swapaxes(v, 1, 2) - v @ np.swapaxes(u, 1, 2) - w_mat
    return row_norm(resid), row_norm(w_mat)


# the shapes the shift solves: m = 1 is the two-index Heisenberg coupling
LEAST_NORM_SHAPES = [(2, 1)] + [(n, m) for n in range(2, 7) for m in (n + 2, 2 * n + 1)]
HARD_SHAPES = [(n, m) for n in range(3, 7) for m in (n + 2, 2 * n + 1)]
# Gaussian rows (at n = 5 they need every Jacobi sweep), repeated eigenvalues,
# a cluster of width 1e-6, cond from about 1e7 to 1e10, v scaled by 1e+-100
HARD_KINDS = ["gaussian", "repeated", "clustered", "ill8", "ill9", "scale+100", "scale-100"]
EPS = np.finfo(float).eps


def hard_system(kind, n, m, count=200):
    """count systems (v, w), w packed, of one kind of Gram spectrum, seeded by (n, m)."""
    rng = derive_rng(29, 16 * n + m)
    rows = np.linalg.qr(rng.standard_normal((count, m, m)))[0][:, :n]  # orthonormal rows
    if kind == "repeated":
        v = rows * rng.uniform(0.5, 2.0, (count, 1, 1))
    elif kind == "clustered":
        turn = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        v = (turn * np.sqrt(1.0 + 1e-6 * rng.standard_normal((count, 1, n)))) @ rows
    elif kind.startswith("ill"):
        # two rows of order 10^(-e/2) make the two smallest eigenvalues, and with
        # them the operator's smallest, of order 10^-e
        v = rng.standard_normal((count, n, m))
        v[:, :2] *= 10.0 ** (-int(kind[3:]) / 2)
    elif kind == "gaussian":
        v = rng.standard_normal((count, n, m))
    else:
        v = rng.standard_normal((count, n, m)) * 10.0 ** int(kind[5:])
    return v, rng.standard_normal((count, n * (n - 1) // 2))


def skew_operator(gram):
    """The matrix of W -> W G + G W on the basis E_ij - E_ji, i < j."""
    n = gram.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    basis = unpack_skew(n, np.eye(len(iu)))
    images = basis @ gram + gram @ basis
    return images[:, iu, ju].T


class TestLeastNorm:
    """The least-norm solution u = 2 W v, W skew with W G + G W = w/2."""

    @pytest.mark.parametrize("n,m", LEAST_NORM_SHAPES)
    def test_residual(self, n, m):
        v, w = random_system(derive_rng(20, 8 * n + m), 500, n, m)
        u, cond = tsylvester_batch(v, w)
        assert np.all(cond <= COND_LIMIT)
        rnorm, wnorm = residual_norms(u, v, w)
        assert np.max(rnorm / (1.0 + wnorm)) <= 1e-10

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
        w_eig = qt @ unpack_skew(2, w) @ q
        W_eig = np.zeros_like(w_eig)
        W_eig[:, 0, 1] = w_eig[:, 0, 1] / (2.0 * (lam[:, 0] + lam[:, 1]))
        W_eig[:, 1, 0] = -W_eig[:, 0, 1]
        expected = 2.0 * (q @ W_eig @ qt) @ v
        u, cond = tsylvester_batch(v, w)
        assert np.all(cond == 1.0)
        assert np.allclose(u, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    def test_cond_is_that_of_the_skew_operator(self):
        for n in (3, 4, 5):
            v, w = random_system(derive_rng(22, n), 20, n, n + 2)
            _, cond = tsylvester_batch(v, w)
            for row, c in zip(v, cond):
                assert c == pytest.approx(np.linalg.cond(skew_operator(row @ row.T)), rel=1e-9)

    @pytest.mark.parametrize("kind", HARD_KINDS)
    @pytest.mark.parametrize("n,m", HARD_SHAPES)
    def test_cond_on_hard_spectra(self, n, m, kind):
        v, w = hard_system(kind, n, m)
        _, cond = tsylvester_batch(v, w)
        if kind.startswith("ill"):
            assert np.all((cond > 1e6) & (cond < 1e11))
        for row, c in zip(v, cond):
            assert c == pytest.approx(np.linalg.cond(skew_operator(row @ row.T)), rel=1e-9)

    @pytest.mark.parametrize("kind", HARD_KINDS)
    @pytest.mark.parametrize("n,m", HARD_SHAPES)
    def test_residual_on_hard_spectra(self, n, m, kind):
        # a backward-stable solve leaves a residual of order eps * cond * |w|
        v, w = hard_system(kind, n, m)
        u, cond = tsylvester_batch(v, w)
        rnorm, wnorm = residual_norms(u, v, w)
        assert np.all(rnorm <= 16 * EPS * cond * (1.0 + wnorm))

    @pytest.mark.parametrize("kind", HARD_KINDS)
    @pytest.mark.parametrize("n,m", HARD_SHAPES)
    def test_never_longer_than_the_lemma_solution_on_hard_spectra(self, n, m, kind):
        # equal lengths when every Gram eigenvalue is equal (v v^t = cI); the lemma
        # solution's own cond, lambda_n / lambda_1, can pass COND_LIMIT on an ill row
        v, w = hard_system(kind, n, m)
        u, _ = tsylvester_batch(v, w)
        u_lemma, _ = lemma_solution_batch(v, w)
        solved = np.isfinite(u_lemma).all(axis=(1, 2))
        assert solved.mean() >= 0.99
        assert np.all(row_norm(u[solved]) <= row_norm(u_lemma[solved]) * (1.0 + 1e-9))

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 7), (4, 9)])
    def test_non_finite_probe_rows_flagged(self, n, m):
        v, w = random_system(derive_rng(28, n), 12, n, m)
        v[3, 0, 0] = np.nan
        v[8, -1, -1] = np.inf
        flagged = np.isin(np.arange(12), [3, 8])
        with np.errstate(all="raise"):
            u, cond = tsylvester_batch(v, w)
        kept_u, kept_cond = tsylvester_batch(v[~flagged], w[~flagged])
        assert np.all(cond[flagged] == np.inf) and np.isnan(u[flagged]).all()
        assert np.array_equal(u[~flagged], kept_u) and np.array_equal(cond[~flagged], kept_cond)

    @pytest.mark.parametrize("n,m", [(2, 5), (3, 7)])
    def test_non_finite_probe_rows_flagged_by_the_lemma_solution(self, n, m):
        # one NaN row stopped eigvalsh for the whole stack at n = 3
        v, w = random_system(derive_rng(29, n), 12, n, m)
        v[3, 0, 0] = np.nan
        v[8, -1, -1] = np.inf
        flagged = np.isin(np.arange(12), [3, 8])
        with np.errstate(all="raise"):
            u, cond = lemma_solution_batch(v, w)
        kept_u, kept_cond = lemma_solution_batch(v[~flagged], w[~flagged])
        assert np.all(cond[flagged] == np.inf) and np.isnan(u[flagged]).all()
        assert np.array_equal(u[~flagged], kept_u) and np.array_equal(cond[~flagged], kept_cond)

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
            xi = rng.standard_normal((2000, 5, 2))
            w, P = _mismatches(g, gt, [T], xi, mirror=False)[0], _probes(xi, 1)
            u, _ = tsylvester_batch(T * P, w)
            expected = rotation(w, P / scale, [scale], T)
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


    @pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 7), (4, 9), (5, 11)])
    def test_stacked_right_hand_sides_equal_separate_solves(self, n, m):
        rng = derive_rng(26, n)
        v, _ = random_system(rng, 30, n, m)
        w = np.stack([random_system(rng, 30, n, m)[1] for _ in range(3)])
        v[4] = 0.0  # a flagged row stays NaN for every right-hand side
        u, cond = tsylvester_batch(v, w)
        assert u.shape == (3, 30, n, m) and cond.shape == (30,)
        assert np.isnan(u[:, 4]).all()
        for s in range(3):
            alone_u, alone_cond = tsylvester_batch(v, w[s])
            assert np.array_equal(u[s], alone_u, equal_nan=True)
            assert np.array_equal(cond, alone_cond)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 7), (4, 9)])
    def test_solution_scales_as_one_over_the_probe_scale(self, n, m):
        # u(T v, w) = u(v, w) / T: the horizon grid solves once against v
        v, w = random_system(derive_rng(27, n), 200, n, m)
        u, cond = tsylvester_batch(v, w)
        for T in (0.25, 3.0, 100.0):
            uT, condT = tsylvester_batch(T * v, w)
            assert np.allclose(uT, u / T, rtol=1e-11, atol=1e-12 * np.max(np.abs(u / T)))
            assert np.allclose(condT, cond, rtol=1e-9)


class TestWishartMoments:
    @pytest.mark.parametrize("n,m,target", [(2, 5, 1.0), (3, 7, 1.0)])
    def test_inverse_trace_identity(self, n, m, target):
        est = wishart_inv_trace_mc(n, m, 40_000, seed=n * 100 + m)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_integrability_precondition(self):
        with pytest.raises(ValueError):
            wishart_inv_trace_mc(3, 4, 100, seed=0)

    def test_one_sample_rejected(self):
        # a mean and its stderr need two samples; N = 1 is not silently raised to 2
        with pytest.raises(ValueError):
            wishart_inv_trace_mc(3, 7, 1, seed=5)

    def test_u_moment_bound(self):
        for n, m in ((2, 5), (3, 7)):
            rep = u_moment_check(n, m, 60_000, seed=n * 10 + m)
            assert rep.passed
            assert rep.bound == pytest.approx(n * (n - 1) / (4.0 * (m - n - 1)), rel=1e-14)

    def test_u_moment_precondition(self):
        with pytest.raises(ValueError):
            u_moment_check(4, 5, 100, seed=0)


class TestRowValues:
    """`tsylvester_row_values`, the per-row working set the CLI's memory budget counts."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_closed_forms_match_a_symbolic_elimination(self, n):
        # the operator's structure and the Cholesky fill of `_skew_solve`, replayed on sets
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        entries, allocated = set(), 0
        for a, (k, l) in enumerate(pairs):
            entries.add((a, a))
            allocated += 1
            for b, (i, j) in enumerate(pairs[:a]):
                if i == k or j == k or j == l:
                    entries.add((a, b))
                    allocated += j == k  # -G_il; the other two reuse a Gram column
        low = set()
        for j in range(len(pairs)):
            for i in range(j, len(pairs)):
                if (i, j) in entries or any((i, k) in low and (j, k) in low for k in range(j)):
                    low.add((i, j))
        P = len(pairs)
        assert allocated == P + math.comb(n, 3)
        assert len(low) == P * (P + 1) // 2 - math.comb(n - 1, 3)

    @pytest.mark.parametrize("n, S", [(2, 1), (2, 3), (3, 2), (5, 1), (8, 2), (8, 3)])
    def test_bounds_the_traced_peak(self, n, S):
        rows, m = 8192, 2 * n + 1
        rng = derive_rng(60, n)
        v = rng.standard_normal((rows, n, m))
        w = rng.standard_normal((S, rows, n * (n - 1) // 2))
        tsylvester_batch(v[:8], w[:, :8])  # first-call caches, untraced
        tracemalloc.start()
        try:
            tsylvester_batch(v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * rows * tsylvester_row_values(n, m, S) >= peak
