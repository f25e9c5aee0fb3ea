"""Path synthesis: coefficient ladder, orthogonality exactness, area series,
and the exact law of the endpoint."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling.cli import _legendre_moment_sampler, _moment_columns
from carnot_coupling.groups import (
    CarnotElement,
    SkewMatrix,
    heis_to_carnot,
    odot_packed,
    triu_pairs,
)
from carnot_coupling.legendre import (
    alpha,
    alpha_ladder,
    alpha_sq,
    endpoint_moments,
    endpoint_packed,
    integral_Q_table,
    levy_area_packed,
    pair_alpha_sq,
    truncation_index,
)
from carnot_coupling.mc import BATCH_SIZE, derive_rng, ks_test, run_vector_estimator
from coupling_checks import sign_orbit


class TestAlpha:
    def test_first_value(self):
        assert alpha(0) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-15)

    def test_k1_value(self):
        assert alpha(1) == pytest.approx(1.0 / (2.0 * math.sqrt(15.0)), rel=1e-15)

    def test_pair_sum_telescoping_entry(self):
        assert alpha(2) ** 2 + alpha(3) ** 2 == pytest.approx(1.0 / 90.0, rel=1e-14)
        assert pair_alpha_sq(2) == pytest.approx(1.0 / 90.0, rel=1e-15)

    def test_positive_strictly_decreasing(self):
        vals = [alpha(k) for k in range(200)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_square_sum_monotone_to_one_eighth(self):
        partial = np.cumsum([alpha_sq(k) for k in range(2000)])
        assert np.all(np.diff(partial) > 0)
        # exact telescoping tail: 1/8 - partial_K = 1/(8(2K+3)) after K+1 terms
        for K in (0, 10, 500, 1999):
            assert 0.125 - partial[K] == pytest.approx(1.0 / (8 * (2 * K + 3)), rel=1e-10)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            alpha(-1)

    def test_ladder_is_cached_and_read_only(self):
        a = alpha_ladder(40)
        assert a is alpha_ladder(40)
        assert np.array_equal(a, [alpha(k) for k in range(40)])
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
        assert alpha_ladder(0).shape == (0,)


def path(xi, T, times):
    """The truncated synthesis B_t = sum_k xi_k int_0^t Q_k at the given times."""
    return integral_Q_table(times, T, xi.shape[0] - 1) @ xi


class TestIntegralQ:
    def test_constant_mode_full_integral(self):
        for T in (1.0, 2.0, 25.0):
            assert integral_Q_table([T], T, 0)[0, 0] == math.sqrt(T)

    def test_higher_modes_vanish_at_T(self):
        for k in (1, 2, 3, 10, 57):
            assert integral_Q_table([4.0], 4.0, k)[0, k] == 0.0

    def test_degree_one_midpoint(self):
        T = 4.0
        assert integral_Q_table([T / 2], T, 1)[0, 1] == pytest.approx(-math.sqrt(3 * T) / 4.0,
                                                                      rel=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            integral_Q_table([2.0], 1.0, 0)
        with pytest.raises(ValueError):
            integral_Q_table([-0.1], 1.0, 0)

    def test_table_columns_orthonormal(self):
        # int_0^T Q_j Q_k = delta_jk, checked by differencing the table on a fine grid
        T, kmax = 2.0, 12
        ts = np.linspace(0.0, T, 4001)
        table = integral_Q_table(ts, T, kmax)
        q = np.diff(table, axis=0) / np.diff(ts)[:, None]
        mid_weight = np.diff(ts)
        gram = (q * mid_weight[:, None]).T @ q
        assert np.allclose(gram, np.eye(kmax + 1), atol=5e-3)


class TestSynthPath:
    def test_zero_stream_zero_path(self):
        values = path(np.zeros((8, 2)), 1.0, [0.0, 0.3, 1.0])
        assert np.array_equal(values, np.zeros((3, 2)))

    def test_only_constant_mode_survives_at_T(self):
        T = 2.0
        xi = np.zeros((6, 2))
        xi[0] = [1.0, 0.0]
        assert np.array_equal(path(xi, T, [T])[0], [math.sqrt(T), 0.0])

    def test_endpoint_bit_for_bit(self):
        rng = np.random.default_rng(0)
        T = 3.0
        xi = rng.standard_normal((65, 3))
        assert np.array_equal(path(xi, T, [T])[0], math.sqrt(T) * xi[0])

    def test_starts_at_zero_exactly(self):
        xi = np.random.default_rng(1).standard_normal((33, 2))
        assert np.array_equal(path(xi, 2.0, [0.0, 1.0, 2.0])[0], np.zeros(2))

    def test_midpoint_variance(self):
        rng = derive_rng(100)
        T, N = 1.0, 100_000
        xi = rng.standard_normal((N, 257))
        col = integral_Q_table(np.array([T / 2]), T, 256)[0]
        b_half = xi @ col
        var = b_half.var()
        se = var * math.sqrt(2.0 / N)
        assert abs(var - T / 2) <= 3 * se

    def test_disjoint_increment_correlation(self):
        rng = derive_rng(101)
        T, N = 1.0, 40_000
        xi = rng.standard_normal((N, 257))
        table = integral_Q_table(np.array([T / 2, T]), T, 256)
        vals = xi @ table.T
        inc1 = vals[:, 0]
        inc2 = vals[:, 1] - vals[:, 0]
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(N)


class TestLevyAreaSeries:
    def test_zero_stream(self):
        area = levy_area_packed(np.zeros((6, 2)), 1.0, *triu_pairs(2))
        assert np.array_equal(area, np.zeros(1))

    def test_single_term(self):
        xi = np.zeros((6, 2))
        xi[0] = [1.0, 0.0]
        xi[1] = [0.0, 1.0]
        assert levy_area_packed(xi, 1.0, *triu_pairs(2))[0] == pytest.approx(alpha(0), rel=1e-15)

    def test_variance_one_quarter_T_squared(self):
        rng = derive_rng(102)
        T, N = 2.0, 100_000
        iu, ju = triu_pairs(2)
        # chunks of one generator hold the same samples as one (N, 257, 2) draw
        area = np.concatenate([
            levy_area_packed(rng.standard_normal((min(BATCH_SIZE, N - s), 257, 2)), T, iu, ju)[:, 0]
            for s in range(0, N, BATCH_SIZE)
        ])
        var = area.var()
        se = var * math.sqrt(6.0 / N)  # excess kurtosis of the area is ~2
        assert abs(var - T * T / 4) <= 3 * se


def _per_term_area(xi, T, iu, ju):
    """The area as a sum of packed per-term wedge products (the matmul's reference)."""
    a = np.array([alpha(k) for k in range(xi.shape[-2] - 1)])
    terms = odot_packed(xi[..., :-1, :], xi[..., 1:, :], iu, ju)
    area = T * np.einsum("k,...kp->...p", a, terms)
    return area, T * np.einsum("k,...kp->...p", a, np.abs(terms))


class TestLevyAreaMatmul:
    @pytest.mark.parametrize("lead", [(), (7,), (2, 7)])
    @pytest.mark.parametrize("kmax", [0, 1, 25, 128])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_per_term_sum(self, n, kmax, lead):
        xi = derive_rng(110 + n, kmax).standard_normal(lead + (kmax + 1, n))
        iu, ju = triu_pairs(n)
        got = levy_area_packed(xi, 2.5, iu, ju)
        ref, scale = _per_term_area(xi, 2.5, iu, ju)
        assert got.shape == lead + (n * (n - 1) // 2,)
        assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + scale))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rows_independent_of_the_batch(self, n):
        xi = derive_rng(111, n).standard_normal((64, 129, n))
        iu, ju = triu_pairs(n)
        full = levy_area_packed(xi, 3.0, iu, ju)
        assert np.array_equal(levy_area_packed(xi[:32], 3.0, iu, ju), full[:32])
        for i in (0, 17, 63):
            assert np.array_equal(levy_area_packed(xi[i], 3.0, iu, ju), full[i])
            assert np.array_equal(levy_area_packed(xi[i:i + 1], 3.0, iu, ju), full[i:i + 1])

    def test_peak_memory_about_one_coefficient_array(self):
        # the weighted right operand is the one xi-sized temporary; the per-term
        # form held four xi-sized wedge copies (about 4x xi.nbytes)
        xi = derive_rng(112).standard_normal((1024, 129, 3))
        iu, ju = triu_pairs(3)
        levy_area_packed(xi, 1.0, iu, ju)  # warm: ladder cached, code paths loaded
        tracemalloc.start()
        try:
            levy_area_packed(xi, 1.0, iu, ju)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * xi.nbytes


class TestCarnotEndpoint:
    def test_zero_stream_keeps_start(self):
        g = CarnotElement(np.array([1.0, -2.0]), SkewMatrix(2, np.array([0.5])))
        xT, zT = endpoint_packed(g.x, g.z.upper, np.zeros((8, 2)), 4.0)
        assert np.array_equal(xT, g.x) and np.array_equal(zT, g.z.upper)

    def test_pure_constant_mode(self):
        T = 9.0
        xi = np.zeros((6, 3))
        xi[0, 0] = 1.0
        g = CarnotElement.identity(3)
        xT, zT = endpoint_packed(g.x, g.z.upper, xi, T)
        assert np.array_equal(xT, [3.0, 0.0, 0.0])
        assert np.array_equal(zT, np.zeros(3))

    def test_matches_heisenberg_formula(self):
        rng = np.random.default_rng(4)
        import carnot_coupling as cc

        for _ in range(20):
            gh = cc.HeisenbergPoint(*rng.uniform(-2, 2, 3))
            T = rng.uniform(0.5, 9.0)
            xi = rng.standard_normal((33, 2))
            gc = heis_to_carnot(gh)
            xT, zT = endpoint_packed(gc.x, gc.z.upper, xi, T)
            # scalar formula evaluated directly
            x1 = gh.x1 + math.sqrt(T) * xi[0, 0]
            x2 = gh.x2 + math.sqrt(T) * xi[0, 1]
            cross = sum(
                alpha(k) * (xi[k, 0] * xi[k + 1, 1] - xi[k, 1] * xi[k + 1, 0])
                for k in range(32)
            )
            z = gh.z + 0.5 * math.sqrt(T) * (gh.x1 * xi[0, 1] - gh.x2 * xi[0, 0]) + T * cross
            assert xT[0] == pytest.approx(x1, abs=1e-12)
            assert xT[1] == pytest.approx(x2, abs=1e-12)
            assert zT[0] == pytest.approx(z, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), L=st.integers(2, 40), count=st.integers(1, 24),
           T=st.floats(0.01, 100.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_of_one_equals_its_row(self, n, L, count, T, seed):
        rng = np.random.default_rng(seed)
        x, z = rng.standard_normal(n), rng.standard_normal(n * (n - 1) // 2)
        xi = rng.standard_normal((count, L, n))
        xT, zT = endpoint_packed(x, z, xi, T)
        for i in range(count):
            xTi, zTi = endpoint_packed(x, z, xi[i:i + 1], T)
            assert np.array_equal(xTi[0], xT[i]) and np.array_equal(zTi[0], zT[i])


class TestSignOrbit:
    """`endpoint_packed` over the sign orbit xi, -xi, D xi, -D xi, against explicit copies."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_orbit_point_is_a_direct_evaluation(self, n):
        rng = derive_rng(106, n)
        p = n * (n - 1) // 2
        x, z = rng.uniform(-2, 2, (3, 1, n)), rng.uniform(-2, 2, (3, 1, p))
        xi = rng.standard_normal((50, 3 * n + 9, n))
        for T in (0.3, 4.0, 100.0):
            xT, zT = endpoint_packed(x, z, xi, T, orbit=4)
            assert xT.shape == (4, 3, 50, n) and zT.shape == (4, 3, 50, p)
            for o, point in enumerate(sign_orbit(xi)):
                direct = endpoint_packed(x, z, point, T)
                assert np.array_equal(xT[o], direct[0]) and np.array_equal(zT[o], direct[1])
            for orbit in (1, 2):
                part = endpoint_packed(x, z, xi, T, orbit)
                head = (xT[0], zT[0]) if orbit == 1 else (xT[:2], zT[:2])
                assert all(np.array_equal(a, b) for a, b in zip(part, head))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 5), L=st.integers(2, 40), count=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_start_batch_of_one_equals_its_row(self, n, L, count, seed):
        rng = np.random.default_rng(seed)
        x, z = rng.standard_normal(n), rng.standard_normal(n * (n - 1) // 2)
        xi = rng.standard_normal((count, L, n))
        xT, zT = endpoint_packed(x, z, xi, 2.5, orbit=4)
        for i in range(count):
            xTi, zTi = endpoint_packed(x, z, xi[i:i + 1], 2.5, orbit=4)
            assert np.array_equal(xTi, xT[:, i:i + 1]) and np.array_equal(zTi, zT[:, i:i + 1])

    def test_orbit_of_three_points_rejected(self):
        with pytest.raises(ValueError, match="orbit"):
            endpoint_packed(np.zeros(2), np.zeros(1), np.zeros((1, 4, 2)), 1.0, orbit=3)


class TestEndpointMoments:
    START = np.array([0.7, -1.2, 0.4]), np.array([0.3, -0.5, 0.2]), 1.7  # rank 3, not the identity

    @pytest.mark.parametrize("L", [0, 1, 16, 256])
    def test_second_moments_closed_form(self, L):
        x, z, T = self.START
        m = endpoint_moments(x, z, T, L)
        # sum_{k < L} alpha_k^2 = (1/8) 2L/(2L+1)
        var = T * (x[0] ** 2 + x[1] ** 2) / 4 + T * T / 4 * 2 * L / (2 * L + 1)
        assert m[1] == pytest.approx(x[0] ** 2 + T, rel=1e-15)
        assert m[5] == pytest.approx(z[0] ** 2 + var, rel=1e-14)

    @pytest.mark.parametrize("L", [256, 2048])
    def test_fourth_moment_tends_to_levy(self, L):
        # Levy: E(z - z_0)^4 = 3|x|^4 T^2/16 + 5|x|^2 T^3/8 + 5 T^4/16 over the pair's x
        for x, T in ((np.zeros(2), 1.0), (self.START[0][:2], self.START[2])):
            r2 = float(x @ x)
            levy = 3 * r2 ** 2 * T ** 2 / 16 + 5 * r2 * T ** 3 / 8 + 5 * T ** 4 / 16
            gap = (levy - endpoint_moments(x, np.zeros(1), T, L)[7]) / levy
            assert 0 < gap <= 1.0 / L

    def test_monte_carlo_at_a_rank_3_start(self):
        x, z, T = self.START
        L = 16
        sampler = _legendre_moment_sampler(CarnotElement(x, SkewMatrix(3, z)), T, L)
        ests = run_vector_estimator(sampler, 200_000, seed=113)
        for est, exact in zip(ests, endpoint_moments(x, z, T, L)):
            assert abs(est.mean - exact) <= 3 * est.stderr

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_sample_moment_agreement(self, n):
        rng = derive_rng(104, n)
        g = CarnotElement.identity(n)
        T, N = 1.0, 40_000
        xi = rng.standard_normal((N, 129, n))
        cols = _moment_columns(*endpoint_packed(g.x, g.z.upper, xi, T))
        for col, exact in zip(cols.T, endpoint_moments(g.x, g.z.upper, T, 128)):
            assert abs(col.mean() - exact) <= 3 * col.std() / math.sqrt(N)


class TestLevyLaw:
    def test_identity_area_passes_ks_against_levy_cdf(self):
        # 10^5 paths of 257 coefficient rows, streamed; the first 17 rows give the 16-term series
        rng, N, T = derive_rng(114), 100_000, 2.0
        z = {256: [], 16: []}
        for start in range(0, N, BATCH_SIZE):
            xi = rng.standard_normal((min(BATCH_SIZE, N - start), 257, 2))
            for L, parts in z.items():
                parts.append(endpoint_packed(np.zeros(2), np.zeros(1), xi[:, :L + 1], T)[1][:, 0])

        def levy_cdf(a):
            return 2.0 / math.pi * np.arctan(np.exp(math.pi * a / T))

        assert ks_test(np.concatenate(z[256]), levy_cdf) > 0.01
        # the test sees the truncation of a 16-term series
        assert ks_test(np.concatenate(z[16]), levy_cdf) < 0.01


class TestTruncationIndex:
    def test_unit_tolerance(self):
        assert truncation_index(1.0, 1.0) == 1

    def test_halving_roughly_quadruples(self):
        k1 = truncation_index(1e-2, 1.0)
        k2 = truncation_index(5e-3, 1.0)
        assert 3.5 <= k2 / k1 <= 4.5

    def test_closed_form(self):
        tol = 1e-3
        assert truncation_index(tol, 1.0) == math.ceil((1.0 / (2 * tol * tol) - 1.0) / 2.0)

    def test_tail_below_tolerance(self):
        for tol in (0.5, 1e-1, 1e-2):
            K = truncation_index(tol, 1.0)
            assert math.sqrt(1.0 / (2.0 * (2 * K + 1))) <= tol

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            truncation_index(0.0, 1.0)
