"""Exact coupling runs: meeting exactness, bounds, marginals, invariances."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling import coupling, mc
from carnot_coupling.coupling import (
    _couple_batch,
    _gaps,
    _second_stream,
    couple_carnot,
    couple_heisenberg,
    _mismatches,
    _probes,
    default_support_count,
    failure_probability,
    shift_batch,
    shift_pairing,
    tv_bound,
)
from carnot_coupling.gaussian_coupling import couple_to_shift
from carnot_coupling.groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    dilate,
    heis_to_carnot,
    odot_packed,
    triu_pairs,
)
from carnot_coupling.legendre import alpha, endpoint_packed
from carnot_coupling.mc import derive_rng, ks_test
from carnot_coupling.special_constants import heisenberg_constants
from carnot_coupling.sylvester import COND_LIMIT, SingularGramError, tsylvester_batch
from coupling_checks import failure_given_shift_gap, log_weight, one_shift, sign_orbit


def H(*a):
    """The Heisenberg point (x1, x2, z) as the rank-2 element."""
    return heis_to_carnot(HeisenbergPoint(*a))


def coords(g):
    return (*g.x, *g.z.upper)


def _modified_indices(monkeypatch, run):
    """Coefficient indices where the coupled stream of the single run `run()` moved.

    Spies on `_couple_batch`, which every single run goes through, and reads
    the coupled stream back with `_second_stream`.
    """
    batches = []
    monkeypatch.setattr(coupling, "_couple_batch",
                        lambda *a: batches.append(_couple_batch(*a)) or batches[-1])
    out = run()
    b = batches[-1]
    moved = np.flatnonzero(np.any(_second_stream(b, 0) != b.xi, axis=(0, 2)))
    return out, moved.tolist()


def _mismatch(gc, gct, T, xi):
    """The packed endpoint mismatch w (B, n(n-1)/2) at the one horizon T."""
    return _mismatches(gc, gct, [T], xi, orbit=1)[0]


def _one_horizon(gc, gct, T, rng, count, K):
    """(xi, xi_t, met, w) of a one-horizon grid batch of the K-block coupling."""
    b = _couple_batch(gc, gct, [T], rng, count, K)
    return b.xi, _second_stream(b, 0), b.met[0], _mismatch(gc, gct, T, b.xi)


class TestSingleRuns:
    def test_same_start_always_meets(self, monkeypatch):
        rng = derive_rng(0)
        g = HeisenbergPoint(0.5, -1.0, 0.25)
        for _ in range(20):
            out, moved = _modified_indices(monkeypatch, lambda: couple_heisenberg(g, g, 2.0, rng))
            assert out.success
            assert moved == []  # every shift is exactly zero
            assert coords(out.endpoint) == coords(out.endpoint_tilde)

    def test_heisenberg_modified_indices(self, monkeypatch):
        _, moved = _modified_indices(monkeypatch, lambda: couple_heisenberg(
            HeisenbergPoint(0, 0, 0), HeisenbergPoint(1, 0, 1), 4.0, derive_rng(1)))
        assert moved == [0, 3]

    def test_carnot_modified_indices_rank3(self, monkeypatch):
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.array([1.0, 0, 0]), SkewMatrix.zero(3))
        _, moved = _modified_indices(monkeypatch, lambda: couple_carnot(g, gt, 4.0, derive_rng(2)))
        assert moved == [0, 3, 6, 9, 12, 15, 18, 21]

    def test_carnot_rank2_uses_six_blocks(self, monkeypatch):
        g = CarnotElement.identity(2)
        gt = CarnotElement(np.array([0.5, 0.0]), SkewMatrix(2, np.array([0.3])))
        _, moved = _modified_indices(monkeypatch, lambda: couple_carnot(g, gt, 9.0, derive_rng(12)))
        assert moved == [0, 3, 6, 9, 12, 15]
        est = failure_probability(g, gt, [9.0], 20_000, seed=13)[0].indicator
        bound = tv_bound(g, gt, 9.0, "carnot-n").total
        assert est.mean <= bound + 3 * est.stderr

    def test_success_gaps_tiny(self):
        rng = derive_rng(3)
        g = HeisenbergPoint(0, 0, 0)
        gt = HeisenbergPoint(0.5, 0.2, 0.3)
        hits = 0
        for _ in range(200):
            out = couple_heisenberg(g, gt, 9.0, rng)
            if out.success:
                hits += 1
                assert out.diagnostics.horizontal_gap <= 1e-12
                assert out.diagnostics.vertical_gap <= 1e-9
                # rendered endpoints also agree coordinatewise
                for a, b in zip(coords(out.endpoint), coords(out.endpoint_tilde)):
                    assert abs(a - b) <= 1e-9 * (1.0 + abs(a))
        assert hits > 100

    def test_carnot_success_gaps_tiny(self):
        rng = derive_rng(4)
        g = CarnotElement(np.array([0.1, -0.2, 0.3]), SkewMatrix(3, np.array([0.0, 0.1, -0.1])))
        gt = CarnotElement(np.array([0.4, 0.0, 0.1]), SkewMatrix(3, np.array([0.2, 0.0, 0.0])))
        hits = 0
        for _ in range(100):
            out = couple_carnot(g, gt, 16.0, rng)
            if out.success:
                hits += 1
                assert out.diagnostics.horizontal_gap <= 1e-12
                assert out.diagnostics.vertical_gap <= 1e-9
        assert hits > 30

    @pytest.mark.parametrize("T", [0.0, math.nan, math.inf])
    def test_invalid_horizon(self, T):
        with pytest.raises(ValueError):
            couple_heisenberg(HeisenbergPoint(0, 0, 0), HeisenbergPoint(0, 0, 0), T,
                              derive_rng(5))
        with pytest.raises(ValueError):
            couple_carnot(CarnotElement.identity(3), CarnotElement.identity(3), T,
                          derive_rng(5))


class TestCouplingConstraint:
    def test_met_rows_satisfy_area_equation(self):
        # on success, the index-3 shift solves the scalar mismatch exactly
        rng = derive_rng(6)
        g = HeisenbergPoint(0, 0, 0)
        gt = HeisenbergPoint(0, 0, 1)
        T = 9.0
        xi, xi_t, met, w = _one_horizon(heis_to_carnot(g), heis_to_carnot(gt), T, rng,
                                         4000, K=1)
        w = w[:, 0]
        scale = math.hypot(alpha(2), alpha(3))
        v = (alpha(3) * xi[:, 4] - alpha(2) * xi[:, 2]) / scale
        d3 = xi_t[:, 3] - xi[:, 3]
        lhs = T * scale * (d3[:, 0] * v[:, 1] - d3[:, 1] * v[:, 0])
        assert np.max(np.abs(lhs[met] - w[met])) <= 1e-10

    def test_unmodified_indices_shared(self):
        rng = derive_rng(7)
        xi, xi_t, met, _ = _one_horizon(
            heis_to_carnot(HeisenbergPoint(0, 0, 0)), heis_to_carnot(HeisenbergPoint(1, 0, 1)),
            4.0, rng, 1000, K=1,
        )
        for k in (1, 2, 4):
            assert np.array_equal(xi[:, k], xi_t[:, k])

    def test_carnot_met_rows_close_endpoint(self):
        rng = derive_rng(8)
        g = CarnotElement.identity(4)
        gt = CarnotElement(np.array([0.5, 0, 0, 0]), SkewMatrix(4, np.array([0.3, 0, 0, 0, 0, 0.1])))
        T = 25.0
        xi, xi_t, met, _ = _one_horizon(g, gt, T, rng, 2000, K=9)
        h_gap, v_gap = _gaps(g, gt, T, xi, xi_t)
        assert np.max(h_gap[met]) <= 1e-12
        assert np.max(v_gap[met]) <= 1e-9
        assert np.min(v_gap[~met] + h_gap[~met]) > 1e-6  # failures genuinely differ


def _random_pair(rng, n):
    # displacements small against sqrt(T), so that many coupling rows meet
    p = n * (n - 1) // 2
    mk = lambda: CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
    return mk(), mk(), float(np.exp(rng.uniform(np.log(4.0), np.log(64.0))))


def _mismatch_residual(gc, gct, T, xi, blocks):
    """Relative residual of T sum_k (u_k p_k^t - p_k u_k^t) = w per row."""
    K = blocks.shape[1]
    w, V = _mismatch(gc, gct, T, xi), T * _probes(xi, K)
    iu, ju = triu_pairs(gc.n)
    lhs = sum(odot_packed(blocks[:, k], V[:, :, k], iu, ju) for k in range(K))
    w_norm = np.sqrt(2.0 * np.sum(w * w, axis=1))
    return np.sqrt(2.0 * np.sum((lhs - w) ** 2, axis=1)) / (1.0 + w_norm)


class TestShiftSystem:
    def test_heisenberg_mismatch_matches_explicit_formula(self):
        # reference: the scalar area mismatch -zeta + d0 hat1 - d1 hat0, summed
        # in another order than the packed bracket, so allow a few ulps
        rng = derive_rng(10)
        eps = np.finfo(float).eps
        for _ in range(40):
            g = HeisenbergPoint(*rng.uniform(-2, 2, 3))
            gt = HeisenbergPoint(*rng.uniform(-2, 2, 3))
            T = float(np.exp(rng.uniform(np.log(0.25), np.log(64.0))))
            xi = rng.standard_normal((20_000, 5, 2))
            w = _mismatch(heis_to_carnot(g), heis_to_carnot(gt), T, xi)
            sqrtT = math.sqrt(T)
            hat = (sqrtT / 2.0) * xi[:, 0] - sqrtT * alpha(0) * xi[:, 1]
            d0, d1 = g.x1 - gt.x1, g.x2 - gt.x2
            zeta_s = gt.z - g.z - (g.x1 * gt.x2 - g.x2 * gt.x1) / 2
            ref = -zeta_s + d0 * hat[:, 1] - d1 * hat[:, 0]
            size = abs(zeta_s) + np.abs(d0 * hat[:, 1]) + np.abs(d1 * hat[:, 0])
            assert np.all(np.abs(w[:, 0] - ref) <= 4 * eps * size)

    # the fewest blocks K = n - 1 (the two-index coupling on rank 2) and the default 2n + 1
    @pytest.mark.parametrize("n, K", [(n, K) for n in (2, 3, 4, 5) for K in (n - 1, 2 * n + 1)])
    def test_coupling_and_girsanov_shifts_solve_the_mismatch(self, n, K):
        rng = derive_rng(11, n)
        for _ in range(5):
            g, gt, T = _random_pair(rng, n)
            xi, xi_t, met, _ = _one_horizon(g, gt, T, rng, 2000, K)
            assert met.any()
            # on met rows the modified coordinates moved by exactly the shift
            shift = (xi_t - xi)[met][:, 3:3 * K + 1:3]
            assert np.max(_mismatch_residual(g, gt, T, xi[met], shift)) <= 1e-10
            K_girsanov = 2 * n + 2
            xi = rng.standard_normal((2000, 3 * K_girsanov + 2, n))
            _, blocks = one_shift(g, gt, T, K_girsanov, xi)
            assert np.max(_mismatch_residual(g, gt, T, xi, blocks)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coupling_and_girsanov_shifts_are_the_same_bits(self, n):
        # one solve serves both, so they agree at every horizon, not only where
        # T is a power of two and u(T p, w) = u(p, w)/T holds in floating point
        rng = derive_rng(12, n)
        for K in (n + 2, 2 * n + 1):
            g, gt, _ = _random_pair(rng, n)
            seed = int(rng.integers(2 ** 32))
            for T in (1.0, 9.0, 25.0, 100.0):
                batch = _couple_batch(g, gt, [T], derive_rng(seed), 64, K)
                u0, blocks = one_shift(g, gt, T, K, batch.xi)
                assert np.array_equal(u0, batch.shift.u0[0])
                assert np.array_equal(blocks, batch.shift.blocks[0])
                # the coupling accepts on the log-density the weights read
                sh = batch.shift
                assert np.array_equal(-sh.dot[0] - 0.5 * sh.norm2[0],
                                      log_weight(u0, blocks, batch.xi))
                for i in range(0, 64, 9):
                    u0_i, blocks_i = one_shift(g, gt, T, K, batch.xi[i:i + 1])
                    assert np.array_equal(u0_i, u0)
                    assert np.array_equal(blocks_i, blocks[i:i + 1])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_more_blocks_never_lengthen_the_shift(self, n, seed, data):
        # the K-block shift padded with zero columns solves the K'-block system,
        # so the least-norm K'-block shift is never longer, and the conditional
        # failure erf(|shift| / (2 sqrt 2)) never rises with K
        K = data.draw(st.integers(n - 1, 2 * n + 3), label="K")
        K2 = data.draw(st.integers(K + 1, 2 * n + 4), label="K'")
        rng = derive_rng(seed)
        g, gt, T = _random_pair(rng, n)
        xi = rng.standard_normal((256, 3 * K2 + 2, n))
        w = _mismatch(g, gt, T, xi)
        (u, cond), (u2, cond2) = (tsylvester_batch(T * _probes(xi, k), w) for k in (K, K2))
        ok = (cond <= COND_LIMIT) & (cond2 <= COND_LIMIT)
        assert ok.mean() > 0.9
        norm2 = np.sum(u[ok] ** 2, axis=(1, 2))
        assert np.all(np.sum(u2[ok] ** 2, axis=(1, 2)) <= norm2 * (1 + 1e-12))


class TestOnePairing:
    """The coupling's accept test and the Girsanov weights read one pairing of the shift."""

    @pytest.mark.parametrize("n, K", [(2, 1), (2, 5), (3, 2), (3, 7), (4, 3), (4, 9)])
    def test_met_is_the_accept_test_on_log_R(self, n, K):
        # met = (log U <= -dot - norm2/2) | (norm2 == 0) on every row
        rng = derive_rng(15, n)
        pairs = [_random_pair(rng, n)[:2] for _ in range(3)]
        pairs.append((pairs[0][0], pairs[0][0]))  # a zero shift meets on every row
        for i, (g, gt) in enumerate(pairs):
            batch = _couple_batch(g, gt, [1.0, 25.0], derive_rng(16, i), 3000, K)
            log_u = np.log(derive_rng(16, i).uniform(size=3000))  # drawn before the xi
            sh = batch.shift
            accept = (log_u <= -sh.dot - 0.5 * sh.norm2) | (sh.norm2 == 0.0)
            assert np.array_equal(batch.met, accept)
            assert batch.met.any()
            assert batch.met.all() if i == 3 else not batch.met.all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pairing_is_that_of_each_entry_with_the_draw(self, n):
        # orbit entries too: at -xi the dot is taken against xi, at +-D xi against D xi
        g, gt, T = _random_pair(derive_rng(17, n), n)
        K = n + 3
        xi = derive_rng(18, n).standard_normal((200, 3 * K + 4, n))
        against = sign_orbit(xi)[0::2]
        for orbit in (1, 2, 4):
            sh = shift_batch(g, gt, [T, 2.0 * T], xi, K, orbit)
            assert sh.dot.shape == sh.norm2.shape == (2 * orbit, 200)
            for s in range(len(sh.u0)):
                dot, norm2 = shift_pairing(sh.u0[s], sh.blocks[s], against[s % orbit // 2])
                assert np.array_equal(sh.dot[s], dot) and np.array_equal(sh.norm2[s], norm2)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), K=st.integers(1, 9), count=st.integers(1, 24),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_shift_pairing_of_a_batch_of_one_equals_its_row(self, n, K, count, seed):
        rng = derive_rng(seed)
        xi = rng.standard_normal((count, 3 * K + 2 + int(rng.integers(0, 4)), n))
        u0 = rng.standard_normal(n)
        # a transposed view, as the solve hands the blocks over
        blocks = np.swapaxes(rng.standard_normal((count, n, K)), -1, -2)
        dot, norm2 = shift_pairing(u0, blocks, xi)
        for i in range(count):
            one = shift_pairing(u0, blocks[i:i + 1], xi[i:i + 1])
            assert one[0][0] == dot[i] and one[1][0] == norm2[i]


class TestSignOrbit:
    """`shift_batch` over the sign orbit xi, -xi, D xi, -D xi, against runs on explicit copies."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_orbit_entry_is_the_shift_at_its_point(self, n):
        g, gt, T = _random_pair(derive_rng(19, n), n)
        Ts = [T, 0.3, 100.0]
        for K in (n - 1 if n > 2 else 1, n + 2, 2 * n + 1):
            xi = derive_rng(20, 10 * n + K).standard_normal((64, 3 * K + 5, n))
            sh = shift_batch(g, gt, Ts, xi, K, orbit=4)
            assert sh.u0.shape == (12, n) and sh.blocks.shape == (12, 64, K, n)
            for o, point in enumerate(sign_orbit(xi)):
                direct = shift_batch(g, gt, Ts, point, K)
                assert np.array_equal(sh.cond, direct.cond)
                assert np.array_equal(sh.u0[o::4], direct.u0)
                assert np.array_equal(sh.blocks[o::4], direct.blocks)
                assert np.array_equal(sh.norm2[o::4], direct.norm2)
                # a mirrored entry is paired with the unmirrored point: its dot is negated
                assert np.array_equal(sh.dot[o::4], (-1.0) ** o * direct.dot)
            for orbit in (1, 2):
                part = shift_batch(g, gt, Ts, xi, K, orbit)
                # u0, blocks, dot and norm2: the first `orbit` entries of each horizon
                for a, b in zip(part[1:5], sh[1:5]):
                    head = b.reshape(3, 4, *b.shape[1:])[:, :orbit]
                    assert np.array_equal(a, head.reshape(a.shape))
                assert np.array_equal(part.probes, sh.probes)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), count=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_batch_of_one_equals_its_row(self, n, count, seed):
        rng = derive_rng(21, seed)
        g, gt, T = _random_pair(rng, n)
        K = n + int(rng.integers(0, 4))
        xi = rng.standard_normal((count, 3 * K + 2 + int(rng.integers(0, 4)), n))
        sh = shift_batch(g, gt, [T, 2.0 * T], xi, K, orbit=4)
        for i in range(count):
            one = shift_batch(g, gt, [T, 2.0 * T], xi[i:i + 1], K, orbit=4)
            assert np.array_equal(one.blocks, sh.blocks[:, i:i + 1])
            assert np.array_equal(one.dot, sh.dot[:, i:i + 1])
            assert np.array_equal(one.norm2, sh.norm2[:, i:i + 1])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("orbit", [1, 2, 4])
    def test_rows_with_zero_probes_raise_for_their_tile(self, n, orbit):
        # all probe coefficients zero: a zero probe, whose Gram matrix is singular
        g, gt, T = _random_pair(derive_rng(23, n), n)
        K = n + 2
        xi = derive_rng(24, n).standard_normal((9, 3 * K + 2, n))
        xi[[1, 4], 2::3] = 0.0  # the indices 3k - 1
        xi[[1, 4], 4::3] = 0.0  # the indices 3k + 1
        with pytest.raises(SingularGramError, match="^2 singular Gram draws in a tile of 9 rows"):
            shift_batch(g, gt, [T, 2.0 * T], xi, K, orbit)
        shift_batch(g, gt, [T, 2.0 * T], np.delete(xi, [1, 4], axis=0), K, orbit)

    def test_orbit_of_three_points_rejected(self):
        g, gt, T = _random_pair(derive_rng(22), 2)
        with pytest.raises(ValueError, match="orbit"):
            shift_batch(g, gt, [T], np.zeros((1, 8, 2)), 2, orbit=3)


class TestFailureProbability:
    def test_singular_gram_raises_singular_gram_error(self, monkeypatch):
        monkeypatch.setattr(coupling, "COND_LIMIT", 0.0)  # every Gram row counts as singular
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.array([1.0, 0, 0]), SkewMatrix.zero(3))
        with pytest.raises(SingularGramError):
            failure_probability(g, gt, [4.0], 100, 1)
        with pytest.raises(SingularGramError):
            couple_carnot(g, gt, 4.0, derive_rng(3))

    def test_same_start_zero(self):
        est, = failure_probability(H(1, 2, 3), H(1, 2, 3), [4.0], 2000, seed=0, K=1)
        assert est.indicator.mean == est.conditional.mean == 0.0

    def test_deterministic(self):
        g, gt = H(0, 0, 0), H(1, 0, 1)
        a = failure_probability(g, gt, [25.0], 20_000, seed=3, K=1)[0]
        b = failure_probability(g, gt, [25.0], 20_000, seed=3, K=1)[0]
        assert a == b

    def test_bound_domination_heisenberg(self):
        g, gt = H(0, 0, 0), H(1, 0, 1)
        for T in (4.0, 25.0):
            est = failure_probability(g, gt, [T], 30_000, seed=4, K=1)[0].indicator
            bound = tv_bound(g, gt, T, "proof-stage").total
            assert est.mean <= bound + 3 * est.stderr

    def test_bound_domination_carnot(self):
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.array([1.0, 0, 0]), SkewMatrix(3, np.array([1.0, 0, 0])))
        est = failure_probability(g, gt, [25.0], 10_000, seed=5)[0].indicator
        bound = tv_bound(g, gt, 25.0, "carnot-n").total
        assert est.mean <= bound + 3 * est.stderr

    @pytest.mark.parametrize("K", [1, 5])
    def test_no_estimate_falls_below_the_exact_tv(self, K):
        # for a vertical displacement zeta on H the TV distance is
        # P(|A_T| < |zeta|/2) = (4/pi) arctan(exp(pi |zeta|/(2T))) - 1 (Levy's
        # area law), 0.0100 at T = 100; no coupling fails less often
        Ts = [25.0, 100.0]
        for T, est in zip(Ts, failure_probability(H(0, 0, 0), H(0, 0, 1), Ts, 100_000,
                                                  seed=8, K=K)):
            tv = 4.0 / math.pi * math.atan(math.exp(math.pi / (2.0 * T))) - 1.0
            for e in est:
                assert e.mean >= tv - 3 * e.stderr

    def test_conditional_column_has_the_indicator_mean_and_less_variance(self):
        g, gt = H(0, 0, 0), H(1, 0, 1)
        for est in failure_probability(g, gt, [4.0, 25.0], 40_000, seed=10, K=1):
            se = math.hypot(est.indicator.stderr, est.conditional.stderr)
            assert abs(est.indicator.mean - est.conditional.mean) <= 3 * se
            assert est.conditional.stderr < est.indicator.stderr

    def test_dilation_invariance(self):
        g, gt = H(0, 0, 0), H(0.8, 0.1, 0.5)
        T = 9.0
        base = failure_probability(g, gt, [T], 40_000, seed=6, K=1)[0].indicator
        for lam in (0.5, 2.0):
            scaled = failure_probability(
                dilate(lam, g), dilate(lam, gt), [lam * lam * T], 40_000, seed=7, K=1
            )[0].indicator
            se = math.hypot(base.stderr, scaled.stderr)
            assert abs(base.mean - scaled.mean) <= 3 * se


class TestMaximalGivenShift:
    """The check of acceptance criterion 13: the paired column 1{fail} - erf(|u|/(2 sqrt 2))."""

    Ts = [25.0, 100.0]

    def _z(self):
        gaps = failure_given_shift_gap(H(0, 0, 0), H(0, 0, 1), self.Ts, 100_000, seed=11, K=1)
        return [gap.mean / gap.stderr for gap in gaps]

    def test_passes_on_the_coupling(self):
        assert all(abs(z) <= 3 for z in self._z())

    def test_fails_on_a_coupling_that_meets_too_often(self, monkeypatch):
        # accept on log U <= log R + 0.05: log(U e^-0.05) <= log R
        monkeypatch.setattr(coupling, "couple_to_shift",
                            lambda dot, norm2, u: couple_to_shift(dot, norm2, u * math.exp(-0.05)))
        assert all(z < -3 for z in self._z())


class TestCouplingChoice:
    """The block count K, not the point type, picks the coupling, and a bad pick is loud."""

    @pytest.fixture
    def unsampled(self, monkeypatch):
        monkeypatch.setattr(coupling, "_couple_batch", lambda *a: pytest.fail("sampled"))

    @pytest.mark.parametrize("n, K", [(3, 1), (4, 2)])
    def test_fewer_than_n_minus_1_blocks_rejected_unsampled(self, n, K, unsampled):
        g = CarnotElement.identity(n)
        gt = CarnotElement(np.eye(n)[0], SkewMatrix.zero(n))
        with pytest.raises(ValueError, match=f"K >= n - 1 = {n - 1}"):
            failure_probability(g, gt, [4.0], 100, 1, K=K)

    @pytest.mark.parametrize("K", [None, 1])
    def test_heisenberg_point_is_rejected_unsampled(self, K, unsampled):
        g, gt = HeisenbergPoint(0, 0, 0), HeisenbergPoint(1, 0, 1)
        with pytest.raises(AttributeError):
            failure_probability(g, gt, [4.0], 100, 1, K=K)

    @pytest.mark.parametrize("variant", ["proof-stage", "improved-remark2", "carnot-n"])
    def test_tv_bound_rejects_a_heisenberg_point(self, variant):
        with pytest.raises(AttributeError):
            tv_bound(HeisenbergPoint(0, 0, 0), HeisenbergPoint(1, 0, 1), 4.0, variant)

    @pytest.mark.parametrize("variant", ["proof-stage", "improved-remark2"])
    def test_heisenberg_variant_needs_rank_2(self, variant):
        with pytest.raises(ValueError, match="rank-2"):
            tv_bound(CarnotElement.identity(3), CarnotElement.identity(3), 4.0, variant)

    @pytest.mark.parametrize("variant, constants", [("proof-stage", "proof-stage"),
                                                    ("improved-remark2", "improved")])
    def test_heisenberg_variants_equal_the_scalar_formula(self, variant, constants):
        c1, c2 = heisenberg_constants(constants)
        rng = derive_rng(14)
        for _ in range(200):
            (x1, x2, z), (y1, y2, w) = rng.uniform(-3, 3, (2, 3)).tolist()
            T = float(np.exp(rng.uniform(np.log(0.25), np.log(64.0))))
            b = tv_bound(H(x1, x2, z), H(y1, y2, w), T, variant)
            assert b.horizontal_term == c1 * math.hypot(y1 - x1, y2 - x2) / math.sqrt(T)
            assert b.vertical_term == c2 * abs(w - z - (x1 * y2 - x2 * y1) / 2) / T


def _pair_from_seed(seed, n, spread=1.0, offset=1.0):
    """Start points for n: coordinates in [-spread, spread], then moved by up to offset."""
    rng = np.random.default_rng(seed)
    p = n * (n - 1) // 2
    a = rng.uniform(-spread, spread, n + p)
    b = a + rng.uniform(-offset, offset, n + p)
    return (CarnotElement(a[:n], SkewMatrix(n, a[n:])),
            CarnotElement(b[:n], SkewMatrix(n, b[n:])))


class TestHorizonGrid:
    # small batches, so that every run below spans several of them
    BATCH = 256
    N = 3 * BATCH + 17

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 5), heis=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           grid=st.lists(st.one_of(st.sampled_from([1.0, 4.0, 25.0]), st.floats(0.25, 100.0)),
                         min_size=1, max_size=4))
    def test_each_entry_equals_its_one_horizon_call(self, n, heis, seed, grid):
        heis = heis and n == 2
        g, gt = _pair_from_seed(seed, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "BATCH_SIZE", self.BATCH)
            for workers in (1, 3):
                ests = failure_probability(g, gt, grid, self.N, seed, workers,
                                           K=1 if heis else None)
                assert len(ests) == len(grid)
                for T, est in zip(grid, ests):
                    assert est == failure_probability(g, gt, [T], self.N, seed, workers,
                                                      K=1 if heis else None)[0]

    def test_batch_shares_the_draw_and_the_stack(self):
        g, gt = _pair_from_seed(5, 3)
        grid = [4.0, 25.0, 4.0]
        batch = _couple_batch(g, gt, grid, derive_rng(6), 500, 7)
        assert batch.c.shape == batch.met.shape == (3, 500)
        assert np.array_equal(batch.c[0], batch.c[2])
        assert not np.array_equal(batch.c[0], batch.c[1])
        for s, T in enumerate(grid):
            one = _couple_batch(g, gt, [T], derive_rng(6), 500, 7)
            assert np.array_equal(one.xi, batch.xi)
            assert np.array_equal(_second_stream(one, 0), _second_stream(batch, s))
            assert np.array_equal(one.met[0], batch.met[s])

    @pytest.mark.parametrize("grid", [[], [4.0, 0.0], [-1.0], [math.nan], [4.0, math.inf]])
    def test_empty_or_nonpositive_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            failure_probability(H(0, 0, 0), H(1, 0, 0), grid, 100, 1, K=1)


class TestExactMeeting:
    RUNS = 16

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), heis=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           T=st.floats(16.0, 64.0))
    def test_met_runs_meet_exactly(self, n, heis, seed, T):
        # displacements of at most 0.1 per coordinate: at T >= 16 at most about
        # a third of the runs fail (rank 6), so some of the runs meet
        heis = heis and n == 2
        g, gt = _pair_from_seed(seed, n, spread=2.0, offset=0.1)
        rng = derive_rng(seed)
        met = 0
        for _ in range(self.RUNS):
            out = coupling._couple_once(g, gt, T, rng, 1 if heis else default_support_count(n))
            if out.success:
                met += 1
                assert out.diagnostics.horizontal_gap <= 1e-12
                assert out.diagnostics.vertical_gap <= 1e-9
        assert met > 0


class TestMarginalPreservation:
    def test_coupled_endpoint_laws(self):
        rng = derive_rng(9)
        g = HeisenbergPoint(0, 0, 0)
        gt = HeisenbergPoint(1, 0, 1)
        T = 4.0
        N = 30_000
        gc, gct = heis_to_carnot(g), heis_to_carnot(gt)
        xi, xi_t, met, _ = _one_horizon(gc, gct, T, rng, N, K=1)
        xT, zT = endpoint_packed(gc.x, gc.z.upper, xi, T)
        xTt, zTt = endpoint_packed(gct.x, gct.z.upper, xi_t, T)
        for i in range(2):
            assert ks_test(xT[:, i], scipy.stats.norm(loc=gc.x[i], scale=math.sqrt(T)).cdf) > 0.01
            assert ks_test(xTt[:, i], scipy.stats.norm(loc=gct.x[i], scale=math.sqrt(T)).cdf) > 0.01
        # vertical variance at identity start for the primary process:
        # the truncated five-index stream carries the modified blocks only, so
        # compare the full series rendering instead
        var = zT[:, 0].var()  # truncated at index 4: var = T^2 * 2 * sum_{k<4} alpha_k^2
        expect = T * T * 2 * sum(alpha(k) ** 2 for k in range(4))
        se = var * math.sqrt(6.0 / N)
        assert abs(var - expect) <= 3 * se


class TestTVBound:
    def test_zero_at_equal_points(self):
        g = H(1, 2, 3)
        assert tv_bound(g, g, 5.0, "proof-stage").total == 0.0

    def test_variant_constants(self):
        g, gt = H(0, 0, 0), H(0, 0, 1)
        b = tv_bound(g, gt, 1.0, "improved-remark2")
        assert b.vertical_term == pytest.approx(
            5 * math.sqrt(21) / (math.pi * math.sqrt(math.pi)), rel=1e-14
        )
        assert b.horizontal_term == 0.0

    def test_carnot_rank3_vertical_constant(self):
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.zeros(3), SkewMatrix(3, np.array([1.0, 0, 0])))
        b = tv_bound(g, gt, 1.0, "carnot-n")
        c2_expect = (6 * math.sqrt(3) + 4 / math.sqrt(3)) / math.sqrt(math.pi)
        assert b.vertical_term == pytest.approx(c2_expect * math.sqrt(2), rel=1e-14)

    def test_total_is_sum(self):
        g, gt = H(0, 0, 0), H(1, 1, 1)
        b = tv_bound(g, gt, 2.0, "proof-stage")
        assert b.total == b.horizontal_term + b.vertical_term

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            tv_bound(H(0, 0, 0), H(0, 0, 0), 1.0, "optimal")

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_horizon(self, T):
        with pytest.raises(ValueError):
            tv_bound(H(0, 0, 0), H(0, 0, 1), T, "proof-stage")
