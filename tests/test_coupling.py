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
    failure_probability,
    sylvester_system,
    tv_bound,
)
from carnot_coupling.girsanov import build_shift
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
from carnot_coupling.sylvester import SingularGramError


def H(*a):
    """The Heisenberg point (x1, x2, z) as the rank-2 element."""
    return heis_to_carnot(HeisenbergPoint(*a))


def coords(g):
    return (*g.x, *g.z.upper)


def _one_horizon(gc, gct, T, rng, count, two_index):
    """(xi, xi_t, met, w, cond, bad) of a one-horizon grid batch."""
    b = _couple_batch(gc, gct, [T], rng, count, two_index)
    return b.xi, _second_stream(b, 0), b.met[0], b.w[0], b.cond, b.bad


class TestSingleRuns:
    def test_same_start_always_meets(self):
        rng = derive_rng(0)
        g = HeisenbergPoint(0.5, -1.0, 0.25)
        for _ in range(20):
            out = couple_heisenberg(g, g, 2.0, rng)
            assert out.success
            assert all(np.allclose(v, 0.0) for _, v in out.shifts)
            assert coords(out.endpoint) == coords(out.endpoint_tilde)

    def test_heisenberg_modified_indices(self):
        out = couple_heisenberg(HeisenbergPoint(0, 0, 0), HeisenbergPoint(1, 0, 1),
                                4.0, derive_rng(1))
        assert [k for k, _ in out.shifts] == [0, 3]

    def test_carnot_modified_indices_rank3(self):
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.array([1.0, 0, 0]), SkewMatrix.zero(3))
        out = couple_carnot(g, gt, 4.0, derive_rng(2))
        assert [k for k, _ in out.shifts] == [0, 3, 6, 9, 12, 15, 18, 21]

    def test_carnot_rank2_uses_six_blocks(self):
        g = CarnotElement.identity(2)
        gt = CarnotElement(np.array([0.5, 0.0]), SkewMatrix(2, np.array([0.3])))
        out = couple_carnot(g, gt, 9.0, derive_rng(12))
        assert [k for k, _ in out.shifts] == [0, 3, 6, 9, 12, 15]
        est = failure_probability(g, gt, [9.0], 20_000, seed=13)[0]
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
        xi, xi_t, met, w, _, _ = _one_horizon(heis_to_carnot(g), heis_to_carnot(gt), T, rng,
                                               4000, two_index=True)
        w = w[:, 0]
        scale = math.hypot(alpha(2), alpha(3))
        v = (alpha(3) * xi[:, 4] - alpha(2) * xi[:, 2]) / scale
        d3 = xi_t[:, 3] - xi[:, 3]
        lhs = T * scale * (d3[:, 0] * v[:, 1] - d3[:, 1] * v[:, 0])
        assert np.max(np.abs(lhs[met] - w[met])) <= 1e-10

    def test_unmodified_indices_shared(self):
        rng = derive_rng(7)
        xi, xi_t, met, _, _, _ = _one_horizon(
            heis_to_carnot(HeisenbergPoint(0, 0, 0)), heis_to_carnot(HeisenbergPoint(1, 0, 1)),
            4.0, rng, 1000, two_index=True,
        )
        for k in (1, 2, 4):
            assert np.array_equal(xi[:, k], xi_t[:, k])

    def test_carnot_met_rows_close_endpoint(self):
        rng = derive_rng(8)
        g = CarnotElement.identity(4)
        gt = CarnotElement(np.array([0.5, 0, 0, 0]), SkewMatrix(4, np.array([0.3, 0, 0, 0, 0, 0.1])))
        T = 25.0
        xi, xi_t, met, _, cond, sing = _one_horizon(g, gt, T, rng, 2000, False)
        assert not sing.any()
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
    w, V = sylvester_system(gc, gct, T, xi, K)
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
            w, _ = sylvester_system(heis_to_carnot(g), heis_to_carnot(gt), T, xi, 1)
            sqrtT = math.sqrt(T)
            hat = (sqrtT / 2.0) * xi[:, 0] - sqrtT * alpha(0) * xi[:, 1]
            d0, d1 = g.x1 - gt.x1, g.x2 - gt.x2
            zeta_s = gt.z - g.z - (g.x1 * gt.x2 - g.x2 * gt.x1) / 2
            ref = -zeta_s + d0 * hat[:, 1] - d1 * hat[:, 0]
            size = abs(zeta_s) + np.abs(d0 * hat[:, 1]) + np.abs(d1 * hat[:, 0])
            assert np.all(np.abs(w[:, 0] - ref) <= 4 * eps * size)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_coupling_and_girsanov_shifts_solve_the_mismatch(self, n):
        rng = derive_rng(11, n)
        for _ in range(5):
            g, gt, T = _random_pair(rng, n)
            m = 2 * n + 1
            variants = [(False, m)] + ([(True, 1)] if n == 2 else [])
            for two_index, blocks_count in variants:
                xi, xi_t, met, _, _, bad = _one_horizon(g, gt, T, rng, 2000, two_index)
                assert not bad.any() and met.any()
                # on met rows the modified coordinates moved by exactly the shift
                shift = (xi_t - xi)[met][:, 3:3 * blocks_count + 1:3]
                assert np.max(_mismatch_residual(g, gt, T, xi[met], shift)) <= 1e-10
            K = m + 1
            xi = rng.standard_normal((2000, 3 * K + 2, n))
            _, blocks = build_shift(g, gt, T, K, xi)
            assert np.max(_mismatch_residual(g, gt, T, xi, blocks)) <= 1e-10


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
        est = failure_probability(H(1, 2, 3), H(1, 2, 3), [4.0], 2000, seed=0,
                                  two_index=True)[0]
        assert est.mean == 0.0

    def test_deterministic(self):
        g, gt = H(0, 0, 0), H(1, 0, 1)
        a = failure_probability(g, gt, [25.0], 20_000, seed=3, two_index=True)[0]
        b = failure_probability(g, gt, [25.0], 20_000, seed=3, two_index=True)[0]
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_bound_domination_heisenberg(self):
        g, gt = H(0, 0, 0), H(1, 0, 1)
        for T in (4.0, 25.0):
            est = failure_probability(g, gt, [T], 30_000, seed=4, two_index=True)[0]
            bound = tv_bound(g, gt, T, "proof-stage").total
            assert est.mean <= bound + 3 * est.stderr

    def test_bound_domination_carnot(self):
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.array([1.0, 0, 0]), SkewMatrix(3, np.array([1.0, 0, 0])))
        est = failure_probability(g, gt, [25.0], 10_000, seed=5)[0]
        bound = tv_bound(g, gt, 25.0, "carnot-n").total
        assert est.mean <= bound + 3 * est.stderr

    def test_dilation_invariance(self):
        g, gt = H(0, 0, 0), H(0.8, 0.1, 0.5)
        T = 9.0
        base = failure_probability(g, gt, [T], 40_000, seed=6, two_index=True)[0]
        for lam in (0.5, 2.0):
            scaled = failure_probability(
                dilate(lam, g), dilate(lam, gt), [lam * lam * T], 40_000, seed=7, two_index=True
            )[0]
            se = math.hypot(base.stderr, scaled.stderr)
            assert abs(base.mean - scaled.mean) <= 3 * se



class TestCouplingChoice:
    """The two_index flag, not the point type, picks the coupling, and a bad pick is loud."""

    @pytest.fixture
    def unsampled(self, monkeypatch):
        monkeypatch.setattr(coupling, "_couple_batch", lambda *a: pytest.fail("sampled"))

    def test_two_index_needs_rank_2(self, unsampled):
        g = CarnotElement.identity(3)
        gt = CarnotElement(np.array([1.0, 0, 0]), SkewMatrix.zero(3))
        with pytest.raises(ValueError, match="rank 2"):
            failure_probability(g, gt, [4.0], 100, 1, two_index=True)

    @pytest.mark.parametrize("two_index", [False, True])
    def test_heisenberg_point_is_rejected_unsampled(self, two_index, unsampled):
        g, gt = HeisenbergPoint(0, 0, 0), HeisenbergPoint(1, 0, 1)
        with pytest.raises(AttributeError):
            failure_probability(g, gt, [4.0], 100, 1, two_index=two_index)

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
                ests = failure_probability(g, gt, grid, self.N, seed, workers, two_index=heis)
                assert len(ests) == len(grid)
                for T, est in zip(grid, ests):
                    assert est == failure_probability(g, gt, [T], self.N, seed, workers,
                                                      two_index=heis)[0]

    def test_batch_shares_the_draw_and_the_stack(self):
        g, gt = _pair_from_seed(5, 3)
        grid = [4.0, 25.0, 4.0]
        batch = _couple_batch(g, gt, grid, derive_rng(6), 500, False)
        assert batch.coupled.shape[:2] == batch.met.shape == (3, 500)
        assert np.array_equal(batch.coupled[0], batch.coupled[2])
        assert not np.array_equal(batch.coupled[0], batch.coupled[1])
        for s, T in enumerate(grid):
            one = _couple_batch(g, gt, [T], derive_rng(6), 500, False)
            assert np.array_equal(one.xi, batch.xi)
            assert np.array_equal(_second_stream(one, 0), _second_stream(batch, s))
            assert np.array_equal(one.met[0], batch.met[s])

    @pytest.mark.parametrize("grid", [[], [4.0, 0.0], [-1.0], [math.nan], [4.0, math.inf]])
    def test_empty_or_nonpositive_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            failure_probability(H(0, 0, 0), H(1, 0, 0), grid, 100, 1, two_index=True)


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
            out = coupling._couple_once(g, gt, T, rng, two_index=heis)
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
        xi, xi_t, met, _, _, _ = _one_horizon(gc, gct, T, rng, N, two_index=True)
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
