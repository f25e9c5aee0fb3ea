"""Change-of-probability machinery: shift construction, density identities,
transfer, integration by parts, and the inequality suite."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling import catalog, coupling, girsanov, mc
from carnot_coupling.catalog import CATALOG
from carnot_coupling.coupling import shift_batch, shift_pairing
from carnot_coupling.girsanov import (
    bismut_gradient,
    default_support_count,
    entropy_bound_constant,
    finite_diff_gradient,
    girsanov_normalization_check,
    gradient_sup_spotcheck,
    horizontal_direction,
    inequality_suite,
    reverse_poincare_constant,
    semigroup_transfer_check,
    vertical_direction,
    _weak_log_sobolev_rhs,
)
from carnot_coupling.groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    heis_to_carnot,
    zeta,
)
from carnot_coupling.legendre import endpoint_packed
from carnot_coupling.mc import MCEstimate, derive_rng, run_vector_estimator, split_seed
from carnot_coupling.sylvester import SingularGramError
from coupling_checks import log_weight, one_shift, sign_orbit


def hpair(a, b):
    return heis_to_carnot(HeisenbergPoint(*a)), heis_to_carnot(HeisenbergPoint(*b))


def batch(seed, rows, K, n=2):
    """Coefficients for `rows` paths through index 3K+1, all that the shift reads."""
    return derive_rng(seed).standard_normal((rows, 3 * K + 2, n))


def shifted_endpoints_agree(g, gt, T, K, xi):
    """The shifted batch drives gt onto the endpoints driven by xi from g."""
    u0, blocks = one_shift(g, gt, T, K, xi)
    shifted = xi.copy()
    shifted[:, 0] += u0
    shifted[:, 3:3 * K + 1:3] += blocks
    xT_gt, zT_gt = endpoint_packed(gt.x, gt.z.upper, shifted, T)
    xT_g, zT_g = endpoint_packed(g.x, g.z.upper, xi, T)
    assert np.max(np.abs(xT_gt - xT_g)) <= 1e-12
    assert np.max(np.abs(zT_gt - zT_g)) <= 1e-10


class TestOneHorizonShift:
    def test_zero_for_equal_points(self):
        g, gt = hpair((0.5, -1, 0.2), (0.5, -1, 0.2))
        u0, blocks = one_shift(g, gt, 4.0, 5, batch(0, 16, 5))
        assert not u0.any() and not blocks.any()

    def test_norm_decomposition(self):
        g, gt = hpair((0, 0, 0), (0.7, -0.2, 0.4))
        T = 9.0
        xi = batch(2, 16, 5)
        u0, blocks = one_shift(g, gt, T, 5, xi)
        _, norm2 = shift_pairing(u0, blocks, xi)
        dx2 = (0.7 ** 2 + 0.2 ** 2)
        for row, b in zip(norm2, blocks):
            explicit = dx2 / T + sum(float(bk @ bk) for bk in b)
            assert row == pytest.approx(explicit, rel=1e-12)

    def test_index0_collinear_with_displacement(self):
        g, gt = hpair((0, 0, 0), (0.6, 0.8, 0.0))
        u0, _ = one_shift(g, gt, 1.0, 5, batch(3, 16, 5))
        d = np.array([-0.6, -0.8])
        cross = u0[0] * d[1] - u0[1] * d[0]
        assert abs(cross) <= 1e-14

    def test_shift_reads_only_allowed_coordinates(self):
        # changing the modified coordinates or the displacement component of
        # xi_0 must not change the shift
        g, gt = hpair((0, 0, 0), (1, 0, 0.5))
        T, K = 4.0, 5
        rng = derive_rng(6)
        xi = rng.standard_normal((3 * K + 2, 2))
        u0a, blocksa = one_shift(g, gt, T, K, xi[None])
        xi2 = xi.copy()
        xi2[0, 0] += 3.0  # displacement direction is e1 here
        for k in range(1, K + 1):
            xi2[3 * k] = rng.standard_normal(2)
        u0b, blocksb = one_shift(g, gt, T, K, xi2[None])
        assert np.allclose(blocksa, blocksb, atol=1e-12)
        assert np.array_equal(u0a, u0b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_shift_is_batch_of_one(self, n):
        rng = derive_rng(9, n)
        p = n * (n - 1) // 2
        g = CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
        gt = CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
        T, K = 4.0, 2 * n + 1
        xi = rng.standard_normal((40, 3 * K + 2, n))
        u0, blocks = one_shift(g, gt, T, K, xi)
        logw = log_weight(u0, blocks, xi)
        for i in range(40):
            u0_i, blocks_i = one_shift(g, gt, T, K, xi[i:i + 1])
            assert np.array_equal(u0_i, u0) and np.array_equal(blocks_i, blocks[i:i + 1])
            assert np.array_equal(log_weight(u0_i, blocks_i, xi[i:i + 1]), logw[i:i + 1])

    def test_pathwise_endpoint_identity(self):
        # the shifted stream drives the process from gt onto the endpoint from g:
        # endpoint(gt, xi + u) equals endpoint(g, xi) surely, not just on average
        g, gt = hpair((0.2, -0.4, 0.1), (0.6, 0.3, -0.2))
        shifted_endpoints_agree(g, gt, 4.0, 6, batch(7, 20, 6))

    def test_pathwise_endpoint_identity_rank3(self):
        g = CarnotElement(np.array([0.1, 0.0, -0.3]), SkewMatrix(3, np.array([0.1, 0.0, 0.2])))
        gt = CarnotElement(np.array([0.5, -0.2, 0.0]), SkewMatrix(3, np.array([0.0, 0.3, -0.1])))
        shifted_endpoints_agree(g, gt, 9.0, 7, batch(8, 10, 7, n=3))


class TestDensity:
    def test_unit_weight_for_zero_shift(self):
        g, gt = hpair((1, 1, 1), (1, 1, 1))
        xi = batch(9, 16, 5)
        u0, blocks = one_shift(g, gt, 1.0, 5, xi)
        assert np.all(np.exp(log_weight(u0, blocks, xi)) == 1.0)

    def test_positive(self):
        g, gt = hpair((0, 0, 0), (0.5, 0, 0.2))
        xi = batch(10, 16, 5)
        u0, blocks = one_shift(g, gt, 4.0, 5, xi)
        assert np.all(np.exp(log_weight(u0, blocks, xi)) > 0.0)

    def test_normalization_and_entropy_identity(self):
        g, gt = hpair((0, 0, 0), (0, 0, 1))
        rep = girsanov_normalization_check(g, gt, 100.0, 5, 200_000, seed=11)
        assert rep.normalization.passed
        assert rep.entropy_identity.passed
        assert rep.entropy_bounded

    def test_entropy_identity_mixed_point(self):
        g, gt = hpair((0, 0, 0), (0.3, 0.2, 0.05))
        rep = girsanov_normalization_check(g, gt, 16.0, 8, 200_000, seed=12)
        assert rep.normalization.passed
        assert rep.entropy_identity.passed

    @pytest.mark.parametrize("gt, T, light", [((0, 0, 1), 100.0, True), ((0, 0, 4), 1.0, False)])
    def test_ess_fraction_is_the_kish_fraction_of_R(self, gt, T, light):
        # one batch: the weights are R on the rows of derive_rng(seed, 0)
        g, gt = hpair((0, 0, 0), gt)
        K, N, seed = 5, 2000, 16
        rep = girsanov_normalization_check(g, gt, T, K, N, seed)
        xi = derive_rng(seed, 0).standard_normal((N, 3 * K + 2, 2))
        w = np.exp(log_weight(*one_shift(g, gt, T, K, xi), xi))
        assert rep.ess_fraction == pytest.approx(w.sum() ** 2 / (N * np.sum(w * w)), rel=1e-9)
        assert rep.ess_fraction > 0.99 if light else rep.ess_fraction < 0.01

    def test_entropy_bound_constant_value(self):
        g, gt = hpair((0, 0, 0), (1, 0, 1))
        T = 4.0
        expect = 1.0 / (2 * T) + (6 * math.sqrt(2) + 4 / math.sqrt(2)) ** 2 * (
            2.0 / T ** 2 + 2.0 / (3 * T)
        )
        assert entropy_bound_constant(g, gt, T) == pytest.approx(expect, rel=1e-13)

    def test_reverse_poincare_constant_matches_its_explicit_formula(self):
        def explicit(g, h, T):
            n = g.n
            hx2 = float(np.sum(h.x ** 2))
            vert = zeta(g, CarnotElement(g.x + h.x, g.z + h.z)).hs_norm() ** 2
            c = (6.0 * math.sqrt(2.0 * n) + 4.0 * math.sqrt(2.0) / math.sqrt(n)) ** 2
            return hx2 / T + c * (vert / T ** 2 + 2.0 * (n - 1) * hx2 / (3.0 * T))

        rng = derive_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = n * (n - 1) // 2
            g, h = (CarnotElement(rng.uniform(-2, 2, n), SkewMatrix(n, rng.uniform(-2, 2, p)))
                    for _ in range(2))
            T = float(np.exp(rng.uniform(np.log(0.25), np.log(64.0))))
            assert reverse_poincare_constant(g, h, T) == pytest.approx(explicit(g, h, T),
                                                                       rel=1e-14)


class TestTransfer:
    def test_constant_function(self):
        g, gt = hpair((0, 0, 0), (0, 0, 1))
        rep = semigroup_transfer_check(CATALOG["constant"], g, gt, 100.0, 5, 100_000, seed=13)
        assert rep.direct.mean == 1.0
        # f R regressed on R with f = 1: beta = 1, so the estimate is 1 with no residual
        assert (rep.weighted.mean, rep.weighted.stderr) == (1.0, 0.0)
        assert 0.0 < rep.ess_fraction < 1.0
        assert rep.comparison.passed
        # the margin is weighted - direct, not the mean of the fitted R - 1 column
        assert rep.comparison.margin == 0.0

    def test_same_start(self):
        g, gt = hpair((0.5, 0, 0.1), (0.5, 0, 0.1))
        f, K, N, seed = CATALOG["gaussian-bump"], 5, 50_000, 14
        rep = semigroup_transfer_check(f, g, gt, 1.0, K, N, seed)
        assert rep.comparison.passed

        # R = 1 on every row, so beta = 0 and the weighted side is the plain mean of
        # f, mirrored like the transfer: the mean at xi and at -xi on each row
        def plain_sampler(rng, count):
            xi = rng.standard_normal((count, 3 * K + 2, 2))
            mirrored = 0.5 * (f(*endpoint_packed(g.x, g.z.upper, xi, 1.0))
                              + f(*endpoint_packed(g.x, g.z.upper, -xi, 1.0)))
            return np.stack([mirrored, np.ones(count)], axis=1)

        plain = run_vector_estimator(plain_sampler, N, split_seed(seed, 1))[0]
        assert rep.weighted.mean == plain.mean
        assert rep.ess_fraction == 1.0
        # both sides read the same endpoints, so they agree bit for bit
        assert rep.weighted.mean == rep.direct.mean
        assert rep.comparison.margin == 0.0

    def test_gaussian_bump_moderate_pair(self):
        g, gt = hpair((0, 0, 0), (0.5, 0, 0.2))
        rep = semigroup_transfer_check(CATALOG["gaussian-bump"], g, gt, 4.0, 5, 200_000, seed=15)
        assert rep.comparison.passed

    @pytest.mark.parametrize("fname", ["sin-perturbation", "coordinate-bump"])
    def test_x_only_function_across_a_vertical_displacement(self, fname):
        # R(-xi) = R(xi) and f(X^g) = f(X^g~) on every row; for sin-perturbation the
        # pair mean of f is 2 up to rounding, so the control variate fits both sides
        # exactly and sigma is rounding noise.  Criterion 7's run of that line: its
        # margin is 4.4e-16 over a sigma of 0, inside the rounding allowance.  Both
        # take criterion 7's seed rule for that pair
        g, gt = hpair((0, 0, 0), (0, 0, 1))
        seed = split_seed(20240901, 700 + list(CATALOG).index(fname))
        rep = semigroup_transfer_check(CATALOG[fname], g, gt, 100.0, 8, 1_000_000, seed)
        assert rep.comparison.passed
        if fname == "sin-perturbation":
            assert rep.comparison.sigma <= 1e-15
            assert 0.0 < abs(rep.comparison.margin) <= 1e-14

    def test_rounding_allowance_is_at_most_1e_12_of_the_larger_side(self):
        # delta = allowance (|weighted| + |direct|) <= 2 allowance max(|weighted|, |direct|)
        assert 0.0 < 2.0 * girsanov._TRANSFER_ROUNDING <= 1e-12

    def test_a_five_percent_error_in_the_quadratic_term_fails_the_sin_pair(self, monkeypatch):
        # log R = -<omega, u> - 1.05 |u|^2 / 2 on the sin-perturbation pair at T = 16:
        # the girsanov checks of that pair must fail.  The transfer comparison alone
        # does not see it: R - 1 as a control variate absorbs an error in the scale of R
        g, gt = hpair((0, 0, 0), (0.3, 0.2, 0.05))
        f, T, K, N = CATALOG["sin-perturbation"], 16.0, 8, 1 << 18

        def checks():
            rep = girsanov_normalization_check(g, gt, T, K, N, 0)
            tr = semigroup_transfer_check(f, g, gt, T, K, N, 0)
            return [rep.normalization.passed, rep.entropy_identity.passed, tr.comparison.passed]

        assert all(checks())
        pairing = coupling.shift_pairing
        monkeypatch.setattr(coupling, "shift_pairing",
                            lambda *a: (lambda dot, norm2: (dot, 1.05 * norm2))(*pairing(*a)))
        normalization, entropy, _ = checks()
        assert not normalization and not entropy

    COVERAGE_PAIRS = [
        (0, (0, 0, 0), (0.3, 0.2, 0.05), 16.0),
        (1, (0.2, -0.3, 0), (0.4, 0, 0.1), 9.0),
    ]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _coverage_reports(j, a, b, T):
        g, gt = hpair(a, b)
        s0 = split_seed(20240901, j)
        return gt, [semigroup_transfer_check(CATALOG["sin-perturbation"], g, gt, T, 8, 4096,
                                             split_seed(s0, i)) for i in range(300)]

    @pytest.mark.parametrize("j, a, b, T", COVERAGE_PAIRS)
    def test_control_variate_sigma_covers_the_exact_target(self, j, a, b, T):
        # X_T = x~ + sqrt(T) xi_0, so P_T f(g~) = 2 + sin(x~_1) e^{-T/2} for sin-perturbation;
        # with an honest sigma, 5 or more 3-sigma misses in 300 have probability ~0.002
        gt, reps = self._coverage_reports(j, a, b, T)
        exact = 2.0 + math.sin(gt.x[0]) * math.exp(-T / 2)
        z = np.array([(rep.weighted.mean - exact) / rep.weighted.stderr for rep in reps])
        assert np.sum(np.abs(z) > 3.0) <= 4
        assert abs(z.mean()) <= 0.2

    @pytest.mark.parametrize("j, a, b, T", COVERAGE_PAIRS)
    def test_paired_sigma_covers_the_difference_of_the_sides(self, j, a, b, T):
        # both sides estimate P_T f(g~), so margin / sigma is a z-score of the paired
        # difference; the same 300 runs and the same bounds as the test above
        _, reps = self._coverage_reports(j, a, b, T)
        z = np.array([rep.comparison.margin / rep.comparison.sigma for rep in reps])
        assert np.sum(np.abs(z) > 3.0) <= 4
        assert abs(z.mean()) <= 0.2


class TestBismut:
    def test_zero_direction_exactly_zero(self):
        g = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
        h = CarnotElement.identity(2)
        est = bismut_gradient(CATALOG["sin-perturbation"], g, h, 1.0, 5, 2000, seed=16)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_constant_function_exactly_zero(self):
        # f(X) - f(X^refl) = 0 on every row
        g = heis_to_carnot(HeisenbergPoint(0, 0, 0))
        h = horizontal_direction(g, 0)
        est = bismut_gradient(CATALOG["constant"], g, h, 1.0, 5, 100_000, seed=17)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_weight_linear_in_direction(self):
        g = heis_to_carnot(HeisenbergPoint(0.2, 0.1, 0.0))
        h = CarnotElement(np.array([1.0, -0.5]), SkewMatrix(2, np.array([0.3])))
        T, K = 4.0, 5
        xi = derive_rng(18).standard_normal((1, 3 * K + 2, 2))
        u0a, blka = one_shift(g, CarnotElement(g.x + h.x, g.z + h.z), T, K, xi)
        h2 = CarnotElement(2 * h.x, h.z.scaled(2.0))
        u0b, blkb = one_shift(g, CarnotElement(g.x + h2.x, g.z + h2.z), T, K, xi)
        assert np.allclose(2 * u0a, u0b, rtol=1e-12)
        assert np.allclose(2 * blka, blkb, rtol=1e-10)

    def test_agrees_with_finite_difference(self):
        g = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
        h = horizontal_direction(g, 0)
        f = CATALOG["gaussian-bump"]
        bg = bismut_gradient(f, g, h, 1.0, 8, 300_000, seed=19)
        fd = finite_diff_gradient(f, g, h, 1.0, 1e-3, 300_000, seed=20, K=8)
        se = math.hypot(bg.stderr, fd.stderr)
        assert abs(bg.mean - fd.mean) <= 3 * se + 1e-3 * (1 + abs(fd.mean))
        assert abs(bg.mean) > 5 * bg.stderr  # the gradient is genuinely nonzero here


def _pair(n, kind, seed):
    """A random start g at rank n and g~ displaced from it vertically, horizontally or both."""
    rng = derive_rng(35, seed)
    p = n * (n - 1) // 2
    g = CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
    dx = np.zeros(n) if kind == "vertical" else rng.uniform(-1, 1, n)
    dz = np.zeros(p) if kind == "horizontal" else rng.uniform(-1, 1, p)
    return g, CarnotElement(g.x + dx, g.z + SkewMatrix(n, dz))


def mirrored_weights(g, gt, T, K, xi):
    """R at xi and at -xi, (2, B), from the pairing of one `shift_batch` call over both."""
    sh = shift_batch(g, gt, [T], xi, K, orbit=2)
    return np.exp(np.stack([-sh.dot[0], sh.dot[1]]) - 0.5 * sh.norm2)


def _selecting(index):
    """A test function that is 1 on the stacked endpoints `index` and 0 on the others."""
    def fn(x, zp):
        out = np.zeros(x.shape[:-1])
        out[index] = 1.0
        return out
    return catalog.TestFunction("select", fn, 1.0, 0.0)


class TestMirror:
    """The transfer's rows at -xi, against a direct evaluation with -xi."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["vertical", "horizontal", "mixed"])
    def test_orbit_blocks_are_the_shift_at_each_point(self, n, kind):
        g, gt = _pair(n, kind, n)
        for K in (n + 2, 2 * n + 1):
            for T in (0.3, 4.0, 9.0, 100.0):
                xi = derive_rng(36, 100 * n + K).standard_normal((64, 3 * K + 5, n))
                sh, plain = shift_batch(g, gt, [T], xi, K, orbit=4), shift_batch(g, gt, [T], xi, K)
                assert np.array_equal(sh.blocks[0], plain.blocks[0])
                assert np.array_equal(sh.probes, plain.probes)
                for o, point in enumerate(sign_orbit(xi)):
                    u0, blocks = one_shift(g, gt, T, K, point)
                    assert np.array_equal(sh.u0[o], u0) and np.array_equal(sh.blocks[o], blocks)
                    # entries 1 and 3 are paired with xi and D xi: log R = +dot - norm2/2
                    assert np.array_equal(-(-1.0) ** o * sh.dot[o] - 0.5 * sh.norm2[o],
                                          log_weight(u0, blocks, point))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["vertical", "horizontal", "mixed"])
    def test_mirrored_weights_and_endpoints_are_a_direct_evaluation_at_minus_xi(self, n, kind):
        g, gt = _pair(n, kind, 10 + n)
        K, T = n + 3, 4.0
        xi = derive_rng(37, n).standard_normal((64, 3 * K + 2, n))
        w = mirrored_weights(g, gt, T, K, xi)
        for row, x in zip(w, (xi, -xi)):
            assert np.array_equal(row, np.exp(log_weight(*one_shift(g, gt, T, K, x), x)))
        seen = []

        def capture(x, zp):
            seen.append((x.copy(), zp.copy()))
            return np.ones(x.shape[:-1])

        girsanov._transfer_columns(catalog.TestFunction("capture", capture, 1.0, 1.0),
                                   g, gt, T, K, xi)
        (xT, zT), = seen
        for o, point in enumerate([xi, -xi]):
            for s, start in enumerate([g, gt]):
                direct = endpoint_packed(start.x, start.z.upper, point, T)
                assert np.array_equal(xT[o, s], direct[0]) and np.array_equal(zT[o, s], direct[1])
        # a function that reads only the endpoint from g at -xi weighs it by R(-xi) alone
        cols = girsanov._transfer_columns(_selecting((1, 0)), g, gt, T, K, xi)
        assert np.array_equal(2.0 * cols[:, 0], w[1])
        assert np.array_equal(cols[:, 3], 0.5 * (w[0] + w[1]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vertical_pair_keeps_the_weight_under_the_mirror(self, n):
        # x = x~ makes the mismatch even in xi and the mirrored shift -u: R(-xi) = R(xi)
        g, gt = _pair(n, "vertical", 20 + n)
        K = n + 3
        xi = derive_rng(38, n).standard_normal((256, 3 * K + 2, n))
        w = mirrored_weights(g, gt, 9.0, K, xi)
        assert np.array_equal(w[0], w[1]) and np.all(w[0] != 1.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["vertical", "horizontal", "mixed"]),
           fname=st.sampled_from(sorted(CATALOG)))
    def test_transfer_columns_of_a_batch_of_one_equal_its_row(self, n, seed, kind, fname):
        g, gt = _pair(n, kind, seed)
        rng = derive_rng(seed)
        K = n + int(rng.integers(2, 5))
        T = float(rng.uniform(0.25, 25.0))
        xi = rng.standard_normal((12, 3 * K + 2 + int(rng.integers(0, 4)), n))
        cols = girsanov._transfer_columns(CATALOG[fname], g, gt, T, K, xi)
        for i in range(12):
            assert np.array_equal(
                girsanov._transfer_columns(CATALOG[fname], g, gt, T, K, xi[i:i + 1]),
                cols[i:i + 1])


def _direction(g, kind, i, p, scale):
    """A direction at g: horizontal (scaled e_i), vertical (unit pair p), both, or zero."""
    if kind == "zero":
        return CarnotElement(np.zeros(g.n), SkewMatrix.zero(g.n))
    hor = horizontal_direction(g, i)
    hor = CarnotElement(scale * hor.x, hor.z.scaled(scale))
    ver = vertical_direction(g.n, p)
    if kind == "horizontal":
        return hor
    if kind == "vertical":
        return ver
    return CarnotElement(hor.x, hor.z + ver.z)


def _reflected(xi, e, K):
    """xi with xi_0 reflected across the hyperplane orthogonal to e and each xi_{3k} negated."""
    out = xi.copy()
    out[:, 0] -= 2.0 * np.sum(xi[:, 0] * e, axis=1)[:, None] * e
    out[:, 3:3 * K + 1:3] *= -1.0
    return out


class TestReflection:
    """The antithetic map of the Bismut estimator, against an explicitly reflected xi.

    Directions from `horizontal_direction` have an axis-aligned h_x, so the
    reflection of xi_0 negates one coordinate and every identity below holds
    bit for bit; the derived endpoint differs from the recomputed one by
    rounding only.
    """

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_reflection_keeps_the_shift_and_flips_the_weight(self, n, seed, data):
        K = data.draw(st.integers(n + 2, n + 5), label="K")
        kind = data.draw(st.sampled_from(["horizontal", "vertical", "mixed"]), label="kind")
        extra = data.draw(st.integers(0, 6), label="extra path terms")
        rng = derive_rng(seed)
        p = n * (n - 1) // 2
        g = CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
        h = _direction(g, kind, int(rng.integers(n)), int(rng.integers(p)),
                       float(rng.uniform(0.1, 2.0)))
        gth = girsanov._direction_pair(g, h)
        T = float(rng.uniform(0.25, 16.0))
        xi = rng.standard_normal((24, 3 * K + 2 + extra, n))
        sh = shift_batch(g, gth, [T], xi, K)
        e = sh.axis
        assert not e.any() if kind == "vertical" else np.sum(e * e) == 1.0
        xr = _reflected(xi, e, K)

        u0, blocks = one_shift(g, gth, T, K, xi)
        u0r, blocksr = one_shift(g, gth, T, K, xr)
        assert np.array_equal(u0, u0r) and np.array_equal(blocks, blocksr)
        # W = -<omega, u> flips exactly
        assert np.array_equal(shift_pairing(u0r, blocksr, xr)[0],
                              -shift_pairing(u0, blocks, xi)[0])

        xT, zT = endpoint_packed(g.x, g.z.upper, xi, T)
        derived = girsanov._reflected_endpoint(g.x, xT[None], zT[None], xi, T * sh.probes, e, T)
        for a, b in zip(derived, endpoint_packed(g.x, g.z.upper, xr, T)):
            assert np.max(np.abs(a[0] - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["horizontal", "vertical", "mixed"])
    def test_gradient_column_of_a_batch_of_one_equals_its_row(self, n, kind):
        rng = derive_rng(33, n)
        p = n * (n - 1) // 2
        g, gt = (CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
                 for _ in range(2))
        gth = girsanov._direction_pair(g, _direction(g, kind, n - 1, p - 1, 0.5))
        K = n + 2
        xi = rng.standard_normal((40, 3 * K + 9, n))
        f = CATALOG["sin-perturbation"]
        vals, grad, u_sq = girsanov._antithetic_gradient(f, g, gth, 4.0, K, xi, [g, gt])
        for i in range(40):
            one = girsanov._antithetic_gradient(f, g, gth, 4.0, K, xi[i:i + 1], [g, gt])
            assert np.array_equal(one[0], vals[:, i:i + 1])
            assert np.array_equal(one[1], grad[i:i + 1])
            assert np.array_equal(one[2], u_sq[i:i + 1])


def _capture():
    """A test function that records every endpoint stack it is called on, and its record."""
    seen = []

    def fn(x, zp):
        seen.append((x.copy(), zp.copy()))
        return np.ones(x.shape[:-1])
    return catalog.TestFunction("capture", fn, 1.0, 1.0), seen


def mirrored_bismut_column(f, g, gth, T, K, xi):
    """The Bismut column over xi and -xi alone, (B,), from the orbit pieces at those two points."""
    sh = shift_batch(g, gth, [T], xi, K, orbit=2)
    xT, zT = endpoint_packed(g.x, g.z.upper, xi, T, orbit=2)
    xr, zr = girsanov._reflected_endpoint(g.x, xT, zT, xi, T * sh.probes, sh.axis, T)
    grads = 0.5 * (f(xT, zT) - f(xr, zr)) * np.stack([-sh.dot[0], sh.dot[1]])
    return 0.5 * (grads[0] + grads[1])


def mirrored_fd_column(f, g, h, T, eps, xi):
    """The central-difference column over xi and -xi alone, (B,)."""
    fp, fm = (f(*endpoint_packed(s.x, s.z.upper, xi, T, orbit=2)) for s in (
        CarnotElement(g.x + eps * h.x, g.z + h.z.scaled(eps)),
        CarnotElement(g.x - eps * h.x, g.z + h.z.scaled(-eps))))
    return ((fp[0] - fm[0]) + (fp[1] - fm[1])) / (4.0 * eps)


class TestGradientMirror:
    """Both gradient estimators over the sign orbit xi, -xi, D xi, -D xi.

    Each row is the mean of a column over the four points, so a run on any of
    them must give the same bits wherever every piece at each point equals
    its direct evaluation.
    """

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["horizontal", "vertical", "mixed"])
    def test_bismut_pieces_at_each_orbit_point_are_direct_evaluations(self, n, kind):
        g, gt = _pair(n, "mixed", 40 + n)
        h = _direction(g, kind, n - 1, 0, 0.7)
        gth = girsanov._direction_pair(g, h)
        K, T = n + 3, 2.5
        xi = derive_rng(41, n).standard_normal((48, 3 * K + 6, n))
        points = sign_orbit(xi)
        f, seen = _capture()
        # stacked as the starts g, gt at xi, -xi, D xi and -D xi, then X^refl at each
        girsanov._antithetic_gradient(f, g, gth, T, K, xi, [g, gt])
        (xs, zs), = seen
        for o, point in enumerate(points):
            for s, start in enumerate([g, gt]):
                direct = endpoint_packed(start.x, start.z.upper, point, T)
                assert np.array_equal(xs[2 * o + s], direct[0])
                assert np.array_equal(zs[2 * o + s], direct[1])
            xT, zT = endpoint_packed(g.x, g.z.upper, point, T)
            sh = shift_batch(g, gth, [T], point, K)
            xr, zr = girsanov._reflected_endpoint(g.x, xT[None], zT[None], point,
                                                  T * sh.probes, sh.axis, T)
            assert np.array_equal(xs[8 + o], xr[0]) and np.array_equal(zs[8 + o], zr[0])
            # a function that reads only the endpoint from g at this point gives W there / 8
            w = -shift_pairing(*one_shift(g, gth, T, K, point), point)[0]
            grad = girsanov._antithetic_gradient(_selecting(2 * o), g, gth, T, K, xi, [g, gt])[1]
            assert np.array_equal(grad, 0.125 * w)
        for fname in sorted(CATALOG):
            cols = [girsanov._antithetic_gradient(CATALOG[fname], g, gth, T, K, x, [g])[1]
                    for x in points]
            assert all(np.array_equal(cols[0], c) for c in cols[1:])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["horizontal", "vertical", "mixed"])
    def test_finite_difference_endpoints_at_each_orbit_point_are_direct_evaluations(self, n,
                                                                                    kind):
        g, _ = _pair(n, "mixed", 50 + n)
        h = _direction(g, kind, 0, n - 2, 1.3)
        eps, T = 1e-3, 2.5
        xi = derive_rng(42, n).standard_normal((48, 3 * (2 * n + 1) + 2, n))
        points = sign_orbit(xi)
        f, seen = _capture()
        girsanov._finite_diff_column(f, g, h, T, eps, xi)
        (xT, zT), = seen
        starts = [CarnotElement(g.x + eps * h.x, g.z + h.z.scaled(eps)),
                  CarnotElement(g.x - eps * h.x, g.z + h.z.scaled(-eps))]
        for o, point in enumerate(points):
            for s, start in enumerate(starts):
                direct = endpoint_packed(start.x, start.z.upper, point, T)
                assert np.array_equal(xT[o, s], direct[0]) and np.array_equal(zT[o, s], direct[1])
        for fname in sorted(CATALOG):
            cols = [girsanov._finite_diff_column(CATALOG[fname], g, h, T, eps, x) for x in points]
            assert all(np.array_equal(cols[0], c) for c in cols[1:])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["horizontal", "vertical", "mixed"])
    def test_columns_are_the_mean_of_the_mirrored_columns_at_xi_and_d_xi(self, n, kind):
        g, gt = _pair(n, "mixed", 45 + n)
        h = _direction(g, kind, 0, n - 2, 0.9)
        gth = girsanov._direction_pair(g, h)
        K, T, eps = n + 3, 2.5, 1e-3
        xi = derive_rng(46, n).standard_normal((48, 3 * K + 6, n))
        dxi = sign_orbit(xi)[2]
        for fname in sorted(CATALOG):
            f = CATALOG[fname]
            bismut = girsanov._antithetic_gradient(f, g, gth, T, K, xi, [g, gt])[1]
            assert np.array_equal(bismut, 0.5 * (mirrored_bismut_column(f, g, gth, T, K, xi)
                                                 + mirrored_bismut_column(f, g, gth, T, K, dxi)))
            fd = girsanov._finite_diff_column(f, g, h, T, eps, xi)
            assert np.array_equal(fd, 0.5 * (mirrored_fd_column(f, g, h, T, eps, xi)
                                             + mirrored_fd_column(f, g, h, T, eps, dxi)))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["horizontal", "vertical", "mixed"]),
           fname=st.sampled_from(sorted(CATALOG)))
    def test_a_batch_of_one_equals_its_row(self, n, seed, kind, fname):
        rng = derive_rng(43, seed)
        g, gt = _pair(n, "mixed", seed)
        h = _direction(g, kind, int(rng.integers(n)), int(rng.integers(n * (n - 1) // 2)),
                       float(rng.uniform(0.1, 2.0)))
        gth = girsanov._direction_pair(g, h)
        K = n + int(rng.integers(2, 5))
        T = float(rng.uniform(0.25, 16.0))
        xi = rng.standard_normal((10, 3 * K + 2 + int(rng.integers(0, 6)), n))
        f = CATALOG[fname]
        vals, grad, u_sq = girsanov._antithetic_gradient(f, g, gth, T, K, xi, [g, gt])
        fd = girsanov._finite_diff_column(f, g, h, T, 1e-3, xi)
        for i in range(10):
            one = girsanov._antithetic_gradient(f, g, gth, T, K, xi[i:i + 1], [g, gt])
            assert np.array_equal(one[0], vals[:, i:i + 1])
            assert np.array_equal(one[1], grad[i:i + 1]) and np.array_equal(one[2], u_sq[i:i + 1])
            assert np.array_equal(girsanov._finite_diff_column(f, g, h, T, 1e-3, xi[i:i + 1]),
                                  fd[i:i + 1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("fname, kind", [
        ("constant", "horizontal"), ("constant", "vertical"), ("constant", "mixed"),
        ("coordinate-bump", "vertical"), ("sin-perturbation", "vertical"),
        ("gaussian-bump", "zero"), ("sin-perturbation", "zero")])
    def test_unmoved_functions_give_exactly_zero(self, n, fname, kind):
        # h = 0, a constant f, or an f of x alone along a vertical h, is zero on every row
        g, _ = _pair(n, "mixed", 60 + n)
        h = _direction(g, kind, 0, 0, 1.0)
        K = default_support_count(n)
        for est in (bismut_gradient(CATALOG[fname], g, h, 2.0, K, 3000, seed=61),
                    finite_diff_gradient(CATALOG[fname], g, h, 2.0, 1e-3, 3000, seed=62, K=K)):
            assert est.mean == 0.0 and est.stderr == 0.0


class TestGradientCost:
    """One batch of either gradient estimator: one draw, one area and one f call."""

    @staticmethod
    def _counted(monkeypatch, run, count, L, n):
        calls = {"solve": 0, "endpoint": 0, "f": 0, "normals": 0, "draws": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        class CountingRng:
            def __init__(self, rng):
                self._rng = rng

            def standard_normal(self, size):
                calls["draws"] += 1
                out = self._rng.standard_normal(size)
                calls["normals"] += out.size
                return out

        monkeypatch.setattr(coupling, "tsylvester_batch",
                            counting("solve", coupling.tsylvester_batch))
        monkeypatch.setattr(girsanov, "endpoint_packed",
                            counting("endpoint", girsanov.endpoint_packed))
        real_rng = mc.derive_rng
        monkeypatch.setattr(mc, "derive_rng", lambda *a: CountingRng(real_rng(*a)))
        f = CATALOG["gaussian-bump"]
        run(catalog.TestFunction(f.name, counting("f", f.fn), f.sup, f.min_value))
        assert (calls["draws"], calls["normals"]) == (1, count * L * n)
        return calls

    @pytest.mark.parametrize("n", [2, 3])
    def test_bismut_batch_makes_one_solve_one_endpoint_and_one_f_call(self, monkeypatch, n):
        g, _ = _pair(n, "mixed", 70 + n)
        h = _direction(g, "mixed", 0, 0, 0.5)
        K, k_path, count = n + 4, 40, 1000
        calls = self._counted(
            monkeypatch, lambda f: bismut_gradient(f, g, h, 1.0, K, count, 71, k_path=k_path),
            count, k_path + 1, n)
        assert (calls["solve"], calls["endpoint"], calls["f"]) == (1, 1, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_difference_batch_makes_one_endpoint_and_one_f_call(self, monkeypatch, n):
        g, _ = _pair(n, "mixed", 72 + n)
        h = _direction(g, "mixed", 0, 0, 0.5)
        K, k_path, count = n + 4, 40, 1000
        calls = self._counted(
            monkeypatch,
            lambda f: finite_diff_gradient(f, g, h, 1.0, 1e-3, count, 73, K=K, k_path=k_path),
            count, k_path + 1, n)
        assert (calls["solve"], calls["endpoint"], calls["f"]) == (0, 1, 1)


class TestTileMemory:
    def test_long_path_bismut_batch_peaks_below_half_its_coefficients(self):
        # one 16384-row rank-3 batch at k_path = 128 carries 48.4 MiB of coefficients;
        # drawn and evaluated in row tiles it never holds them all
        g, _ = _pair(3, "mixed", 74)
        h = _direction(g, "mixed", 0, 0, 0.5)
        run = lambda N: bismut_gradient(CATALOG["gaussian-bump"], g, h, 1.0, 12, N, 75,
                                        k_path=128)
        run(64)  # first-call caches, untraced
        tracemalloc.start()
        try:
            run(mc.BATCH_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * mc.BATCH_SIZE * 129 * 3 / 2


class TestExactGradients:
    """Bismut estimates against closed forms for test functions of x alone.

    X_T = x + sqrt(T) xi_0 exactly, so P_T f(g) depends on x alone:
    2 + sin(x_1) e^{-T/2} for sin-perturbation and exp(-x_1^2/(1+2T))/sqrt(1+2T)
    for coordinate-bump.  Along h the gradient is h_x . grad_x of these, and
    along a vertical h it is exactly 0.
    """

    EXACT_GRAD_X1 = {
        "sin-perturbation": lambda x1, T: math.cos(x1) * math.exp(-T / 2.0),
        "coordinate-bump": lambda x1, T: (-2.0 * x1 / (1.0 + 2.0 * T)
                                          * math.exp(-x1 ** 2 / (1.0 + 2.0 * T))
                                          / math.sqrt(1.0 + 2.0 * T)),
    }

    @staticmethod
    def _point(n, seed):
        rng = derive_rng(34, seed)
        p = n * (n - 1) // 2
        return CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))

    @pytest.mark.parametrize("fname", sorted(EXACT_GRAD_X1))
    @pytest.mark.parametrize("n, i, T", [(2, 0, 1.0), (2, 1, 4.0), (3, 0, 4.0), (3, 2, 1.0)])
    def test_horizontal_gradient_matches_the_closed_form(self, fname, n, i, T):
        g = self._point(n, 10 * n + i)
        est = bismut_gradient(CATALOG[fname], g, horizontal_direction(g, i), T,
                              default_support_count(n), 200_000, seed=40 + 10 * n + i)
        exact = self.EXACT_GRAD_X1[fname](g.x[0], T) if i == 0 else 0.0
        if i == 0:
            assert abs(est.mean - exact) <= 3.0 * est.stderr
            assert abs(est.mean) > 10.0 * est.stderr
        else:
            # f reads x_1 only and the reflection moves x_{i+1} only: every row is 0
            assert est.mean == 0.0 and est.stderr == 0.0

    @pytest.mark.parametrize("fname", sorted(EXACT_GRAD_X1))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vertical_gradient_is_exactly_zero(self, fname, n):
        g = self._point(n, n)
        for pair in range(n * (n - 1) // 2):
            est = bismut_gradient(CATALOG[fname], g, vertical_direction(n, pair), 1.0,
                                  default_support_count(n), 5000, seed=50 + pair)
            assert est.mean == 0.0 and est.stderr == 0.0


class TestFiniteDifference:
    def test_constant_function_exactly_zero(self):
        g = heis_to_carnot(HeisenbergPoint(0, 0, 0))
        h = horizontal_direction(g, 0)
        est = finite_diff_gradient(CATALOG["constant"], g, h, 1.0, 1e-3, 2000, seed=21)
        assert est.mean == 0.0

    def test_horizontal_function_blind_to_vertical_direction(self):
        # shared streams make the difference vanish pathwise, not just on average
        g = heis_to_carnot(HeisenbergPoint(0.5, 0.5, 0.0))
        h = vertical_direction(2, 0)
        est = finite_diff_gradient(CATALOG["coordinate-bump"], g, h, 1.0, 1e-3, 2000, seed=22)
        assert est.mean == 0.0 and est.stderr == 0.0

    @pytest.mark.parametrize("T, eps, rank, match", [
        (1.0, 0.0, 2, "step must be positive and finite, got 0.0"),
        (1.0, -1e-3, 2, "step must be positive and finite"),
        (1.0, math.inf, 2, "step must be positive and finite, got inf"),
        (1.0, math.nan, 2, "step must be positive and finite, got nan"),
        (math.nan, 1e-3, 2, "horizon must be positive and finite, got nan"),
        (math.inf, 1e-3, 2, "horizon must be positive and finite, got inf"),
        (-1.0, 1e-3, 2, "horizon must be positive and finite, got -1.0"),
        (1.0, 1e-3, 3, "dimension mismatch"),
    ])
    def test_invalid_input_rejected_before_any_draw(self, T, eps, rank, match, monkeypatch):
        draws = []
        derive = mc.derive_rng
        monkeypatch.setattr(mc, "derive_rng", lambda *a: draws.append(a) or derive(*a))
        g = heis_to_carnot(HeisenbergPoint(0, 0, 0))
        h = horizontal_direction(CarnotElement.identity(rank), 0)
        with pytest.raises(ValueError, match=match):
            finite_diff_gradient(CATALOG["constant"], g, h, T, eps, 100, seed=23)
        assert draws == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("fname", sorted(CATALOG))
    def test_stacked_starts_equal_separate_calls(self, n, fname):
        # the two start points share one endpoint call and one area; each row
        # equals the call from that start alone, bit for bit
        rng = derive_rng(32, n)
        p = n * (n - 1) // 2
        starts = [CarnotElement(rng.uniform(-1, 1, n), SkewMatrix(n, rng.uniform(-1, 1, p)))
                  for _ in range(2)]
        xi = rng.standard_normal((64, 3 * (2 * n + 1) + 2, n))
        f = CATALOG[fname]
        x = np.stack([s.x for s in starts])[:, None]
        z = np.stack([s.z.upper for s in starts])[:, None]
        stacked = f(*endpoint_packed(x, z, xi, 4.0))
        assert stacked.shape == (2, 64)
        for row, s in zip(stacked, starts):
            assert np.array_equal(row, f(*endpoint_packed(s.x, s.z.upper, xi, 4.0)))


class TestInequalities:
    def test_suite_passes_sin_perturbation(self):
        g, gt = hpair((0.3, -0.2, 0.1), (0.5, 0.0, 0.2))
        h = horizontal_direction(g, 0)
        rep = inequality_suite(CATALOG["sin-perturbation"], g, gt, h, 4.0, 100_000, seed=24)
        assert rep.all_passed
        names = {c.name for c in rep.checks}
        assert names == {"log-harnack", "reverse-poincare", "weak-log-sobolev"}

    def test_constant_function_saturates_log_harnack(self):
        # lhs = ln c and rhs = ln c + additive constant: slack is the constant
        g, gt = hpair((0, 0, 0), (0.4, 0.1, 0.1))
        h = horizontal_direction(g, 0)
        T = 4.0
        rep = inequality_suite(CATALOG["constant"], g, gt, h, T, 20_000, seed=25)
        lh = next(c for c in rep.checks if c.name == "log-harnack")
        slack = lh.rhs - lh.lhs
        assert slack == pytest.approx(entropy_bound_constant(g, gt, T), abs=1e-7)
        rp = next(c for c in rep.checks if c.name == "reverse-poincare")
        assert rp.lhs <= 1e-3  # gradient of a constant is zero up to noise

    def test_suite_positive_function_required_for_log_checks(self):
        g, gt = hpair((0, 0, 0), (0.4, 0.1, 0.1))
        h = horizontal_direction(g, 0)
        rep = inequality_suite(CATALOG["gaussian-bump"], g, gt, h, 4.0, 20_000, seed=26)
        names = {c.name for c in rep.checks}
        assert names == {"reverse-poincare"}

    def test_general_p_holder_variants(self):
        g, gt = hpair((0.3, -0.2, 0.1), (0.5, 0.0, 0.2))
        h = horizontal_direction(g, 0)
        rep = inequality_suite(CATALOG["sin-perturbation"], g, gt, h, 4.0, 60_000,
                               seed=30, K=10, p_values=(1.5, 4.0))
        names = {c.name for c in rep.checks}
        assert {"reverse-poincare-p1.5", "reverse-poincare-p4"} <= names
        assert rep.all_passed

    @pytest.mark.parametrize("ent", [0.3, 0.0])
    def test_weak_log_sobolev_sigma_has_the_units_of_its_rhs(self, ent):
        # every input scaled by c = 4 scales rhs and sigma by exactly c, on the
        # linearized branch (ent > 0) and on the envelope branch (rhs = 0)
        inputs = (ent, 0.02, 1.7, 0.05)
        rhs, sigma = _weak_log_sobolev_rhs(*inputs)
        rhs4, sigma4 = _weak_log_sobolev_rhs(*(4.0 * v for v in inputs))
        assert (rhs == 0.0) == (ent == 0.0)
        assert sigma > 0.0
        assert rhs4 == 4.0 * rhs and sigma4 == 4.0 * sigma

    def test_gradient_spotcheck_passes(self):
        g = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
        checks = gradient_sup_spotcheck(CATALOG["coordinate-bump"], [g], 1.0, 30_000, seed=27)
        assert all(c.passed for c in checks)
        # coordinate-bump reads x alone, so its vertical gradient is exactly 0
        assert (checks[0].vertical_norm, checks[0].vertical_sigma) == (0.0, 0.0)
        assert checks[0].horizontal_bound == pytest.approx(
            2 * (1 + 5 * math.sqrt(28) / (math.pi * math.sqrt(math.pi)))
            / math.sqrt(2 * math.pi), rel=1e-12
        )


class TestSupportCount:
    @staticmethod
    def _calls(T, K):
        g, gt = hpair((0, 0, 0), (0, 0, 1))
        h = horizontal_direction(g, 0)
        f = CATALOG["gaussian-bump"]
        return [
            lambda: girsanov_normalization_check(g, gt, T, K, 100, 1),
            lambda: semigroup_transfer_check(f, g, gt, T, K, 100, 1),
            lambda: bismut_gradient(f, g, h, T, K, 100, 1),
            lambda: inequality_suite(f, g, gt, h, T, 100, 1, K=K),
        ]

    @pytest.fixture
    def draws(self, monkeypatch):
        """Every `mc.derive_rng` call, which each batch's draw starts with."""
        calls = []
        derive = mc.derive_rng
        monkeypatch.setattr(mc, "derive_rng", lambda *a: calls.append(a) or derive(*a))
        return calls

    def test_every_estimator_rejects_too_few_blocks(self, draws):
        # K = 3 on rank 2 would draw and solve: rejected at entry all the same
        for call in self._calls(4.0, 1) + self._calls(4.0, 3):
            with pytest.raises(ValueError, match=r"K >= n \+ 2") as exc:
                call()
            assert not isinstance(exc.value, SingularGramError)
        assert draws == []

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_every_estimator_rejects_a_bad_horizon(self, T, draws):
        # neither a singular Gram system nor a math domain error: the horizon is named
        for call in self._calls(T, 8):
            with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {T}") as exc:
                call()
            assert not isinstance(exc.value, SingularGramError)
        assert draws == []

    def test_the_spy_sees_the_draws_of_a_valid_call(self, draws):
        for call in self._calls(4.0, 4):
            call()
        assert len(draws) >= 4


class TestSpotCheckSeeds:
    def _seeds(self, monkeypatch, points):
        seeds = []

        def fake_gradient(f, g, h, T, K, N, seed, workers=1, k_path=None):
            seeds.append(seed)
            return MCEstimate(0.0, 0.0, N, seed)

        monkeypatch.setattr(girsanov, "bismut_gradient", fake_gradient)
        gradient_sup_spotcheck(CATALOG["coordinate-bump"], points, 1.0, 10, seed=5)
        return seeds

    def test_distinct_across_points_and_unchanged_up_to_rank5(self, monkeypatch):
        g6 = CarnotElement(np.zeros(6), SkewMatrix(6, np.zeros(15)))
        seeds = self._seeds(monkeypatch, [g6, g6])
        assert len(seeds) == 2 * 21 and len(set(seeds)) == len(seeds)
        g5 = CarnotElement(np.zeros(5), SkewMatrix(5, np.zeros(10)))
        seeds = self._seeds(monkeypatch, [g5, g5])
        assert seeds == [split_seed(5, 16 * idx + j) for idx in range(2) for j in range(15)]


class TestDefaults:
    def test_default_support_count(self):
        assert default_support_count(2) == 5
        assert default_support_count(3) == 7
