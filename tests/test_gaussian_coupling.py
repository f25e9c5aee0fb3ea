"""Reflection-maximal Gaussian coupling: marginals, meeting law, sharing."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling.gaussian_coupling import _erf, couple_to_shift, gaussian_tv
from carnot_coupling.mc import derive_rng, ks_test


def row_sums(X, shift):
    """<X, shift> and |shift|^2 per row, the two sums `couple_to_shift` reads."""
    return np.einsum("bd,bd->b", X, shift), np.einsum("bd,bd->b", shift, shift)


def coupled(X, shift, uniforms):
    """(X~, met) with X~ = X + c shift, from the scalars c of `couple_to_shift`."""
    c, met = couple_to_shift(*row_sums(X, shift), uniforms)
    return X + c[:, None] * shift, met


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
        with pytest.raises(ValueError):
            gaussian_tv(np.array([0.5, -0.1]))

    def test_array_is_elementwise(self):
        d = np.array([[0.0, 0.1, 1.0], [2.0, 5.0, 50.0]])
        assert np.array_equal(gaussian_tv(d), [[gaussian_tv(x) for x in row] for row in d])
        assert np.allclose(gaussian_tv(d), 2 * scipy.stats.norm.cdf(d / 2) - 1,
                           rtol=1e-14, atol=0)


def ulps(a, b):
    """Distance in units in the last place between same-signed float64 arrays."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


class TestErfKernel:
    """The numpy port of Cephes erf against scipy.special.erf, which runs the C original."""

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (3.0, 40.0)])
    def test_bit_for_bit_on_dense_grids(self, lo, hi):
        x = np.linspace(lo, hi, 1_000_001)
        assert np.array_equal(_erf(x), scipy.special.erf(x))

    def test_within_one_ulp_between(self):
        # numpy's exp may round exp(-x^2) 1 ulp away from libm's
        x = np.linspace(1.0, 3.0, 1_000_001)[1:-1]
        assert ulps(_erf(x), scipy.special.erf(x)).max() <= 1

    def test_exact_at_the_branch_points(self):
        one = 5.921587195794508  # the least x at which scipy's erf is 1.0
        x = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(one, 0.0), one, 8.0, np.inf])
        got = _erf(x)
        assert np.array_equal(got, scipy.special.erf(x))
        assert got[2] < 1.0 and got[3] == 1.0

    def test_nan_and_negative_zero_kept(self):
        got = _erf(np.array([np.nan, -0.0, 0.0]))
        assert np.isnan(got[0])
        assert got[1] == 0.0 and math.copysign(1.0, got[1]) == -1.0
        assert math.copysign(1.0, got[2]) == 1.0

    def test_shape_kept(self):
        delta = np.random.default_rng(8).uniform(0.0, 20.0, (3, 257))
        got = gaussian_tv(delta)
        assert got.shape == (3, 257)
        assert ulps(got, scipy.special.erf(delta / (2.0 * math.sqrt(2.0)))).max() <= 1
        assert isinstance(gaussian_tv(1.0), np.float64)


class TestMaximalCoupling:
    def test_zero_shift_always_meets(self):
        rng = derive_rng(1)
        X = rng.standard_normal((50, 2))
        c, met = couple_to_shift(*row_sums(X, np.zeros((50, 2))), rng.uniform(size=50))
        assert met.all() and np.array_equal(c, np.ones(50))

    def test_met_iff_exactly_shifted(self):
        rng = derive_rng(2)
        X = rng.standard_normal((500, 3))
        shift = np.tile([0.5, 0.0, 0.0], (500, 1))
        Xt, met = coupled(X, shift, rng.uniform(size=500))
        equal = np.all(Xt == X + shift, axis=1)
        assert np.array_equal(equal, met)
        assert met.any() and not met.all()

    def test_meeting_probability_matches_tv(self):
        rng = derive_rng(3)
        N, delta = 100_000, 1.0
        X = rng.standard_normal((N, 2))
        shift = np.tile([delta, 0.0], (N, 1))
        _, met = couple_to_shift(*row_sums(X, shift), rng.uniform(size=N))
        fail = 1.0 - met.mean()
        target = gaussian_tv(delta)
        se = math.sqrt(target * (1 - target) / N)
        assert abs(fail - target) <= 3 * se
        assert fail <= min(1.0, delta / math.sqrt(2 * math.pi)) + 3 * se

    def test_marginals_pass_ks(self):
        # X~ ~ N(0, I) whatever the shift
        rng = derive_rng(4)
        N = 100_000
        shift = np.array([0.7, 1.5])
        X = rng.standard_normal((N, 2))
        Xt, _ = coupled(X, np.tile(shift, (N, 1)), rng.uniform(size=N))
        for i in range(2):
            assert ks_test(X[:, i], scipy.stats.norm.cdf) > 0.01
            assert ks_test(Xt[:, i], scipy.stats.norm.cdf) > 0.01

    def test_orthogonal_components_shared(self):
        rng = derive_rng(5)
        N = 10_000
        X = rng.standard_normal((N, 3))
        shift = np.tile([0.8, 0.0, 0.0], (N, 1))
        Xt, met = coupled(X, shift, rng.uniform(size=N))
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
            # with shift = ma - mb, X~ - shift ~ N(mb - ma, I) meets X where X~ = X + shift
            rng = derive_rng(seed)
            X = rng.standard_normal((N, 2))
            shift = np.tile(ma - mb, (N, 1))
            Xt, met = coupled(X, shift, rng.uniform(size=N))
            return ma + X, ma + Xt - shift, met

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


def coupling_rows(seed, count, d, scale):
    """count rows X ~ N(0, I_d), shifts of size about `scale` (every third zero), uniforms."""
    rng = np.random.default_rng(seed)
    shift = scale * rng.standard_normal((count, d))
    shift[::3] = 0.0
    return rng.standard_normal((count, d)), shift, rng.uniform(size=count)


class TestOneScalarPerRow:
    """X~ = X + c shift, one scalar c per row."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 40), count=st.integers(1, 48), scale=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_of_one_equals_its_row(self, d, count, scale, seed):
        X, shift, uniforms = coupling_rows(seed, count, d, scale)
        dot, sq = row_sums(X, shift)
        c, met = couple_to_shift(dot, sq, uniforms)
        for i in range(count):
            alone, alone_met = couple_to_shift(dot[i:i + 1], sq[i:i + 1], uniforms[i:i + 1])
            assert alone[0] == c[i] and alone_met[0] == met[i]

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 40), count=st.integers(1, 48), scale=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_met_rows_are_exactly_shifted(self, d, count, scale, seed):
        X, shift, uniforms = coupling_rows(seed, count, d, scale)
        Xt, met = coupled(X, shift, uniforms)
        assert met[::3].all()
        assert np.array_equal(Xt[met], (X + shift)[met])

    @pytest.mark.parametrize("d", [1, 3, 22, 37])
    def test_matches_the_reflection_through_the_orthogonal_hyperplane(self, d):
        # reference: e = shift/|shift|, s = <X, e>, X~ = X - 2 s e off the met rows
        X, shift, uniforms = coupling_rows(d, 2000, d, 0.7)
        Xt, met = coupled(X, shift, uniforms)
        delta = np.linalg.norm(shift, axis=1)
        e = shift / np.where(delta > 0, delta, 1.0)[:, None]
        s = np.sum(X * e, axis=1)
        assert np.array_equal(met, (np.log(uniforms) <= -s * delta - 0.5 * delta ** 2)
                              | (delta == 0))
        assert not met.all()
        ref = np.where(met[:, None], X + shift, X - 2.0 * s[:, None] * e)
        assert np.allclose(Xt, ref, rtol=0.0, atol=1e-13 * (1.0 + np.max(np.abs(ref))))
