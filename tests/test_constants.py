"""Closed-form constants and the weighted chi-square special functions."""

import math

import numpy as np
import pytest
from scipy.special import zeta

from carnot_coupling.mc import derive_rng
from carnot_coupling.special_constants import (
    c3,
    carnot_constants,
    constants_table,
    exp_moment_series,
    gaussian_abs_moment,
    heisenberg_constants,
    remark2_c2_head,
    remark2_constant,
    remark2_gamma,
    s_h_inverse_moment,
    s_h_inverse_moment_bound,
    s_h_laplace,
    s_h_series_tail,
)

SQRT_2PI = math.sqrt(2 * math.pi)


class TestHeisenbergConstants:
    def test_proof_stage_values(self):
        c1, c2 = heisenberg_constants("proof-stage")
        assert c2 == pytest.approx(math.sqrt(22.5), rel=1e-15)
        assert c1 == pytest.approx((1 + math.sqrt(30)) / SQRT_2PI, rel=1e-15)

    def test_improved_values(self):
        c1, c2 = heisenberg_constants("improved")
        assert c2 == pytest.approx(5 * math.sqrt(21) / (math.pi * math.sqrt(math.pi)), rel=1e-15)
        assert c1 == pytest.approx(
            (1 + 5 * math.sqrt(28) / (math.pi * math.sqrt(math.pi))) / SQRT_2PI, rel=1e-15
        )

    def test_improved_strictly_smaller(self):
        p1, p2 = heisenberg_constants("proof-stage")
        i1, i2 = heisenberg_constants("improved")
        assert i2 < p2 and i1 < p1

    def test_c1_from_c2_relation(self):
        for variant in ("proof-stage", "improved"):
            c1, c2 = heisenberg_constants(variant)
            assert c1 == pytest.approx(1 / SQRT_2PI + math.sqrt(2 / (3 * math.pi)) * c2,
                                       rel=1e-14)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            heisenberg_constants("optimal")


class TestCarnotConstants:
    def test_rank_four_value(self):
        _, c2 = carnot_constants(4)
        assert c2 == pytest.approx(14.0 / math.sqrt(math.pi), rel=1e-15)

    def test_c1_c2_relation(self):
        for n in range(2, 8):
            c1, c2 = carnot_constants(n)
            assert c1 - 1 / SQRT_2PI == pytest.approx(
                math.sqrt(2 * (n - 1) / 3) * c2, rel=1e-14
            )

    def test_rank_two_dominates_heisenberg_after_norm_conversion(self):
        # the vertical rank-2 norm is sqrt(2) times the scalar one
        c1n, c2n = carnot_constants(2)
        c1h, c2h = heisenberg_constants("proof-stage")
        assert c2n * math.sqrt(2) > c2h
        assert c1n > c1h

    def test_low_rank_rejected(self):
        with pytest.raises(ValueError):
            carnot_constants(1)


class TestC3:
    def test_values(self):
        assert c3(2) == 3200
        assert c3(3) == 12168

    def test_alternative_form(self):
        for n in range(2, 7):
            assert c3(n) == pytest.approx(n * n * (2 * math.sqrt(2) * (3 * n + 4)) ** 2,
                                          rel=1e-14)

    def test_low_rank_rejected(self):
        with pytest.raises(ValueError):
            c3(1)


class TestInverseMoments:
    def test_h1_a1_is_zeta_three(self):
        val = s_h_inverse_moment(1.0, 1.0, terms=400_000)
        assert val == pytest.approx(3.5 * zeta(3.0), rel=1e-9)

    def test_tail_estimate_controls_truncation(self):
        lo = s_h_inverse_moment(1.0, 1.0, terms=2_000)
        hi = s_h_inverse_moment(1.0, 1.0, terms=400_000)
        assert abs(hi - lo) <= s_h_series_tail(1.0, 1.0, 2_000)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_h1_bound(self, a):
        assert s_h_inverse_moment(1.0, a, terms=200_000) <= s_h_inverse_moment_bound(a)

    def test_half_half_bound(self):
        val = s_h_inverse_moment(0.5, 0.5, terms=400_000)
        assert val <= 2 * math.sqrt(2) + math.sqrt(2) / 2

    def test_mc_oracle_agreement(self):
        # gamma-series sample of the weighted chi-square sum, 2000 terms
        rng = derive_rng(55)
        N, L, h, a = 50_000, 2_000, 1.0, 1.0
        ell = np.arange(1, L + 1)
        s = (2 / math.pi ** 2) * (rng.gamma(h, size=(N, L)) / ell ** 2).sum(axis=1)
        vals = s ** (-a)
        est, se = vals.mean(), vals.std() / math.sqrt(N)
        series = s_h_inverse_moment(h, a, terms=200_000)
        # truncating the sum at L inflates the inverse moment by about a*E[tail]*E[S^-a-1]
        bias = 2 * h / (math.pi ** 2 * L) * a * (series / (h / 3))
        assert abs(est - series) <= 3 * se + bias

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            s_h_inverse_moment(0.0, 1.0)
        with pytest.raises(ValueError):
            s_h_inverse_moment(1.0, 1.0, terms=0)


class TestLaplaceTransform:
    def test_value_at_zero(self):
        assert s_h_laplace(0.0, 1.0) == 1.0

    def test_monotone_decreasing(self):
        vals = [s_h_laplace(lam, 0.5) for lam in (0.0, 0.1, 0.5, 1.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_lambda_slope_is_mean(self):
        # E[S_h] = h/3, read off from the transform at 0
        for h in (0.5, 1.0, 2.0):
            eps = 1e-7
            slope = (1.0 - s_h_laplace(eps, h)) / eps
            assert slope == pytest.approx(h / 3.0, rel=1e-5)

    def test_closed_form_value(self):
        x = math.sqrt(2.0)
        assert s_h_laplace(1.0, 1.0) == pytest.approx(x / math.sinh(x), rel=1e-14)

    def test_mc_agreement(self):
        rng = derive_rng(56)
        N, L, h, lam = 50_000, 2_000, 1.0, 1.0
        ell = np.arange(1, L + 1)
        s = (2 / math.pi ** 2) * (rng.gamma(h, size=(N, L)) / ell ** 2).sum(axis=1)
        vals = np.exp(-lam * s)
        est, se = vals.mean(), vals.std() / math.sqrt(N)
        bias = lam * 2 * h / (math.pi ** 2 * L)  # truncated tail inflates exp(-lam S)
        assert abs(est - s_h_laplace(lam, h)) <= 3 * se + bias


class TestExpMomentSeries:
    def test_value_at_zero(self):
        assert exp_moment_series(0.0, 0.5, 2, 1.0) == 1.0

    def test_monotone_in_lambda(self):
        vals = [exp_moment_series(lam, 0.5, 2, 1.0) for lam in (0.01, 0.05, 0.1)]
        assert vals[0] < vals[1] < vals[2]

    def test_finite_with_ratio_certificate(self):
        val = exp_moment_series(0.1, 0.5, 2, 1.0)
        assert math.isfinite(val) and val > 1.0

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            exp_moment_series(0.1, 1.0, 2, 1.0)


class TestRemark2:
    def test_gamma(self):
        assert remark2_gamma() == pytest.approx(1.0 / 42.0, rel=1e-15)

    def test_head_of_ladder(self):
        assert remark2_c2_head(6) == pytest.approx(
            [1 / 42, 1 / 90, 1 / 234, 1 / 330, 1 / 570, 1 / 714], rel=1e-14
        )

    def test_value_consistent_with_improved_c2(self):
        # 5 sqrt(42)/pi divided by sqrt(2 pi) reproduces 5 sqrt(21)/(pi sqrt(pi))
        _, c2 = heisenberg_constants("improved")
        assert remark2_constant() / SQRT_2PI == pytest.approx(c2, rel=1e-14)


class TestGaussianAbsMoment:
    def test_unit_variance(self):
        assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_normal_mean(self):
        assert gaussian_abs_moment(1.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)

    def test_fourth_moment(self):
        assert gaussian_abs_moment(4.0) == pytest.approx(3 ** 0.25, rel=1e-14)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            gaussian_abs_moment(0.5)


class TestConstantsTable:
    def test_every_entry_reproduces(self):
        table = constants_table()
        assert len(table) >= 15
        for entry in table:
            err = abs(entry.value - entry.reference()) / max(abs(entry.value), 1.0)
            assert err <= 1e-14, entry.name

    def test_has_improved_c2(self):
        values = {e.name: e.value for e in constants_table()}
        assert values["heis_C2_improved"] == pytest.approx(
            5 * math.sqrt(21) / (math.pi * math.sqrt(math.pi)), rel=1e-15
        )
