"""Group algebra: exact identities on rationals, float properties at 1e-12."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot_coupling.groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    carnot_inv,
    carnot_mul,
    dilate,
    heis_to_carnot,
    odot,
    zeta,
)

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
)


def hpoint(x1, x2, z):
    """The Heisenberg point (x1, x2, z) as a rank-2 element, kept exact for Fractions."""
    return CarnotElement(np.array([x1, x2], dtype=object),
                         SkewMatrix(2, np.array([z], dtype=object)))


def coords(g):
    return (*g.x, *g.z.upper)


class TestHeisenbergProduct:
    """The group law at rank 2, which is the Heisenberg group."""

    def test_identity_element(self):
        assert coords(carnot_mul(hpoint(0, 0, 0), hpoint(1, 2, 3))) == (1, 2, 3)
        assert coords(carnot_mul(hpoint(1, 2, 3), hpoint(0, 0, 0))) == (1, 2, 3)

    def test_basic_product(self):
        assert coords(carnot_mul(hpoint(1, 0, 0), hpoint(0, 1, 0))) == (1, 1, 0.5)

    def test_inverse_cancels(self):
        assert coords(carnot_mul(hpoint(1, 2, 3), hpoint(-1, -2, -3))) == (0, 0, 0)

    @given(rationals, rationals, rationals)
    def test_inverse_is_negation_exact(self, x1, x2, z):
        g = hpoint(x1, x2, z)
        assert coords(carnot_mul(g, carnot_inv(g))) == (0, 0, 0)
        assert coords(carnot_mul(carnot_inv(g), g)) == (0, 0, 0)

    @settings(max_examples=200)
    @given(st.tuples(*[rationals] * 9))
    def test_associativity_exact_on_rationals(self, coords9):
        a = hpoint(*coords9[0:3])
        b = hpoint(*coords9[3:6])
        c = hpoint(*coords9[6:9])
        assert coords(carnot_mul(carnot_mul(a, b), c)) == coords(carnot_mul(a, carnot_mul(b, c)))


class TestSkewMatrix:
    def test_pack_unpack_antisymmetric_exactly(self):
        rng = np.random.default_rng(0)
        s = SkewMatrix(4, rng.standard_normal(6))
        m = s.to_matrix()
        assert np.array_equal(m, -m.T)
        assert np.array_equal(SkewMatrix.from_matrix(m).upper, s.upper)

    def test_hs_norm_duplication_factor(self):
        s = SkewMatrix(3, np.array([1.0, 2.0, 2.0]))
        assert s.hs_norm() == pytest.approx(math.sqrt(2 * 9), rel=1e-15)
        assert s.hs_norm() == pytest.approx(
            np.linalg.norm(s.to_matrix()), rel=1e-14
        )

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            SkewMatrix(3, np.zeros(2))


class TestOdot:
    def test_canonical_basis(self):
        m = odot([1, 0], [0, 1]).to_matrix()
        assert np.array_equal(m, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_self_bracket_vanishes(self):
        assert np.array_equal(odot([3.0, -1.0, 2.0], [3.0, -1.0, 2.0]).upper, np.zeros(3))

    def test_hand_computed_entries(self):
        s = odot([1.0, 2.0, 0.0], [0.0, 1.0, 1.0])
        assert np.allclose(s.upper, [1.0, 1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            odot([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(st.lists(rationals, min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3),
           rationals)
    def test_bilinear_antisymmetric_exact(self, u, v, w, c):
        u, v, w = (np.array(t, dtype=object) for t in (u, v, w))
        left = odot(u * c + w, v).upper
        right = odot(u, v).upper * c + odot(w, v).upper
        assert all(a == b for a, b in zip(left, right))
        assert all(a == -b for a, b in zip(odot(u, v).upper, odot(v, u).upper))

    def test_norm_on_orthogonal_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            v -= (v @ u) / (u @ u) * u
            expect = math.sqrt(2.0) * np.linalg.norm(u) * np.linalg.norm(v)
            assert odot(u, v).hs_norm() == pytest.approx(expect, rel=1e-12)


class TestCarnotProduct:
    def test_identity(self):
        g = CarnotElement(np.array([1.0, 2.0, 3.0]), SkewMatrix(3, np.array([1.0, 0.0, -2.0])))
        e = CarnotElement.identity(3)
        got = carnot_mul(e, g)
        assert np.array_equal(got.x, g.x) and np.array_equal(got.z.upper, g.z.upper)

    def test_inverse(self):
        g = CarnotElement(np.array([1.0, -2.0]), SkewMatrix(2, np.array([0.5])))
        got = carnot_mul(g, carnot_inv(g))
        assert np.array_equal(got.x, np.zeros(2))
        assert np.array_equal(got.z.upper, np.zeros(1))

    def test_matches_heisenberg_example(self):
        a = CarnotElement(np.array([1.0, 0.0]), SkewMatrix.zero(2))
        b = CarnotElement(np.array([0.0, 1.0]), SkewMatrix.zero(2))
        got = carnot_mul(a, b)
        assert np.array_equal(got.x, [1.0, 1.0])
        assert got.z.upper[0] == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            carnot_mul(CarnotElement.identity(2), CarnotElement.identity(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_associativity_float(self, n):
        rng = np.random.default_rng(n)
        p = n * (n - 1) // 2
        for _ in range(1000):
            a, b, c = (
                CarnotElement(rng.uniform(-2, 2, n), SkewMatrix(n, rng.uniform(-2, 2, p)))
                for _ in range(3)
            )
            left = carnot_mul(carnot_mul(a, b), c)
            right = carnot_mul(a, carnot_mul(b, c))
            scale = 1.0 + max(np.max(np.abs(left.x)), np.max(np.abs(left.z.upper)))
            assert np.max(np.abs(left.x - right.x)) <= 1e-12 * scale
            assert np.max(np.abs(left.z.upper - right.z.upper)) <= 1e-12 * scale

    def test_embedding_commutes_with_product(self):
        # the scalar Heisenberg product of the embedded points
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = HeisenbergPoint(*rng.uniform(-3, 3, 3))
            b = HeisenbergPoint(*rng.uniform(-3, 3, 3))
            got = carnot_mul(heis_to_carnot(a), heis_to_carnot(b))
            expect = (a.x1 + b.x1, a.x2 + b.x2, a.z + b.z + (a.x1 * b.x2 - a.x2 * b.x1) / 2)
            assert np.allclose(coords(got), expect, atol=1e-14)


class TestDilation:
    def test_dilation_definition(self):
        g = CarnotElement(np.array([1.0, 1.0]), SkewMatrix(2, np.array([1.0])))
        got = dilate(2.0, g)
        assert np.array_equal(got.x, [2.0, 2.0]) and got.z.upper[0] == 4.0

    def test_unit_dilation_is_identity(self):
        g = CarnotElement(np.array([1.0, -2.0, 0.5]), SkewMatrix(3, np.array([0.1, 0.2, 0.3])))
        got = dilate(1.0, g)
        assert np.array_equal(got.x, g.x) and np.array_equal(got.z.upper, g.z.upper)

    def test_composition_law(self):
        rng = np.random.default_rng(9)
        g = CarnotElement(rng.standard_normal(3), SkewMatrix(3, rng.standard_normal(3)))
        lam, mu = 0.7, 2.3
        a = dilate(lam, dilate(mu, g))
        b = dilate(lam * mu, g)
        assert np.allclose(a.x, b.x, rtol=1e-14) and np.allclose(a.z.upper, b.z.upper, rtol=1e-14)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            dilate(0.0, CarnotElement.identity(2))
        with pytest.raises(ValueError):
            dilate(-1.0, hpoint(0, 0, 0))


class TestZeta:
    def test_equal_points(self):
        g = CarnotElement(np.array([1.0, 2.0]), SkewMatrix(2, np.array([3.0])))
        assert np.array_equal(zeta(g, g).upper, np.zeros(1))

    def test_shared_horizontal_part(self):
        x = np.array([1.0, -1.0, 2.0])
        g = CarnotElement(x, SkewMatrix.zero(3))
        zt = SkewMatrix(3, np.array([0.5, -0.25, 1.0]))
        assert np.array_equal(zeta(g, CarnotElement(x, zt)).upper, zt.upper)

    def test_heisenberg_scalar_case(self):
        assert zeta(hpoint(0, 0, 0), hpoint(1, 1, 1)).upper[0] == 1.0

    def test_is_vertical_part_of_quotient(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g = CarnotElement(rng.standard_normal(3), SkewMatrix(3, rng.standard_normal(3)))
            gt = CarnotElement(rng.standard_normal(3), SkewMatrix(3, rng.standard_normal(3)))
            quotient = carnot_mul(carnot_inv(g), gt)
            assert np.allclose(zeta(g, gt).upper, quotient.z.upper, atol=1e-13)
