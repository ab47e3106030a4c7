"""Rational scalars and dense polynomials: normalization, exact arithmetic,
ring axioms, derivative rules."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duorth import MINUS_INF, Polynomial, Rational, dual_pairs
from duorth.poly import ONE, X

from conftest import polynomials, rationals

R = Rational


class TestRational:
    def test_normalized(self):
        r = R(6, -4)
        assert r.numerator == -3 and r.denominator == 2

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            R(1, 0)

    def test_string_forms(self):
        assert str(R(3, 4)) == "3/4"
        assert str(R(-8, 2)) == "-4"
        assert R("3/4") == R(3, 4)
        assert R("-5") == R(-5)

    @given(rationals(), rationals())
    def test_field_ops(self, a, b):
        assert a + b - b == a
        if b != 0:
            assert (a / b) * b == a
        assert a * b == b * a

    @given(rationals())
    def test_parse_round_trip(self, a):
        assert R(str(a)) == a

    @given(st.integers(min_value=-120, max_value=120),
           st.integers(min_value=1, max_value=90))
    def test_always_normalized(self, n, d):
        from math import gcd
        r = R(n, d)
        assert r.denominator > 0
        assert gcd(abs(r.numerator), r.denominator) == 1

    def test_int_mixing(self):
        assert 1 + R(1, 2) == R(3, 2)
        assert 2 / R(1, 3) == 6
        assert R(1, 2) ** -2 == 4


class TestPolynomial:
    def test_zero_normalization(self):
        assert Polynomial([0, 0, 0]).coeffs == ()
        assert Polynomial([]).is_zero()

    def test_degree_sentinel(self):
        z = Polynomial.zero()
        assert z.degree == MINUS_INF
        assert z.degree < 0
        with pytest.raises(TypeError):
            [1, 2][z.degree]  # the sentinel must not be usable as an index

    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1

    def test_add_cancellation(self):
        # (x+1) + (x-1) = 2x
        assert Polynomial([1, 1]) + Polynomial([-1, 1]) == Polynomial([0, 2])

    def test_mul_annihilator(self):
        beta0 = R(7, 3)
        assert (X - Polynomial.constant(beta0)) * Polynomial.zero() == Polynomial.zero()

    def test_exact_fractions(self):
        # (1/2 + x) * 1/3 = 1/6 + (1/3) x
        p = Polynomial([R(1, 2), 1]) * R(1, 3)
        assert p == Polynomial([R(1, 6), R(1, 3)])

    def test_derivative_basic(self):
        assert Polynomial.monomial(3).derivative() == Polynomial([0, 0, 3])
        assert Polynomial.constant(R(5, 7)).derivative().is_zero()
        assert Polynomial.monomial(3).derivative(4).is_zero()

    def test_degree_drop_exact(self):
        p = Polynomial([1, 2, 3, 4])
        assert p.derivative(2).degree == 1

    def test_second_derivative_of_E2(self, sampler):
        # E_2 has degree 2 with leading coefficient 1/(gamma1 gamma3)
        for _ in range(3):
            rc = sampler.recurrence(6)
            e2 = dual_pairs(rc, 4)[4][0]
            want = 2 / (rc.gamma(1) * rc.gamma(3))
            assert e2.derivative(2) == Polynomial.constant(want)

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p

    @given(polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()

    @given(polynomials())
    @settings(max_examples=40, deadline=None)
    def test_derivative_composes(self, p):
        for j, k in ((1, 1), (2, 1), (1, 3)):
            assert p.derivative(j + k) == p.derivative(j).derivative(k)

    def test_mul_degree_adds(self):
        p, q = Polynomial([1, 1, 1]), Polynomial([R(1, 2), 0, 0, 1])
        assert (p * q).degree == p.degree + q.degree

    def test_monic(self):
        assert (X + ONE).is_monic()
        assert not (2 * X).is_monic()
        with pytest.raises(ValueError):
            Polynomial.zero().leading()
