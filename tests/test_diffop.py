"""Operator action, transposes of J^(m), transpose duality, Leibniz rules,
lowering-order classification, lambda scalars, image sequences."""
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chain_apply, chain_transpose_apply, jimage_mps,
                      operators, polynomials, random_mps, random_operator,
                      rationals)
from duorth import (DiffOperator, MomentForm, Polynomial, Rational,
                    dual_sequence, eigen_mps, forms, poly)
from duorth.errors import OrderExceeded
from duorth.forms import require_equal
from duorth.poly import ONE, X

R = Rational


def op(*coeff_lists):
    return DiffOperator([Polynomial(c) for c in coeff_lists])


D = op([], [1])
IDENT = op([1])
EULER = op([1], [0, 1])  # I + x D


def rand_iso(sampler, max_order=3):
    """Random normal-form operator with nonzero lambda diagonal."""
    while True:
        J = random_operator(sampler, max_order)
        if J.order < 0:
            continue
        lams = J.lambda_seq(0, 14)
        if all(v != 0 for v in lams):
            return J


class TestBinomialActions:
    """apply and transpose_apply against the derivative-chain references,
    on normal-form operators J, the transposes of their shifts J^(m) (whose
    coefficient degrees may exceed nu) and the zero operator."""

    @given(operators(), st.integers(min_value=0, max_value=3),
           polynomials(9), st.lists(rationals(), min_size=24, max_size=24),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=120, deadline=None)
    def test_matches_derivative_chain(self, J, m, p, moments, extra):
        assert J.apply(p) == chain_apply(J.a, p)
        a = J.a[m:]
        top = max((c.degree for c in a if not c.is_zero()), default=0)
        need = max(len(a) - 1, 0) + top
        for order in (need, need + extra):
            u = MomentForm(moments[: order + 1])
            got = J.transpose_apply(u, m)
            assert got == chain_transpose_apply(a, u)
            assert got.order == u.order - top

    def test_kernel_seam(self, monkeypatch, sampler):
        """One poly.pmul per nonzero a_nu with nu <= deg p and one
        forms.mleft per nonzero a_nu, through the module globals that
        perfbench's tracer wraps."""
        calls = {"pmul": 0, "mleft": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)
        counted(poly, "pmul")
        counted(forms, "mleft")
        for _ in range(10):
            J, m = random_operator(sampler, 5), sampler.rng.randint(0, 2)
            p = sampler.poly(sampler.rng.randint(0, 4))
            u = MomentForm([sampler.rat() for _ in range(20)])
            calls.update(pmul=0, mleft=0)
            J.apply(p)
            assert calls["pmul"] == sum(1 for nu, a in enumerate(J.a)
                                        if nu <= p.degree and not a.is_zero())
            J.transpose_apply(u, m)
            assert calls["mleft"] == sum(1 for a in J.a[m:] if not a.is_zero())


class TestApply:
    def test_plain_derivative(self):
        assert D.apply(Polynomial.monomial(3)) == Polynomial([0, 0, 3])

    def test_euler_operator(self):
        assert EULER.apply(Polynomial.monomial(2)) == 3 * Polynomial.monomial(2)

    def test_third_order_top_coefficient(self, sampler):
        # coefficient of x^3 in J(x^3) is a0^[0] + 3 a1^[1] + 3 a2^[2] + a3^[3]
        for _ in range(5):
            J = random_operator(sampler, 3)
            image = J.apply(Polynomial.monomial(3))
            want = (J.coef(0, 0) + 3 * J.coef(1, 1) + 3 * J.coef(2, 2)
                    + J.coef(3, 3))
            assert image[3] == want

    def test_never_raises_degree(self, sampler):
        for _ in range(5):
            J = random_operator(sampler, 3)
            p = sampler.poly(6)
            assert J.apply(p).degree <= max(p.degree, 0)


class TestNormalForm:
    def test_rejects_wide_coefficients(self):
        with pytest.raises(ValueError):
            op([0, 1], [1])  # deg a_0 = 1 > 0

    def test_strips_zero_tail(self):
        J = DiffOperator([ONE, X, Polynomial.zero()])
        assert J.order == 1


class TestShifted:
    def test_zero_shift_is_identity(self):
        J = op([1], [2, 3], [1, 0, 2])
        u = MomentForm([1, 2, 3, 4, 5, 6])
        assert J.transpose_apply(u, 0) == J.transpose_apply(u)
        assert J.transpose_apply(u) == chain_transpose_apply(J.a, u)

    def test_shift_three_multiplies_by_a3(self, sampler):
        a3 = sampler.poly(3)
        J = DiffOperator([ONE, X, Polynomial.zero(), a3])
        u = MomentForm([sampler.rat() for _ in range(12)])
        assert J.transpose_apply(u, 3).moments == u.left_mul(a3).moments

    def test_shift_past_order_is_zero(self):
        J = op([1], [0, 1], [], [1, 0, 0, 1])
        u = MomentForm([1, 2, 3])
        z = J.transpose_apply(u, 4)
        assert z.is_zero() and z.order == u.order

    def test_negative_shift_raises(self):
        J = op([1], [0, 1], [], [1, 0, 0, 1])
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            J.transpose_apply(MomentForm([1, 2, 3, 4, 5, 6, 7]), -1)


class TestTranspose:
    def test_identity_operator(self):
        u = MomentForm([1, 2, 3])
        assert IDENT.transpose_apply(u).moments == u.moments

    def test_duality(self, sampler):
        # <tJ(u), f> = <u, J(f)> on random draws
        for _ in range(60):
            J = random_operator(sampler, 3)
            u = MomentForm([sampler.rat() for _ in range(14)])
            f = sampler.poly(5)
            left = J.transpose_apply(u)
            if f.degree > left.order:
                continue
            assert left.act(f) == u.act(J.apply(f))

    def test_first_shift_expansion(self, sampler):
        # J^(1)(u) = a1 u - D(a2 u) + (1/2) D^2(a3 u)
        for _ in range(10):
            a1, a2, a3 = sampler.poly(1), sampler.poly(2), sampler.poly(3)
            J = DiffOperator([Polynomial([sampler.rat()]), a1, a2, a3])
            u = MomentForm([sampler.rat() for _ in range(16)])
            built = J.transpose_apply(u, 1)
            manual = (u.left_mul(a1) - u.left_mul(a2).derivative()
                      + R(1, 2) * u.left_mul(a3).derivative().derivative())
            require_equal(built, manual, min(built.order, manual.order), "J^(1)")

    def test_order_precondition(self):
        J = op([1], [0, 1], [], [0, 0, 0, 1])
        with pytest.raises(OrderExceeded):
            J.transpose_apply(MomentForm([1, 2, 3]))


class TestClassify:
    def test_derivative_k1(self):
        cls = D.classify_order(8)
        assert cls.k == 1
        assert list(cls.lambdas) == [n + 1 for n in range(9)]

    def test_identity_k0(self):
        cls = IDENT.classify_order(8)
        assert cls.k == 0 and all(v == 1 for v in cls.lambdas)

    def test_third_order_lambdas(self):
        # a0 = 1, a1 = 2x: lambda = 1, 3, 5, ...
        J = op([1], [0, 2])
        cls = J.classify_order(6)
        assert cls.k == 0
        assert list(cls.lambdas[:3]) == [R(1), R(3), R(5)]

    def test_degree_condition_fails(self):
        J = op([], [1], [0, 0, 1])  # deg a_2 = 2 > 2 - 1
        cls = J.classify_order(4)
        assert not cls.classified and "deg" in cls.reason

    def test_zero_lambda_fails(self):
        J = op([1], [0, -1])  # lambda_1 = 1 - 1 = 0
        cls = J.classify_order(4)
        assert not cls.classified and "lambda" in cls.reason

    def test_zero_operator(self):
        cls = DiffOperator([]).classify_order(4)
        assert not cls.classified

    def test_lambda_matches_leading_coefficient(self, sampler):
        for _ in range(10):
            J = rand_iso(sampler)
            lams = J.lambda_seq(0, 12)
            for n in range(13):
                assert J.apply(Polynomial.monomial(n))[n] == lams[n]

    def test_iso_iff_degree_preserved(self, sampler):
        for _ in range(20):
            J = random_operator(sampler, 3)
            if J.order < 0:
                continue
            cls = J.classify_order(10)
            preserved = all(J.apply(Polynomial.monomial(n)).degree == n
                            for n in range(11))
            assert (cls.k == 0) == preserved


class TestJImage:
    def test_derivative_on_monomials(self):
        P = [Polynomial.monomial(n) for n in range(8)]
        assert jimage_mps(D, P, 1) == P[:7]

    def test_identity_fixed_point(self):
        P = [Polynomial.monomial(n) for n in range(6)]
        assert jimage_mps(IDENT, P, 0) == P

    def test_eigen_fixed_point(self, sampler):
        J = op([2], [-1, 3], [], [1])
        P, lam = eigen_mps(J, 10)
        assert jimage_mps(J, P.polys, 0) == list(P.polys)


class TestLeibniz:
    def test_product_of_polynomials(self, sampler):
        # J(fg) = sum_n J^(n)(f) g^(n)/n!, and with f, g exchanged
        for _ in range(20):
            J = random_operator(sampler, 3)
            f, g = sampler.poly(4), sampler.poly(3)
            lhs = J.apply(f * g)
            for a, b in ((f, g), (g, f)):
                acc = Polynomial.zero()
                d = b
                for n in range(J.order + max(int(b.degree), 0) + 2):
                    if n > 0:
                        d = d.derivative()
                    if d.is_zero() and n > 0:
                        break
                    acc = acc + chain_apply(J.a[n:], a) * d / factorial(n)
                assert acc == lhs

    def test_product_with_form_third_order(self, sampler):
        # J(fu) = f J(u) - f' J^(1)(u) + (1/2) f'' J^(2)(u) - (1/6) f''' J^(3)(u)
        for _ in range(10):
            J = random_operator(sampler, 3)
            f = sampler.poly(3)
            if f.is_zero():
                f = f + ONE
            u = MomentForm([sampler.rat() for _ in range(20)])
            lhs = J.transpose_apply(u.left_mul(f))
            rhs = J.transpose_apply(u).left_mul(f)
            sign = -1
            for n in range(1, 4):
                term = J.transpose_apply(u, n).left_mul(f.derivative(n))
                rhs = rhs + sign * R(1, factorial(n)) * term
                sign = -sign
            require_equal(lhs, rhs, min(lhs.order, rhs.order), "Leibniz")


class TestDualTransport:
    def test_image_dual_transport(self, sampler):
        # J(u~_n) = lambda_{n+k} u_{n+k} for the image sequence duals
        for k in (0, 1, 2):
            J = rand_lowering(sampler, k)
            P = random_mps(sampler, 12)
            Pt = jimage_mps(J, P, k)
            duals = dual_sequence(P, 8, 11)
            duals_t = dual_sequence(Pt, 8, len(Pt) - 1)
            lams = J.lambda_seq(k, 8)
            for n in range(4):
                lhs = J.transpose_apply(duals_t[n])
                rhs = lams[n] * duals[n + k]
                require_equal(lhs, rhs, min(lhs.order, rhs.order, 7), "transport")
                for m in range(8):
                    p = P[m]
                    if p.degree <= lhs.order:
                        want = lams[n] if m == n + k else R(0)
                        assert lhs.act(p) == want


def rand_lowering(sampler, k):
    while True:
        J = random_operator(sampler, 3, lowering=k)
        lams = J.lambda_seq(k, 14)
        if all(v != 0 for v in lams):
            return J
