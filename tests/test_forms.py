"""Moment forms: action, left-multiplication, distributional derivative,
order bookkeeping."""
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duorth import (DiffOperator, MomentForm, Polynomial, Rational,
                    check_dual_identities, classical_system_check, dual_sequence,
                    eigen_mps, fit_2orth_recurrence, intermediates,
                    j_expansion_check, lemma_identities_check, phi_theorem4)
from duorth.errors import IdentityViolated, OrderExceeded
from duorth.forms import require_equal
from duorth.poly import X

from conftest import polynomials, rationals

R = Rational


def form(moments):
    return MomentForm(moments)


class TestAct:
    def test_constant(self):
        assert form([1, 0, 0]).act(Polynomial.constant(5)) == 5

    def test_linear_combination(self):
        # moments [1,2,3], p = x^2 - x  ->  3 - 2 = 1
        assert form([1, 2, 3]).act(Polynomial([0, -1, 1])) == 1

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            form([1, 2]).act(Polynomial.monomial(2))

    def test_zero_polynomial(self):
        assert form([4, 5]).act(Polynomial.zero()) == 0


class TestLeftMul:
    def test_identity(self):
        u = form([1, 2, 3])
        v = u.left_mul(Polynomial([1]))
        assert v.order == 2 and v.moments == u.moments

    def test_shift_by_x(self):
        v = form(["1", "2", "3"]).left_mul(X)
        assert v.order == 1 and v.moments == (R(2), R(3))

    def test_x_minus_two(self):
        # f = x - 2 on moments [1, 2, 5] -> [0, 1]
        v = form([1, 2, 5]).left_mul(Polynomial([-2, 1]))
        assert v.moments == (R(0), R(1))

    def test_zero_poly_keeps_order(self):
        v = form([1, 2, 5]).left_mul(Polynomial.zero())
        assert v.order == 2 and v.is_zero()

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            form([1, 2]).left_mul(Polynomial.monomial(3))


class TestDerivative:
    def test_first(self):
        assert form([1, 0, 0]).derivative().moments == (R(0), R(-1), R(0))

    def test_twice(self):
        u = form([1, 0, 0, 0]).derivative().derivative()
        assert u.moments == (R(0), R(0), R(2), R(0))

    def test_zero_form(self):
        z = MomentForm.zero(3).derivative()
        assert z.is_zero() and z.order == 3

    def test_order_zero_input(self):
        assert form([7]).derivative().moments == (R(0),)


class TestEqualUpTo:
    """require_equal: exact moment-wise equality up to an order."""

    def test_identical(self):
        u = form([1, 2, 3])
        require_equal(u, u, 2, "same")

    def test_truncation_semantics(self):
        u, v = form([1, 2, 3, 9]), form([1, 2, 3, -9])
        require_equal(u, v, 2, "prefix")

    def test_difference(self):
        with pytest.raises(IdentityViolated) as err:
            require_equal(form([1, 2]), form([1, 3]), 1, "diff")
        assert err.value.tag == "diff" and err.value.where == "moment 1"

    def test_out_of_range(self):
        with pytest.raises(OrderExceeded):
            require_equal(form([1, 2]), form([1, 2]), 5, "deep")


@given(polynomials(3), st.lists(rationals(), min_size=21, max_size=21))
@settings(max_examples=50, deadline=None)
def test_product_rule_on_forms(p, moments):
    # D(p u) = p' u + p D(u), reliable to order 20 - deg p - 1
    u = MomentForm(moments)
    if p.is_zero():
        return
    upto = 20 - int(p.degree) - 1
    lhs = u.left_mul(p).derivative()
    rhs = u.left_mul(p.derivative()) + u.derivative().left_mul(p)
    require_equal(lhs, rhs, upto, "product rule")


@given(polynomials(2), polynomials(2), st.lists(rationals(), min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_left_mul_composes(f, g, moments):
    u = MomentForm(moments)
    fg = f * g
    if fg.is_zero():
        return
    assert u.left_mul(fg).moments == u.left_mul(g).left_mul(f).moments


@given(polynomials(4), st.lists(rationals(), min_size=10, max_size=10))
@settings(max_examples=50, deadline=None)
def test_derivative_duality(p, moments):
    # <Du, p> = -<u, p'>
    u = MomentForm(moments)
    if p.degree >= len(moments):
        return
    assert u.derivative().act(p) == -u.act(p.derivative())


def test_scalar_and_sum_ops():
    u, v = form([1, 2]), form([3, 4, 5])
    assert (u + v).order == 1
    assert (2 * u).moments == (R(2), R(4))
    assert (-u).moments == (R(-1), R(-2))
    assert (u - u).is_zero()




@pytest.fixture(scope="module")
def theorem4_instance():
    """The intermediates of the README's theorem-4 operator and its fitted
    recurrence, its classical system and its duals u_0..u_5 to order 16."""
    J = DiffOperator([Polynomial([2]), Polynomial([-1, 3]), Polynomial.zero(),
                      Polynomial([1])])
    P, _ = eigen_mps(J, 17)
    it = intermediates(J, fit_2orth_recurrence(P))
    return SimpleNamespace(it=it, system=phi_theorem4(it), duals=dual_sequence(P, 5, 16))


# each check, run so that it asks its duals for order `need`
ORDER_GUARDED = {
    "check_dual_identities": lambda x, need: check_dual_identities(x.it.rc, x.duals, need - 1),
    "j_expansion_check": lambda x, need: j_expansion_check(x.it, x.duals, need - 4),
    "lemma_identities_check": lambda x, need: lemma_identities_check(x.it, x.duals, need - 4),
    "classical_system_check": lambda x, need: classical_system_check(x.system, x.duals,
                                                                     need - 3),
}


@pytest.mark.parametrize("check", ORDER_GUARDED)
def test_duals_one_order_short_are_refused(theorem4_instance, check):
    """Duals of order 16 are refused one order above it and accepted at it."""
    with pytest.raises(OrderExceeded, match=r"^duals must carry order >= 17$"):
        ORDER_GUARDED[check](theorem4_instance, 17)
    ORDER_GUARDED[check](theorem4_instance, 16)
