"""Exact string/tree serialization round trips; floating point is refused."""
import pytest

from conftest import random_operator
from duorth import MomentForm, Polynomial, Rational
from duorth.serialize import (form_to_list, operator_from_tree,
                              operator_to_tree, poly_from_list, poly_to_list,
                              rat_from_str, rat_to_str, rc_from_tree,
                              rc_to_tree)

R = Rational


def test_rational_round_trip():
    for s in ("3/4", "-7", "0", "-12/5"):
        assert rat_to_str(rat_from_str(s)) == s


def test_rational_rejects_floats():
    with pytest.raises(ValueError):
        rat_from_str(1.5)


def test_poly_round_trip(sampler):
    p = sampler.poly(5)
    assert poly_from_list(poly_to_list(p)) == p
    assert poly_to_list(Polynomial.zero()) == []


def test_operator_round_trip(sampler):
    J = random_operator(sampler, 3)
    tree = operator_to_tree(J)
    assert operator_from_tree(tree) == J
    # tree entry [nu][i] is the coefficient of x^i in a_nu
    for nu, row in enumerate(tree):
        for i, item in enumerate(row):
            assert rat_from_str(item) == J.coef(i, nu)


def test_rc_round_trip(sampler):
    rc = sampler.recurrence(6)
    tree = rc_to_tree(rc)
    assert set(tree) == {"beta", "alpha", "gamma"}
    assert rc_from_tree(tree) == rc


def test_form_to_list():
    u = MomentForm([R(1, 2), 3, R(-7, 3)])
    assert form_to_list(u) == ["1/2", "3", "-7/3"]
