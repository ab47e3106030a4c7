"""When a moment form is reduced: form arithmetic keeps its unreduced
integer pair, and the one reduction to the canonical pair runs when that
pair is first read. The identity checks compare unreduced pairs, so a
passing verdict reduces none of the forms they build, and a lazy result
reads exactly as the same result built from canonical forms."""
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duorth import (DiffOperator, MomentForm, ParamSampler, Polynomial,
                    Rational, forms, hahn, pipelines, run_identities_rc,
                    run_theorem4, two_orth)
from duorth.errors import IdentityViolated, OrderExceeded
from duorth.forms import combine, require_equal

from conftest import operators, polynomials, rationals

R = Rational

# J_sq: a passing theorem-4 operator whose a_3 = (1 - 2x)^2 reaches J^(1) and J^(2)
J_SQ = DiffOperator([Polynomial([R(1, 3)]), Polynomial([2, -2]), Polynomial.zero(),
                     Polynomial([1, -4, 4])])
CHECKS = ("_recurrence_checks", "j_expansion_check", "lemma_identities_check",
          "classical_system_check")


@pytest.fixture
def reductions(monkeypatch):
    """Count the form reductions made while counting is on, which it is
    while a check in CHECKS runs, and keep every form the checks compare."""
    counted = {"on": False, "count": 0, "compared": []}
    reduce_pair, from_pair = forms.qreduce, MomentForm.from_pair.__func__

    def counting_reduce(nums, den):
        counted["count"] += counted["on"]
        return reduce_pair(nums, den)

    def counting_from_pair(cls, nums, den):
        counted["count"] += counted["on"]
        return from_pair(cls, nums, den)

    def keeping_require_equal(lhs, rhs, upto, tag):
        counted["compared"] += [lhs, rhs]
        return require_equal(lhs, rhs, upto, tag)

    def in_check(check):
        def run(*args, **kwargs):
            counted["on"] = True
            try:
                return check(*args, **kwargs)
            finally:
                counted["on"] = False
        return run

    monkeypatch.setattr(forms, "qreduce", counting_reduce)
    monkeypatch.setattr(MomentForm, "from_pair", classmethod(counting_from_pair))
    monkeypatch.setattr(hahn, "require_equal", keeping_require_equal)
    monkeypatch.setattr(two_orth, "_require_equal", keeping_require_equal)
    for name in CHECKS:
        monkeypatch.setattr(pipelines, name, in_check(getattr(pipelines, name)))
    return counted


def assert_canonical(u):
    assert u.den > 0 and gcd(u.den, *u.nums) == 1
    if not any(u.nums):
        assert u.den == 1


@pytest.mark.parametrize("run", [
    lambda: run_theorem4(J_SQ, moment_order=28, check_order=14),
    lambda: run_identities_rc(ParamSampler(20250808).recurrence(22),
                              moment_order=20, check_order=8),
], ids=["theorem4-j-sq", "identities-rc"])
def test_passing_checks_reduce_no_form(reductions, run):
    assert run().status == pipelines.PASSED
    assert reductions["count"] == 0
    compared = reductions["compared"]
    assert len(compared) > 20
    # reading a compared result reduces it to its canonical pair, which
    # it keeps: later reads and later arithmetic reuse it, so each form
    # is reduced at most once
    reductions["on"] = True
    for u in compared:
        assert_canonical(u)
        assert u._raw == (u.nums, u.den)
    assert 0 < reductions["count"] <= len({id(u) for u in compared})


def _chain(u, v, f, g, s, subtract, J, m, canonical):
    """The steps combine -> derivative -> scalar * -> +/- -> transpose_apply;
    with canonical, each step reads a MomentForm rebuilt from the moments
    of the step before."""
    fresh = (lambda w: MomentForm(w.moments)) if canonical else (lambda w: w)
    steps = [combine([(f, fresh(u)), (g, fresh(v))])]
    steps.append(fresh(steps[-1]).derivative())
    steps.append(fresh(steps[-1]) * s)
    steps.append(fresh(steps[-1]) - fresh(v) if subtract else fresh(steps[-1]) + fresh(u))
    try:
        steps.append(J.transpose_apply(fresh(steps[-1]), m))
    except OrderExceeded:
        pass
    return steps


def _outcome(lhs, rhs, upto):
    try:
        require_equal(lhs, rhs, upto, "chain")
    except IdentityViolated as exc:
        return exc.tag, exc.where, exc.lhs, exc.rhs
    return None


forms_of = st.lists(rationals(), min_size=8, max_size=14).map(MomentForm)


@given(u=forms_of, v=forms_of, f=polynomials(2), g=polynomials(2),
       s=rationals(), subtract=st.booleans(), J=operators(3),
       m=st.integers(min_value=0, max_value=2), bump=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_lazy_chain_reads_as_eager(u, v, f, g, s, subtract, J, m, bump):
    u2 = u + MomentForm([0] * bump + [1] + [0] * (u.order - bump))
    lazy = _chain(u, v, f, g, s, subtract, J, m, canonical=False)
    other = _chain(u2, v, f, g, s, subtract, J, m, canonical=False)
    # require_equal first, while both sides hold their unreduced pairs
    upto = min(lazy[-1].order, other[-1].order)
    got = _outcome(lazy[-1], other[-1], upto)
    eager = _chain(u, v, f, g, s, subtract, J, m, canonical=True)
    assert len(lazy) == len(eager)
    for a, b in zip(lazy, eager):
        assert a.order == b.order
        assert a == b and hash(a) == hash(b)
        assert a.moments == b.moments
        assert_canonical(a)
    assert got == _outcome(MomentForm(lazy[-1].moments),
                           MomentForm(other[-1].moments), upto)
