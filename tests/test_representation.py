"""The shared-denominator representation of Polynomial and MomentForm:
every result is a canonical (nums, den) pair, equals what the kernel
primitives give on Rational coefficient tuples, hashes by value and prints
as before; the kernel primitives agree on int and Rational tuples; the
operator matrix stores only its band."""
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duorth import DiffOperator, MomentForm, Polynomial, Rational, eigen_mps
from duorth.backend import kernel
from duorth.forms import combine
from duorth.serialize import form_to_list, poly_to_list

from conftest import (OperatorMatrix, lambda_sums, operators, polynomials,
                      random_operator, rationals)

R = Rational


def forms(min_size=1, max_size=12):
    return st.lists(rationals(), min_size=min_size, max_size=max_size).map(MomentForm)


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.nums)
    assert gcd(x.den, *x.nums) == 1
    if isinstance(x, Polynomial) and x.nums:
        assert x.nums[-1] != 0
    if not any(x.nums):
        assert x.den == 1


def check(result, reference):
    """result is canonical and its boundary view equals reference."""
    assert_canonical(result)
    view = result.coeffs if isinstance(result, Polynomial) else result.moments
    assert view == tuple(reference)
    assert all(type(c) is Rational for c in view)


class TestPolynomialOps:
    @given(polynomials(), polynomials())
    @settings(max_examples=80, deadline=None)
    def test_ring_ops(self, p, q):
        a, b = p.coeffs, q.coeffs
        check(p + q, kernel.padd(a, b))
        check(p - q, kernel.psub(a, b))
        check(-p, kernel.pneg(a))
        check(p * q, kernel.pmul(a, b))

    @given(polynomials(), rationals())
    @settings(max_examples=80, deadline=None)
    def test_scalar_ops(self, p, s):
        check(p * s, kernel.pscale(p.coeffs, s))
        check(s * p, kernel.pscale(p.coeffs, s))
        check(p * 3, kernel.pscale(p.coeffs, 3))
        if s != 0:
            check(p / s, kernel.pscale(p.coeffs, 1 / s))

    @given(polynomials(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_derivative(self, p, order):
        check(p.derivative(order), kernel.pderiv(p.coeffs, order))

    @given(st.lists(rationals(), max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_constructor(self, coeffs):
        check(Polynomial(coeffs), kernel.pnorm(coeffs))

    @given(polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_equal_values_hash_equal(self, p, q):
        same = (p + q) - q
        assert same == p and hash(same) == hash(p)
        assert hash(Polynomial(p.coeffs)) == hash(p)

    def test_boundary_views(self):
        p = Polynomial([R(1, 2), R(-4, 6), 0, 3])
        assert (p.nums, p.den) == ((3, -4, 0, 18), 6)
        assert p[1] == R(-2, 3) and p[7] == 0 and p.leading() == 3
        assert list(p) == [R(1, 2), R(-2, 3), R(0), R(3)]
        assert (Polynomial.zero().nums, Polynomial.zero().den) == ((), 1)
        assert (p - p).den == 1 and (p * 0).den == 1


class TestMomentFormOps:
    @given(forms(), polynomials(4))
    @settings(max_examples=80, deadline=None)
    def test_left_mul_and_act(self, u, f):
        assume(f.degree <= u.order)
        if f.is_zero():
            check(u.left_mul(f), (0,) * (u.order + 1))
        else:
            check(u.left_mul(f), kernel.mleft(f.coeffs, u.moments))
        val = u.act(f)
        assert type(val) is Rational and val == kernel.mact(f.coeffs, u.moments)

    @given(forms(), forms(), rationals())
    @settings(max_examples=80, deadline=None)
    def test_linear_ops(self, u, v, s):
        n = min(u.order, v.order) + 1
        pairs = list(zip(u.moments[:n], v.moments[:n]))
        check(u + v, [a + b for a, b in pairs])
        check(u - v, [a - b for a, b in pairs])
        check(-u, [-a for a in u.moments])
        check(u * s, [a * s for a in u.moments])
        check(s * u, [a * s for a in u.moments])
        check(u.derivative(), kernel.mderive(u.moments))

    @given(forms(6), forms(6), polynomials(2), polynomials(2))
    @settings(max_examples=60, deadline=None)
    def test_combine(self, u, v, f, g):
        assume(not f.is_zero() and not g.is_zero())
        n = min(u.order - f.degree, v.order - g.degree)
        a = kernel.mleft(f.coeffs, u.moments)[: n + 1]
        b = kernel.mleft(g.coeffs, v.moments)[: n + 1]
        check(combine([(f, u), (g, v)]), [x + y for x, y in zip(a, b)])

    @given(forms(), forms())
    @settings(max_examples=60, deadline=None)
    def test_equal_values_hash_equal(self, u, v):
        same = (u + v) - v
        assume(same.order == u.order)
        assert same == u and hash(same) == hash(u)
        assert hash(MomentForm(u.moments)) == hash(u)

    def test_zero_form(self):
        z = MomentForm([0, R(0, 5), 0])
        assert (z.nums, z.den) == ((0, 0, 0), 1) and z == MomentForm.zero(2)


def test_shared_core_equality_is_type_strict():
    """A polynomial and a form with the same (nums, den) pair are unequal;
    equal values of one type are equal and hash alike."""
    p, u = Polynomial([R(1, 2), 3]), MomentForm([R(1, 2), 3])
    assert (p.nums, p.den) == (u.nums, u.den) == ((1, 6), 2)
    assert p != u and u != p
    assert Polynomial.from_pair((2, 12), 4) == p
    assert hash(Polynomial.from_pair((2, 12), 4)) == hash(p)
    assert MomentForm.from_pair((-2, -12), -4) == u
    assert hash(MomentForm.from_pair((-2, -12), -4)) == hash(u)
    assert -p == Polynomial([R(-1, 2), -3]) and -u == MomentForm([R(-1, 2), -3])
    assert type(-u) is MomentForm and type(3 * p) is Polynomial
    assert len({p, u, Polynomial([R(1, 2), 3]), MomentForm([R(1, 2), 3])}) == 2


def test_text_output_unchanged():
    p = Polynomial([R(1, 2), -3, R(4, 6), 0, 1])
    assert str(p) == "1/2 + (-3)x + (2/3)x^2 + x^4"
    assert repr(p) == "Polynomial([1/2, -3, 2/3, 0, 1])"
    assert poly_to_list(p) == ["1/2", "-3", "2/3", "0", "1"]
    assert str(Polynomial([0, 0, R(-5, 7)])) == "(-5/7)x^2"
    assert str(Polynomial([6, R(9, 3), -1])) == "6 + 3x + (-1)x^2"
    assert (str(Polynomial.zero()), repr(Polynomial.zero())) == ("0", "Polynomial([])")
    q = Polynomial([R(1, 2), 1]) * Polynomial([R(-2, 3), 0, R(3, 5)])
    assert repr(q) == "Polynomial([-1/3, -2/3, 3/10, 3/5])"
    assert str(q) == "-1/3 + (-2/3)x + (3/10)x^2 + (3/5)x^3"
    u = MomentForm([R(1, 2), 3, R(-7, 3), R(4, 8), 0, R(10, 4), 11, R(-1, 9)])
    assert repr(u) == "MomentForm([1/2, 3, -7/3, 1/2, 0, 5/2, ...], order=7)"
    assert form_to_list(u) == ["1/2", "3", "-7/3", "1/2", "0", "5/2", "11", "-1/9"]
    assert repr(MomentForm([0, 0, 0])) == "MomentForm([0, 0, 0], order=2)"
    assert repr(MomentForm([R(6, 4)])) == "MomentForm([3/2], order=0)"


ints = st.lists(st.integers(min_value=-50, max_value=50), max_size=8).map(tuple)


@given(ints, ints, st.integers(min_value=-9, max_value=9))
@settings(max_examples=80, deadline=None)
def test_kernel_agrees_on_int_and_rational_tuples(a, b, s):
    """The ring-generic primitives: the int results equal the Rational ones,
    the path the kernel micro-benchmark takes."""
    qa, qb = tuple(map(R, a)), tuple(map(R, b))
    assert kernel.pnorm(a) == kernel.pnorm(qa)
    assert kernel.padd(a, b) == kernel.padd(qa, qb)
    assert kernel.psub(a, b) == kernel.psub(qa, qb)
    assert kernel.pneg(a) == kernel.pneg(qa)
    assert kernel.pscale(a, s) == kernel.pscale(qa, R(s))
    assert kernel.pmul(a, b) == kernel.pmul(qa, qb)
    assert kernel.pderiv(a, 2) == kernel.pderiv(qa, 2)
    m, f = a + b + (1,), b[:3]
    assert kernel.mact(f, m) == kernel.mact(tuple(map(R, f)), tuple(map(R, m)))
    assert kernel.mleft(f, m) == kernel.mleft(tuple(map(R, f)), tuple(map(R, m)))
    assert kernel.mderive(m) == kernel.mderive(tuple(map(R, m)))


def test_operator_matrix_stores_its_band(sampler):
    """J.band is integers over J's common denominator."""
    for order in (3, 4):
        J = random_operator(sampler, order)
        M = OperatorMatrix(J, 30)
        assert M.den == J.integer_form()[1]
        assert all(type(e) is int for col in M.band for e in col)
        assert [len(col) for col in M.band] == [min(n, order) + 1 for n in range(31)]
        assert M.entry(0, 30) == 0
        assert M.entry(30 - order, 30) == R(M.band[30][order], M.den)
    M = OperatorMatrix(DiffOperator([]), 3)
    assert M.diagonal() == [0] * 4


@given(operators(), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_operator_matrix_diagonal_is_lambda_seq(J, n):
    """Two independent paths to lambda: the band's diagonal and the
    direct normalization sums."""
    assert OperatorMatrix(J, n).diagonal() == J.lambda_seq(0, n) == lambda_sums(J, 0, n)


@given(operators(), st.data())
@settings(max_examples=80, deadline=None)
def test_lambda_seq_is_a_band_superdiagonal(J, data):
    """lambda_seq(k, count) reads the k-th superdiagonal of J.band; it
    equals the direct sums for every k up to order + 1."""
    k = data.draw(st.integers(min_value=0, max_value=max(J.order, 0) + 1))
    count = data.draw(st.integers(min_value=0, max_value=10))
    assert J.lambda_seq(k, count) == lambda_sums(J, k, count)


@given(operators(), st.lists(st.integers(min_value=0, max_value=12),
                             min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_band_is_kept_and_extended(J, reads):
    """J keeps the longest band it has built: reads in any order equal the
    band of a fresh operator, as tuples, and a shorter read returns the
    kept columns themselves."""
    for n in reads:
        band = J.band(n)
        assert band == DiffOperator(J.a).band(n)
        assert type(band[0]) is tuple and all(type(col) is tuple for col in band[0])
    kept = J.band(max(reads))[0]
    assert all(a is b for a, b in zip(J.band(min(reads))[0], kept))


README_J = DiffOperator([Polynomial([2]), Polynomial([-1, 3]), Polynomial.zero(),
                         Polynomial([1])])


# the sizes of what each read returns: band columns, lambdas, (P, lambdas)
NEGATIVE_READS = {
    "band": lambda J, n: len(J.band(n)[0]),
    "lambda_seq": lambda J, n: len(J.lambda_seq(0, n)),
    "eigen_mps": lambda J, n: tuple(map(len, eigen_mps(J, n))),
}


@pytest.mark.parametrize("n_max", [-1, -3])
@pytest.mark.parametrize("read", NEGATIVE_READS)
def test_negative_reads_ignore_a_warm_band(read, n_max):
    """A negative degree reads nothing, whether or not the operator already
    keeps a longer band."""
    empty = (0, 0) if read == "eigen_mps" else 0
    assert NEGATIVE_READS[read](DiffOperator(README_J.a), n_max) == empty
    warm = DiffOperator(README_J.a)
    warm.band(10)
    assert NEGATIVE_READS[read](warm, n_max) == empty
