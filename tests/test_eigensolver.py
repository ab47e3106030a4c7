"""Operator matrix, eigen solving, and verification; uniqueness is
cross-checked by an independent exact Gaussian-elimination solve."""
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duorth import (DiffOperator, ParamSampler, Polynomial, Rational,
                    dual_sequence, eigen_mps, verify_eigen)
from duorth.errors import (IdentityViolated, NonInvertible, NotTwoOrthogonal,
                           OrderExceeded, RepeatedEigenvalue)
from duorth.poly import ONE, X
from duorth.two_orth import (MPSPrefix, check_biorthogonality,
                             fit_2orth_recurrence, structure_row)

from conftest import (OperatorMatrix, apply_matrix, eigen_reference,
                      jimage_mps, operators, random_operator)

R = Rational


def op(*coeff_lists):
    return DiffOperator([Polynomial(c) for c in coeff_lists])


EULER = op([1], [0, 1])


def rand_admissible(sampler, n_max, order=3):
    """Random operator of the given order with nonzero, pairwise-distinct
    lambdas."""
    while True:
        J = random_operator(sampler, order)
        lams = J.lambda_seq(0, n_max)
        if all(v != 0 for v in lams) and len(set(lams)) == len(lams):
            return J


def gauss_solve(A, b):
    """Exact Gaussian elimination with partial pivoting; A square, b vector."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [a - factor * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


class TestOperatorMatrix:
    def test_identity(self):
        M = OperatorMatrix(op([1]), 5)
        for t in range(6):
            for n in range(6):
                assert M.entry(t, n) == (1 if t == n else 0)

    def test_euler_diagonal(self):
        M = OperatorMatrix(EULER, 6)
        assert M.diagonal() == [R(n + 1) for n in range(7)]
        for t in range(7):
            for n in range(t + 1, 7):
                assert M.entry(t, n) == 0

    def test_matches_apply(self, sampler):
        # the closed double-sum formula against the independent apply() path;
        # orders 4 and 5 reach further below the diagonal than order 3
        for order, draws in ((3, 20), (4, 5), (5, 5)):
            for _ in range(draws):
                J = random_operator(sampler, order)
                assert J.order == order
                M = OperatorMatrix(J, 9)
                for n in range(10):
                    image = J.apply(Polynomial.monomial(n))
                    for t in range(n + 1):
                        assert M.entry(t, n) == image[t]


class TestEigenMps:
    def test_euler(self):
        P, lam = eigen_mps(EULER, 6)
        assert list(P) == [Polynomial.monomial(n) for n in range(7)]
        assert lam == [R(n + 1) for n in range(7)]

    def test_identity_repeated(self):
        with pytest.raises(RepeatedEigenvalue) as err:
            eigen_mps(op([1]), 4)
        assert err.value.n == 1 and err.value.m == 0

    def test_non_invertible(self):
        with pytest.raises(NonInvertible) as err:
            eigen_mps(op([], [0, 1]), 4)  # a = x D: lambda_0 = 0
        assert err.value.n == 0

    def test_round_trip(self, sampler):
        for _ in range(50):
            J = rand_admissible(sampler, 12)
            P, lam = eigen_mps(J, 12)
            assert verify_eigen(J, P, lam) is None

    def test_unique_vs_gaussian_oracle(self, sampler):
        for order in (3,) * 5 + (4, 4, 5, 5):
            J = rand_admissible(sampler, 8, order)
            M = OperatorMatrix(J, 8)
            P, lam = eigen_mps(J, 8)
            for n in range(1, 9):
                # rows 0..n-1 of (M - lambda_n I) p = 0 with p_n = 1
                A = [[M.entry(t, m) - (lam[n] if t == m else 0)
                      for m in range(n)] for t in range(n)]
                b = [-M.entry(t, n) for t in range(n)]
                sol = gauss_solve(A, b)
                assert sol == list(P[n].coeffs[:n])

    def test_consistency_with_jimage(self, sampler):
        for _ in range(5):
            J = rand_admissible(sampler, 10)
            P, _ = eigen_mps(J, 10)
            assert jimage_mps(J, P.polys, 0) == list(P.polys)


class TestVerifyEigen:
    def test_wrong_lambda(self):
        P = [Polynomial.monomial(n) for n in range(4)]
        with pytest.raises(IdentityViolated, match="eigen-relation violated at n=1:"):
            verify_eigen(op([1], [1]), P, [R(1)] * 4)

    def test_perturbed_coefficient(self):
        P, lam = eigen_mps(EULER, 5)
        polys = list(P)
        polys[3] = polys[3] + ONE
        with pytest.raises(IdentityViolated, match="eigen-relation violated at n=3:"):
            verify_eigen(EULER, polys, lam)

    def test_accepts_valid(self):
        P, lam = eigen_mps(EULER, 5)
        assert verify_eigen(EULER, P, lam) is None


def _isomorphism(J, N):
    """J + c + K x D with the least integers c, K >= 0 that make
    lambda_0..lambda_N nonzero and pairwise distinct (K x D adds n K to
    lambda_n, c adds c), so that J has an eigen-MPS to N."""
    lam = J.lambda_seq(0, N)
    bad = {(lam[i] - lam[j]) / (j - i) for j in range(N + 1) for i in range(j)}
    K = next(K for K in count() if K not in bad)
    lam = [v + K * n for n, v in enumerate(lam)]
    c = next(c for c in count() if -c not in lam)
    a = list(J.a) + [Polynomial.zero()] * (2 - len(J.a))
    return DiffOperator([a[0] + Polynomial.constant(c), a[1] + K * X] + a[2:])


def _theorem_draws(N):
    """The first operator of every theorem-4 and theorem-5 shape at seed 7."""
    sampler, draws = ParamSampler(7), {}
    while len(draws) < 6:
        for kind, draw in (("t4", sampler.sample_theorem4(N)),
                           ("t5", sampler.sample_theorem5(N))):
            draws.setdefault(f"{kind}-{draw['shape']}", draw["J"])
    return sorted(draws.items())


class TestTransportCertificate:
    """The duals of an eigen-MPS are built by the eigen transport
    J^T u_k = lambda_k u_k (two_orth._transport_duals), and that
    construction is their certificate: on isomorphisms of random operators
    and on every sampler shape, 2-orthogonal or not (t4-generic-cubic and
    t5-linear-a2 are not), they equal the duals that the structure rows of
    the same polynomials give without J, and pairing accepts them."""

    @staticmethod
    def check(J, k_max, N):
        P, _ = eigen_mps(J, N)
        duals, plain = dual_sequence(P, k_max, N), MPSPrefix(P.polys)
        assert duals == dual_sequence(plain, k_max, N)
        check_biorthogonality(plain, duals, N)

    @given(operators().map(lambda J: _isomorphism(J, 12)), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_operators(self, J, k_max):
        self.check(J, k_max, 12)

    @pytest.mark.parametrize("shape, J", _theorem_draws(16),
                             ids=[name for name, _ in _theorem_draws(16)])
    def test_sampler_shapes(self, shape, J):
        self.check(J, 5, 16)

    def test_repeated_lambda_refused(self):
        # lambda_n = n^2 - 13n + 1 repeats first at lambda_7 = lambda_6: a
        # prefix to 6 carries J and its duals, one to 7 is never built, so
        # no factor lambda_n - lambda_k of the recurrence is ever 0
        J = op([1], [1, -12], [0, 0, 2])
        self.check(J, 5, 6)
        with pytest.raises(RepeatedEigenvalue):
            eigen_mps(J, 7)

    def test_short_duals_rejected(self):
        P, _ = eigen_mps(EULER, 8)
        with pytest.raises(OrderExceeded):
            dual_sequence(P, 5, 9)  # P_9 missing
        with pytest.raises(OrderExceeded):
            dual_sequence(P, 9, 8)  # k_max > N


def _fit(P):
    """fit_2orth_recurrence(P), or its witness (index, reason)."""
    try:
        return fit_2orth_recurrence(P)
    except NotTwoOrthogonal as exc:
        return exc.index, exc.reason


class TestRecurrencePass:
    """eigen_mps builds P by its structure rows while they are four-term and
    back-substitutes the rest. Against a reference that solves J.apply's
    matrix over Rationals without J.band: the same P and lambdas, the rows
    it keeps are the structure rows of P, they stop exactly before the
    first row that is not four-term, and the fit reads the same recurrence
    or names the same witness."""

    @staticmethod
    def check(J, N):
        P, lam = eigen_mps(J, N)
        assert (list(P), lam) == eigen_reference(apply_matrix(J, N))
        fresh = MPSPrefix(P.polys)
        rows = [structure_row(fresh, k) for k in range(N)]
        failing = next((k for k, row in enumerate(rows)
                        if any(j < k - 2 for j, _ in row)), N)
        assert P._rows == tuple(rows[:failing])
        assert _fit(P) == _fit(MPSPrefix(P.polys))

    @given(operators().map(lambda J: _isomorphism(J, 12)))
    @settings(max_examples=60, deadline=None)
    def test_random_operators(self, J):
        self.check(J, 12)

    @pytest.mark.parametrize("shape, J", _theorem_draws(24),
                             ids=[name for name, _ in _theorem_draws(24)])
    def test_sampler_shapes(self, shape, J):
        self.check(J, 24)

    def test_corrupted_band_is_back_substituted(self, monkeypatch):
        # 1 added to M[11][12] of the README theorem-4 operator: P_0..P_11
        # keep their values, row 11 is no longer four-term, and every degree
        # must be the back-substitution of the corrupted band; P_12 built
        # from row 11's top three terms alone would differ
        band = DiffOperator.band

        def corrupted(J, n_max):
            cols, den = band(J, n_max)
            if len(cols) > 12:
                c = cols[12]
                cols = cols[:12] + ((c[0], c[1] + 1) + c[2:],) + cols[13:]
            return cols, den
        monkeypatch.setattr(DiffOperator, "band", corrupted)
        J = op([2], [-1, 3], [], [1])
        P, lam = eigen_mps(J, 20)
        M = OperatorMatrix(J, 20)
        assert (list(P), lam) == eigen_reference(
            [[M.entry(t, m) for m in range(21)] for t in range(21)])
        assert len(P._rows) == 11
