"""Operator matrix, eigen solving, and verification; uniqueness is
cross-checked by an independent exact Gaussian-elimination solve."""
import pytest

from duorth import (DiffOperator, Polynomial, Rational, eigen_mps,
                    operator_matrix, verify_eigen)
from duorth.errors import IdentityViolated, NonInvertible, RepeatedEigenvalue
from duorth.poly import ONE

R = Rational


def op(*coeff_lists):
    return DiffOperator([Polynomial(c) for c in coeff_lists])


EULER = op([1], [0, 1])


def rand_admissible(sampler, n_max, order=3):
    """Random operator of the given order with nonzero, pairwise-distinct
    lambdas."""
    while True:
        J = sampler.operator(order)
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
        M = operator_matrix(op([1]), 5)
        for t in range(6):
            for n in range(6):
                assert M.entry(t, n) == (1 if t == n else 0)

    def test_euler_diagonal(self):
        M = operator_matrix(EULER, 6)
        assert M.diagonal() == [R(n + 1) for n in range(7)]
        for t in range(7):
            for n in range(t + 1, 7):
                assert M.entry(t, n) == 0

    def test_matches_apply(self, sampler):
        # the closed double-sum formula against the independent apply() path;
        # orders 4 and 5 reach further below the diagonal than order 3
        for order, draws in ((3, 20), (4, 5), (5, 5)):
            for _ in range(draws):
                J = sampler.operator(order)
                assert J.order == order
                M = operator_matrix(J, 9)
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
            M = operator_matrix(J, 8)
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
            assert J.jimage_mps(P.polys, 0) == list(P.polys)


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
