"""Monic eigenpolynomial sequences of degree-preserving operators.

The operator acts on the monomial basis as an upper-triangular matrix in
the degree grading; the diagonal carries the lambda scalars. A normal-form
operator of order r maps x^n into span(x^{n-r}, .., x^n), so only the band
n - r <= tau <= n can be nonzero. For pairwise distinct, nonzero lambdas
the monic eigenpolynomials exist, are unique, and come out of a banded
triangular back-substitution: O(r N^2) steps for degrees up to N.
"""
from __future__ import annotations

from math import comb

from .backend import Rat as Rational
from .diffop import DiffOperator
from .errors import NonInvertible, RepeatedEigenvalue
from .poly import Polynomial
from .two_orth import MPSPrefix

__all__ = ["OperatorMatrix", "operator_matrix", "eigen_mps", "verify_eigen"]


class OperatorMatrix:
    """Entries M[tau][n] = coefficient of x^tau in J(x^n), 0 <= tau <= n <= n_max."""

    __slots__ = ("n_max", "rows")

    def __init__(self, n_max: int, rows):
        self.n_max = n_max
        self.rows = rows

    def entry(self, tau: int, n: int) -> Rational:
        return self.rows[tau][n]

    def diagonal(self) -> list:
        return [self.rows[n][n] for n in range(self.n_max + 1)]


def operator_matrix(J: DiffOperator, n_max: int) -> OperatorMatrix:
    """Build the matrix from the closed monomial-image expansion
    M[tau][n] = sum_{nu<=tau} C(n, nu) a_{tau-nu}^[n-nu]  (tau <= n),
    independently of DiffOperator.apply. A term needs n - nu <= J.order,
    so only the band n - J.order <= tau <= n is filled; the rest is zero."""
    if J.shifted_form:
        raise ValueError("operator_matrix requires a normal-form operator")
    zero = Rational(0)
    rows = [[zero] * (n_max + 1) for _ in range(n_max + 1)]
    for n in range(n_max + 1):
        low = max(0, n - J.order)
        for tau in range(low, n + 1):
            acc = zero
            for nu in range(low, tau + 1):
                c = J.coef(tau - nu, n - nu)
                if c != 0:
                    acc = acc + comb(n, nu) * c
            rows[tau][n] = acc
    return OperatorMatrix(n_max, rows)


def eigen_mps(J: DiffOperator, n_max: int):
    """Solve J(P_n) = lambda_n P_n for the monic eigenpolynomials.

    Requires all lambda_n nonzero (NonInvertible otherwise) and pairwise
    distinct up to n_max (RepeatedEigenvalue otherwise: the monic
    eigenpolynomial of degree n would not be guaranteed unique).
    Returns (MPSPrefix, [lambda_0..lambda_n_max]). The back-substitution
    reads only the band of operator_matrix: M[tau][m] = 0 for m > tau + J.order.
    """
    M = operator_matrix(J, n_max)
    lam = M.diagonal()
    for n in range(n_max + 1):
        if lam[n] == 0:
            raise NonInvertible(n)
        for m in range(n):
            if lam[m] == lam[n]:
                raise RepeatedEigenvalue(n, m)
    polys = []
    for n in range(n_max + 1):
        coeffs = [Rational(0)] * (n + 1)
        coeffs[n] = Rational(1)
        for tau in range(n - 1, -1, -1):
            acc = Rational(0)
            for m in range(tau + 1, min(n, tau + J.order) + 1):
                e = M.rows[tau][m]
                if e != 0 and coeffs[m] != 0:
                    acc = acc + e * coeffs[m]
            coeffs[tau] = acc / (lam[n] - lam[tau])
        polys.append(Polynomial(coeffs))
    return MPSPrefix(polys), lam


def verify_eigen(J: DiffOperator, P, lambdas) -> bool:
    """True iff J(P_n) = lambda_n P_n exactly for every n in range."""
    for n in range(len(P)):
        if J.apply(P[n]) != lambdas[n] * P[n]:
            return False
    return True
