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
from .errors import IdentityViolated, NonInvertible, RepeatedEigenvalue
from .poly import Polynomial
from .two_orth import MPSPrefix

__all__ = ["OperatorMatrix", "operator_matrix", "eigen_mps", "verify_eigen"]


class OperatorMatrix:
    """Entries M[tau][n] = coefficient of x^tau in J(x^n), 0 <= tau <= n <= n_max.
    Only the band n - order <= tau <= n is stored, column n as
    band[n][n - tau], in integers over J's common denominator den:
    M[tau][n] = band[n][n - tau] / den, and every other entry is zero.
    entry() and diagonal() give the Rationals."""

    __slots__ = ("n_max", "band", "den")

    def __init__(self, n_max: int, band, den: int):
        self.n_max = n_max
        self.band = band
        self.den = den

    def entry(self, tau: int, n: int) -> Rational:
        col = self.band[n]
        return Rational(col[n - tau] if 0 <= n - tau < len(col) else 0, self.den)

    def diagonal(self) -> list:
        return [Rational(col[0], self.den) for col in self.band]


def operator_matrix(J: DiffOperator, n_max: int) -> OperatorMatrix:
    """Build the matrix from the closed monomial-image expansion
    M[tau][n] = sum_{nu<=tau} C(n, nu) a_{tau-nu}^[n-nu]  (tau <= n),
    which expands J one monomial x^n at a time, where DiffOperator.apply
    is a convolution over a whole polynomial. A term needs
    n - nu <= J.order, so only the band n - J.order <= tau <= n can be
    nonzero. The sums run on J's integer form."""
    if J.shifted_form:
        raise ValueError("operator_matrix requires a normal-form operator")
    (a, den), order = J.integer_form(), max(J.order, 0)
    band = []
    for n in range(n_max + 1):
        low = max(0, n - order)
        col = []
        for tau in range(n, low - 1, -1):
            acc = 0
            for nu in range(low, tau + 1):
                # the coefficient of x^(tau-nu) in a_(n-nu)
                coeffs = a[n - nu] if n - nu < len(a) else ()
                if tau - nu < len(coeffs) and coeffs[tau - nu]:
                    acc += comb(n, nu) * coeffs[tau - nu]
            col.append(acc)
        band.append(col)
    return OperatorMatrix(n_max, band, den)


def eigen_mps(J: DiffOperator, n_max: int):
    """Solve J(P_n) = lambda_n P_n for the monic eigenpolynomials.

    Requires all lambda_n nonzero (NonInvertible otherwise) and pairwise
    distinct up to n_max (RepeatedEigenvalue otherwise: the monic
    eigenpolynomial of degree n would not be guaranteed unique).
    Returns (MPSPrefix, [lambda_0..lambda_n_max]).

    The back-substitution c_tau = sum_m M[tau][m] c_m / (lambda_n - lambda_tau)
    reads only the band (m <= tau + J.order) and is fraction-free, as in
    Bareiss's elimination: the band is integer over its common denominator,
    x_tau = c_tau prod_{tau<=s<n} (lambda_n - lambda_s) is an integer
    combination of x_{tau+1..tau+order}, and P_n is reduced once over the
    denominator prod_{s<n} (lambda_n - lambda_s). The lambda checks compare
    the band's integer diagonal.
    """
    M = operator_matrix(J, n_max)
    band, order = M.band, J.order
    first = {}
    for n, col in enumerate(band):
        v = col[0]
        if v == 0:
            raise NonInvertible(n)
        if v in first:
            raise RepeatedEigenvalue(n, first[v])
        first[v] = n
    polys = []
    for n in range(n_max + 1):
        diff = [band[n][0] - band[s][0] for s in range(n)]
        x = [0] * n + [1]
        for tau in range(n - 1, -1, -1):
            acc, f = 0, 1
            for m in range(tau + 1, min(n, tau + order) + 1):
                if m > tau + 1:
                    f *= diff[m - 1]
                e = band[m][m - tau]
                if e and x[m]:
                    acc += e * f * x[m]
            x[tau] = acc
        nums, prod = [], 1
        for tau in range(n):
            nums.append(x[tau] * prod)
            prod *= diff[tau]
        nums.append(prod)
        polys.append(Polynomial.from_pair(tuple(nums), prod))
    return MPSPrefix(polys), M.diagonal()


def verify_eigen(J: DiffOperator, P, lambdas) -> None:
    """Check J(P_n) = lambda_n P_n exactly for every n in range; raise
    IdentityViolated (tag eigen-relation) at the first n that fails."""
    for n in range(len(P)):
        lhs, rhs = J.apply(P[n]), lambdas[n] * P[n]
        if lhs != rhs:
            raise IdentityViolated("eigen-relation", f"n={n}", lhs, rhs)
