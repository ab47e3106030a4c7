"""Monic eigenpolynomial sequences of degree-preserving operators.

The operator acts on the monomial basis as an upper-triangular matrix in
the degree grading, whose band DiffOperator.band gives; the diagonal
carries the lambda scalars. For pairwise distinct, nonzero lambdas the
monic eigenpolynomials exist and are unique. eigen_mps builds P_{k+1}
from row k of the structure rows x P_k = sum_j chi_{k,j} P_j, which
J - lambda_{k+1} reads off P_0..P_k (two_orth._eliminate for the row's
top three entries, two_orth._step for P_{k+1}). While the rows are
four-term, as they are exactly when the sequence is 2-orthogonal, a step
is O(r k) small-by-big products for r the operator's order, and the rows
are kept for the fit. From the first row that is not four-term on, the
degrees left are the band's triangular solve (DiffOperator._band_solve).
The prefix also carries J, so two_orth.dual_sequence solves the same
band for its duals.

verify_eigen checks J(P_n) = lambda_n P_n by one unreduced integer pass
per n and builds reduced polynomials only for the witness of a failing n,
so its witness bytes are those of a check on reduced polynomials.
"""
from __future__ import annotations

from operator import add, mul

from .backend import Rat as Rational
from .diffop import DiffOperator
from .errors import IdentityViolated, NonInvertible, RepeatedEigenvalue
from .poly import ONE, Polynomial
from .two_orth import MPSPrefix, _eliminate, _step

__all__ = ["eigen_mps", "verify_eigen"]


def eigen_mps(J: DiffOperator, n_max: int):
    """Solve J(P_n) = lambda_n P_n for the monic eigenpolynomials.

    Requires all lambda_n nonzero (NonInvertible otherwise) and pairwise
    distinct up to n_max (RepeatedEigenvalue otherwise: the monic
    eigenpolynomial of degree n would not be guaranteed unique); both are
    read off the band's integer diagonal before any polynomial is built.
    Returns (MPSPrefix, [lambda_0..lambda_n_max]); the prefix carries J.

    P_{k+1} comes from P_0..P_k by the four-term recurrence that row k of
    x P_k = sum_j chi_{k,j} P_j gives (_recurrence_step), and the prefix
    keeps the rows for structure_row. Proof: J P_j = lambda_j P_j for
    j <= k gives (J - lambda_{k+1})(x P_k) = sum_{j<=k} chi_{k,j}
    (lambda_j - lambda_{k+1}) P_j, and with distinct lambdas a zero
    remainder below P_{k-2} is exactly chi_{k,j} = 0 for j < k - 2, so
    x P_k minus its three lower terms is the eigenpolynomial P_{k+1}.

    At the first row that is not four-term the rest is back-substituted
    over J's band (DiffOperator._band_solve), fraction-free. That row and
    the later ones are left to structure_row.
    """
    band, den = J.band(n_max)
    first = {}
    for n, col in enumerate(band):
        v = col[0]
        if v == 0:
            raise NonInvertible(n)
        if v in first:
            raise RepeatedEigenvalue(n, first[v])
        first[v] = n
    diags = _diagonals(band, J.order)
    polys, rows = [ONE][: n_max + 1], []  # P_0, unless n_max < 0
    for k in range(n_max):
        step = _recurrence_step(polys, diags, k)
        if step is None:
            break
        rows.append(step[0])
        polys.append(step[1])
    polys += [Polynomial.from_pair(*J._band_solve(n, 0))
              for n in range(len(polys), n_max + 1)]
    return MPSPrefix(polys, rows, J), [Rational(col[0], den) for col in band]


def _recurrence_step(P, diags, k):
    """(row k, P_{k+1}) from the eigenpolynomials P_0..P_k, or None when row
    k is not four-term; lam = den lambda is the band's diagonal.

    T = den d_k (J - lambda_{k+1})(x P_k), with P_k = p / d_k, has the
    integer coefficients T_tau = sum_d (band[tau + d][d] - [d = 0] lam[k + 1])
    p_(tau + d - 1) for tau <= k, and T / d_k = sum_{j<=k} r_j P_j with
    r_j = chi_{k,j} (lam[j] - lam[k + 1]). Its top three coefficients,
    eliminated by the monic P_k, P_{k-1}, P_{k-2} (two_orth._eliminate),
    give r_m, so chi_{k,m}, for m = k, k-1, k-2. Then the rest of T / d_k is
    den (J - lambda_{k+1}) Q for Q = x P_k - sum_m chi_{k,m} P_m
    (two_orth._step), and must vanish: one pass per band diagonal over Q's
    unreduced numerators. Q is then P_{k+1}, reduced once."""
    lam = diags[0][1]
    xp, lam_next = (0,) + P[k].nums, lam[k + 1]
    top = range(k, max(k - 3, -1), -1)
    w = {tau: sum(diag[tau] * xp[tau + d] for d, diag in diags if tau + d <= k + 1)
         - lam_next * xp[tau] for tau in top}
    chis = [(m, Rational(c, e * (lam[m] - lam_next)))
            for m, c, e in _eliminate(P, w, P[k].den, top)]
    acc, D = _step(P, k, chis)
    if any(_residual(acc, lam_next, diags)):
        return None
    row = tuple((m, chi) for m, chi in reversed(chis) if chi) + ((k + 1, Rational(1)),)
    return row, Polynomial.from_pair(acc, D)


def _diagonals(band, order):
    """[(d, diag)] with diag[tau] = band[tau + d][d]: the diagonal (d = 0,
    den lambda) and every nonzero superdiagonal of the band."""
    diags = [(d, [col[d] for col in band[d:]]) for d in range(max(order, 0) + 1)]
    return [(d, diag) for d, diag in diags if d == 0 or any(diag)]


def _residual(v, shift, diags):
    """The integer numerators of (den J - shift)(v): (diag_0[tau] - shift) v_tau
    + sum_{d >= 1} diag_d[tau] v_(tau + d), for the diagonals of _diagonals
    (or multiples of them). Each diagonal is one product of small integers
    with the big v; nothing is reduced."""
    (_, diag0), *upper = diags
    k = len(v)
    acc = list(map(mul, map((-shift).__add__, diag0[:k]), v))
    for d, diag in upper:
        if d < k:
            acc[: k - d] = map(add, acc, map(mul, diag, v[d:]))
    return acc


def verify_eigen(J: DiffOperator, P, lambdas) -> None:
    """Check J(P_n) = lambda_n P_n exactly for every n in range (J in
    normal form); raise IdentityViolated (tag eigen-relation) at the first
    n that fails.

    One unreduced integer pass per n over the band of J: with p = P_n.nums,
    (J P_n)_tau = sum_d band[tau + d][d] p_(tau + d) / (den P_n.den), so for
    lambda_n = r/s the relation holds iff, for every tau,
    (s band[tau][0] - r den) p_tau + sum_{d >= 1} s band[tau + d][d] p_(tau + d)
    vanishes. Each diagonal of the band is one product of small integers
    with the big p; only the failing n builds its reduced J(P_n) and
    lambda_n P_n, the witness."""
    if not len(P):
        return
    band, den = J.band(max(len(p.nums) for p in P) - 1)
    diags = _diagonals(band, J.order)
    scaled = {}  # s -> the diagonals times s, built once per denominator
    for n, p in enumerate(P):
        r, s = lambdas[n].numerator, lambdas[n].denominator
        if s not in scaled:
            scaled[s] = [(d, [s * e for e in diag]) for d, diag in diags]
        if any(_residual(p.nums, r * den, scaled[s])):
            raise IdentityViolated("eigen-relation", f"n={n}", J.apply(P[n]),
                                   lambdas[n] * P[n])
