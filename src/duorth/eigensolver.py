"""Monic eigenpolynomial sequences of degree-preserving operators.

The operator acts on the monomial basis as an upper-triangular matrix in
the degree grading, whose band DiffOperator.band gives; the diagonal
carries the lambda scalars. For pairwise distinct, nonzero lambdas the
monic eigenpolynomials exist and are unique. eigen_mps builds P_{k+1}
from row k of the structure rows x P_k = sum_j chi_{k,j} P_j, which
J - lambda_{k+1} reads off P_0..P_k. While the rows are four-term, as
they are exactly when the sequence is 2-orthogonal, a step is O(r k)
small-by-big products for r the operator's order, and the rows are kept
for the fit and the duals. From the first row that is not four-term on,
the degrees left come out of a banded triangular back-substitution.

verify_eigen checks J(P_n) = lambda_n P_n by one unreduced integer pass
per n and builds reduced polynomials only for the witness of a failing n,
so its witness bytes are those of a check on reduced polynomials.
transport_certificate uses that pass and the eigen transport
J^T u_k = lambda_k u_k to certify the duals' biorthogonality to N. It
needs one transpose per dual and 6 (t + 1) pairings, where pairing to N
needs 6 (N + 1). It certifies or refuses and never names a witness: on a
refusal the operator pipeline pairs to N and runs verify_eigen to the
check order, and those name the witness.
"""
from __future__ import annotations

from math import lcm
from operator import add, mul

from .backend import Rat as Rational
from .diffop import DiffOperator
from .errors import IdentityViolated, NonInvertible, RepeatedEigenvalue
from .forms import require_order
from .poly import ONE, Polynomial
from .two_orth import MPSPrefix

__all__ = ["eigen_mps", "verify_eigen", "transport_certificate"]


def eigen_mps(J: DiffOperator, n_max: int):
    """Solve J(P_n) = lambda_n P_n for the monic eigenpolynomials.

    Requires all lambda_n nonzero (NonInvertible otherwise) and pairwise
    distinct up to n_max (RepeatedEigenvalue otherwise: the monic
    eigenpolynomial of degree n would not be guaranteed unique); both are
    read off the band's integer diagonal before any polynomial is built.
    Returns (MPSPrefix, [lambda_0..lambda_n_max]).

    P_{k+1} comes from P_0..P_k by the four-term recurrence that row k of
    x P_k = sum_j chi_{k,j} P_j gives (_recurrence_step), and the prefix
    keeps the rows for structure_row. Proof: J P_j = lambda_j P_j for
    j <= k gives (J - lambda_{k+1})(x P_k) = sum_{j<=k} chi_{k,j}
    (lambda_j - lambda_{k+1}) P_j, and with distinct lambdas a zero
    remainder below P_{k-2} is exactly chi_{k,j} = 0 for j < k - 2, so
    x P_k minus its three lower terms is the eigenpolynomial P_{k+1}.

    At the first row that is not four-term the rest is back-substituted
    (_back_substitute): c_tau = sum_m M[tau][m] c_m / (lambda_n - lambda_tau)
    reads only J.band (m <= tau + J.order) and is fraction-free, as in
    Bareiss's elimination. That row and the later ones are left to
    structure_row.
    """
    (band, den), order = J.band(n_max), J.order
    first = {}
    for n, col in enumerate(band):
        v = col[0]
        if v == 0:
            raise NonInvertible(n)
        if v in first:
            raise RepeatedEigenvalue(n, first[v])
        first[v] = n
    diags = _diagonals(band, order)
    polys, rows = [ONE][: n_max + 1], []  # P_0, unless n_max < 0
    for k in range(n_max):
        step = _recurrence_step(polys, diags, k)
        if step is None:
            break
        rows.append(step[0])
        polys.append(step[1])
    polys += [_back_substitute(band, order, n) for n in range(len(polys), n_max + 1)]
    return MPSPrefix(polys, rows), [Rational(col[0], den) for col in band]


def _recurrence_step(P, diags, k):
    """(row k, P_{k+1}) from the eigenpolynomials P_0..P_k, or None when row
    k is not four-term; lam = den lambda is the band's diagonal.

    T = den d_k (J - lambda_{k+1})(x P_k), with P_k = p / d_k, has the
    integer coefficients T_tau = sum_d (band[tau + d][d] - [d = 0] lam[k + 1])
    p_(tau + d - 1) for tau <= k, and T / d_k = sum_{j<=k} r_j P_j with
    r_j = chi_{k,j} (lam[j] - lam[k + 1]). Fraction-free elimination of its
    top three coefficients by the monic P_k, P_{k-1}, P_{k-2} (as in
    two_orth._row) gives r_m, so chi_{k,m}, for m = k, k-1, k-2. Then
    Q = x P_k - sum_m chi_{k,m} P_m is one integer combination, and the
    rest of T / d_k, which is den (J - lambda_{k+1}) Q, must vanish: one
    pass per band diagonal over Q's numerators. Q is then P_{k+1},
    reduced once."""
    lam = diags[0][1]
    xp, dk, lam_next = (0,) + P[k].nums, P[k].den, lam[k + 1]
    top = range(k, max(k - 3, -1), -1)
    w = {tau: sum(diag[tau] * xp[tau + d] for d, diag in diags if tau + d <= k + 1)
         - lam_next * xp[tau] for tau in top}
    e, chis = dk, []
    for m in top:
        c, dm, nm = w[m], P[m].den, P[m].nums
        chis.append((m, Rational(c, e * (lam[m] - lam_next))))
        w, e = {j: w[j] * dm - c * nm[j] for j in top if j < m}, e * dm
    # Q's terms (a / b) (v / q) over their common denominator D
    terms = [(xp, dk, 1, 1)] + [(P[m].nums, P[m].den, -chi.numerator, chi.denominator)
                                for m, chi in chis if chi]
    D = lcm(*(q * b for _, q, _, b in terms))
    acc = [0] * (k + 2)
    for v, q, a, b in terms:
        acc[: len(v)] = map(add, acc, map((a * (D // (q * b))).__mul__, v))
    if any(_residual(acc, lam_next, diags)):
        return None
    row = tuple((m, chi) for m, chi in reversed(chis) if chi) + ((k + 1, Rational(1)),)
    return row, Polynomial.from_pair(tuple(acc), D)


def _back_substitute(band, order, n):
    """P_n by back-substitution over the band. x_tau = c_tau
    prod_{tau<=s<n} (lambda_n - lambda_s) is an integer combination of
    x_{tau+1..tau+order}, and P_n is reduced once over the denominator
    prod_{s<n} (lambda_n - lambda_s)."""
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
    return Polynomial.from_pair(tuple(nums), prod)


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


def _first_eigen_failure(J: DiffOperator, P, lambdas):
    """The first n with J(P_n) != lambda_n P_n, or None.

    One unreduced integer pass per n over the band of J: with p = P_n.nums,
    (J P_n)_tau = sum_d band[tau + d][d] p_(tau + d) / (den P_n.den), so for
    lambda_n = r/s the relation holds iff, for every tau,
    (s band[tau][0] - r den) p_tau + sum_{d >= 1} s band[tau + d][d] p_(tau + d)
    vanishes. Each diagonal of the band is one product of small integers
    with the big p; no image is reduced."""
    if not len(P):
        return None
    band, den = J.band(max(len(p.nums) for p in P) - 1)
    diags = _diagonals(band, J.order)
    scaled = {}  # s -> the diagonals times s, built once per denominator
    for n, p in enumerate(P):
        r, s = lambdas[n].numerator, lambdas[n].denominator
        if s not in scaled:
            scaled[s] = [(d, [s * e for e in diag]) for d, diag in diags]
        if any(_residual(p.nums, r * den, scaled[s])):
            return n
    return None


def verify_eigen(J: DiffOperator, P, lambdas) -> None:
    """Check J(P_n) = lambda_n P_n exactly for every n in range (J in
    normal form); raise IdentityViolated (tag eigen-relation) at the first
    n that fails. The check cross-multiplies integers; only the failing n
    builds its reduced J(P_n) and lambda_n P_n, the witness."""
    n = _first_eigen_failure(J, P, lambdas)
    if n is not None:
        raise IdentityViolated("eigen-relation", f"n={n}", J.apply(P[n]),
                               lambdas[n] * P[n])


def transport_certificate(J: DiffOperator, P, lambdas, duals, N: int) -> dict:
    """Certify <u_k, P_m> = delta_km for every dual u_k and every m <= N by
    the eigen transport J^T u_k = lambda_k u_k: the map u_k -> J^T u_k when
    every step holds, {} when one fails (the pairings then name a witness).
    The duals must carry order >= N.

    With t = J.max_coeff_degree(), J^T u_k is reliable to N - t. If the
    lambdas read are pairwise distinct, J P_m = lambda_m P_m for m <= N - t
    and (J^T u_k)_j = lambda_k (u_k)_j for j <= N - t, then
    (lambda_m - lambda_k) <u_k, P_m> = <J^T u_k - lambda_k u_k, P_m> = 0, so
    <u_k, P_m> = 0 for m <= N - t, m != k. The pairings left, <u_k, P_k> = 1
    and the top t values of m, are made directly. On an eigen-MPS
    (distinct diagonal) the certificate holds exactly when the pairings to
    N and the eigen relation to N - t both do."""
    require_order(duals, N)
    top = N - J.max_coeff_degree()
    lam = lambdas[: max(top + 1, len(duals))]
    if len(set(lam)) < len(lam) or _first_eigen_failure(J, P[: top + 1], lam) is not None:
        return {}
    images = {u: J.transpose_apply(u) for u in duals}
    for k, u in enumerate(duals):
        w = images[u]
        a, b = lam[k].denominator * u.den, lam[k].numerator * w.den
        if any(a * x != b * y for x, y in zip(w.nums[: top + 1], u.nums)):
            return {}
        for m in {k, *range(top + 1, N + 1)}:
            if u.act(P[m]) != (1 if m == k else 0):
                return {}
    return images
