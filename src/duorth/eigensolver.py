"""Monic eigenpolynomial sequences of degree-preserving operators.

The operator acts on the monomial basis as an upper-triangular matrix in
the degree grading, whose band DiffOperator.band gives; the diagonal
carries the lambda scalars. For pairwise distinct, nonzero lambdas the
monic eigenpolynomials exist, are unique, and come out of a banded
triangular back-substitution: O(r N^2) steps for degrees up to N, r the
operator's order.

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

from operator import add, mul

from .backend import Rat as Rational
from .diffop import DiffOperator
from .errors import IdentityViolated, NonInvertible, RepeatedEigenvalue
from .forms import require_order
from .poly import Polynomial
from .two_orth import MPSPrefix

__all__ = ["eigen_mps", "verify_eigen", "transport_certificate"]


def eigen_mps(J: DiffOperator, n_max: int):
    """Solve J(P_n) = lambda_n P_n for the monic eigenpolynomials.

    Requires all lambda_n nonzero (NonInvertible otherwise) and pairwise
    distinct up to n_max (RepeatedEigenvalue otherwise: the monic
    eigenpolynomial of degree n would not be guaranteed unique).
    Returns (MPSPrefix, [lambda_0..lambda_n_max]).

    The back-substitution c_tau = sum_m M[tau][m] c_m / (lambda_n - lambda_tau)
    reads only J.band (m <= tau + J.order) and is fraction-free, as in
    Bareiss's elimination: the band is integer over its common denominator,
    x_tau = c_tau prod_{tau<=s<n} (lambda_n - lambda_s) is an integer
    combination of x_{tau+1..tau+order}, and P_n is reduced once over the
    denominator prod_{s<n} (lambda_n - lambda_s). The lambda checks compare
    the band's integer diagonal.
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
    return MPSPrefix(polys), [Rational(col[0], den) for col in band]


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
    diags = [(d, [col[d] for col in band[d:]]) for d in range(max(J.order, 0) + 1)]
    diags = [(d, diag) for d, diag in diags if d == 0 or any(diag)]
    scaled = {}  # s -> the diagonals times s, built once per denominator
    for n, p in enumerate(P):
        nums, k = p.nums, len(p.nums)
        r, s = lambdas[n].numerator, lambdas[n].denominator
        if s not in scaled:
            scaled[s] = [(d, [s * e for e in diag]) for d, diag in diags]
        (_, diag0), *upper = scaled[s]
        acc = list(map(mul, map((-r * den).__add__, diag0[:k]), nums))
        for d, diag in upper:
            if d < k:
                acc[: k - d] = map(add, acc, map(mul, diag, nums[d:]))
        if any(acc):
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
