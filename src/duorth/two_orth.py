"""2-orthogonal monic polynomial sequences.

Generation from recurrence coefficients; the structure rows of an MPS,
the expansions x P_k = sum_j chi_{k,j} P_j, each computed once per
sequence when first read: an O(k) four-term check, and a full expansion
only of a row that fails it. The four-term-recurrence fit reads them up
to the first row that fails. Two fraction-free helpers, shared with
eigensolver, do that work: _step forms x P_k minus a row's lower terms
as unreduced integers (generate reduces it to P_{k+1}; _row compares it
with P_{k+1} cross-multiplied, the four-term test), and _eliminate
expands by the monic P_m, over a row's top three indices or down to P_0.
The duals of an eigen-MPS that carries its operator J solve J's band
(DiffOperator._band_solve); any other sequence's duals run forward
through its structure rows in O(N^2). Both are biorthogonal by
construction. Then the dual recurrence run on polynomial pairs
(dual_pairs: u_k = c0 u_0 + c1 u_1, the E/A/B/F pairs over the regular
vector), and the moment-level identity checks for the dual recurrence,
the decompositions and the orthogonality conditions. The orthogonality
zeros follow from the dual recurrence on those duals, so
orthogonality_check compares R_n to the duals' order and computes only
the regularity pairings.
"""
from __future__ import annotations

from math import lcm
from operator import add
from typing import Sequence

from .backend import Rat as Rational
from .backend import qreduce
from .errors import (IdentityViolated, MissingCoefficient, NotTwoOrthogonal,
                     OrderExceeded, ZeroGamma)
from .forms import MomentForm, combine, require_order
from .forms import require_equal as _require_equal
from .poly import ONE, Polynomial, X, as_rational
from .reporting import Report

__all__ = [
    "RecurrenceCoeffs", "MPSPrefix", "generate",
    "structure_row", "fit_2orth_recurrence", "dual_sequence",
    "dual_pairs", "dual_recurrence", "check_dual_identities",
    "orthogonality_check",
]


class RecurrenceCoeffs:
    """The sequences beta_n (n >= 0), alpha_{n+1} and gamma_{n+1} (n >= 0)
    defining a 2-orthogonal MPS; every stored gamma must be nonzero."""

    __slots__ = ("betas", "alphas", "gammas")

    def __init__(self, betas, alphas, gammas):
        b = tuple(as_rational(v) for v in betas)
        a = tuple(as_rational(v) for v in alphas)
        g = tuple(as_rational(v) for v in gammas)
        for i, v in enumerate(g):
            if v == 0:
                raise ZeroGamma(f"gamma_{i + 1} = 0 breaks regularity")
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "gammas", g)

    def beta(self, n: int) -> Rational:
        if not 0 <= n < len(self.betas):
            raise MissingCoefficient(f"beta_{n} not stored")
        return self.betas[n]

    def alpha(self, n: int) -> Rational:
        if not 1 <= n <= len(self.alphas):
            raise MissingCoefficient(f"alpha_{n} not stored")
        return self.alphas[n - 1]

    def gamma(self, n: int) -> Rational:
        if not 1 <= n <= len(self.gammas):
            raise MissingCoefficient(f"gamma_{n} not stored")
        return self.gammas[n - 1]

    def __eq__(self, other):
        if isinstance(other, RecurrenceCoeffs):
            return (self.betas == other.betas and self.alphas == other.alphas
                    and self.gammas == other.gammas)
        return NotImplemented

    def __hash__(self):
        return hash((self.betas, self.alphas, self.gammas))

    def first_difference(self, other: "RecurrenceCoeffs"):
        """The first coefficient on the common stored prefixes, betas then
        alphas then gammas, where self and other differ, as
        (name, self's value, other's value); None when they agree."""
        for name, start, mine, theirs in (
                ("beta", 0, self.betas, other.betas),
                ("alpha", 1, self.alphas, other.alphas),
                ("gamma", 1, self.gammas, other.gammas)):
            for n, (a, b) in enumerate(zip(mine, theirs), start):
                if a != b:
                    return f"{name}_{n}", a, b
        return None

    def __repr__(self):
        return (f"RecurrenceCoeffs(beta[0..{len(self.betas) - 1}], "
                f"alpha[1..{len(self.alphas)}], gamma[1..{len(self.gammas)}])")


class MPSPrefix:
    """A monic polynomial sequence prefix: entry n has degree exactly n.
    Its structure rows are kept once computed (see structure_row). A
    caller that has rows 0..len(rows) - 1 already, exactly as
    structure_row would compute them, passes them (eigen_mps does).
    eigen_mps also passes the operator J whose eigen-MPS this is, with
    pairwise distinct lambdas to len - 1; dual_sequence then builds the
    duals from J's band."""

    __slots__ = ("polys", "_rows", "operator")

    def __init__(self, polys: Sequence[Polynomial], rows: Sequence[tuple] = (),
                 operator=None):
        ps = tuple(polys)
        for n, p in enumerate(ps):
            if p.degree != n or not p.is_monic():
                raise ValueError(f"entry {n} is not monic of degree {n}")
        object.__setattr__(self, "polys", ps)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "operator", operator)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, n):
        return self.polys[n]

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        if isinstance(other, MPSPrefix):
            return self.polys == other.polys
        return NotImplemented

    def __repr__(self):
        return f"MPSPrefix(n <= {len(self.polys) - 1})"


def generate(rc: RecurrenceCoeffs, n_max: int) -> MPSPrefix:
    """Run the four-term recurrence exactly: P_0 = 1, P_1 = x - beta_0,
    P_2 = (x - beta_1) P_1 - alpha_1, and
    P_{n+3} = (x - beta_{n+2}) P_{n+2} - alpha_{n+2} P_{n+1} - gamma_{n+1} P_n,
    each degree one integer step (_step) reduced once.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    polys = [ONE]
    for k in range(n_max):
        row = [(k, rc.beta(k))]
        if k >= 1:
            row.append((k - 1, rc.alpha(k)))
        if k >= 2:
            row.append((k - 2, rc.gamma(k - 1)))
        polys.append(Polynomial.from_pair(*_step(polys, k, row)))
    return MPSPrefix(polys)


def _step(P, k: int, row) -> tuple:
    """(nums, D): x P_k - sum_m chi P_m over the (m, chi) of row, m <= k,
    as k + 2 unreduced integer numerators over the common denominator D of
    its terms."""
    terms = [((0,) + P[k].nums, P[k].den, 1, 1)]
    terms += [(P[m].nums, P[m].den, -chi.numerator, chi.denominator)
              for m, chi in row if chi]
    D = lcm(*(q * b for _, q, _, b in terms))
    acc = [0] * (k + 2)
    for v, q, a, b in terms:
        acc[: len(v)] = map(add, acc, map((a * (D // (q * b))).__mul__, v))
    return tuple(acc), D


def _eliminate(P, w: dict, e: int, top: range) -> list:
    """[(m, c, e_m)]: c / e_m is the coefficient of the monic P_m in w / e,
    for m in top (descending), where w holds the integers at the indices
    in top. Fraction-free: eliminating P_m multiplies w and e by P_m's
    denominator instead of dividing, so nothing is reduced. Over the whole
    range k..0 it expands a polynomial of degree k over P in full."""
    out = []
    for m in top:
        c, dm, nm = w[m], P[m].den, P[m].nums
        out.append((m, c, e))
        w, e = {j: w[j] * dm - c * nm[j] for j in top if j < m}, e * dm
    return out


def _as_prefix(P) -> MPSPrefix:
    return P if isinstance(P, MPSPrefix) else MPSPrefix(P)


def _row(P: MPSPrefix, k: int) -> tuple:
    """structure_row(P, k), computed. x P_k - P_{k+1} = w / e is eliminated
    by P_k, P_{k-1}, P_{k-2} (_eliminate), which gives chi_{k,k},
    chi_{k,k-1} and chi_{k,k-2}; the row is four-term iff x P_k minus those
    three terms (_step) is P_{k+1}, tested cross-multiplied. Otherwise the
    elimination runs down to P_0."""
    ps = P.polys
    xp, nk1, dk, dk1 = (0,) + ps[k].nums, ps[k + 1].nums, ps[k].den, ps[k + 1].den

    def chis(top):
        w = {j: xp[j] * dk1 - nk1[j] * dk for j in top}
        return [(m, Rational(c, e)) for m, c, e in _eliminate(ps, w, dk * dk1, top)]
    row = chis(range(k, max(k - 3, -1), -1))
    acc, D = _step(ps, k, row)
    if any(a * dk1 != b * D for a, b in zip(acc, nk1)):
        row = chis(range(k, -1, -1))
    return tuple((m, c) for m, c in reversed(row) if c) + ((k + 1, Rational(1)),)


def structure_row(P: MPSPrefix, k: int) -> tuple:
    """Row k of P: the nonzero (j, chi_{k,j}) of x P_k = sum_j chi_{k,j} P_j,
    ascending in j, for k <= len(P) - 2; at most four entries when P is
    2-orthogonal. A row costs O(k) when it is four-term (see _row) and a
    full expansion over P when it is not. It is computed on first request
    together with any row before it, and kept by P; row k is the same over
    every prefix of P that holds P_{k+1}. An eigen-MPS comes with the rows
    that eigen_mps's recurrence produced, so only rows from its first
    failing one on are computed here."""
    rows = P._rows
    while len(rows) <= k:
        rows += (_row(P, len(rows)),)
        object.__setattr__(P, "_rows", rows)
    return rows[k]


def fit_2orth_recurrence(P: MPSPrefix | Sequence[Polynomial]) -> RecurrenceCoeffs:
    """Read (beta, alpha, gamma) off the structure rows:
    x P_k = P_{k+1} + beta_k P_k + alpha_k P_{k-1} + gamma_{k-1} P_{k-2}.

    Succeeds iff every chi_{k,j} with j < k-2 vanishes exactly and every
    gamma is nonzero; raises NotTwoOrthogonal(k - 1, ..) at the first
    failing row otherwise, and computes no row after it.
    """
    if len(P) < 4:
        raise ValueError("need P_0..P_3 to fit a four-term recurrence")
    P = _as_prefix(P)
    zero = Rational(0)
    betas, alphas, gammas = [], [], []
    for k in range(len(P) - 1):
        row = structure_row(P, k)
        # witnesses index x P_k's row as k - 1, the chi_{n,nu} of the reports
        for j, c in row:
            if j < k - 2:
                raise NotTwoOrthogonal(k - 1, f"chi_{{{k - 1},{j}}} = {c} != 0")
        chi = dict(row)
        betas.append(chi.get(k, zero))
        if k >= 1:
            alphas.append(chi.get(k - 1, zero))
        if k >= 2:
            if k - 2 not in chi:
                raise NotTwoOrthogonal(k - 1, f"gamma_{k - 1} = 0 breaks regularity")
            gammas.append(chi[k - 2])
    return RecurrenceCoeffs(betas, alphas, gammas)


def dual_sequence(P, k_max: int, N: int) -> list:
    """[u_0, .., u_{k_max}] to order N: the forms with <u_k, P_m> = delta_km
    for every m <= N, which fix them uniquely.

    When P carries its operator J (eigen_mps returns such a prefix), u_k
    solves J^T u_k = lambda_k u_k with (u_k)_j = delta_jk for j <= k on
    J's band (DiffOperator._band_solve). That is biorthogonal by
    construction: eigen_mps has shown lambda_0..lambda_N distinct and
    J P_m = lambda_m P_m for m <= N, so (lambda_m - lambda_k) <u_k, P_m>
    = <J^T u_k - lambda_k u_k, P_m> = 0, and <u_k, P_k> = 1 for the monic
    P_k. Otherwise (u_k)_n = c_{n,k} where x^n = sum_k c_{n,k} P_k: the
    rows c_{n+1,j} = sum_k c_{n,k} chi_{k,j} run forward through the
    structure rows. That is biorthogonal by construction too: every
    structure row is exact (_row tests a four-term row cross-multiplied
    and eliminates any other in full), so x^n = sum_k c_{n,k} P_k holds
    exactly and <u_k, P_m> = delta_km."""
    if k_max > N:
        raise OrderExceeded(f"dual index {k_max} exceeds requested order {N}")
    if len(P) <= N:
        raise OrderExceeded(f"need P_0..P_{N}, got {len(P)} polynomials")
    P = _as_prefix(P)
    if P.operator is not None:
        return [MomentForm.from_pair(*P.operator._band_solve(k, N))
                for k in range(k_max + 1)]
    # the rows run over integers: chi scaled to one denominator L, each
    # row c_n as (nums, den) reduced once
    chi = [structure_row(P, k) for k in range(N)]
    L = lcm(*(c.denominator for row in chi for _, c in row))
    chi = [[(j, c.numerator * (L // c.denominator)) for j, c in row] for row in chi]
    rows = [((1,), 1)]
    for n in range(N):
        nums, den = rows[n]
        nxt = [0] * (n + 2)
        for k, c in enumerate(nums):
            if c:
                for j, chi_kj in chi[k]:
                    nxt[j] += c * chi_kj
        rows.append(qreduce(tuple(nxt), den * L))
    D = lcm(*(den for _, den in rows))
    return [MomentForm.from_pair(tuple([nums[k] * (D // den) if k < len(nums) else 0
                                        for nums, den in rows]), D)
            for k in range(k_max + 1)]


def dual_pairs(rc: RecurrenceCoeffs, k_max: int) -> list:
    """[(c0, c1)] with u_k = c0 u_0 + c1 u_1 for k <= k_max: the pairs
    (E_n, A_{n-1}) of u_{2n} and (B_n, F_n) of u_{2n+1} over the regular
    vector (u_0, u_1). They run the dual recurrence
    gamma_{m+1} u_{m+2} = (x - beta_m) u_m - u_{m-1} - alpha_{m+1} u_{m+1}
    (u_{-1} = 0) on the pairs, so rc is read only through index k_max - 1.
    Raises ArithmeticError unless deg E_n = n, deg A_{n-1} <= n - 1,
    deg B_n <= n and deg F_n = n."""
    zero = Polynomial.zero()
    pairs = [(ONE, zero), (zero, ONE)][: k_max + 1]
    for m in range(k_max - 1):
        xb = X - Polynomial.constant(rc.beta(m))
        al, g = rc.alpha(m + 1), rc.gamma(m + 1)
        prev = pairs[m - 1] if m else (zero, zero)
        pairs.append(tuple((xb * c - p - al * n) / g
                           for c, p, n in zip(pairs[m], prev, pairs[m + 1])))
    for k, pair in enumerate(pairs):
        if pair[k % 2].degree != k // 2 or pair[1 - k % 2].degree > (k - 1) // 2:
            raise ArithmeticError(f"degrees of the u_{k} pair off the E/A/B/F bounds")
    return pairs


def dual_recurrence(rc: RecurrenceCoeffs, duals: Sequence[MomentForm]):
    """The two sides of the dual four-term recurrence R_n,
    x u_n = u_{n-1} + beta_n u_n + alpha_{n+1} u_{n+1} + gamma_{n+1} u_{n+2}
    (u_{-1} = 0), as (n, x u_n, right side) for every n with u_{n+2} in
    duals. Over duals of order N, x u_n has order N - 1 and the right side
    order N. A generator: each R_n is built when it is read."""
    for n in range(len(duals) - 2):
        lhs = duals[n].left_mul(X)
        rhs = (rc.beta(n) * duals[n]
               + rc.alpha(n + 1) * duals[n + 1]
               + rc.gamma(n + 1) * duals[n + 2])
        if n >= 1:
            rhs = rhs + duals[n - 1]
        yield n, lhs, rhs


def check_dual_identities(rc: RecurrenceCoeffs, duals: Sequence[MomentForm],
                          M: int, recurrence=None) -> Report:
    """Verify the dual four-term recurrence R_n moment-wise to order M for
    every n with u_{n+2} available, and the decompositions of u_2..u_5
    over (u_0, u_1) by their dual_pairs (tags Eq-u2..Eq-u5).

    recurrence is dual_recurrence(rc, duals) when the caller shares its
    forms with orthogonality_check (pipelines does); it is built here
    otherwise. M < 0 or fewer than three duals raise ValueError.
    """
    if len(duals) < 3:
        raise ValueError("need at least u_0..u_2")
    if M < 0:
        raise ValueError("M must be >= 0")
    require_order(duals, M + 1)
    report = Report("dual-identities")
    if recurrence is None:
        recurrence = dual_recurrence(rc, duals)
    for n, lhs, rhs in recurrence:
        _require_equal(lhs, rhs, M, f"dual-recurrence(n={n})")
        report.add(f"dual-recurrence(n={n})", horizon=M)
    pairs = dual_pairs(rc, min(5, len(duals) - 1))
    for k in range(2, len(pairs)):
        rhs = combine(zip(pairs[k], duals[:2]))
        upto = min(M, rhs.order, duals[k].order)
        _require_equal(duals[k], rhs, upto, f"Eq-u{k}")
        report.add(f"Eq-u{k}", horizon=upto)
    return report


def orthogonality_check(P, duals, m_max: int, recurrence) -> Report:
    """d = 2 orthogonality of the canonical pair: <u_nu, P_m P_n> = 0 for
    n >= 2m + nu + 1, and <u_nu, P_m P_{2m+nu}> != 0, for nu in {0, 1} and
    m <= m_max. Row (nu, m) runs to n = min(len(P) - 1, order of u_nu - m);
    the first row of nu whose regularity index 2m + nu lies past that
    range ends nu's rows.

    duals are biorthogonal to P to their order N (dual_sequence builds
    them so), and recurrence holds their dual_recurrence triples
    (n, x u_n, right side). The zeros follow from R_0..R_{2 m_max - 1}
    holding moment-wise to N - 1: write P_m u_nu = sum_i p_i x^i u_nu and
    move one x at a time across the pairing with P_n, <x u, q> = <u, x q>
    for deg q <= N - 1. Replacing each x u_k by the right side of R_k
    leaves u_0..u_{2m+nu} paired with P_n, and each of those pairings is
    0 by biorthogonality. So each of those R_n is compared to N - 1, and
    the first differing moment raises IdentityViolated tagged
    dual-recurrence(n=..); then each row computes only its regularity
    pairing, off one left-multiplication. A missing or too shallow
    triple, or fewer than two duals, raise ValueError."""
    if len(duals) < 2:
        raise ValueError("need at least u_0, u_1")
    pair = duals[:2]
    N = max(u.order for u in pair)
    sides = {n: (lhs, rhs) for n, lhs, rhs in recurrence}
    for n in range(2 * m_max):
        if n not in sides or min(u.order for u in sides[n]) < N - 1:
            raise ValueError(f"orthogonality to m = {m_max} needs R_{n} "
                             f"to moment {N - 1}")
        _require_equal(*sides[n], N - 1, f"dual-recurrence(n={n})")
    report = Report("orthogonality")
    for nu, u in enumerate(pair):
        for m in range(m_max + 1):
            reg_index = 2 * m + nu
            if reg_index >= len(P) or P[m].degree + P[reg_index].degree > u.order:
                break
            val = u.left_mul(P[m]).act(P[reg_index])
            if val == 0:
                raise IdentityViolated(
                    f"regularity(nu={nu},m={m})", f"<u_{nu}, P_{m} P_{reg_index}>",
                    val, "nonzero")
            report.add(f"orthogonality(nu={nu},m={m})",
                       horizon=min(len(P) - 1, u.order - m))
    return report
