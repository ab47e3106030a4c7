"""2-orthogonal monic polynomial sequences.

Generation from recurrence coefficients; the structure rows of an MPS,
the expansions x P_k = sum_j chi_{k,j} P_j, each computed once per
sequence when first read: an O(k) four-term check, and a full expansion
only of a row that fails it. The four-term-recurrence fit reads them up
to the first row that fails. The dual sequence of an eigen-MPS that
carries its operator J is built by J's transposed band recurrence and is
biorthogonal by construction; any other sequence's duals run forward
through its structure rows in O(N^2) and are certified by pairing. Then
the dual recurrence run on polynomial pairs (dual_pairs: u_k = c0 u_0 +
c1 u_1, the E/A/B/F pairs over the regular vector), and the moment-level
identity checks for the dual recurrence, the decompositions and the
orthogonality conditions. On certified duals the orthogonality zeros
follow from the dual recurrence (orthogonality_certificate), so only their
regularity pairings are computed.
"""
from __future__ import annotations

from math import lcm
from operator import mul
from typing import Sequence

from .backend import Rat as Rational
from .backend import qreduce
from .errors import (IdentityViolated, MissingCoefficient, NotTwoOrthogonal,
                     OrderExceeded, ZeroGamma)
from .forms import MomentForm, agree_to, combine, require_order
from .forms import require_equal as _require_equal
from .poly import ONE, Polynomial, X, as_rational
from .reporting import Report

__all__ = [
    "RecurrenceCoeffs", "MPSPrefix", "generate", "expand_in_basis",
    "structure_row", "fit_2orth_recurrence", "dual_sequence",
    "check_biorthogonality", "dual_pairs", "dual_recurrence",
    "check_dual_identities", "orthogonality_certificate", "orthogonality_check",
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
    P_{n+3} = (x - beta_{n+2}) P_{n+2} - alpha_{n+2} P_{n+1} - gamma_{n+1} P_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    polys = [ONE]
    if n_max >= 1:
        polys.append(X - Polynomial.constant(rc.beta(0)))
    if n_max >= 2:
        polys.append((X - Polynomial.constant(rc.beta(1))) * polys[1]
                     - Polynomial.constant(rc.alpha(1)))
    for m in range(3, n_max + 1):
        nxt = ((X - Polynomial.constant(rc.beta(m - 1))) * polys[m - 1]
               - rc.alpha(m - 1) * polys[m - 2]
               - rc.gamma(m - 2) * polys[m - 3])
        polys.append(nxt)
    return MPSPrefix(polys)


def expand_in_basis(q: Polynomial, P: Sequence[Polynomial]) -> list:
    """Coefficients c with q = sum_m c_m P_m, by descending triangular
    elimination; requires deg q < len(P)."""
    if not q.is_zero() and q.degree >= len(P):
        raise OrderExceeded(f"degree {q.degree} exceeds basis length {len(P)}")
    coefs = [Rational(0)] * len(P)
    while not q.is_zero():
        d = q.degree
        c = q[d] / P[d].leading()
        coefs[d] = c
        q = q - c * P[d]
        if not q.is_zero() and q.degree >= d:
            raise ArithmeticError("basis elimination failed to reduce degree")
    return coefs


def _as_prefix(P) -> MPSPrefix:
    return P if isinstance(P, MPSPrefix) else MPSPrefix(P)


def _row(P: MPSPrefix, k: int) -> tuple:
    """structure_row(P, k), computed. Fraction-free elimination of the top
    three coefficients of x P_k - P_{k+1} = w / e by the monic P_k, P_{k-1},
    P_{k-2} gives chi_{k,k}, chi_{k,k-1}, chi_{k,k-2}; one integer combination
    checks that the rest vanishes. A row that is not four-term is expanded
    in full."""
    ps = P.polys
    xp, nk1 = (0,) + ps[k].nums, ps[k + 1].nums
    dk, dk1 = ps[k].den, ps[k + 1].den
    top = range(k, max(k - 3, -1), -1)
    w, e = {j: xp[j] * dk1 - nk1[j] * dk for j in top}, dk * dk1
    coefs = []
    for m in top:
        c, dm, nm = w[m], ps[m].den, ps[m].nums
        coefs.append((m, Rational(c, e)))
        w, e = {j: w[j] * dm - c * nm[j] for j in top if j < m}, e * dm
    terms = [(xp, 1, dk), (nk1, -1, dk1)]
    terms += [(ps[m].nums, -c.numerator, c.denominator * ps[m].den) for m, c in coefs]
    D = lcm(*(q for _, _, q in terms))
    scales = [p * (D // q) for _, p, q in terms]
    # zip stops at the shortest term; the elimination zeroed every entry above
    if any(sum(map(mul, scales, col)) for col in zip(*(v for v, _, _ in terms))):
        return tuple((j, c) for j, c in enumerate(expand_in_basis(X * ps[k], P))
                     if c != 0)
    return tuple((j, c) for j, c in reversed(coefs) if c != 0) + ((k + 1, Rational(1)),)


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


def check_biorthogonality(P, duals, m_max: int):
    """<u_k, P_m> = delta_km for every dual u_k and every m <= m_max;
    raises IdentityViolated("biorthogonality") at the first failure."""
    for k, u in enumerate(duals):
        for m in range(m_max + 1):
            val = u.act(P[m])
            want = 1 if k == m else 0
            if val != want:
                raise IdentityViolated("biorthogonality", f"<u_{k}, P_{m}>",
                                       val, want)


def dual_sequence(P, k_max: int, N: int) -> list:
    """[u_0, .., u_{k_max}] to order N: the forms with <u_k, P_m> = delta_km
    for every m <= N, which fix them uniquely.

    When P carries its operator J (eigen_mps returns such a prefix), the
    duals come from J's transposed band recurrence, biorthogonal by
    construction (_transport_duals). Otherwise (u_k)_n = c_{n,k} where
    x^n = sum_k c_{n,k} P_k: the rows c_{n+1,j} = sum_k c_{n,k} chi_{k,j}
    run forward through the structure rows, and check_biorthogonality
    pairs each dual with each P_m, m <= N."""
    if k_max > N:
        raise OrderExceeded(f"dual index {k_max} exceeds requested order {N}")
    if len(P) <= N:
        raise OrderExceeded(f"need P_0..P_{N}, got {len(P)} polynomials")
    P = _as_prefix(P)
    if P.operator is not None:
        return [_transport_duals(P.operator, k, N) for k in range(k_max + 1)]
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
    duals = [MomentForm.from_pair(tuple([nums[k] * (D // den) if k < len(nums) else 0
                                         for nums, den in rows]), D)
             for k in range(k_max + 1)]
    check_biorthogonality(P, duals, N)
    return duals


def _transport_duals(J, k: int, N: int) -> MomentForm:
    """u_k to order N for the eigen-MPS of J, from J^T u_k = lambda_k u_k.

    <J^T u, x^n> = sum_d band[n][d] (u)_(n-d) / den reads moments up to n
    only, so (u_k)_j = delta_jk for j <= k and, for k < n <= N,
    (band[n][0] - band[k][0]) (u_k)_n = -sum_{d>=1} band[n][d] (u_k)_(n-d).
    These are the duals: eigen_mps has shown that lambda_0..lambda_N are
    distinct and J P_m = lambda_m P_m for m <= N, so (lambda_m - lambda_k)
    <u_k, P_m> = <J^T u_k - lambda_k u_k, P_m> = 0, the low moments give
    <u_k, P_m> = 0 for m < k and the monic P_k <u_k, P_k> = 1. Fraction-free
    (Bareiss): x_n = (u_k)_n prod_{k<m<=n} (band[m][0] - band[k][0]) takes
    at most J.order small-by-big products, and u_k is reduced once."""
    band = J.band(N)[0]
    diff = [col[0] - band[k][0] for col in band]
    x = [0] * k + [1]
    for n in range(k + 1, N + 1):
        acc, f = 0, 1
        for d in range(1, min(J.order, n - k) + 1):
            if d > 1:
                f *= diff[n - d + 1]
            acc -= band[n][d] * f * x[n - d]
        x.append(acc)
    nums, prod = [0] * (N + 1), 1
    for n in range(N, k - 1, -1):
        nums[n] = x[n] * prod
        prod *= diff[n]
    return MomentForm.from_pair(tuple(nums), nums[k])


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


def orthogonality_certificate(recurrence, m_max: int, N: int) -> bool:
    """Whether <u_nu, P_m P_j> = 0 for nu in {0, 1}, m <= m_max and
    2m + nu < j <= N - m follows without pairing, given duals u_k that
    are biorthogonal to P to order N (dual_sequence certifies that) and
    the (n, x u_n, right side) triples of dual_recurrence on them.

    Proof: write P_m u_nu = sum_i p_i x^i u_nu and move one x at a time
    across the pairing with P_j, <x u, q> = <u, x q> for deg q <= N - 1.
    Replacing each x u_k by the right side of R_k, k <= 2 m_max - 1,
    leaves u_0..u_{2m+nu} paired with P_j, and each of those pairings is 0
    by biorthogonality. That needs R_n to hold moment-wise to N - 1 for
    every n <= 2 m_max - 1, so u_0..u_{2 m_max + 1}; the certificate
    checks exactly that and refuses (False) when a triple is missing, too
    shallow, or differs. Wrong recurrence coefficients can therefore only
    make it refuse."""
    sides = {n: (lhs, rhs) for n, lhs, rhs in recurrence}
    return all(n in sides and agree_to(*sides[n], N - 1)
               for n in range(2 * m_max))


def orthogonality_check(P, duals, m_max: int, recurrence=None) -> Report:
    """d = 2 orthogonality of the canonical pair: <u_nu, P_m P_n> = 0 for
    n >= 2m + nu + 1, and <u_nu, P_m P_{2m+nu}> != 0, for nu in {0, 1} and
    m <= m_max. Row (nu, m) runs to n = min(len(P) - 1, order of u_nu - m);
    the first row of nu whose regularity index 2m + nu lies past that
    range ends nu's rows. Each row reads <P_m u_nu, P_n> off one
    left-multiplication.

    A caller whose duals dual_sequence certified against P passes their
    dual_recurrence triples as recurrence (pipelines does). When
    orthogonality_certificate accepts them, each row computes only its
    regularity pairing and reports the same horizon. Otherwise, and
    without recurrence, every pairing is computed and the first nonzero
    one is the witness. Fewer than two duals raise ValueError."""
    if len(duals) < 2:
        raise ValueError("need at least u_0, u_1")
    pair = duals[:2]
    certified = recurrence is not None and orthogonality_certificate(
        recurrence, m_max, max(u.order for u in pair))
    report = Report("orthogonality")
    for nu, u in enumerate(pair):
        for m in range(m_max + 1):
            reg_index = 2 * m + nu
            if reg_index >= len(P) or P[m].degree + P[reg_index].degree > u.order:
                break
            w = u.left_mul(P[m])
            val = w.act(P[reg_index])
            if val == 0:
                raise IdentityViolated(
                    f"regularity(nu={nu},m={m})", f"<u_{nu}, P_{m} P_{reg_index}>",
                    val, "nonzero")
            n = reg_index + 1
            if certified:
                # the loop below then stops at once, at the n where it would
                n = min(len(P), u.order - P[m].degree + 1)
            while n < len(P) and P[m].degree + P[n].degree <= u.order:
                val = w.act(P[n])
                if val != 0:
                    raise IdentityViolated(
                        f"orthogonality(nu={nu},m={m})",
                        f"<u_{nu}, P_{m} P_{n}>", val, 0)
                n += 1
            report.add(f"orthogonality(nu={nu},m={m})", horizon=n - 1)
    return report
