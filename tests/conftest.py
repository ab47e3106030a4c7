from math import comb, factorial

import pytest
from hypothesis import strategies as st

from duorth import (DiffOperator, MomentForm, MPSPrefix, ParamSampler, Polynomial,
                    Rational, RecurrenceCoeffs, two_orth)
from duorth.errors import IdentityViolated, OrderExceeded
from duorth.reporting import Report
from duorth.poly import ONE, X


def rationals(max_num: int = 30, max_den: int = 12):
    return st.builds(
        Rational,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def polynomials(max_degree: int = 8):
    return st.lists(rationals(), min_size=0, max_size=max_degree + 1).map(Polynomial)


@st.composite
def operators(draw, max_order: int = 5):
    """Normal-form DiffOperator([a_0, .., a_r]) with deg a_nu <= nu and
    r <= max_order; r = -1 gives the zero operator."""
    r = draw(st.integers(min_value=-1, max_value=max_order))
    return DiffOperator([draw(polynomials(nu)) for nu in range(r + 1)])


@pytest.fixture
def sampler():
    return ParamSampler(20240817)


# the index j of the entry chi_{k,j} of row k that carries each coefficient
# of x P_k = P_{k+1} + beta_k P_k + alpha_k P_{k-1} + gamma_{k-1} P_{k-2}
ROW_ENTRY = {"beta": 0, "alpha": 1, "gamma": 2}


@pytest.fixture
def corrupt_structure_row(monkeypatch):
    """corrupt(k, coefficient="gamma") adds 1 to the entry of row k that
    carries beta_k, alpha_k or gamma_{k-1} (chi_{k,k}, chi_{k,k-1} or
    chi_{k,k-2}) in the structure rows that the fit and dual_sequence read
    (two_orth.structure_row); an entry the row omits, a zero, becomes 1,
    and one that becomes 0 stays in the row. The stored rows are left as
    they are."""
    def corrupt(k, coefficient="gamma"):
        row_of, j = two_orth.structure_row, k - ROW_ENTRY[coefficient]

        def perturbed(P, n):
            row = row_of(P, n)
            if n != k:
                return row
            chi = dict(row)
            chi[j] = chi.get(j, 0) + 1
            return tuple(sorted(chi.items()))
        monkeypatch.setattr(two_orth, "structure_row", perturbed)
    return corrupt


def random_operator(sampler, max_order: int = 3, lowering: int | None = None) -> DiffOperator:
    """A random normal-form operator drawn from sampler; with lowering=k the
    coefficients satisfy a_nu = 0 below k and deg a_nu <= nu - k."""
    k = lowering if lowering is not None else 0
    coeffs = [Polynomial.zero()] * k
    for nu in range(k, max_order + 1):
        coeffs.append(sampler.poly(sampler.rng.randint(0, nu - k)))
    return DiffOperator(coeffs)


def chain_apply(a, p: Polynomial) -> Polynomial:
    """Reference sum_nu a[nu] p^(nu) / nu! by the derivative chain, added
    term by term; a = J.a[m:] gives J^(m)(p)."""
    out = Polynomial.zero()
    d = p
    for nu, a_nu in enumerate(a):
        if nu > 0:
            d = d.derivative()
        if d.is_zero():
            break
        if not a_nu.is_zero():
            out = out + (a_nu * d) / factorial(nu)
    return out


def chain_transpose_apply(a, u: MomentForm) -> MomentForm:
    """Reference sum_nu ((-1)^nu / nu!) D^nu(a[nu] u) by the derivative
    chain, added term by term (each sum clamps to the shallower order);
    a = J.a[m:] gives the transpose of J^(m)."""
    out = None
    for n, a_n in enumerate(a):
        if a_n.is_zero():
            continue
        term = u.left_mul(a_n)
        for _ in range(n):
            term = term.derivative()
        term = term * Rational((-1) ** n, factorial(n))
        out = term if out is None else out + term
    return MomentForm.zero(u.order) if out is None else out


def random_mps(sampler, n_max: int) -> list:
    """An arbitrary random MPS prefix (monic, full degrees) drawn from sampler."""
    return [Polynomial([sampler.rat() for _ in range(n)] + [1])
            for n in range(n_max + 1)]


def random_recurrence(sampler, depth: int, *, alpha1_zero: bool = False,
                      tie_alpha4: bool = False) -> RecurrenceCoeffs:
    """sampler.recurrence(depth), with alpha_1 = 0 (alpha1_zero) or
    alpha_4 = alpha_2 gamma_3 / gamma_2 (tie_alpha4) set afterwards; the
    draws are those of sampler.recurrence."""
    rc = sampler.recurrence(depth)
    alphas = list(rc.alphas)
    if alpha1_zero:
        alphas[0] = Rational(0)
    if tie_alpha4:
        alphas[3] = alphas[1] * rc.gammas[2] / rc.gammas[1]
    return RecurrenceCoeffs(rc.betas, alphas, rc.gammas)


def jimage_mps(J: DiffOperator, P, k: int) -> list:
    """Normalized image sequence: (lambda_{n+k}^[k])^-1 J(P_{n+k}), monic
    of degree n, for n = 0..len(P)-1-k."""
    count = len(P) - 1 - k
    if count < 0:
        raise ValueError("MPS prefix shorter than the lowering order")
    out = []
    for n, lam in enumerate(J.lambda_seq(k, count)):
        if lam == 0:
            raise ValueError(f"lambda_{n + k}^[{k}] = 0")
        q = J.apply(P[n + k]) / lam
        if q.degree != n or not q.is_monic():
            raise ValueError(f"image of P_{n + k} is not monic of degree {n}")
        out.append(q)
    return out


def expand_in_basis(q: Polynomial, P) -> list:
    """Reference coefficients c with q = sum_m c_m P_m, by descending
    triangular elimination over Rationals; requires deg q < len(P)."""
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


def generate_reference(rc: RecurrenceCoeffs, n_max: int) -> MPSPrefix:
    """Reference two_orth.generate: the four-term recurrence run with
    Polynomial operators, P_0 = 1, P_1 = x - beta_0,
    P_2 = (x - beta_1) P_1 - alpha_1 and
    P_{n+3} = (x - beta_{n+2}) P_{n+2} - alpha_{n+2} P_{n+1} - gamma_{n+1} P_n."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    polys = [ONE]
    if n_max >= 1:
        polys.append(X - Polynomial.constant(rc.beta(0)))
    if n_max >= 2:
        polys.append((X - Polynomial.constant(rc.beta(1))) * polys[1]
                     - Polynomial.constant(rc.alpha(1)))
    for m in range(3, n_max + 1):
        polys.append((X - Polynomial.constant(rc.beta(m - 1))) * polys[m - 1]
                     - rc.alpha(m - 1) * polys[m - 2]
                     - rc.gamma(m - 2) * polys[m - 3])
    return MPSPrefix(polys)


def structure_rows(P) -> tuple:
    """Every structure row of P, k <= len(P) - 2 (two_orth.structure_row);
    the tuple an MPSPrefix keeps. A plain sequence is wrapped first."""
    P = P if isinstance(P, MPSPrefix) else MPSPrefix(P)
    for k in range(len(P) - 1):
        two_orth.structure_row(P, k)
    return P._rows


class OperatorMatrix:
    """Entries M[tau][n] = coefficient of x^tau in J(x^n), tau <= n <= n_max,
    read off J.band(n_max): M[tau][n] = band[n][n - tau] / den inside the
    band, zero outside it."""

    def __init__(self, J: DiffOperator, n_max: int):
        self.band, self.den = J.band(n_max)

    def entry(self, tau: int, n: int) -> Rational:
        col = self.band[n]
        return Rational(col[n - tau] if 0 <= n - tau < len(col) else 0, self.den)

    def diagonal(self) -> list:
        return [Rational(col[0], self.den) for col in self.band]


def lambda_sums(J: DiffOperator, k: int, count: int) -> list:
    """Reference [lambda_{n+k}^[k] for n = 0..count] by the direct sums
    sum_nu C(n+k, nu) a_{n-nu}^[n+k-nu] on J's Rational coefficients."""
    return [sum((comb(n + k, nu) * J.coef(n - nu, n + k - nu) for nu in range(n + 1)),
                Rational(0))
            for n in range(count + 1)]


def apply_matrix(J: DiffOperator, n_max: int) -> list:
    """M[tau][m] = coefficient of x^tau in J.apply(x^m), tau, m <= n_max, as
    Rationals: J's matrix read off its action, independently of J.band."""
    images = [J.apply(Polynomial.monomial(m)) for m in range(n_max + 1)]
    return [[images[m][tau] for m in range(n_max + 1)] for tau in range(n_max + 1)]


def eigen_reference(M) -> tuple:
    """(P, lambdas): the monic eigenvectors of the upper-triangular M by
    back-substitution over Rationals, c_tau = sum_{m > tau} M[tau][m] c_m /
    (lambda_n - lambda_tau); None unless the diagonal is nonzero and
    pairwise distinct."""
    lam = [M[n][n] for n in range(len(M))]
    if 0 in lam or len(set(lam)) < len(lam):
        return None
    polys = []
    for n in range(len(M)):
        c = [Rational(0)] * n + [Rational(1)]
        for tau in range(n - 1, -1, -1):
            c[tau] = sum((M[tau][m] * c[m] for m in range(tau + 1, n + 1)),
                         Rational(0)) / (lam[n] - lam[tau])
        polys.append(Polynomial(c))
    return polys, lam


def check_biorthogonality(P, duals, m_max: int):
    """Reference biorthogonality: <u_k, P_m> = delta_km for every dual u_k
    and every m <= m_max by pairing; raises IdentityViolated
    ("biorthogonality") at the first failure."""
    for k, u in enumerate(duals):
        for m in range(m_max + 1):
            val = u.act(P[m])
            want = 1 if k == m else 0
            if val != want:
                raise IdentityViolated("biorthogonality", f"<u_{k}, P_{m}>",
                                       val, want)


def orthogonality_loop(P, duals, m_max: int) -> Report:
    """Reference two_orth.orthogonality_check by pairing: row (nu, m) pairs
    P_m u_nu with P_{2m+nu} (regularity, nonzero) and with every P_n,
    2m + nu < n <= min(len(P) - 1, order of u_nu - m) (zero), and raises
    IdentityViolated at the first failing pairing; the report has the rows
    and horizons of orthogonality_check."""
    report = Report("orthogonality")
    for nu, u in enumerate(duals[:2]):
        for m in range(m_max + 1):
            reg_index = 2 * m + nu
            if reg_index >= len(P) or m + reg_index > u.order:
                break
            w = u.left_mul(P[m])
            if w.act(P[reg_index]) == 0:
                raise IdentityViolated(
                    f"regularity(nu={nu},m={m})", f"<u_{nu}, P_{m} P_{reg_index}>",
                    0, "nonzero")
            top = min(len(P) - 1, u.order - m)
            for n in range(reg_index + 1, top + 1):
                val = w.act(P[n])
                if val != 0:
                    raise IdentityViolated(f"orthogonality(nu={nu},m={m})",
                                           f"<u_{nu}, P_{m} P_{n}>", val, 0)
            report.add(f"orthogonality(nu={nu},m={m})", horizon=top)
    return report
