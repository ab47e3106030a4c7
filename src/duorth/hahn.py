"""Hahn-classicality machinery for third-order operator eigenpairs.

Given an isomorphism J = a_0 I + a_1 D + a_2/2 D^2 + a_3/6 D^3 whose monic
eigenpolynomials are 2-orthogonal, the transposes of the operators J^(m) =
sum_nu a_(nu+m) D^nu / nu! (J.transpose_apply(u, m)) on the regular vector
(u_0, u_1) expand as J^(1)(u_0) = p_0 u_0 + p_1 u_1 and so on; `intermediates`
gates the order and builds those coefficient polynomials once per (J, rc) from
the dual pairs u_k = c0 u_0 + c1 u_1 (two_orth.dual_pairs). Its `Intermediates`
feeds three functional identities and the matrix system D(Phi U) + Psi U = 0 of
both classicality theorems, beside the derivative-sequence (Hahn) test. The
source identities Eq-7.1..Eq-8.2 are J applied to the pairs of u_2..u_5 by the
Leibniz rule. `check_scope` is the a_1 coupling both theorems share.
"""
from __future__ import annotations

from math import factorial
from typing import Sequence

from .backend import Rat as Rational
from .diffop import DiffOperator
from .errors import HypothesisViolated, IdentityViolated
from .forms import MomentForm, combine, require_equal, require_order
from .poly import ONE, Polynomial, as_rational
from .reporting import Report
from .two_orth import (MPSPrefix, RecurrenceCoeffs, dual_pairs,
                       fit_2orth_recurrence)

__all__ = [
    "Intermediates", "intermediates", "ClassicalSystem",
    "implied_first_coeffs", "check_scope", "j_expansion_check",
    "lemma_identities_check", "phi_theorem4", "varpi_theorem5",
    "classical_system_check",
    "derivative_mps", "hahn_check",
]

_HALF = Rational(1, 2)


def implied_first_coeffs(J: DiffOperator):
    """(beta_0, gamma_1) implied by a_1 through the coupling
    a_1 = -(1/(3 gamma_1)) (x - beta_0); needs deg a_1 = 1."""
    a1 = J.coeff(1)
    if a1.degree != 1:
        raise HypothesisViolated("deg a1 = 1", witness=str(a1))
    c1 = a1[1]
    return -a1[0] / c1, Rational(-1, 3) / c1


def check_scope(J: DiffOperator, rc: RecurrenceCoeffs):
    """The a_1 coupling a_1 = -(1/(3 gamma_1))(x - beta_0) of both theorems:
    rc's fitted (beta_0, gamma_1) must equal the pair a_1 implies."""
    b0, g1 = implied_first_coeffs(J)
    if rc.beta(0) != b0 or rc.gamma(1) != g1:
        raise HypothesisViolated(
            "instance outside theorem scope",
            f"fitted (beta0, gamma1) = ({rc.beta(0)}, {rc.gamma(1)}), "
            f"implied ({b0}, {g1})")


class Intermediates:
    """The eight expansion polynomials over (u_0, u_1):
    J^(1)(u_0) = p0 u_0 + p1 u_1,     J^(1)(u_1) = f0 u_0 + f1 u_1,
    J^(2)(u_0) = pbar0 u_0 + pbar1 u_1, J^(2)(u_1) = fbar0 u_0 + fbar1 u_1,
    together with lambda_0..lambda_5, the pairs u_k = c0 u_0 + c1 u_1
    (k <= 5) they came from (pairs[2] = (E1, A0), .., pairs[5] = (B2, F2))
    and the J and rc they were built from, so one object feeds each stage.
    """

    __slots__ = ("J", "rc", "p0", "p1", "f0", "f1", "pbar0", "pbar1",
                 "fbar0", "fbar1", "lambdas", "pairs")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])
        bounds = (("p0", 1), ("p1", 0), ("pbar0", 2), ("pbar1", 1),
                  ("fbar0", 2), ("fbar1", 2))
        for name, bound in bounds:
            p = getattr(self, name)
            if p.degree > bound:
                raise ArithmeticError(f"deg {name} = {p.degree} > {bound}")


def intermediates(J: DiffOperator, rc: RecurrenceCoeffs) -> Intermediates:
    """Build p/f/pbar/fbar from the lambda scalars of J and the dual pairs
    of rc up to u_5 (rc must reach index 4)."""
    if J.order > 3:
        raise HypothesisViolated("third-order normal-form operator",
                                 witness=f"order {J.order}")
    lam = J.lambda_seq(0, 5)
    pairs = dual_pairs(rc, 5)
    (E1, A0), (B1, F1), (E2, A1), (B2, F2) = pairs[2:]
    g1, g2, g3, g4 = (rc.gamma(i) for i in (1, 2, 3, 4))
    al2 = rc.alpha(2)

    p0 = (lam[0] - lam[2]) * g1 * E1
    p1 = (lam[1] - lam[2]) * g1 * A0
    f0 = (lam[0] - lam[3]) * g2 * B1 + (lam[0] - lam[2]) * al2 * E1
    f1 = (lam[1] - lam[3]) * g2 * F1 + (lam[1] - lam[2]) * al2 * A0

    E2p, A1p = E2.derivative(), A1.derivative()
    pbar0 = (g1 * g3) * ((lam[4] - lam[0]) * E2 + E2p * p0 + A1p * f0)
    pbar1 = (g1 * g3) * ((lam[4] - lam[1]) * A1 + E2p * p1 + A1p * f1)

    B2p, F2p, B2pp = B2.derivative(), F2.derivative(), B2.derivative(2)
    fbar0 = (g2 * g4) * ((lam[5] - lam[0]) * B2 + B2p * p0 + F2p * f0
                         - _HALF * B2pp * pbar0)
    fbar1 = (g2 * g4) * ((lam[5] - lam[1]) * F2 + B2p * p1 + F2p * f1
                         - _HALF * B2pp * pbar1)

    return Intermediates(J=J, rc=rc, p0=p0, p1=p1, f0=f0, f1=f1, pbar0=pbar0,
                         pbar1=pbar1, fbar0=fbar0, fbar1=fbar1,
                         lambdas=tuple(lam), pairs=pairs)


def j_expansion_check(it: Intermediates, duals: Sequence[MomentForm],
                      M: int) -> Report:
    """Verify the four J^(m) transpose expansions (tags Eq-9.1..Eq-9.4),
    the eigen transport J(u_n) = lambda_n u_n on the available duals, and
    the source identities Eq-7.1, Eq-7.2, Eq-8.1, Eq-8.2, all moment-wise
    to order M. Needs duals u_0..u_5 carrying order >= M + 4."""
    if len(duals) < 6:
        raise ValueError("need the duals u_0..u_5")
    require_order(duals[:6], M + 4)
    J, lam = it.J, it.lambdas
    u0, u1 = duals[0], duals[1]
    report = Report("j-expansions")

    for n, u in enumerate(duals[:6]):
        require_equal(J.transpose_apply(u), lam[n] * u, M, f"Eq-J(u_n)(n={n})")
        report.add(f"Eq-J(u_n)(n={n})", horizon=M)

    # jets[nu][j] = J^(j)(u_nu), with J^(0)(u_nu) = lambda_nu u_nu
    jets = [[lam[nu] * u] + [J.transpose_apply(u, j) for j in (1, 2)]
            for nu, u in enumerate((u0, u1))]
    expansions = (
        ("Eq-9.1", jets[0][1], it.p0, it.p1),
        ("Eq-9.2", jets[1][1], it.f0, it.f1),
        ("Eq-9.3", jets[0][2], it.pbar0, it.pbar1),
        ("Eq-9.4", jets[1][2], it.fbar0, it.fbar1),
    )
    for tag, lhs, c0, c1 in expansions:
        require_equal(lhs, combine([(c0, u0), (c1, u1)]), M, tag)
        report.add(tag, horizon=M)

    # J applied to u_k = c0 u_0 + c1 u_1 by the Leibniz rule:
    # lambda_k u_k = sum_nu sum_j (-1)^j / j! c_nu^(j) J^(j)(u_nu),
    # over the j <= deg c_nu whose derivative does not vanish
    for k, tag in enumerate(("Eq-7.1", "Eq-8.1", "Eq-7.2", "Eq-8.2"), start=2):
        terms = [(Rational((-1) ** j, factorial(j)) * c.derivative(j), jets[nu][j])
                 for nu, c in enumerate(it.pairs[k]) for j in range(len(c.nums))]
        require_equal(lam[k] * duals[k], combine(terms), M, tag)
        report.add(tag, horizon=M)
    return report


def lemma_identities_check(it: Intermediates, duals, M: int) -> Report:
    """Verify the three fundamental-pair identities to order M
    (tags Eq-Da2u0, Eq-Da2u1, Eq-Dcomplete); duals must carry M + 4."""
    u0, u1 = duals[0], duals[1]
    require_order((u0, u1), M + 4)
    a1, a2 = it.J.coeff(1), it.J.coeff(2)
    a11 = a1[1]
    report = Report("fundamental-pair-identities")

    # Eq-Da2u0:  D(a2 u0) = (2 p0 + 4 a1) u0 + 2 p1 u1
    lhs = u0.left_mul(a2).derivative()
    rhs = combine([(2 * it.p0 + 4 * a1, u0), (2 * it.p1, u1)])
    require_equal(lhs, rhs, M, "Eq-Da2u0")
    report.add("Eq-Da2u0", horizon=M)

    # Eq-Da2u1:  (1/2) D^2(a2 u1) - 3 a1^[1] u1 = D(f0 u0 + (2 a1 + f1) u1)
    lhs = _HALF * u1.left_mul(a2).derivative().derivative() - 3 * a11 * u1
    rhs = combine([(it.f0, u0), (2 * a1 + it.f1, u1)]).derivative()
    require_equal(lhs, rhs, M, "Eq-Da2u1")
    report.add("Eq-Da2u1", horizon=M)

    # Eq-Dcomplete:  D(pbar0 u0 + pbar1 u1) + (2 a1 + 4 p0) u0 + 4 p1 u1 = 0
    expr = (combine([(it.pbar0, u0), (it.pbar1, u1)]).derivative()
            + combine([(2 * a1 + 4 * it.p0, u0), (4 * it.p1, u1)]))
    require_equal(expr, MomentForm.zero(expr.order), M, "Eq-Dcomplete")
    report.add("Eq-Dcomplete", horizon=M)
    return report


class ClassicalSystem:
    """The matrix functional system D(Phi U) + Psi U = 0 on U = (u_0, u_1).

    Degree bounds: deg phi11 <= 1, deg phi12 <= 1, deg phi21 <= 2,
    deg phi22 <= 1; Psi row one is (0, 1), row two is (2 E1, 2 A0).
    """

    __slots__ = ("phi", "psi")

    def __init__(self, phi, psi):
        phi = tuple(tuple(row) for row in phi)
        psi = tuple(tuple(row) for row in psi)
        bounds = ((1, 1), (2, 1))
        for i in range(2):
            for j in range(2):
                if phi[i][j].degree > bounds[i][j]:
                    raise ArithmeticError(
                        f"deg phi[{i + 1},{j + 1}] exceeds {bounds[i][j]}")
        if not psi[0][0].is_zero() or psi[0][1] != ONE:
            raise ArithmeticError("Psi row one must be (0, 1)")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)


def _integer_reciprocal_m(value: Rational):
    """The m >= 0 with value = 1/(m+1), or None if there is none; a rational
    equals 1/(m+1) for at most one m, so this decides every m at once."""
    if value == 0:
        return None
    r = 1 / value
    if r.denominator == 1 and r >= 1:
        return int(r.numerator) - 1
    return None


def _cross_checked(it: Intermediates, name: str, built: dict,
                   closed: dict) -> ClassicalSystem:
    """The classical system whose Phi entries (keyed "11".."22") are
    `built`, once each equals its closed form (IdentityViolated tagged
    name + key, at "closed form", otherwise); Psi = ((0, 1), 2 (E1, A0))."""
    for ij, form in closed.items():
        if built[ij] != form:
            raise IdentityViolated(name + ij, "closed form", built[ij], form)
    psi = ((Polynomial.zero(), ONE), tuple(2 * c for c in it.pairs[2]))
    return ClassicalSystem(((built["11"], built["12"]),
                            (built["21"], built["22"])), psi)


def phi_theorem4(it: Intermediates) -> ClassicalSystem:
    """The classical system of the a_2 = 0 family, read off `it`.

    Hypothesis gates: a_2 = 0; a_1 tied to (beta_0, gamma_1); alpha_1 = 0
    (forced, tag Eq-p1=0); admissibility a_3^[3] != 1/(gamma_1 (m+1)).
    Each Phi entry is built from its defining form and from its printed
    closed form; any disagreement raises IdentityViolated tagged phi<ij>.
    """
    J, rc = it.J, it.rc
    if not J.coeff(2).is_zero():
        raise HypothesisViolated("a2 = 0", witness=str(J.coeff(2)))
    check_scope(J, rc)
    if rc.alpha(1) != 0:
        raise HypothesisViolated("alpha1 = 0 (forced by the a2 = 0 family)",
                                 witness=str(rc.alpha(1)))
    g1, g2 = rc.gamma(1), rc.gamma(2)
    t3 = J.coef(3, 3)
    m = _integer_reciprocal_m(t3 * g1)
    if m is not None:
        raise HypothesisViolated("a3^[3] != 1/(gamma1 (m+1))", witness=f"m = {m}")

    a1 = J.coeff(1)
    b0, b1, b2 = rc.beta(0), rc.beta(1), rc.beta(2)
    al2, al3 = rc.alpha(2), rc.alpha(3)

    built = {
        "11": -g1 * it.f0,
        "12": -g1 * (2 * a1 + it.f1),
        "21": it.pbar0,
        "22": it.pbar1,
    }
    closed = {
        "11": Polynomial([
            t3 * (al2 * b0 - g1) - al2 * b0 / (3 * g1) + 1,
            al2 * (Rational(1, 3) / g1 - t3),
        ]),
        "12": Polynomial([
            (-2 * b0 + b1 * (2 - 3 * t3 * g1)) / 3,
            t3 * g1,
        ]),
        "21": Polynomial([
            (al3 * (al2 * b0 - g1) * (1 - 9 * t3 * g1)
             + 2 * b0 * (b0 + b2 * (-1 + 6 * t3 * g1)) * g2) / (3 * g1 * g2),
            (al2 * al3 * (-1 + 9 * t3 * g1)
             - 2 * (b2 * (-1 + 6 * t3 * g1) + b0 * (1 + 6 * t3 * g1)) * g2)
            / (3 * g1 * g2),
            4 * t3,
        ]),
        "22": Polynomial([
            (al3 * b1 * (-1 + 9 * t3 * g1) + 3 * (1 - 4 * t3 * g1) * g2) / (3 * g2),
            al3 * (1 - 9 * t3 * g1) / (3 * g2),
        ]),
    }
    return _cross_checked(it, "phi", built, closed)


def varpi_theorem5(it: Intermediates, tau) -> ClassicalSystem:
    """The classical system of the a_3 = tau a_2 family, read off `it`.

    Hypothesis gates: tau != 0; a_3 = tau a_2 exactly; deg a_2 <= 1
    (a_2^[2] = 0); a_1 tied to (beta_0, gamma_1); alpha_4 = alpha_2
    gamma_3 / gamma_2; the x-coefficient of varpi12 differs from every
    1/(m+1). Entries are cross-checked against the tabulated closed forms.
    """
    J, rc = it.J, it.rc
    tau = as_rational(tau)
    if tau == 0:
        raise HypothesisViolated("tau != 0")
    a1, a2, a3 = J.coeff(1), J.coeff(2), J.coeff(3)
    if a3 != tau * a2:
        raise HypothesisViolated("a3 = tau a2",
                                 witness=f"a3 = {a3}, tau a2 = {tau * a2}")
    if a2.degree > 1:
        raise HypothesisViolated("a2^[2] = 0", witness=str(a2))
    check_scope(J, rc)
    if rc.alpha(4) != rc.alpha(2) * rc.gamma(3) / rc.gamma(2):
        raise HypothesisViolated(
            "alpha4 = alpha2 gamma3 / gamma2",
            witness=f"alpha4 = {rc.alpha(4)}")
    g1, g2 = rc.gamma(1), rc.gamma(2)
    b0, b1, b2, b3 = (rc.beta(i) for i in range(4))
    a02, a12 = a2[0], a2[1]
    w = (2 * (b1 - b3) + 3 * g1 * a12) / (6 * tau)
    m = _integer_reciprocal_m(w)
    if m is not None:
        raise HypothesisViolated(
            "a1^[2] != 2 tau/(gamma1 (m+1)) - (2/(3 gamma1))(beta1 - beta3)",
            witness=f"m = {m}")

    a11 = a1[1]
    scale = 1 / (3 * a11)
    varpi11 = scale * (1 / (2 * tau) * it.fbar0 + it.f0)
    varpi12 = scale * (2 * a1 + it.f1 - 1 / (2 * tau) * (a2 - it.fbar1))
    A0 = it.pairs[2][1]
    varpi21 = it.pbar0 + Rational(2, 3) * A0 * varpi11
    varpi22 = it.pbar1 + Rational(2, 3) * A0 * varpi12
    for name, p in (("varpi11", varpi11), ("varpi12", varpi12)):
        if p.degree > 1:
            raise IdentityViolated(name, "degree", p, "degree <= 1")

    al1, al2, al3 = rc.alpha(1), rc.alpha(2), rc.alpha(3)
    built = {"11": varpi11, "12": varpi12, "21": varpi21, "22": varpi22}
    closed = {
        "11": Polynomial([
            (3 * b0 * g2 + al2 * b0 * (b1 + b2 - 2 * (b3 + tau))
             + g1 * (-2 * b0 - 3 * b1 + 2 * b3 + 6 * tau)) / (6 * g1 * tau),
            (3 * (g1 - g2) - al2 * (b1 + b2 - 2 * (b3 + tau))) / (6 * g1 * tau),
        ]),
        "12": Polynomial([
            (g1 * (3 * g1 * a02 - 2 * (al2 + 2 * b0 * tau + b1 * (b1 - b3 - 2 * tau)))
             + al1 * (-g1 + 3 * g2 + al2 * (b1 + b2 - 2 * (b3 + tau))))
            / (6 * g1 * tau),
            (3 * g1 * a12 + 2 * b1 - 2 * b3) / (6 * tau),
        ]),
        "21": Polynomial([
            (-3 * al1 * b0 * g2 ** 2
             + g2 * g1 * (al1 * (2 * b0 - 2 * b3 + 3 * (b1 + tau))
                          + 6 * b0 * (b0 - b2) * tau)
             + al2 * b0 * (3 * al3 * g1 * tau
                           - al1 * g2 * (b1 + b2 - 2 * b3 + tau))
             - 3 * al3 * g1 ** 2 * tau) / (9 * g1 ** 2 * g2 * tau),
            (al2 * (al1 * g2 * (b1 + b2 - 2 * b3 + tau) - 3 * al3 * g1 * tau)
             + 3 * g2 * (al1 * (g2 - g1) + 2 * (b2 - b0) * g1 * tau))
            / (9 * g1 ** 2 * g2 * tau),
        ]),
        "22": Polynomial([
            (al1 * g1 * (g2 * (-3 * g1 * a02 + 7 * b0 * tau
                               + 2 * (b1 ** 2 + b1 * (tau - b3) - 3 * b2 * tau))
                         + al2 * (2 * g2 + 3 * al3 * tau))
             + al1 ** 2 * (-g2) * (-g1 + 3 * g2 + al2 * (b1 + b2 - 2 * b3 + tau))
             - 3 * g1 ** 2 * tau * (al3 * b1 - 3 * g2)) / (9 * g1 ** 2 * g2 * tau),
            (3 * al3 * g1 * tau - al1 * g2 * (3 * g1 * a12 + 2 * b1 - 2 * b3 + 3 * tau))
            / (9 * g1 * g2 * tau),
        ]),
    }
    return _cross_checked(it, "Table-1-varpi", built, closed)


def classical_system_check(sys, duals, M: int) -> Report:
    """Verify both rows of D(Phi U) + Psi U = 0 moment-wise to order M
    (tags Eq-EqClassic-1/2); duals must carry order >= M + 3."""
    phi, psi = sys.phi, sys.psi
    u0, u1 = duals[0], duals[1]
    require_order((u0, u1), M + 3)
    report = Report("classical-system")
    for r, tag in enumerate(("Eq-EqClassic-1", "Eq-EqClassic-2")):
        expr = (combine([(phi[r][0], u0), (phi[r][1], u1)]).derivative()
                + combine([(psi[r][0], u0), (psi[r][1], u1)]))
        require_equal(expr, MomentForm.zero(expr.order), M, tag)
        report.add(tag, horizon=M)
    return report


def derivative_mps(P) -> MPSPrefix:
    """The normalized derivative sequence Q_n = P'_{n+1} / (n+1)."""
    if len(P) < 2:
        raise ValueError("need at least P_0 and P_1")
    return MPSPrefix([P[n + 1].derivative() / (n + 1) for n in range(len(P) - 1)])


def hahn_check(P) -> RecurrenceCoeffs:
    """Hahn's property of P: the four-term recurrence fitted on the
    normalized derivative sequence; NotTwoOrthogonal when it has none."""
    if len(P) < 5:
        raise ValueError("need P_0..P_4 to test the derivative sequence")
    return fit_2orth_recurrence(derivative_mps(P))
