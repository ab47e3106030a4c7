"""Expansion intermediates, the fundamental-pair identities, both classical
systems with their printed closed forms, the matrix functional equation,
and the derivative-sequence test."""
import pytest

from conftest import random_mps, random_operator, random_recurrence
from duorth import (DiffOperator, Intermediates, Polynomial, Rational,
                    classical_system_check, derivative_mps, dual_sequence,
                    eigen_mps, fit_2orth_recurrence, generate, hahn_check,
                    implied_first_coeffs, intermediates, j_expansion_check,
                    lemma_identities_check, phi_theorem4, varpi_theorem5)
from duorth.errors import (HypothesisViolated, IdentityViolated,
                          NotTwoOrthogonal)
from duorth.poly import ONE, Polynomial as P_, X
from duorth.two_orth import MPSPrefix

R = Rational


def family4_operator(a0, c0, c1):
    """a2 = 0, a3 = 1: the family whose eigen-MPS is 2-orthogonal with
    matching (beta_0, gamma_1)."""
    return DiffOperator([Polynomial([a0]), Polynomial([c0, c1]),
                         Polynomial.zero(), ONE])


def family5_operator(a0, c0, c1, s0):
    """a2 = s0 constant, a3 = tau a2 = 1 with tau = 1/s0."""
    return DiffOperator([Polynomial([a0]), Polynomial([c0, c1]),
                         Polynomial([s0]), ONE])


def solved_instance(J, depth=30):
    P, lam = eigen_mps(J, depth)
    rc = fit_2orth_recurrence(P)
    duals = dual_sequence(P, 5, depth)
    return P, lam, rc, duals


@pytest.fixture(scope="module")
def inst4():
    J = family4_operator(R(2), R(-1), R(3))
    return (J,) + solved_instance(J)


@pytest.fixture(scope="module")
def inst5():
    J = family5_operator(R(5), R(1, 2), R(-2), R(3, 2))
    return (J,) + solved_instance(J)


class TestIntermediates:
    def test_p0_p1_under_a2_zero(self, inst4):
        J, P, lam, rc, duals = inst4
        it = intermediates(J, rc)
        assert it.p0 == -2 * J.coeff(1)
        assert it.p1.is_zero()
        assert rc.alpha(1) == 0

    def test_degree_bounds(self, sampler):
        for _ in range(6):
            rc = sampler.recurrence(8)
            J = random_operator(sampler, 3)
            it = intermediates(J, rc)
            assert it.pbar0.degree <= 2 and it.pbar1.degree <= 1
            assert it.fbar0.degree <= 2 and it.fbar1.degree <= 2
            assert it.p0.degree <= 1 and it.p1.degree <= 0

    def test_implied_first_coeffs(self):
        J = family4_operator(R(1), R(-1), R(3))
        b0, g1 = implied_first_coeffs(J)
        assert b0 == R(1, 3) and g1 == R(-1, 9)


class TestExpansionChecks:
    def test_family4(self, inst4):
        J, P, lam, rc, duals = inst4
        report = j_expansion_check(intermediates(J, rc), duals, 16)
        tags = {item["tag"] for item in report.items}
        assert {"Eq-9.1", "Eq-9.2", "Eq-9.3", "Eq-9.4",
                "Eq-7.1", "Eq-7.2", "Eq-8.1", "Eq-8.2"} <= tags

    def test_family5(self, inst5):
        J, P, lam, rc, duals = inst5
        report = j_expansion_check(intermediates(J, rc), duals, 16)
        tags = {item["tag"] for item in report.items}
        assert {"Eq-9.1", "Eq-9.4", "Eq-7.1", "Eq-8.2"} <= tags

    def test_eigen_transport_included(self, inst4):
        J, P, lam, rc, duals = inst4
        report = j_expansion_check(intermediates(J, rc), duals, 12)
        assert any(item["tag"].startswith("Eq-J(u_n)") for item in report.items)

    def test_lemma_identities(self, inst4, inst5):
        for J, P, lam, rc, duals in (inst4, inst5):
            report = lemma_identities_check(intermediates(J, rc), duals[:2], 16)
            tags = [item["tag"] for item in report.items]
            assert tags == ["Eq-Da2u0", "Eq-Da2u1", "Eq-Dcomplete"]


def theorem4_generic_inputs(sampler):
    """Random rc with alpha_1 = 0 plus a matching operator with a generic
    admissible cubic a3 (not from an eigenproblem)."""
    while True:
        rc = random_recurrence(sampler, 8, alpha1_zero=True)
        a1 = R(-1, 3) / rc.gamma(1) * (X - Polynomial.constant(rc.beta(0)))
        a3 = sampler.poly(3)
        if a3.degree != 3:
            continue
        t3g1 = a3[3] * rc.gamma(1)
        recip = 1 / t3g1 if t3g1 != 0 else None
        if recip is not None and recip.denominator == 1 and recip >= 1:
            continue
        J = DiffOperator([Polynomial([sampler.rat()]), a1,
                          Polynomial.zero(), a3])
        return J, rc


class TestPhiTheorem4:
    def test_closed_forms_generic(self, sampler):
        for _ in range(3):
            J, rc = theorem4_generic_inputs(sampler)
            # raises IdentityViolated at "closed form" on any gap
            system = phi_theorem4(intermediates(J, rc))
            assert system.phi[0][1][1] == J.coef(3, 3) * rc.gamma(1)
            assert system.phi[1][0][2] == 4 * J.coef(3, 3)

    def test_psi_shape(self, sampler):
        J, rc = theorem4_generic_inputs(sampler)
        system = phi_theorem4(intermediates(J, rc))
        assert system.psi[0][0].is_zero() and system.psi[0][1] == ONE
        e1 = (X - Polynomial.constant(rc.beta(0))) / rc.gamma(1)
        assert system.psi[1][0] == 2 * e1
        assert system.psi[1][1].is_zero()  # 2 A0 with alpha_1 = 0

    def test_rejects_nonzero_a2(self, sampler):
        J, rc = theorem4_generic_inputs(sampler)
        bad = DiffOperator([J.coeff(0), J.coeff(1), ONE, J.coeff(3)])
        with pytest.raises(HypothesisViolated):
            phi_theorem4(intermediates(bad, rc))

    def test_rejects_uncoupled_a1(self, sampler):
        J, rc = theorem4_generic_inputs(sampler)
        bad = DiffOperator([J.coeff(0), 2 * J.coeff(1), Polynomial.zero(),
                            J.coeff(3)])
        with pytest.raises(HypothesisViolated):
            phi_theorem4(intermediates(bad, rc))

    def test_rejects_nonzero_alpha1(self, sampler):
        J, rc = theorem4_generic_inputs(sampler)
        from duorth import RecurrenceCoeffs
        bad_rc = RecurrenceCoeffs(rc.betas, (R(1),) + rc.alphas[1:], rc.gammas)
        with pytest.raises(HypothesisViolated):
            phi_theorem4(intermediates(J, bad_rc))

    def test_rejects_inadmissible_leading(self, sampler):
        # a3^[3] = 1/(gamma1 (m+1)) with m = 3
        J, rc = theorem4_generic_inputs(sampler)
        a3 = Polynomial([0, 0, 0, 1 / (4 * rc.gamma(1))])
        bad = DiffOperator([J.coeff(0), J.coeff(1), Polynomial.zero(), a3])
        with pytest.raises(HypothesisViolated) as err:
            phi_theorem4(intermediates(bad, rc))
        assert "m = 3" in err.value.witness


def theorem5_generic_inputs(sampler):
    """Random rc with alpha_4 = alpha_2 gamma_3/gamma_2, generic degree-1 a2,
    generic nonzero tau."""
    rc = random_recurrence(sampler, 8, tie_alpha4=True)
    a1 = R(-1, 3) / rc.gamma(1) * (X - Polynomial.constant(rc.beta(0)))
    a2 = Polynomial([sampler.rat(), sampler.rat()])
    tau = sampler.rat()
    J = DiffOperator([Polynomial([sampler.rat()]), a1, a2, tau * a2])
    return J, rc, tau


class TestVarpiTheorem5:
    def test_closed_forms_generic(self, sampler):
        for _ in range(3):
            J, rc, tau = theorem5_generic_inputs(sampler)
            try:
                system = varpi_theorem5(intermediates(J, rc), tau)
            except HypothesisViolated:
                continue  # admissibility rejection; resampled next loop
            a12 = J.coeff(2)[1]
            want = (2 * (rc.beta(1) - rc.beta(3)) + 3 * rc.gamma(1) * a12) / (6 * tau)
            assert system.phi[0][1][1] == want
            want11 = (3 * (rc.gamma(1) - rc.gamma(2))
                      - rc.alpha(2) * (rc.beta(1) + rc.beta(2)
                                       - 2 * (rc.beta(3) + tau))) \
                / (6 * rc.gamma(1) * tau)
            assert system.phi[0][0][1] == want11

    def test_varpi11_slope_vanishes(self, sampler):
        # alpha_2 = 0 and gamma_1 = gamma_2 kill the x-coefficient of varpi11
        from duorth import RecurrenceCoeffs
        while True:
            rc0 = random_recurrence(sampler, 8, tie_alpha4=True)
            g = rc0.gamma(1)
            alphas = (rc0.alphas[0], R(0)) + rc0.alphas[2:]
            gammas = (g, g) + rc0.gammas[2:]
            alphas = alphas[:3] + (alphas[1] * gammas[2] / gammas[1],) + alphas[4:]
            rc = RecurrenceCoeffs(rc0.betas, alphas, gammas)
            a1 = R(-1, 3) / g * (X - Polynomial.constant(rc.beta(0)))
            a2 = Polynomial([sampler.rat(), sampler.rat()])
            tau = sampler.rat()
            J = DiffOperator([Polynomial([sampler.rat()]), a1, a2, tau * a2])
            try:
                system = varpi_theorem5(intermediates(J, rc), tau)
                break
            except HypothesisViolated:
                continue
        assert system.phi[0][0].degree <= 0

    def test_tau_zero_rejected(self, inst5):
        J, P, lam, rc, duals = inst5
        with pytest.raises(HypothesisViolated) as err:
            varpi_theorem5(intermediates(J, rc), R(0))
        assert "tau" in err.value.hypothesis

    def test_untied_alpha4_rejected(self, sampler):
        J, rc, tau = theorem5_generic_inputs(sampler)
        from duorth import RecurrenceCoeffs
        alphas = rc.alphas[:3] + (rc.alphas[3] + 1,) + rc.alphas[4:]
        bad_rc = RecurrenceCoeffs(rc.betas, alphas, rc.gammas)
        with pytest.raises(HypothesisViolated) as err:
            varpi_theorem5(intermediates(J, bad_rc), tau)
        assert "alpha4" in err.value.hypothesis

    def test_quadratic_a2_rejected(self, sampler):
        J, rc, tau = theorem5_generic_inputs(sampler)
        a2 = Polynomial([0, 0, 1])
        bad = DiffOperator([J.coeff(0), J.coeff(1), a2, tau * a2])
        with pytest.raises(HypothesisViolated):
            varpi_theorem5(intermediates(bad, rc), tau)

    def test_wrong_proportionality_rejected(self, sampler):
        J, rc, tau = theorem5_generic_inputs(sampler)
        bad = DiffOperator([J.coeff(0), J.coeff(1), J.coeff(2),
                            J.coeff(3) + ONE])
        with pytest.raises(HypothesisViolated):
            varpi_theorem5(intermediates(bad, rc), tau)


def _with(it, **fields):
    """A copy of the intermediates `it` with the given fields replaced."""
    kw = {name: getattr(it, name) for name in it.__slots__}
    kw.update(fields)
    return Intermediates(**kw)


class TestClosedFormMismatchNames:
    """An entry that leaves its closed form raises under its own name."""

    def test_phi_entry(self, inst4):
        J, P, lam, rc, duals = inst4
        it = intermediates(J, rc)
        with pytest.raises(IdentityViolated) as err:
            phi_theorem4(_with(it, pbar1=it.pbar1 + ONE))
        assert err.value.tag == "phi22"

    def test_varpi_entry(self, inst5):
        J, P, lam, rc, duals = inst5
        it = intermediates(J, rc)
        with pytest.raises(IdentityViolated) as err:
            varpi_theorem5(_with(it, pbar0=it.pbar0 + ONE), 1 / J.coeff(2)[0])
        assert err.value.tag == "Table-1-varpi21"

    def test_varpi_degree_guard(self, inst5):
        # x^2 in fbar0 lifts varpi11 to degree 2 before any closed form
        J, P, lam, rc, duals = inst5
        it = intermediates(J, rc)
        with pytest.raises(IdentityViolated) as err:
            varpi_theorem5(_with(it, fbar0=it.fbar0 + X * X), 1 / J.coeff(2)[0])
        assert (err.value.tag, err.value.where, err.value.rhs) == (
            "varpi11", "degree", "degree <= 1")


class TestClassicalSystemCheck:
    def test_family4_system_holds(self, inst4):
        J, P, lam, rc, duals = inst4
        system = phi_theorem4(intermediates(J, rc))
        report = classical_system_check(system, duals[:2], 16)
        assert [item["tag"] for item in report.items] == ["Eq-EqClassic-1",
                                                          "Eq-EqClassic-2"]

    def test_family5_system_holds(self, inst5):
        J, P, lam, rc, duals = inst5
        tau = 1 / J.coeff(2)[0]
        system = varpi_theorem5(intermediates(J, rc), tau)
        report = classical_system_check(system, duals[:2], 16)
        assert [item["horizon"] for item in report.items] == [16, 16]


class TestDerivativeMps:
    def test_monomials(self):
        P = [Polynomial.monomial(n) for n in range(6)]
        Q = derivative_mps(P)
        assert list(Q) == P[:5]

    def test_cubic_example(self):
        # P_3 = x^3 - 1  ->  Q_2 = x^2
        P = [ONE, X, Polynomial.monomial(2), Polynomial([-1, 0, 0, 1])]
        assert derivative_mps(P)[2] == Polynomial.monomial(2)

    def test_monicity(self, sampler):
        P = random_mps(sampler, 8)
        for q in derivative_mps(P):
            assert q.is_monic()


class TestHahnCheck:
    def test_antidifferentiated_sequence_positive(self, sampler):
        # integrate a random regular-rc sequence: its derivative MPS is the
        # original, so the verdict must be positive whatever the constants
        rc = sampler.recurrence(12)
        Q = generate(rc, 11)
        polys = [ONE]
        for n in range(11):
            q = Q[n]
            anti = [sampler.rat()] + [q[i] / (i + 1) for i in range(n + 1)]
            polys.append(Polynomial(anti) * (n + 1))
        assert hahn_check(MPSPrefix(polys)).first_difference(rc) is None

    def test_monomials_negative(self):
        P = [Polynomial.monomial(n) for n in range(7)]
        with pytest.raises(NotTwoOrthogonal):
            hahn_check(P)

    def test_family4_eigen_positive(self, inst4):
        J, P, lam, rc, duals = inst4
        # the fitted rc regenerates the derivative sequence it was read off
        Q = derivative_mps(P.polys[:13])
        assert list(generate(hahn_check(P.polys[:13]), len(Q) - 1)) == list(Q)
