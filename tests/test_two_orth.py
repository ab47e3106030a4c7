"""Recurrence generation, fitting, dual moments, the E/A/B/F pairs and the
moment-level identity suites."""
import pytest

from duorth import (MomentForm, MPSPrefix, Polynomial, Rational,
                    RecurrenceCoeffs, check_dual_identities, dual_pairs,
                    dual_sequence, expand_in_basis, fit_2orth_recurrence,
                    generate, orthogonality_check, structure_rows)
from duorth.errors import (IdentityViolated, MissingCoefficient,
                           NotTwoOrthogonal, OrderExceeded, ZeroGamma)
from duorth.poly import ONE, X

R = Rational


def unit_rc(depth=12, beta0=0):
    """beta = (beta0, 0, 0, ...), alpha = 0, gamma = 1."""
    return RecurrenceCoeffs([beta0] + [0] * (depth - 1), [0] * depth, [1] * depth)


class TestGenerate:
    def test_cubic_family(self):
        P = generate(unit_rc(), 4)
        assert P[3] == Polynomial([-1, 0, 0, 1])          # x^3 - 1
        assert P[4] == Polynomial([0, -2, 0, 0, 1])       # x^4 - 2x

    def test_beta0(self):
        P = generate(unit_rc(beta0=1), 1)
        assert P[1] == Polynomial([-1, 1])

    def test_monic(self, sampler):
        rc = sampler.recurrence(12)
        P = generate(rc, 12)
        for n in range(13):
            assert P[n].is_monic() and P[n].degree == n

    def test_missing_coefficient(self):
        rc = RecurrenceCoeffs([0, 0], [1], [1])
        with pytest.raises(MissingCoefficient):
            generate(rc, 5)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ZeroGamma):
            RecurrenceCoeffs([0], [1], [0])


class TestStructure:
    def test_monomials(self):
        # x * x^k = x^{k+1}: every beta and every chi vanishes
        rows = structure_rows([Polynomial.monomial(n) for n in range(6)])
        assert rows == tuple(((k + 1, 1),) for k in range(5))

    def test_recovers_beta0(self):
        P = generate(unit_rc(beta0=R(5, 2)), 3)
        assert dict(structure_rows(P)[0])[0] == R(5, 2)

    def test_chi_pattern_of_2orthogonal(self, sampler):
        rc = sampler.recurrence(10)
        P = generate(rc, 10)
        for k, row in enumerate(structure_rows(P)):
            chi = dict(row)
            if k >= 1:
                assert chi.get(k - 1, 0) == rc.alpha(k)
            if k >= 2:
                assert chi[k - 2] == rc.gamma(k - 1)
            assert all(j >= k - 2 for j in chi)

    def test_rows_are_kept(self, sampler):
        P = generate(sampler.recurrence(8), 8)
        rows = structure_rows(P)
        assert structure_rows(P) is rows
        assert structure_rows(list(P)) == rows


class TestFit:
    def test_round_trip(self, sampler):
        for _ in range(10):
            rc = sampler.recurrence(14)
            fitted = fit_2orth_recurrence(generate(rc, 14))
            assert fitted.agrees_with(rc)

    def test_monomials_degenerate(self):
        P = [Polynomial.monomial(n) for n in range(6)]
        with pytest.raises(NotTwoOrthogonal) as err:
            fit_2orth_recurrence(P)
        assert err.value.index == 1
        assert err.value.reason == "gamma_1 = 0 breaks regularity"

    def test_perturbed_detected(self, sampler):
        # replacing P_3 by P_3 + P_0 breaks the structure row from x P_3:
        # chi_{2,0} becomes beta_0 - beta_3 != 0
        while True:
            rc = sampler.recurrence(8)
            if rc.beta(0) != rc.beta(3):
                break
        P = list(generate(rc, 8))
        P[3] = P[3] + ONE
        with pytest.raises(NotTwoOrthogonal) as err:
            fit_2orth_recurrence(MPSPrefix(P))
        assert err.value.index == 2
        assert err.value.reason == f"chi_{{2,0}} = {rc.beta(0) - rc.beta(3)} != 0"

    def test_short_prefix_rejected(self):
        with pytest.raises(ValueError):
            fit_2orth_recurrence([ONE, X, Polynomial.monomial(2)])


def basis_change_duals(P, k_max, N):
    """Reference duals by the direct basis change: expand every x^n over P,
    then (u_k)_n = c_{n,k}."""
    table = [expand_in_basis(Polynomial.monomial(n), P) for n in range(N + 1)]
    return [MomentForm([row[k] for row in table]) for k in range(k_max + 1)]


def moments(duals):
    return [u.moments for u in duals]


class TestDualMoments:
    def test_first_moment_is_one(self, sampler):
        rc = sampler.recurrence(8)
        u0 = dual_sequence(generate(rc, 8), 0, 7)[0]
        assert u0.moment(0) == 1

    def test_cubic_family_third_moment(self):
        # x^3 = P_3 + P_0 for the beta=0, alpha=0, gamma=1 family
        u0 = dual_sequence(generate(unit_rc(), 8), 0, 7)[0]
        assert u0.moment(3) == 1

    def test_u1_normalization(self, sampler):
        rc = sampler.recurrence(8)
        u1 = dual_sequence(generate(rc, 8), 1, 7)[1]
        assert u1.moment(1) == 1 and u1.moment(0) == 0

    def test_biorthogonality(self, sampler):
        rc = sampler.recurrence(10)
        P = generate(rc, 10)
        duals = dual_sequence(P, 8, 9)
        for k in range(9):
            for m in range(9):
                if P[m].degree <= duals[k].order:
                    assert duals[k].act(P[m]) == (1 if k == m else 0)

    def test_matches_basis_change_on_generated(self, sampler):
        for depth in (8, 16, 30):
            P = generate(sampler.recurrence(depth), depth)
            for k_max, N in ((5, depth - 1), (5, depth), (1, depth)):
                assert (moments(dual_sequence(P, k_max, N))
                        == moments(basis_change_duals(P, k_max, N)))

    def test_matches_basis_change_on_generic_mps(self, sampler):
        # an arbitrary MPS has full structure rows, not four terms
        for n_max in (4, 9, 13):
            P = sampler.mps_polys(n_max)
            for k_max in (0, 3, n_max - 1):
                assert (moments(dual_sequence(P, k_max, n_max - 1))
                        == moments(basis_change_duals(P, k_max, n_max - 1)))

    def test_matches_basis_change_at_full_index(self, sampler):
        P = generate(sampler.recurrence(12), 12)
        Q = sampler.mps_polys(9)
        for seq, N in ((P, 12), (P, 0), (Q, 9)):
            assert (moments(dual_sequence(seq, N, N))
                    == moments(basis_change_duals(seq, N, N)))

    def test_order_limits(self):
        P = generate(unit_rc(), 6)
        with pytest.raises(OrderExceeded):
            dual_sequence(P, 7, 6)  # k_max > N
        with pytest.raises(OrderExceeded):
            dual_sequence(P, 2, 7)  # P_7 missing

    def test_corrupted_structure_row_fails_certification(self, sampler,
                                                         corrupt_structure_row):
        corrupt_structure_row(2)
        P = generate(sampler.recurrence(12), 12)
        with pytest.raises(IdentityViolated) as err:
            dual_sequence(P, 5, 11)
        assert err.value.tag == "biorthogonality"
        assert err.value.where == "<u_0, P_3>"  # (u_0)_3 = gamma_1 + ..


class TestEABF:
    def explicit_low_index_forms(self, rc):
        """The known explicit expressions for indices <= 2, written out
        independently of the recurrence solver."""
        b = rc.beta
        al = rc.alpha
        g = rc.gamma
        E1 = (X - Polynomial.constant(b(0))) / g(1)
        A0 = Polynomial.constant(-al(1) / g(1))
        B1 = R(-1, 1) * al(2) / (g(1) * g(2)) * (X - Polynomial.constant(b(0))) \
            - Polynomial.constant(1 / g(2))
        F1 = (X - Polynomial.constant(b(1) - al(2) * al(1) / g(1))) / g(2)
        E2 = ((X - Polynomial.constant(b(2))) * E1 - al(3) * B1) / g(3)
        A1 = R(-1, 1) / g(3) * (al(3) * F1 + ONE
                                + al(1) / g(1) * (X - Polynomial.constant(b(2))))
        B2 = ((X - Polynomial.constant(b(3))) * B1 - al(4) * E2 - E1) / g(4)
        F2 = ((X - Polynomial.constant(b(3))) * F1 - al(4) * A1 - A0) / g(4)
        return E1, A0, B1, F1, E2, A1, B2, F2

    def test_low_index_closed_forms(self, sampler):
        for _ in range(6):
            rc = sampler.recurrence(8)
            E1, A0, B1, F1, E2, A1, B2, F2 = self.explicit_low_index_forms(rc)
            assert dual_pairs(rc, 5)[2:] == [(E1, A0), (B1, F1), (E2, A1), (B2, F2)]

    def test_f2_second_derivative(self, sampler):
        rc = sampler.recurrence(8)
        f2 = dual_pairs(rc, 5)[5][1]
        assert f2.derivative(2) == Polynomial.constant(2 / (rc.gamma(2) * rc.gamma(4)))

    def test_degrees(self, sampler):
        # u_{2n} = E_n u_0 + A_{n-1} u_1, u_{2n+1} = B_n u_0 + F_n u_1
        for _ in range(50):
            rc = sampler.recurrence(12)
            pairs = dual_pairs(rc, 9)
            for n in range(5):
                (E, A), (B, F) = pairs[2 * n], pairs[2 * n + 1]
                assert E.degree == n and F.degree == n
                assert A.degree <= n - 1 and B.degree <= n

    def test_seeds(self, sampler):
        rc = sampler.recurrence(6)
        assert dual_pairs(rc, 1) == [(ONE, Polynomial.zero()), (Polynomial.zero(), ONE)]

    def test_reads_rc_through_index_k_max_minus_1(self, sampler):
        # u_5 needs beta_3, alpha_4 and gamma_4 only
        rc = sampler.recurrence(12)
        short = RecurrenceCoeffs(rc.betas[:4], rc.alphas[:4], rc.gammas[:4])
        assert dual_pairs(short, 5) == dual_pairs(rc, 5)
        with pytest.raises(MissingCoefficient):
            dual_pairs(short, 6)


class TestDualIdentities:
    def test_functional_recurrence_and_decompositions(self, sampler):
        for _ in range(5):
            rc = sampler.recurrence(22)
            P = generate(rc, 22)
            duals = dual_sequence(P, 5, 21)
            report = check_dual_identities(rc, duals, 16)
            tags = {item["tag"] for item in report.items}
            assert {"Eq-u2", "Eq-u3", "Eq-u4", "Eq-u5"} <= tags
            assert "dual-recurrence(n=0)" in tags

    def test_recurrence_violation_detected(self, sampler):
        rc = sampler.recurrence(14)
        P = generate(rc, 14)
        duals = dual_sequence(P, 5, 13)
        # an inconsistent gamma_1 breaks the n = 0 row
        bad = RecurrenceCoeffs(rc.betas, rc.alphas,
                               (rc.gamma(1) + 1,) + rc.gammas[1:])
        with pytest.raises(IdentityViolated) as err:
            check_dual_identities(bad, duals, 8)
        assert "dual-recurrence" in err.value.tag


class TestOrthogonality:
    def test_duality_rows(self, sampler):
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        duals = dual_sequence(P, 1, 15)
        report = orthogonality_check(P, duals, m_max=2)
        assert [item["tag"] for item in report.items] == [
            f"orthogonality(nu={nu},m={m})" for nu in (0, 1) for m in (0, 1, 2)]

    def test_specific_products(self, sampler):
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        u1 = dual_sequence(P, 1, 15)[1]
        assert u1.act(P[1] * P[3]) != 0
        assert u1.act(P[1] * P[4]) == 0
