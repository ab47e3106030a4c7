"""Recurrence generation, fitting, dual moments, the E/A/B/F pairs and the
moment-level identity suites."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_biorthogonality, expand_in_basis, generate_reference,
                      orthogonality_loop, random_mps, rationals, structure_rows)
from duorth import (MomentForm, MPSPrefix, ParamSampler, Polynomial, Rational,
                    RecurrenceCoeffs, check_dual_identities, dual_pairs,
                    dual_sequence, eigen_mps, fit_2orth_recurrence, generate,
                    orthogonality_check)
from duorth.errors import (IdentityViolated, MissingCoefficient,
                           NotTwoOrthogonal, OrderExceeded, ZeroGamma)
from duorth.poly import ONE, X
from duorth.two_orth import dual_recurrence, structure_row

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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_polynomial_recurrence(self, data):
        # beta and alpha are 0 about half the time: the sampler never draws 0
        depth = data.draw(st.integers(min_value=0, max_value=12))
        coef = st.one_of(st.just(R(0)), rationals())
        rc = RecurrenceCoeffs(
            data.draw(st.lists(coef, min_size=depth, max_size=depth)),
            data.draw(st.lists(coef, min_size=depth, max_size=depth)),
            data.draw(st.lists(rationals().filter(bool), min_size=depth,
                               max_size=depth)))
        n = data.draw(st.integers(min_value=0, max_value=depth))
        pairs = [(p.nums, p.den) for p in generate(rc, n)]
        assert pairs == [(p.nums, p.den) for p in generate_reference(rc, n)]


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


def dense_rows(P):
    """The structure rows by one full expansion of every x P_k over P."""
    return tuple(tuple((j, c) for j, c in enumerate(expand_in_basis(X * p, P))
                       if c != 0)
                 for p in P[:-1])


def dense_witness(rows):
    """(index, reason) of the fit's NotTwoOrthogonal on these rows, or None."""
    for k, row in enumerate(rows):
        for j, c in row:
            if j < k - 2:
                return k - 1, f"chi_{{{k - 1},{j}}} = {c} != 0"
        if k >= 2 and row[0][0] != k - 2:
            return k - 1, f"gamma_{k - 1} = 0 breaks regularity"
    return None


@st.composite
def sequences(draw, max_len=10):
    """Monic sequences P_0..P_{n-1}: generated by a random recurrence, the
    same with P_k + c P_j in place of P_k, generic, or the monomials."""
    n = draw(st.integers(min_value=4, max_value=max_len))
    shape = draw(st.sampled_from(["generated", "perturbed", "generic", "monomial"]))
    if shape == "monomial":
        return [Polynomial.monomial(m) for m in range(n)]
    if shape == "generic":
        return [Polynomial(draw(st.lists(rationals(), min_size=m, max_size=m)) + [1])
                for m in range(n)]
    coeffs = st.lists(rationals(), min_size=n, max_size=n)
    nonzero = rationals().filter(lambda r: r != 0)
    rc = RecurrenceCoeffs(draw(coeffs), draw(coeffs),
                          draw(st.lists(nonzero, min_size=n, max_size=n)))
    P = list(generate(rc, n - 1))
    if shape == "perturbed":
        k = draw(st.integers(min_value=1, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=k - 1))
        P[k] = P[k] + draw(nonzero) * P[j]
    return P


class TestRowsAgainstDenseExpansion:
    @given(sequences())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_witness(self, P):
        rows = dense_rows(P)
        assert structure_rows(P) == rows
        try:
            fit_2orth_recurrence(P)
            witness = None
        except NotTwoOrthogonal as exc:
            witness = exc.index, exc.reason
        assert witness == dense_witness(rows)


class TestFit:
    def test_round_trip(self, sampler):
        for _ in range(10):
            rc = sampler.recurrence(14)
            fitted = fit_2orth_recurrence(generate(rc, 14))
            assert fitted.first_difference(rc) is None

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

    @pytest.mark.parametrize("k", range(3, 9))
    def test_lowest_coefficient_breaks_row(self, sampler, k):
        # P_{k+1} + c P_0 differs from x P_k - beta_k P_k - alpha_k P_{k-1}
        # - gamma_{k-1} P_{k-2} only at x^0, so row k gains chi_{k,0} = -c
        P = list(generate(sampler.recurrence(10), 10))
        P[k + 1] = P[k + 1] + R(3, 7) * P[0]
        row = structure_row(MPSPrefix(P), k)
        assert row == dense_rows(P)[k]
        assert [j for j, _ in row] == [0, k - 2, k - 1, k, k + 1]
        with pytest.raises(NotTwoOrthogonal) as err:
            fit_2orth_recurrence(MPSPrefix(P))
        assert err.value.index == k - 1
        assert err.value.reason == f"chi_{{{k - 1},0}} = -3/7 != 0"


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
            P = random_mps(sampler, n_max)
            for k_max in (0, 3, n_max - 1):
                assert (moments(dual_sequence(P, k_max, n_max - 1))
                        == moments(basis_change_duals(P, k_max, n_max - 1)))

    def test_matches_basis_change_at_full_index(self, sampler):
        P = generate(sampler.recurrence(12), 12)
        Q = random_mps(sampler, 9)
        for seq, N in ((P, 12), (P, 0), (Q, 9)):
            assert (moments(dual_sequence(seq, N, N))
                    == moments(basis_change_duals(seq, N, N)))

    def test_order_limits(self):
        P = generate(unit_rc(), 6)
        with pytest.raises(OrderExceeded):
            dual_sequence(P, 7, 6)  # k_max > N
        with pytest.raises(OrderExceeded):
            dual_sequence(P, 2, 7)  # P_7 missing

    def test_corrupted_structure_row_breaks_biorthogonality(self, sampler,
                                                            corrupt_structure_row):
        # the duals are exact only as far as the rows they run through: a
        # bumped gamma_1 in row 2 moves (u_0)_3 = gamma_1 + .., which the
        # reference pairing names (a pipeline's round trip names the row
        # before any dual is built)
        corrupt_structure_row(2)
        P = generate(sampler.recurrence(12), 12)
        duals = dual_sequence(P, 5, 11)
        with pytest.raises(IdentityViolated) as err:
            check_biorthogonality(P, duals, 11)
        assert (err.value.tag, err.value.where) == ("biorthogonality", "<u_0, P_3>")


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

    def test_negative_order_rejected(self, sampler):
        rc = sampler.recurrence(14)
        duals = dual_sequence(generate(rc, 14), 5, 13)
        with pytest.raises(ValueError, match="M must be >= 0"):
            check_dual_identities(rc, duals, -1)


class TestOrthogonality:
    def test_duality_rows(self, sampler):
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        duals = dual_sequence(P, 5, 15)
        report = orthogonality_check(P, duals, 2, dual_recurrence(rc, duals))
        assert [item["tag"] for item in report.items] == [
            f"orthogonality(nu={nu},m={m})" for nu in (0, 1) for m in (0, 1, 2)]
        assert report.to_tree() == orthogonality_loop(P, duals, 2).to_tree()

    def test_regularity_violation_detected(self, sampler):
        # (u_1)_0 = 0, so (u_1)_1 = 0 gives <u_1, P_1> = 0. Rows m = 0 read
        # no R_n; to m = 2, R_0 names moment 1, where alpha_1 (u_1)_1 enters
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        duals = dual_sequence(P, 5, 15)
        duals[1] = MomentForm([0, 0] + list(duals[1].moments[2:]))
        with pytest.raises(IdentityViolated) as err:
            orthogonality_check(P, duals, 0, ())
        assert (err.value.tag, err.value.where) == (
            "regularity(nu=1,m=0)", "<u_1, P_0 P_1>")
        with pytest.raises(IdentityViolated) as err:
            orthogonality_check(P, duals, 2, dual_recurrence(rc, duals))
        assert (err.value.tag, err.value.where) == (
            "dual-recurrence(n=0)", "moment 1")

    def test_needs_u0_and_u1(self, sampler):
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        duals = dual_sequence(P, 5, 15)
        with pytest.raises(ValueError, match="need at least u_0, u_1"):
            orthogonality_check(P, duals[:1], 2, dual_recurrence(rc, duals))

    def test_specific_products(self, sampler):
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        u1 = dual_sequence(P, 1, 15)[1]
        assert u1.act(P[1] * P[3]) != 0
        assert u1.act(P[1] * P[4]) == 0


def _fitted_theorem_mps(N):
    """(shape, P, rc) at order N for the first draw of every theorem-4 and
    theorem-5 sampler shape at seed 7 whose eigen-MPS is 2-orthogonal."""
    sampler, draws = ParamSampler(7), {}
    while len(draws) < 6:
        for kind, draw in (("t4", sampler.sample_theorem4(16)),
                           ("t5", sampler.sample_theorem5(16))):
            draws.setdefault(f"{kind}-{draw['shape']}", draw["J"])
    out = []
    for shape, J in sorted(draws.items()):
        P, _ = eigen_mps(J, N)
        try:
            out.append((shape, P, fit_2orth_recurrence(P)))
        except NotTwoOrthogonal:
            continue
    return out


_THEOREM_MPS = [(N, *entry) for N in (6, 7, 8, 16) for entry in _fitted_theorem_mps(N)]


class TestOrthogonalityCertificate:
    """orthogonality_check on duals that dual_sequence built, which the
    reference pairing finds biorthogonal: it gives the reference loop's
    report; after one moment k <= N of one dual is bumped, R_0..R_3 name
    a dual-recurrence(n=..) witness, except for moment N of u_4 or u_5,
    which no R_n compares to N - 1 and no row reads, and then the loop
    still passes with the same report."""

    @staticmethod
    def check(P, rc, N, data):
        duals = dual_sequence(P, 5, N)
        check_biorthogonality(P, duals, N)
        loop = orthogonality_loop(P, duals, 2).to_tree()
        assert orthogonality_check(P, duals, 2,
                                   dual_recurrence(rc, duals)).to_tree() == loop
        nu = data.draw(st.integers(0, 5))
        k = data.draw(st.sampled_from([0, N - 1, N]) | st.integers(0, N))
        moments = list(duals[nu].moments)
        moments[k] += data.draw(st.sampled_from([R(1), R(-1), R(1, 3)]))
        duals[nu] = MomentForm(moments)
        if nu >= 4 and k == N:
            assert orthogonality_check(
                P, duals, 2, dual_recurrence(rc, duals)).to_tree() == loop
            assert orthogonality_loop(P, duals, 2).to_tree() == loop
        else:
            with pytest.raises(IdentityViolated) as err:
                orthogonality_check(P, duals, 2, dual_recurrence(rc, duals))
            assert err.value.tag.startswith("dual-recurrence(n=")

    @given(st.integers(0, 10**6), st.integers(8, 30), st.data())
    @settings(max_examples=40, deadline=None)
    def test_recurrence_route(self, seed, depth, data):
        # run_identities_rc's orders: P_0..P_depth, duals of order depth - 1
        rc = ParamSampler(seed).recurrence(depth)
        self.check(generate(rc, depth), rc, depth - 1, data)

    @pytest.mark.parametrize("N, shape, P, rc", _THEOREM_MPS,
                             ids=[f"{N}-{shape}" for N, shape, *_ in _THEOREM_MPS])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_sampler_shapes(self, N, shape, P, rc, data):
        self.check(P, rc, N, data)

    def test_refuses_short_or_shallow_recurrence(self, sampler):
        # m_max = 2 needs R_0..R_3 (u_0..u_5) to order N - 1 = 14
        rc = sampler.recurrence(17)
        P = generate(rc, 17)
        duals = dual_sequence(P, 5, 15)
        orthogonality_check(P, duals, 2, dual_recurrence(rc, duals))
        orthogonality_check(P, duals, 1, dual_recurrence(rc, duals[:4]))
        deeper = dual_sequence(P, 1, 16)
        for pair, m_max, recurrence, missing in (
                (duals, 2, dual_recurrence(rc, duals[:5]), "R_3 to moment 14"),
                (duals, 3, dual_recurrence(rc, duals), "R_4 to moment 14"),
                (deeper, 2, dual_recurrence(rc, duals), "R_0 to moment 15")):
            with pytest.raises(ValueError, match=f"needs {missing}"):
                orthogonality_check(P, pair, m_max, recurrence)

    def test_top_moment_of_u4_u5_is_not_read(self, sampler):
        # moment N of u_4 and u_5 enters R_2 and R_3 at order N only, and
        # the rows read u_0 and u_1 alone: the check and the loop agree
        rc = sampler.recurrence(16)
        P = generate(rc, 16)
        duals = dual_sequence(P, 5, 15)
        loop = orthogonality_loop(P, duals, 2).to_tree()
        for k in (4, 5):
            moments = list(duals[k].moments)
            moments[15] += 1
            duals[k] = MomentForm(moments)
        assert orthogonality_check(P, duals, 2,
                                   dual_recurrence(rc, duals)).to_tree() == loop
        assert orthogonality_loop(P, duals, 2).to_tree() == loop
