"""End-to-end pipeline statuses and sweep semantics."""
import hashlib
import json

import pytest

import duorth.pipelines as pipelines
from duorth import (DiffOperator, MomentForm, ParamSampler, Polynomial,
                    Rational, RecurrenceCoeffs, eigen_mps, run_identities_rc,
                    run_identities_operator, run_sweep, run_theorem4,
                    run_theorem5, forms, hahn, two_orth)
from duorth.cli import main
from duorth.errors import ZeroGamma
from duorth.hahn import ClassicalSystem, Intermediates
from duorth.pipelines import PASSED, UNMET, VIOLATED
from duorth.poly import ONE, X

from conftest import ROW_ENTRY

R = Rational


def family4(a0, c0, c1, a3_const=1):
    return DiffOperator([Polynomial([a0]), Polynomial([c0, c1]),
                         Polynomial.zero(), Polynomial([a3_const])])


class TestTheorem4Pipeline:
    def test_qualifying_passes(self):
        res = run_theorem4(family4(R(2), R(-1), R(3)),
                           moment_order=28, check_order=14)
        assert res.status == PASSED
        tags = {item["tag"] for item in res.report.items}
        for tag in ("Eq-p1=0", "Eq-p0", "Eq-phi-1,1", "Eq-phi-2,2",
                    "Eq-EqClassic-1", "Eq-EqClassic-2", "Eq-9.1", "Eq-7.2",
                    "Eq-8.2", "Eq-Da2u0", "Eq-Dcomplete", "Hahn",
                    "biorthogonality", "Eq-rr-2orto-fit"):
            assert tag in tags, tag

    def test_scale_miss_is_unmet(self):
        # a3 = 2 gives a 2-orthogonal eigen-MPS whose gamma_1 differs from
        # the value implied by a1
        res = run_theorem4(family4(R(2), R(-1), R(3), a3_const=2),
                           moment_order=20, check_order=8)
        assert res.status == UNMET
        assert "outside theorem scope" in res.failure["reason"]

    def test_generic_cubic_is_unmet(self):
        J = DiffOperator([Polynomial([2]), Polynomial([-1, 3]),
                          Polynomial.zero(), Polynomial([1, 1, 0, 1])])
        res = run_theorem4(J, moment_order=20, check_order=8)
        assert res.status == UNMET
        assert "not 2-orthogonal" in res.failure["reason"]

    def test_non_isomorphism_is_unmet(self):
        J = DiffOperator([Polynomial.zero(), Polynomial([0, 1]),
                          Polynomial.zero(), ONE])
        res = run_theorem4(J, moment_order=20, check_order=8)
        assert res.status == UNMET

    def test_repeated_eigenvalue_is_unmet(self):
        res = run_theorem4(DiffOperator([ONE]))
        assert res.status == UNMET
        assert res.failure == {"reason": "repeated eigenvalue",
                               "witness": "lambda_1 = lambda_0: repeated eigenvalue"}

    def test_nonzero_a2_is_unmet(self):
        # 2-orthogonal eigen-MPS in scope, but theorem 4 needs a_2 = 0
        J = DiffOperator([Polynomial([2]), Polynomial([-1, 3]), ONE, ONE])
        res = run_theorem4(J)
        assert res.status == UNMET
        assert res.failure == {"reason": "a2 = 0", "witness": "1"}


class TestTheorem5Pipeline:
    def test_qualifying_passes(self):
        s0 = R(3, 2)
        J = DiffOperator([Polynomial([5]), Polynomial([R(1, 2), -2]),
                          Polynomial([s0]), ONE])
        res = run_theorem5(J, 1 / s0, moment_order=28, check_order=14)
        assert res.status == PASSED
        tags = {item["tag"] for item in res.report.items}
        assert {"Table-1-varpi11", "Table-1-varpi22", "Eq-EqClassic-2",
                "Hahn"} <= tags

    def test_tau_offscale_is_unmet(self):
        s0 = R(3, 2)
        J = DiffOperator([Polynomial([5]), Polynomial([R(1, 2), -2]),
                          Polynomial([s0]), Polynomial([7]) ])
        res = run_theorem5(J, 7 / s0, moment_order=20, check_order=8)
        assert res.status == UNMET


class TestIdentitySuites:
    def test_rc_route(self, sampler):
        rc = sampler.recurrence(26)
        res = run_identities_rc(rc, moment_order=24, check_order=12)
        assert res.status == PASSED
        tags = {item["tag"] for item in res.report.items}
        assert "round-trip" in tags and "Eq-u5" in tags

    def test_operator_route(self):
        res = run_identities_operator(family4(R(1), R(0), R(1)),
                                      moment_order=24, check_order=12)
        assert res.status == PASSED

    def test_shallow_rc_rejected(self):
        from duorth import RecurrenceCoeffs
        rc = RecurrenceCoeffs([0, 0], [1, 1], [1, 1])
        with pytest.raises(ValueError):
            run_identities_rc(rc, moment_order=20, check_order=8)

    @pytest.mark.parametrize("moment_order", [6, 7])
    def test_rc_route_needs_order_8(self, sampler, moment_order):
        # orders 6 and 7 pass the operator rule; the recurrence route names
        # its own minimum, not the depth of a recurrence nobody supplied
        rule = "moment_order must be >= 8 on the recurrence route"
        with pytest.raises(ValueError, match=rule):
            run_identities_rc(sampler.recurrence(26), moment_order=moment_order,
                              check_order=2)
        with pytest.raises(ValueError, match=rule):
            run_sweep("verify-identities", 1, 1, moment_order=moment_order,
                      check_order=2)

    def test_negative_check_order_rejected(self, sampler):
        with pytest.raises(ValueError):
            run_identities_rc(sampler.recurrence(26), moment_order=24,
                              check_order=-3)


class TestSweep:
    def test_counts_and_dumps(self):
        tree = run_sweep("verify-theorem4", seed=5, draws=6,
                         moment_order=24, check_order=12)
        s = tree["summary"]
        assert s[PASSED] + s[UNMET] + s[VIOLATED] == 6
        assert s[VIOLATED] == 0
        assert s[PASSED] >= 1
        assert len(tree["entries"]) == 6

    def test_deterministic(self):
        a = run_sweep("verify-theorem5", seed=9, draws=4,
                      moment_order=24, check_order=12)
        b = run_sweep("verify-theorem5", seed=9, draws=4,
                      moment_order=24, check_order=12)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_identities_target(self):
        tree = run_sweep("verify-identities", seed=3, draws=3,
                         moment_order=20, check_order=8)
        assert tree["summary"][PASSED] == 3

    def test_single_draw(self):
        tree = run_sweep("verify-theorem4", seed=1, draws=1,
                         moment_order=20, check_order=8)
        assert len(tree["entries"]) == 1
        s = tree["summary"]
        assert s[PASSED] + s[UNMET] + s[VIOLATED] == 1

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_sweep("verify-nothing", seed=0, draws=1)

    @pytest.mark.parametrize("draws", [0, -2])
    def test_no_draws_rejected(self, monkeypatch, draws):
        def no_draw(self, *args):
            raise AssertionError("drew before validating draws")
        monkeypatch.setattr(ParamSampler, "recurrence", no_draw)
        with pytest.raises(ValueError):
            run_sweep("verify-identities", seed=1, draws=draws)


    @pytest.mark.parametrize("target, seed", [
        ("verify-theorem4", None), ("verify-theorem4", "7"),
        ("verify-theorem4", True), ("verify-theorem4", 1.5),
        ("verify-theorem4", [1]), (["x"], 1), (None, 1),
    ], ids=["seed-None", "seed-str", "seed-bool", "seed-float", "seed-list",
            "target-list", "target-None"])
    def test_bad_seed_or_target_rejected(self, monkeypatch, target, seed):
        # None used to give a different sweep per call, recorded as
        # "seed": null; a list seed or target raised a stray TypeError
        def no_draw(self, *args):
            raise AssertionError("drew before validating seed and target")
        for method in ("sample_theorem4", "sample_theorem5", "recurrence"):
            monkeypatch.setattr(ParamSampler, method, no_draw)
        with pytest.raises(ValueError, match="seed must be an integer|unknown sweep target"):
            run_sweep(target, seed=seed, draws=2, moment_order=12, check_order=8)

README_J = family4(R(2), R(-1), R(3))
T5_J = DiffOperator([Polynomial([5]), Polynomial([R(1, 2), -2]),
                     Polynomial([R(3, 2)]), ONE])
T5_TAU = R(2, 3)
# a non-Appell qualifying operator: 1/3 + (2 - 2x) D + (1 - 2x)^2 D^3/6,
# whose derivative sequence Q differs from P, and whose a_3 is not constant
J_SQ = DiffOperator([Polynomial([R(1, 3)]), Polynomial([2, -2]), Polynomial.zero(),
                     Polynomial([1, -4, 4])])


def _orthogonality_horizons(res):
    return {item["tag"]: item["horizon"] for item in res.report.items
            if item["tag"].startswith("orthogonality(")}


class TestOrderValidation:
    @pytest.mark.parametrize("orders", [
        {"moment_order": 20, "check_order": 24},
        {"moment_order": 20, "check_order": 17},
        {"moment_order": 5, "check_order": 1},
        {"moment_order": 6, "check_order": 3},
        {"moment_order": 12, "check_order": 9},
        {"moment_order": 0, "check_order": 0},
        {"moment_order": 20, "check_order": -1},
    ])
    def test_bad_orders_rejected_before_any_work(self, monkeypatch, orders):
        def no_work(*args):
            raise AssertionError("eigen-solve ran before order validation")
        monkeypatch.setattr(pipelines, "eigen_mps", no_work)
        with pytest.raises(ValueError):
            run_theorem4(README_J, **orders)
        with pytest.raises(ValueError):
            run_theorem5(README_J, R(1), **orders)

    @pytest.mark.parametrize("run, message", [
        (lambda rc: run_theorem4(README_J, moment_order=28.0), "moment_order"),
        (lambda rc: run_theorem4(README_J, moment_order=28, check_order=14.0),
         "check_order"),
        (lambda rc: run_theorem4(README_J, moment_order=28, check_order=True),
         "check_order"),
        (lambda rc: run_identities_rc(rc, moment_order=20.0), "moment_order"),
        (lambda rc: run_sweep("verify-theorem4", 1, draws=2.0), "draws"),
    ], ids=["theorem4-moment-float", "theorem4-check-float", "theorem4-check-bool",
            "identities-rc-moment-float", "sweep-draws-float"])
    def test_non_integer_orders_rejected_before_any_work(self, monkeypatch, sampler,
                                                         run, message):
        rc = sampler.recurrence(26)

        def no_work(*args):
            raise AssertionError("work ran before order validation")
        for name in ("eigen_mps", "generate", "ParamSampler"):
            monkeypatch.setattr(pipelines, name, no_work)
        with pytest.raises(ValueError, match=f"^{message} must be an integer$"):
            run(rc)

    def test_identities_operator_rejects_deep_check_order(self):
        with pytest.raises(ValueError):
            run_identities_operator(README_J, moment_order=20, check_order=17)

    def test_smallest_valid_orders_pass(self):
        res = run_theorem4(README_J, moment_order=6, check_order=2)
        assert res.status == PASSED
        assert res.extras["hahn"]["horizon"] == 5

    def test_default_hahn_horizon_follows_moment_order(self):
        # the Hahn horizon is min(10, moment_order - 1)
        for moment_order, horizon in ((10, 9), (8, 7), (11, 10), (28, 10)):
            orders = {"moment_order": moment_order,
                      "check_order": moment_order - 4}
            for res in (run_theorem4(README_J, **orders),
                        run_theorem5(T5_J, T5_TAU, **orders)):
                assert res.status == PASSED
                horizons = {item["tag"]: item.get("horizon")
                            for item in res.report.items}
                assert horizons["Hahn"] == horizon
                assert res.extras["hahn"]["horizon"] == horizon

    def test_sweep_default_hahn_horizon_at_low_order(self):
        for target in ("verify-theorem4", "verify-theorem5"):
            tree = run_sweep(target, seed=11, draws=2, moment_order=10,
                             check_order=6)
            assert tree["summary"][VIOLATED] == 0

    @pytest.mark.parametrize("moment_order, check_order, hahn_horizon",
                             [(6, c, 5) for c in range(3)]
                             + [(12, 8, 10), (40, 24, 10), (40, 36, 10)])
    def test_reported_horizons_within_computed(self, moment_order, check_order,
                                               hahn_horizon):
        orders = {"moment_order": moment_order, "check_order": check_order}
        for res in (run_theorem4(README_J, **orders),
                    run_theorem5(T5_J, T5_TAU, **orders),
                    run_identities_operator(README_J, **orders)):
            assert res.status == PASSED
            for item in res.report.items:
                tag, horizon = item["tag"], item.get("horizon")
                if type(horizon) is not int:
                    continue
                if tag in ("eigen-solve", "Eq-rr-2orto-fit"):
                    assert horizon == moment_order, tag
                elif tag.startswith("orthogonality("):
                    assert horizon <= moment_order, tag
                elif tag == "Hahn":
                    assert horizon == hahn_horizon <= moment_order - 1, tag
                else:
                    assert horizon <= check_order, tag

    @pytest.mark.parametrize("moment_order, check_order",
                             [(6, c) for c in range(3)]
                             + [(7, 3), (12, 8), (28, 14), (40, 24)])
    def test_orthogonality_horizons_exact(self, moment_order, check_order):
        # row (nu, m) runs to min(len(P) - 1, order of u_nu - m) = N - m on
        # the operator routes (P_0..P_N, duals of order N); at order 6 the
        # regularity index 5 of row (1, 2) lies past 6 - 2, so it is dropped
        orders = {"moment_order": moment_order, "check_order": check_order}
        expected = {f"orthogonality(nu={nu},m={m})": moment_order - m
                    for nu in (0, 1) for m in range(3)
                    if 3 * m + nu <= moment_order}
        for res in (run_theorem4(README_J, **orders),
                    run_theorem5(T5_J, T5_TAU, **orders),
                    run_identities_operator(README_J, **orders)):
            assert res.status == PASSED
            assert _orthogonality_horizons(res) == expected

    @pytest.mark.parametrize("moment_order", [8, 9, 24])
    def test_orthogonality_horizons_exact_rc(self, sampler, moment_order):
        # the recurrence route has P_0..P_depth and duals of order depth - 1
        res = run_identities_rc(sampler.recurrence(26),
                                moment_order=moment_order, check_order=4)
        assert res.status == PASSED
        assert _orthogonality_horizons(res) == {
            f"orthogonality(nu={nu},m={m})": moment_order - 1 - m
            for nu in (0, 1) for m in range(3)}

    @pytest.mark.parametrize("orders, horizon", [
        ((7, 2), "k<=5, m<=7"),  # only P_0..P_7 exist
        ((28, 14), "k<=5, m<=8"),
    ])
    def test_biorthogonality_horizon(self, orders, horizon):
        moment_order, check_order = orders
        res = run_theorem4(README_J, moment_order=moment_order,
                           check_order=check_order)
        assert res.status == PASSED
        horizons = {item["tag"]: item.get("horizon") for item in res.report.items}
        assert horizons["biorthogonality"] == horizon

    def test_identities_rc_at_depth_8(self):
        # the duals of a depth-8 recurrence carry order 7: biorthogonality
        # is reported as far as dual_sequence certified it
        res = run_identities_rc(ParamSampler(1).recurrence(20), moment_order=8,
                                check_order=4)
        assert res.status == PASSED
        horizons = {item["tag"]: item.get("horizon") for item in res.report.items}
        assert horizons["biorthogonality"] == "k<=5, m<=7"


def _perturbed_lambda(monkeypatch):
    solve = pipelines.eigen_mps

    def eigen_mps(J, depth):
        P, lam = solve(J, depth)
        return P, [v + 1 if n == 3 else v for n, v in enumerate(lam)]
    monkeypatch.setattr(pipelines, "eigen_mps", eigen_mps)


def _bumped_fit(monkeypatch, field, i):
    """Add 1 to entry i of the `field` tuple (betas, alphas or gammas) of
    the recurrence pipelines.fit_2orth_recurrence returns."""
    fit = pipelines.fit_2orth_recurrence

    def fit_2orth_recurrence(P):
        rc = fit(P)
        seqs = {name: getattr(rc, name) for name in ("betas", "alphas", "gammas")}
        seqs[field] = seqs[field][:i] + (seqs[field][i] + 1,) + seqs[field][i + 1:]
        return RecurrenceCoeffs(**seqs)
    monkeypatch.setattr(pipelines, "fit_2orth_recurrence", fit_2orth_recurrence)


def _perturbed_beta2(monkeypatch):
    _bumped_fit(monkeypatch, "betas", 2)


def _perturbed_alpha1(monkeypatch):
    _bumped_fit(monkeypatch, "alphas", 0)


def _bumped_intermediate(monkeypatch, field, by=ONE):
    """Add `by` to the polynomial `field` of the intermediates that
    pipelines.intermediates builds."""
    build = pipelines.intermediates

    def intermediates(J, rc):
        it = build(J, rc)
        setattr(it, field, getattr(it, field) + by)
        return it
    monkeypatch.setattr(pipelines, "intermediates", intermediates)


def _perturbed_p0(monkeypatch):
    _bumped_intermediate(monkeypatch, "p0")


def _perturbed_pbar1(monkeypatch):
    _bumped_intermediate(monkeypatch, "pbar1")


def _perturbed_entry(monkeypatch, builder, i, j):
    """Add ONE to the entry (i, j), counted from 1, of Phi in the system
    pipelines.<builder> returns."""
    build = getattr(pipelines, builder)

    def perturbed(*args):
        system = build(*args)
        phi = [list(row) for row in system.phi]
        phi[i - 1][j - 1] += ONE
        return ClassicalSystem(phi, system.psi)
    monkeypatch.setattr(pipelines, builder, perturbed)


def _perturbed_phi11(monkeypatch):
    _perturbed_entry(monkeypatch, "phi_theorem4", 1, 1)


def _perturbed_phi21(monkeypatch):
    _perturbed_entry(monkeypatch, "phi_theorem4", 2, 1)


def _perturbed_varpi11(monkeypatch):
    _perturbed_entry(monkeypatch, "varpi_theorem5", 1, 1)


def _bumped_dual_moment(monkeypatch, nu, k, delta):
    """Add delta(u_nu, P) to moment k of u_nu in the duals that _drive
    receives from pipelines.dual_sequence."""
    build = pipelines.dual_sequence

    def dual_sequence(P, k_max, N):
        duals = build(P, k_max, N)
        moments = list(duals[nu].moments)
        moments[k] += delta(duals[nu], P)
        duals[nu] = MomentForm(moments)
        return duals
    monkeypatch.setattr(pipelines, "dual_sequence", dual_sequence)


def _bumped_band(monkeypatch, n, d):
    """Add 1 to band[n][d], the coefficient of x^(n-d) in J(x^n) over den,
    in every band that DiffOperator.band returns; the band the operator
    keeps is left as it is."""
    band = DiffOperator.band

    def bumped(J, n_max):
        cols, den = band(J, n_max)
        if n <= n_max:
            col = cols[n]
            cols = cols[:n] + (col[:d] + (col[d] + 1,) + col[d + 1:],) + cols[n + 1:]
        return cols, den
    monkeypatch.setattr(DiffOperator, "band", bumped)


def _failure(tag, where, lhs, rhs):
    return {"tag": tag, "where": where, "lhs": lhs, "rhs": rhs}


def _recurrence_witness(nu, k):
    """The failure of README_J at 28/14 once (u_nu)_k + 1 is read by R_nu
    first, as moment k - 1 of x u_nu: the right side keeps the true
    (u_nu)_k, the left side has it plus 1."""
    P, _ = eigen_mps(README_J, 28)
    true = two_orth.dual_sequence(P, 5, 28)[nu].moment(k)
    return _failure(f"dual-recurrence(n={nu})", f"moment {k - 1}",
                    str(true + 1), str(true))


# three recurrence draws at seed 20250808 and, for the depth-20 sequence
# run_identities_rc generates from each at 20/8, every (row k, coefficient)
# entry of x P_k = P_{k+1} + beta_k P_k + alpha_k P_{k-1} + gamma_{k-1} P_{k-2}
_ROUND_TRIP_SAMPLER = ParamSampler(20250808)
_ROUND_TRIP_DRAWS = [_ROUND_TRIP_SAMPLER.recurrence(22) for _ in range(3)]
_ROW_BUMPS = [(d, k, c) for d in range(3) for k in range(20)
              for c in ("beta", "alpha", "gamma") if k >= ROW_ENTRY[c]]


class TestNegativeControls:
    """A corrupted stage output must end in `violated` with the tag of the
    first identity it breaks."""

    @pytest.mark.parametrize("corrupt, failure", [
        (_perturbed_lambda, _failure("eigen-relation", "n=3",
                                     "22/27 + (11/3)x + (-11)x^2 + 11x^3",
                                     "8/9 + 4x + (-12)x^2 + 12x^3")),
        (_perturbed_beta2, _failure("dual-recurrence(n=2)", "moment 2", "1", "2")),
        (_perturbed_phi11, _failure("Eq-EqClassic-1", "moment 1", "-1", "0")),
        (_perturbed_alpha1, _failure("Eq-p1=0", "alpha_1", "1", "0")),
        (_perturbed_p0, _failure("Eq-p0", "polynomial", "3 + (-6)x", "2 + (-6)x")),
        (_perturbed_phi21, _failure("Eq-EqClassic-2", "moment 1", "-1", "0")),
        (_perturbed_pbar1, _failure("phi22", "closed form", "2", "1")),
    ], ids=lambda v: v["tag"] if isinstance(v, dict) else None)
    def test_theorem4_corruption_is_violated(self, monkeypatch, corrupt, failure):
        corrupt(monkeypatch)
        res = run_theorem4(README_J, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert res.failure == failure

    def test_orthogonality_sees_top_moment(self, monkeypatch):
        # the dual identities read u_0 to moment check_order + 2 at most
        # (E_2 u_0 in Eq-u4); the top moment, 28, only R_0's comparison to
        # 27 in orthogonality_check reads, as moment 27 of x u_0
        _bumped_dual_moment(monkeypatch, 0, 28, lambda u, P: 1)
        res = run_theorem4(README_J, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert res.failure == _recurrence_witness(0, 28)

    @pytest.mark.parametrize("run", [run_theorem4, run_identities_operator])
    @pytest.mark.parametrize("nu, k", [(1, 28), (0, 17), (0, 20), (0, 27)])
    def test_orthogonality_names_loop_witness(self, monkeypatch, run, nu, k):
        # moments above check_order + 2 = 16 only orthogonality_check's
        # recurrence comparison to 27 reads: R_nu names moment k - 1 of
        # x u_nu, where the bump enters first (alpha_1 = 0 keeps (u_1)_28
        # out of R_0)
        _bumped_dual_moment(monkeypatch, nu, k, lambda u, P: 1)
        res = run(README_J, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert res.failure == _recurrence_witness(nu, k)

    @pytest.mark.parametrize("run", [run_theorem4, run_identities_operator])
    @pytest.mark.parametrize("nu, k", [(2, 20), (3, 20), (4, 27), (5, 25)])
    def test_bumped_dual_past_check_order_is_named(self, monkeypatch, run,
                                                   nu, k):
        # u_2..u_5 enter no orthogonality row; a moment of theirs above
        # check_order + 2 is named at moment k by R_{nu-2}, the first R_n
        # whose right side reads u_nu (as gamma_{nu-1} u_nu)
        _bumped_dual_moment(monkeypatch, nu, k, lambda u, P: 1)
        res = run(README_J, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert (res.failure["tag"], res.failure["where"]) == (
            f"dual-recurrence(n={nu - 2})", f"moment {k}")
        assert res.failure["lhs"] != res.failure["rhs"]

    @pytest.mark.parametrize("nu, k, failure", [
        (0, 0, _failure("dual-recurrence(n=0)", "moment 0", "1/3", "0")),
        (1, 0, _failure("dual-recurrence(n=1)", "moment 0", "1", "2")),
        (1, 1, _failure("dual-recurrence(n=1)", "moment 0", "0", "1")),
    ])
    def test_regularity_is_reached_first_by_no_moment(self, monkeypatch,
                                                      nu, k, failure):
        # regularity(nu, m >= 1) cannot fire first: once row (nu, 0) passes,
        # the form is c != 0 times the certified u_nu (plus d u_0 for
        # nu = 1) on every moment to its order, so <u_nu, P_m P_{2m+nu}> is
        # c times its nonzero certified value. regularity(nu, 0) reads
        # (u_0)_0, or (u_1)_0 and (u_1)_1, which the dual recurrence
        # compares at moment 0 for every check_order: moving one of them to
        # zero <u_nu, P_nu> is named there
        _bumped_dual_moment(monkeypatch, nu, k,
                            lambda u, P: -u.act(P[nu]) / P[nu][k])
        res = run_theorem4(README_J, moment_order=28, check_order=0)
        assert res.status == VIOLATED
        assert res.failure == failure

    def test_theorem5_varpi11_corruption_is_violated(self, monkeypatch):
        _perturbed_varpi11(monkeypatch)
        res = run_theorem5(T5_J, T5_TAU, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert res.failure["tag"] == "Eq-EqClassic-1"

    def test_cli_sweep_reports_varpi11_corruption(self, monkeypatch, tmp_path):
        _perturbed_varpi11(monkeypatch)
        out = tmp_path / "s.json"
        assert main(["sweep", "--target", "verify-theorem5", "--seed", "11",
                     "--draws", "3", "--order", "24", "--check-order", "12",
                     "--out", str(out)]) == 1
        entries = json.loads(out.read_text())["results"]["entries"]
        tags = [e["detail"]["failure"]["tag"] for e in entries
                if e["status"] == VIOLATED]
        assert tags and set(tags) == {"Eq-EqClassic-1"}

    def test_dual_certification_through_pipelines(self, sampler, monkeypatch,
                                                  corrupt_structure_row):
        # row 12 carries gamma_11, which the fit reads too: the recurrence
        # suite's round trip names it first
        corrupt_structure_row(12)
        res = run_identities_rc(sampler.recurrence(22), moment_order=20,
                                check_order=8)
        assert res.status == VIOLATED
        assert res.failure == _failure("round-trip", "gamma_11", "7/20", "-13/20")
        # a theorem run builds its duals from J, not from the rows: row k
        # bumps the fitted gamma_{k-1}, which R_{k-2} reads for k <= 5 and
        # only the regenerated prefix P_0..P_8 reads for k = 6, 7
        for k, tag, where in ((3, "dual-recurrence(n=1)", "moment 3"),
                              (4, "dual-recurrence(n=2)", "moment 4"),
                              (5, "dual-recurrence(n=3)", "moment 5"),
                              (6, "fitted-rc-prefix", "P_7"),
                              (7, "fitted-rc-prefix", "P_8")):
            monkeypatch.undo()
            corrupt_structure_row(k)
            res = run_theorem4(README_J, moment_order=28, check_order=14)
            assert res.status == VIOLATED
            assert (res.failure["tag"], res.failure["where"]) == (tag, where)

    @pytest.mark.parametrize("draw, k, coefficient", _ROW_BUMPS,
                             ids=[f"{d}-{c}_{k - (c == 'gamma')}"
                                  for d, k, c in _ROW_BUMPS])
    def test_round_trip_names_every_row_bump(self, corrupt_structure_row,
                                             draw, k, coefficient):
        # the fit reads every row that dual_sequence reads, and the round
        # trip runs before any dual is built: a bumped row entry is named
        # by its coefficient, refitted (+1) against given. A gamma bumped
        # to an explicit 0 entry, which structure_row never returns, stops
        # the refit with ZeroGamma
        rc = _ROUND_TRIP_DRAWS[draw]
        n = k - (coefficient == "gamma")
        given = getattr(rc, coefficient)(n)
        corrupt_structure_row(k, coefficient)
        if coefficient == "gamma" and given == -1:
            with pytest.raises(ZeroGamma):
                run_identities_rc(rc, moment_order=20, check_order=8)
            return
        res = run_identities_rc(rc, moment_order=20, check_order=8)
        assert res.status == VIOLATED
        assert res.failure == _failure("round-trip", f"{coefficient}_{n}",
                                       str(given + 1), str(given))

    @pytest.mark.parametrize("field, i, where", [
        ("betas", 4, "P_5"), ("betas", 5, "P_6"), ("alphas", 4, "P_6"),
        ("alphas", 5, "P_7"), ("gammas", 4, "P_7"), ("gammas", 5, "P_8"),
    ])
    def test_fitted_rc_prefix_sees_unread_coefficient(self, monkeypatch,
                                                      field, i, where):
        # beta_4, beta_5, alpha_5, alpha_6, gamma_5 and gamma_6 are printed
        # in extras but read by no identity check; the regenerated P_n that
        # first reads one differs from the eigen-MPS's
        _bumped_fit(monkeypatch, field, i)
        res = run_theorem4(README_J, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert (res.failure["tag"], res.failure["where"]) == ("fitted-rc-prefix", where)
        n = int(where[2:])
        assert res.failure["rhs"] == str(eigen_mps(README_J, n)[0][n])
        assert res.failure["lhs"] != res.failure["rhs"]

    @pytest.mark.parametrize("run", [run_theorem4, run_identities_operator])
    @pytest.mark.parametrize("n, d", [(3, 1), (10, 3), (14, 0), (16, 2),
                                      (20, 1), (28, 3)])
    def test_bumped_band_entry_never_passes(self, monkeypatch, run, n, d):
        # read by every stage, a bumped entry makes eigen_mps solve another
        # matrix, whose eigen-MPS is not 2-orthogonal; read by the dual
        # construction alone, below or above check_order = 14, it moves the
        # duals from moment n on, which the dual identities or the
        # orthogonality rows then name
        with pytest.MonkeyPatch.context() as patch:
            _bumped_band(patch, n, d)
            assert run(README_J, moment_order=28, check_order=14).status == UNMET
        build = pipelines.dual_sequence

        def dual_sequence(*args):
            with pytest.MonkeyPatch.context() as patch:
                _bumped_band(patch, n, d)
                return build(*args)
        monkeypatch.setattr(pipelines, "dual_sequence", dual_sequence)
        assert run(README_J, moment_order=28, check_order=14).status == VIOLATED

    def test_hahn_sees_derivative_corruption(self, monkeypatch):
        # P_4 + x in place of P_4 adds 1/4 to Q_3 = P_4' / 4 of the
        # derivative sequence, whose fit then fails
        check = pipelines.hahn_check

        def hahn_check(P):
            return check(P[:4] + (P[4] + X,) + P[5:])
        monkeypatch.setattr(pipelines, "hahn_check", hahn_check)
        res = run_theorem4(README_J, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert res.failure["tag"] == "Hahn"
        assert res.failure["lhs"] == "not 2-orthogonal: (4, 'chi_{4,0} = 5/18 != 0')"

    def test_identities_operator_sees_lambda_corruption(self, monkeypatch):
        _perturbed_lambda(monkeypatch)
        res = run_identities_operator(README_J, moment_order=24, check_order=12)
        assert res.status == VIOLATED
        assert res.failure["tag"] == "eigen-relation"

    @pytest.mark.parametrize("run", [run_theorem4, run_identities_operator])
    def test_eigen_relation_witness(self, monkeypatch, run):
        # lambda_3 + 1 breaks J(P_3) = lambda_3 P_3 first at n = 3
        _perturbed_lambda(monkeypatch)
        res = run(README_J, moment_order=28, check_order=14)
        assert res.failure == {
            "tag": "eigen-relation", "where": "n=3",
            "lhs": "22/27 + (11/3)x + (-11)x^2 + 11x^3",
            "rhs": "8/9 + 4x + (-12)x^2 + 12x^3"}

    def test_sweep_dumps_violated_draws(self, monkeypatch):
        _perturbed_beta2(monkeypatch)
        tree = run_sweep("verify-theorem4", seed=11, draws=3,
                         moment_order=24, check_order=12)
        violated = [e for e in tree["entries"] if e["status"] == VIOLATED]
        assert violated and tree["summary"][VIOLATED] == len(violated)
        for entry in violated:
            assert entry["detail"]["failure"]["tag"] == "dual-recurrence(n=2)"
            assert "operator" in entry


def _bumped_pair(pairs, k):
    """pairs with 1 added to c0 of u_k = c0 u_0 + c1 u_1."""
    c0, c1 = pairs[k]
    return pairs[:k] + [(c0 + ONE, c1)] + pairs[k + 1:]


class TestDualPairControls:
    """Each identity read off the intermediates (the pairs u_k = c0 u_0 +
    c1 u_1, the expansion polynomials, the lambdas) names its own corrupted
    field."""

    @pytest.mark.parametrize("field, tag", [
        (2, "Eq-7.1"), (3, "Eq-8.1"), (4, "Eq-7.2"), (5, "Eq-8.2"),
        ("p0", "Eq-9.1"), ("f0", "Eq-9.2"), ("pbar0", "Eq-9.3"),
        ("fbar0", "Eq-9.4"), ("lambdas", "Eq-J(u_n)(n=3)"),
    ])
    def test_source_identity(self, monkeypatch, field, tag):
        # an int field k adds ONE to c0 of pair k; "lambdas" adds 1 to
        # lambda_3; a name adds ONE to that polynomial
        build = pipelines.intermediates

        def corrupted(J, rc):
            it = build(J, rc)
            if isinstance(field, int):
                it.pairs = _bumped_pair(it.pairs, field)
            elif field == "lambdas":
                lam = it.lambdas
                it.lambdas = lam[:3] + (lam[3] + 1,) + lam[4:]
            else:
                setattr(it, field, getattr(it, field) + ONE)
            return it
        monkeypatch.setattr(pipelines, "intermediates", corrupted)
        res = run_identities_operator(README_J, moment_order=24, check_order=12)
        assert res.status == VIOLATED
        assert res.failure["tag"] == tag

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_decomposition(self, monkeypatch, k):
        pairs_of = two_orth.dual_pairs
        monkeypatch.setattr(two_orth, "dual_pairs",
                            lambda rc, k_max: _bumped_pair(pairs_of(rc, k_max), k))
        res = run_identities_rc(ParamSampler(20250808).recurrence(22),
                                moment_order=20, check_order=8)
        assert res.status == VIOLATED
        assert res.failure["tag"] == f"Eq-u{k}"


class TestClosedFormAndLemmaControls:
    """The closed forms Phi (theorem 4) and varpi (Table 1, theorem 5), and
    the three fundamental-pair identities, each named through a pipeline by
    one corrupted expansion polynomial."""

    ORDERS = {"moment_order": 28, "check_order": 14}

    @pytest.mark.parametrize("field, failure", [
        ("f0", _failure("phi11", "closed form", "10/9", "1")),
        ("f1", _failure("phi12", "closed form", "1/9", "0")),
        ("pbar0", _failure("phi21", "closed form", "1", "0")),
    ])
    def test_theorem4_closed_form(self, monkeypatch, field, failure):
        _bumped_intermediate(monkeypatch, field)
        res = run_theorem4(README_J, **self.ORDERS)
        assert res.status == VIOLATED
        assert res.failure == failure

    @pytest.mark.parametrize("field, failure", [
        ("f0", _failure("Table-1-varpi11", "closed form", "5/6", "1")),
        ("f1", _failure("Table-1-varpi12", "closed form", "-1/6", "0")),
        ("pbar0", _failure("Table-1-varpi21", "closed form", "1", "0")),
        ("pbar1", _failure("Table-1-varpi22", "closed form", "2", "1")),
    ])
    def test_theorem5_closed_form(self, monkeypatch, field, failure):
        _bumped_intermediate(monkeypatch, field)
        res = run_theorem5(T5_J, T5_TAU, **self.ORDERS)
        assert res.status == VIOLATED
        assert res.failure == failure

    @pytest.mark.parametrize("field, failure", [
        ("fbar0", _failure("varpi11", "degree", "1 + (-1/8)x^2", "degree <= 1")),
        ("fbar1", _failure("varpi12", "degree", "(-1/8)x^2", "degree <= 1")),
    ])
    def test_theorem5_varpi_degree_guard(self, monkeypatch, field, failure):
        # varpi is built before any expansion check reads fbar; an x^2 bump
        # lifts it past degree 1, so the degree guard names it before the
        # closed-form comparison
        _bumped_intermediate(monkeypatch, field, X * X)
        res = run_theorem5(T5_J, T5_TAU, **self.ORDERS)
        assert res.status == VIOLATED
        assert res.failure == failure

    @pytest.mark.parametrize("field, failure", [
        ("p0", _failure("Eq-Da2u0", "moment 0", "0", "2")),
        ("f0", _failure("Eq-Da2u1", "moment 1", "-9", "-10")),
        ("pbar0", _failure("Eq-Dcomplete", "moment 1", "-1", "0")),
    ])
    def test_lemma_identity(self, monkeypatch, field, failure):
        # only the lemma stage sees the bump: every earlier stage reads the
        # true intermediates, so none of them can name it first
        check = pipelines.lemma_identities_check

        def corrupted(it, duals, M):
            fields = {name: getattr(it, name) for name in Intermediates.__slots__}
            fields[field] += ONE
            return check(Intermediates(**fields), duals, M)
        monkeypatch.setattr(pipelines, "lemma_identities_check", corrupted)
        res = run_theorem4(README_J, **self.ORDERS)
        assert res.status == VIOLATED
        assert res.failure == failure


class TestNonAppellFixture:
    """J_sq passes theorem 4 with Q != P, so its Hahn tag says more than
    "P is 2-orthogonal", and its a_3 = (1 - 2x)^2 reaches J^(1) and J^(2)."""

    def test_derivative_sequence_differs(self):
        P, _ = eigen_mps(J_SQ, 13)
        assert two_orth.fit_2orth_recurrence(P).beta(1) == 1
        assert hahn.hahn_check(P).beta(1) == R(7, 3)

    def test_a3_term_reaches_j1_and_j2(self, monkeypatch):
        assert run_theorem4(J_SQ, moment_order=28, check_order=14).status == PASSED
        transpose = DiffOperator.transpose_apply

        def bumped(J, u, m=0):
            # J^(m), m >= 1, reads a_3 + x; J's own transpose is untouched
            if m:
                J = DiffOperator([*J.a[:3], J.a[3] + X])
            return transpose(J, u, m)
        monkeypatch.setattr(DiffOperator, "transpose_apply", bumped)
        res = run_theorem4(J_SQ, moment_order=28, check_order=14)
        assert res.status == VIOLATED
        assert res.failure == _failure("Eq-9.1", "moment 2", "5/3", "2/3")


def _first_theorem4_draw(shape):
    """The operator of the first theorem-4 draw of `shape` at seed 20250808."""
    sampler = ParamSampler(20250808)
    while True:
        draw = sampler.sample_theorem4(40)
        if draw["shape"] == shape:
            return draw["J"]


@pytest.mark.parametrize("run, status, digest", [
    (lambda: run_theorem4(README_J), PASSED,
     "cc87c8b17ae805ca75e5bb8a7d99821bacfed17a00e9a985193b48d9471ede6a"),
    (lambda: run_theorem5(T5_J, T5_TAU), PASSED,
     "f6544b37ccdc6accdfe675726ac9cb0634225c62254a4efb74d64d684771dcaf"),
    (lambda: run_identities_operator(README_J), PASSED,
     "40378f38050972125e85ee66b3e0f283ddaadc6bce6637114ddea979fa31997f"),
    (lambda: run_identities_rc(ParamSampler(20250808).recurrence(42)), PASSED,
     "0ee0f09edc143fcde0746e76ff82b98e1555bb9be4fd917f829f20f2b4b8b669"),
    (lambda: run_theorem4(_first_theorem4_draw("const-offscale")), UNMET,
     "dbb500f73d4e4eb3461c42153f3493f34b478fb863592793e7cad1f8ee64729c"),
    (lambda: run_theorem4(_first_theorem4_draw("generic-cubic")), UNMET,
     "e2047c21d302ebc7f5d495394c4575564a6bf3818b6c1722f7d95546da61fbce"),
    (lambda: run_theorem4(J_SQ), PASSED,
     "99a46418bb5baba33a9091ca86cb920e07c6c2ada7b7cbbc2563dde553cfe924"),
], ids=["theorem4", "theorem5", "identities-operator", "identities-rc",
        "const-offscale", "generic-cubic", "j-sq"])
def test_report_bytes_pinned(run, status, digest):
    """SHA-256 of the canonical report bytes (the CLI's JSON encoding of
    the result) at the default orders 40/24: a refactor keeps every byte."""
    res = run()
    assert res.status == status
    data = (json.dumps(res.to_tree(), indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == digest


class TestOneExpansionPerSequence:
    """The fit and the duals read the same structure rows: each row of a
    sequence is computed once per verdict, a four-term row without a full
    expansion, and no row after the first that is not four-term. The rows
    of an eigen-MPS come from eigen_mps's recurrence, so only its first
    row that is not four-term is computed here."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # a full expansion is an elimination past the top three indices
        rows, expansions = [], []
        row, eliminate = two_orth._row, two_orth._eliminate

        def counted_row(P, k):
            rows.append((len(P), k))
            return row(P, k)

        def counted_eliminate(P, w, e, top):
            if len(top) > 3:
                expansions.append(len(P))
            return eliminate(P, w, e, top)
        monkeypatch.setattr(two_orth, "_row", counted_row)
        monkeypatch.setattr(two_orth, "_eliminate", counted_eliminate)
        return rows, expansions

    def test_identities_rc(self, sampler, counts):
        # depth 20: P_0..P_20 has rows k <= 19
        res = run_identities_rc(sampler.recurrence(22), moment_order=20,
                                check_order=8)
        assert res.status == PASSED
        assert counts == ([(21, k) for k in range(20)], [])

    def test_theorem4(self, counts):
        # the 28 rows of the eigen-MPS P_0..P_28 come with it; the Hahn
        # test fits the derivative MPS of P_0..P_11, Q_0..Q_10, with 10 rows
        res = run_theorem4(README_J, moment_order=28, check_order=14)
        assert res.status == PASSED
        assert counts == ([(11, k) for k in range(10)], [])

    def test_generic_cubic_stops_at_row_4(self, counts):
        # the row of x P_4 has a nonzero entry at P_1 (witness index 3):
        # rows 0..3 come with the eigen-MPS, row 4 is one full expansion,
        # and none of the rows 5..39 is computed
        res = run_theorem4(_first_theorem4_draw("generic-cubic"))
        assert res.status == UNMET
        assert res.failure["witness"].startswith("index 3: chi_{3,1} = ")
        assert counts == ([(41, 4)], [41])


class TestOneIntermediatesPerVerdict:
    """The expansion intermediates of (J, rc) are built once per verdict and
    passed to every stage that reads them; a draw outside scope or not
    2-orthogonal never builds them."""

    @pytest.mark.parametrize("run, status, builds", [
        (lambda: run_theorem4(README_J, moment_order=28, check_order=14),
         PASSED, 1),
        (lambda: run_theorem5(T5_J, T5_TAU, moment_order=28, check_order=14),
         PASSED, 1),
        (lambda: run_identities_operator(README_J, moment_order=24,
                                         check_order=12), PASSED, 1),
        (lambda: run_theorem4(family4(R(2), R(-1), R(3), a3_const=2),
                              moment_order=20, check_order=8),
         UNMET, 0),
        (lambda: run_theorem4(DiffOperator([Polynomial([2]), Polynomial([-1, 3]),
                                            Polynomial.zero(),
                                            Polynomial([1, 1, 0, 1])]),
                              moment_order=20, check_order=8),
         UNMET, 0),
    ], ids=["theorem4", "theorem5", "identities-operator", "outside-scope",
            "not-2-orthogonal"])
    def test_builds_per_verdict(self, monkeypatch, run, status, builds):
        calls = []
        init = hahn.Intermediates.__init__

        def counted(self, **kw):
            calls.append(1)
            init(self, **kw)
        monkeypatch.setattr(hahn.Intermediates, "__init__", counted)
        assert run().status == status
        assert len(calls) == builds


class TestTransportCertification:
    """An operator verdict's duals are certified by their construction from
    J's transposed band recurrence: a passing verdict runs verify_eigen
    once on P_0..P_check_order and transposes each dual once, for
    Eq-J(u_n) (TestOrthogonalityCertification counts its pairings). A
    corrupted lambda is named by that verify_eigen call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        eigen, transposes = [], []
        verify = pipelines.verify_eigen
        transpose = DiffOperator.transpose_apply

        def counted_verify(J, P, lam):
            eigen.append(len(P))
            return verify(J, P, lam)

        def counted_transpose(J, u, m=0):
            if not m:
                transposes.append(u)
            return transpose(J, u, m)
        monkeypatch.setattr(pipelines, "verify_eigen", counted_verify)
        monkeypatch.setattr(DiffOperator, "transpose_apply", counted_transpose)
        return eigen, transposes

    @pytest.mark.parametrize("run", [
        lambda: run_theorem4(README_J, moment_order=28, check_order=14),
        lambda: run_theorem5(T5_J, T5_TAU, moment_order=28, check_order=14),
        lambda: run_identities_operator(README_J, moment_order=28,
                                        check_order=14),
    ], ids=["theorem4", "theorem5", "identities-operator"])
    def test_passing_verdict(self, counts, run):
        assert run().status == PASSED
        eigen, transposes = counts
        assert eigen == [15]
        assert len(transposes) == 6 == len({id(u) for u in transposes})

    def test_corrupted_lambda_names_witness(self, counts, monkeypatch):
        _perturbed_lambda(monkeypatch)
        res = run_identities_operator(README_J, moment_order=28, check_order=14)
        assert res.failure["where"] == "n=3"
        assert counts[0] == [15]


class TestOrthogonalityCertification:
    """A verdict computes no pairing except the six regularity pairings, on
    both routes: the duals are biorthogonal by construction, and the d = 2
    orthogonality zeros follow from the dual recurrence, whose forms
    orthogonality_check takes from check_dual_identities, so no
    left-multiplication is added. A bumped moment that R_n names is named
    before any pairing."""

    @pytest.fixture
    def counts(self, monkeypatch):
        pairings, mults = [], []
        act, left = forms.mact, forms.mleft

        def counted_act(p, m):
            pairings.append(len(p))
            return act(p, m)

        def counted_left(f, m):
            mults.append(len(f))
            return left(f, m)
        monkeypatch.setattr(forms, "mact", counted_act)
        monkeypatch.setattr(forms, "mleft", counted_left)
        return pairings, mults

    # an upper bound on each verdict's left-multiplications
    @pytest.mark.parametrize("run, left_mults", [
        (lambda: run_theorem4(README_J, moment_order=28, check_order=14), 67),
        (lambda: run_theorem5(T5_J, T5_TAU, moment_order=28, check_order=14),
         92),
        (lambda: run_identities_operator(README_J, moment_order=28,
                                         check_order=14), 63),
        (lambda: run_identities_rc(ParamSampler(20240817).recurrence(26),
                                   moment_order=24, check_order=12), 18),
    ], ids=["theorem4", "theorem5", "identities-operator", "identities-rc"])
    def test_passing_verdict(self, counts, run, left_mults):
        assert run().status == PASSED
        pairings, mults = counts
        # <u_nu, P_m P_{2m+nu}> read off P_m u_nu for nu <= 1, m <= 2
        assert sorted(pairings) == [1, 2, 3, 4, 5, 6]
        assert len(mults) <= left_mults

    def test_bumped_top_moment_pairs_nothing(self, counts, monkeypatch):
        # (u_0)_28 + 1 is seen by R_0 at moment 27 before any row runs
        _bumped_dual_moment(monkeypatch, 0, 28, lambda u, P: 1)
        res = run_theorem4(README_J, moment_order=28, check_order=14)
        assert counts[0] == []
        assert res.failure == _recurrence_witness(0, 28)
