"""End-to-end verification pipelines and seeded sweeps.

Every operator run goes through one pipeline, `_drive`: it eigensolves
the operator, fits the four-term recurrence and, for a theorem run, checks
the scope coupling (hahn.check_scope: fitted beta_0, gamma_1 against the
values the operator's a_1 implies). It then builds the expansion
intermediates of (J, rc) once, passes them to the theorem hypotheses and
to every identity stage that reads them, and verifies every functional
identity exactly at the requested moment order and, for a theorem run,
Hahn's property and the classical system. Outcomes are three-valued:
"passed", "hypotheses-unmet" (instance outside theorem scope), or
"violated" (an exact identity failed; always reported as its tag, where,
lhs and rhs). Orders outside moment_order >= 6 and
0 <= check_order <= moment_order - 4 raise ValueError before any work; a
theorem run checks Hahn's property to min(10, moment_order - 1).

The duals' biorthogonality holds by construction on both routes: on an
operator run dual_sequence builds them from J's transposed band
recurrence on the eigen-MPS, whose distinct lambdas and eigen relation
to moment_order eigen_mps has established; verify_eigen then checks the
eigen relation of the lambdas the report prints to check_order.
run_identities_rc has no operator, and its duals run forward through the
exact structure rows of the generated sequence. It needs
moment_order >= 8.

The d = 2 orthogonality rows (m <= 2) then follow from the dual
recurrence R_0..R_3: the forms that check_dual_identities compares to
check_order are compared again to the duals' order - 1, and moving each
x of <u_nu, P_m P_j> across the pairing leaves pairings that
biorthogonality makes 0. A differing moment is named by its
dual-recurrence(n=..) tag. A verdict computes no pairing except the six
regularity pairings <u_nu, P_m P_{2m+nu}>."""
from __future__ import annotations

from itertools import tee

from .diffop import DiffOperator
from .errors import (HypothesisViolated, IdentityViolated, NonInvertible,
                     NotTwoOrthogonal, RepeatedEigenvalue)
from .eigensolver import eigen_mps, verify_eigen
from .hahn import (check_scope, classical_system_check, hahn_check,
                   intermediates, j_expansion_check, lemma_identities_check,
                   phi_theorem4, varpi_theorem5)
from .reporting import Report
from .sampling import ParamSampler
from .serialize import operator_to_tree, poly_to_list, rat_to_str
from .two_orth import (RecurrenceCoeffs, check_dual_identities,
                       dual_recurrence, dual_sequence, fit_2orth_recurrence,
                       generate, orthogonality_check)

__all__ = ["InstanceResult", "run_theorem4", "run_theorem5",
           "run_identities_rc", "run_identities_operator", "run_sweep"]

PASSED = "passed"
UNMET = "hypotheses-unmet"
VIOLATED = "violated"


class InstanceResult:
    """Outcome of one verification run."""

    def __init__(self, status, report: Report, failure=None, extras=None):
        self.status = status
        self.report = report
        self.failure = failure
        self.extras = extras or {}

    def to_tree(self) -> dict:
        tree = {"status": self.status, "report": self.report.to_tree()}
        if self.failure is not None:
            tree["failure"] = self.failure
        if self.extras:
            tree["extras"] = self.extras
        return tree


def _unmet(report, reason, witness=""):
    failure = {"reason": reason}
    if witness:
        failure["witness"] = str(witness)
    return InstanceResult(UNMET, report, failure)


def _violated(report, exc: IdentityViolated):
    return InstanceResult(VIOLATED, report, {"tag": exc.tag, "where": exc.where,
                                             "lhs": exc.lhs, "rhs": exc.rhs})


def _require_ints(**values):
    """ValueError naming the first value that is not an int (a bool is not)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")


def _check_orders(moment_order, check_order):
    _require_ints(moment_order=moment_order, check_order=check_order)
    if moment_order < 6:
        raise ValueError("moment_order must be >= 6")
    if not 0 <= check_order <= moment_order - 4:
        raise ValueError("check_order must lie in 0..moment_order - 4")


def _closed_forms(report, tag, kind):
    for entry in ("11", "12", "21", "22"):
        report.add(tag.format(*entry),
                   detail=f"defining form equals {kind} closed form")


def _recurrence_checks(rc, P, duals, M, report):
    """Report the biorthogonality that dual_sequence's construction gives,
    then check the dual recurrence and decompositions and the d = 2
    orthogonality. One set of dual-recurrence forms serves both:
    check_dual_identities builds them as it compares them to M, and tee
    keeps them for orthogonality_check, which compares them to the duals'
    order - 1."""
    report.add("biorthogonality",
               horizon=f"k<={len(duals) - 1}, m<={min(8, duals[0].order)}")
    for_identities, for_certificate = tee(dual_recurrence(rc, duals))
    report.merge(check_dual_identities(rc, duals, M, for_identities))
    report.merge(orthogonality_check(P, duals[:2], 2, for_certificate))


def _drive(name, J, moment_order, check_order, hypotheses=None):
    """The one operator pipeline. `hypotheses(it, report)` is a theorem's
    stage: given the intermediates `it` of (J, rc), it returns the classical
    system or raises HypothesisViolated / IdentityViolated. Without it the
    run is the identity suite alone. `it` is built once, after the scope
    match, so an instance outside scope never pays for it. Every check
    raises at its first failure; a failed fit is hypotheses-unmet on the
    eigen-MPS and a violated Hahn verdict on its derivative sequence, which
    a theorem run checks to min(10, moment_order - 1)."""
    _check_orders(moment_order, check_order)
    report = Report(name)
    try:
        try:
            P, lam = eigen_mps(J, moment_order)
        except NonInvertible as exc:
            raise HypothesisViolated("operator is not an isomorphism", exc)
        except RepeatedEigenvalue as exc:
            raise HypothesisViolated("repeated eigenvalue", exc)
        report.add("eigen-solve", horizon=moment_order)
        try:
            rc = fit_2orth_recurrence(P)
        except NotTwoOrthogonal as exc:
            raise HypothesisViolated("eigen-MPS is not 2-orthogonal",
                                     f"index {exc.index}: {exc.reason}")
        report.add("Eq-rr-2orto-fit", horizon=moment_order)
        if hypotheses:
            check_scope(J, rc)
            report.add("scope(beta0,gamma1)", detail="fitted values match implied")
        it = intermediates(J, rc)
        system = hypotheses(it, report) if hypotheses else None
        duals = dual_sequence(P, 5, moment_order)
        verify_eigen(J, P[: check_order + 1], lam)
        report.add("eigen-relation", horizon=check_order)
        _recurrence_checks(rc, P, duals, check_order, report)
        report.merge(j_expansion_check(it, duals, check_order))
        report.merge(lemma_identities_check(it, duals[:2], check_order))
        if not hypotheses:
            return InstanceResult(PASSED, report)
        horizon = min(10, moment_order - 1)
        try:
            hahn_check(P.polys[: horizon + 2])
        except NotTwoOrthogonal as exc:
            raise IdentityViolated("Hahn", f"derivative sequence to n={horizon}",
                                   f"not 2-orthogonal: {(exc.index, exc.reason)}",
                                   "2-orthogonal")
        report.add("Hahn", horizon=horizon)
        report.merge(classical_system_check(system, duals[:2], check_order))
        # the fitted prefix that extras prints regenerates P_0..P_top
        top = min(8, moment_order)
        for n, (got, want) in enumerate(zip(generate(rc, top), P)):
            if got != want:
                raise IdentityViolated("fitted-rc-prefix", f"P_{n}", got, want)
    except HypothesisViolated as exc:
        return _unmet(report, exc.hypothesis, exc.witness)
    except IdentityViolated as exc:
        return _violated(report, exc)
    return InstanceResult(PASSED, report,
                          extras=_extras(J, rc, lam, system, horizon))


def _theorem4_hypotheses(it, report):
    J, rc = it.J, it.rc
    if not J.coeff(2).is_zero():
        raise HypothesisViolated("a2 = 0", J.coeff(2))
    if rc.alpha(1) != 0:
        raise IdentityViolated("Eq-p1=0", "alpha_1", rc.alpha(1), 0)
    report.add("Eq-p1=0", detail="alpha1 = 0")
    if it.p0 != -2 * J.coeff(1):
        raise IdentityViolated("Eq-p0", "polynomial", it.p0, -2 * J.coeff(1))
    report.add("Eq-p0", detail="p0 = -2 a1")
    system = phi_theorem4(it)
    _closed_forms(report, "Eq-phi-{},{}", "printed")
    return system


def run_theorem4(J: DiffOperator, *, moment_order: int = 40,
                 check_order: int = 24) -> InstanceResult:
    """Full verification of the a_2 = 0 classicality theorem on one operator."""
    return _drive("theorem4", J, moment_order, check_order, _theorem4_hypotheses)


def run_theorem5(J: DiffOperator, tau, *, moment_order: int = 40,
                 check_order: int = 24) -> InstanceResult:
    """Full verification of the a_3 = tau a_2 classicality theorem."""
    def hypotheses(it, report):
        system = varpi_theorem5(it, tau)
        _closed_forms(report, "Table-1-varpi{}{}", "tabulated")
        return system

    result = _drive("theorem5", J, moment_order, check_order, hypotheses)
    if result.status == PASSED:
        result.extras["tau"] = rat_to_str(tau)
    return result


def _extras(J, rc, lam, system, horizon) -> dict:
    return {
        "operator": operator_to_tree(J),
        "lambda": [rat_to_str(v) for v in lam[:8]],
        "fitted_rc_prefix": {
            "beta": [rat_to_str(v) for v in rc.betas[:6]],
            "alpha": [rat_to_str(v) for v in rc.alphas[:6]],
            "gamma": [rat_to_str(v) for v in rc.gammas[:6]],
        },
        "phi": [[poly_to_list(p) for p in row] for row in system.phi],
        "psi": [[poly_to_list(p) for p in row] for row in system.psi],
        "hahn": {"positive": True, "horizon": horizon},
    }


def run_identities_rc(rc: RecurrenceCoeffs, *, moment_order: int = 40,
                      check_order: int = 24) -> InstanceResult:
    """Recurrence-level identity suite: generation round trip,
    biorthogonality, dual recurrence, u_2..u_5 decompositions, and the
    d = 2 orthogonality conditions. It has no operator, so dual_sequence
    builds the duals from the structure rows. Needs integer orders,
    moment_order >= 8 and rc coefficients to depth 8 (ValueError otherwise)."""
    _require_ints(moment_order=moment_order, check_order=check_order)
    if moment_order < 8:
        raise ValueError("moment_order must be >= 8 on the recurrence route")
    report = Report("identities")
    depth = min(moment_order, len(rc.betas), len(rc.alphas) + 1,
                len(rc.gammas) + 2)
    if depth < 8:
        raise ValueError("recurrence too shallow: need coefficients to depth 8")
    if check_order < 0:
        raise ValueError("check_order must be >= 0")
    M = min(check_order, depth - 4)
    P = generate(rc, depth)
    refit = fit_2orth_recurrence(P)
    try:
        witness = refit.first_difference(rc)
        if witness:
            raise IdentityViolated("round-trip", *witness)
        report.add("round-trip", horizon=depth)
        _recurrence_checks(rc, P, dual_sequence(P, 5, depth - 1), M, report)
    except IdentityViolated as exc:
        return _violated(report, exc)
    return InstanceResult(PASSED, report, extras={"depth": depth, "order": M})


def run_identities_operator(J: DiffOperator, *, moment_order: int = 40,
                            check_order: int = 24) -> InstanceResult:
    """Operator-level identity suite: eigensolve, fit, then the recurrence
    suite plus the J^(m) transpose expansions and the fundamental-pair
    identities (no theorem-specific hypotheses)."""
    return _drive("identities", J, moment_order, check_order)


def run_sweep(target: str, seed: int, draws: int, *, moment_order: int = 40,
              check_order: int = 24) -> dict:
    """Repeat the selected verification over seeded random admissible
    parameter sets; any violated instance is dumped in full. An unknown
    target, a non-int seed, draw count or order, or no draw raises ValueError."""
    orders = {"moment_order": moment_order, "check_order": check_order}
    _require_ints(seed=seed, draws=draws, **orders)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    sampler = ParamSampler(seed)

    def theorem4():
        draw = sampler.sample_theorem4(moment_order)
        return draw, run_theorem4(draw["J"], **orders)

    def theorem5():
        draw = sampler.sample_theorem5(moment_order)
        return draw, run_theorem5(draw["J"], draw["tau"], **orders)

    def identities():
        return {}, run_identities_rc(sampler.recurrence(moment_order + 2), **orders)

    draw_and_run = {"verify-theorem4": theorem4, "verify-theorem5": theorem5,
                    "verify-identities": identities}
    if not isinstance(target, str) or target not in draw_and_run:
        raise ValueError(f"unknown sweep target {target!r}")
    counts = {PASSED: 0, UNMET: 0, VIOLATED: 0}
    entries = []
    for index in range(draws):
        draw, result = draw_and_run[target]()
        entry = {"draw": index, "status": result.status}
        if "shape" in draw:
            entry["shape"] = draw["shape"]
        if "tau" in draw:
            entry["tau"] = rat_to_str(draw["tau"])
        if result.status == VIOLATED:
            if "J" in draw:
                entry["operator"] = operator_to_tree(draw["J"])
            entry["detail"] = result.to_tree()
        elif result.status == UNMET:
            entry["reason"] = result.failure["reason"]
        counts[result.status] += 1
        entries.append(entry)
    return {
        "target": target, "seed": seed, "draws": draws,
        "moment_order": moment_order, "check_order": check_order,
        "summary": counts, "entries": entries,
    }
