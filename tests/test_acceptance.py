"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime. Everything is exact rational arithmetic: tolerance 0.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""
import json
import time
from math import factorial
from pathlib import Path

import pytest

from conftest import jimage_mps, random_mps, random_operator, random_recurrence
from duorth import (DiffOperator, MomentForm, ParamSampler, Polynomial,
                    Rational, check_dual_identities, dual_sequence,
                    fit_2orth_recurrence, generate, intermediates,
                    phi_theorem4, run_sweep, varpi_theorem5)
from duorth.cli import main as cli_main
from duorth.errors import HypothesisViolated
from duorth.forms import require_equal
from duorth.poly import X

R = Rational

SWEEP_SEED = 20250808
DRAWS = 20


def _announce(num, started, detail):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.1f}s) - {detail}")


@pytest.fixture(scope="module")
def theorem4_sweep():
    t0 = time.monotonic()
    tree = run_sweep("verify-theorem4", seed=SWEEP_SEED, draws=DRAWS,
                     moment_order=40, check_order=24)
    return tree, time.monotonic() - t0


def test_criterion_1_operator_calculus():
    """Duality, both Leibniz rules, and the image-dual transport, each on
    >= 100 random instances; runtime < 30 s."""
    started = time.monotonic()
    s = ParamSampler(101)

    for _ in range(100):  # duality <tJ(u), f> = <u, J(f)>
        J = random_operator(s, 3)
        u = MomentForm([s.rat() for _ in range(14)])
        f = s.poly(5)
        left = J.transpose_apply(u)
        if f.degree > left.order:
            f = s.poly(3)
        assert left.act(f) == u.act(J.apply(f))

    for _ in range(100):  # Leibniz on polynomials, both orderings
        J = random_operator(s, 3)
        f, g = s.poly(4), s.poly(3)
        lhs = J.apply(f * g)
        for a, b in ((f, g), (g, f)):
            acc = Polynomial.zero()
            d = b
            n = 0
            while not (n > 0 and d.is_zero()):
                acc = acc + J.shifted(n).apply(a) * d / factorial(n)
                d = d.derivative()
                n += 1
                if n > 12:
                    break
            assert acc == lhs

    for _ in range(100):  # third-order Leibniz on forms (four terms)
        J = random_operator(s, 3)
        f = s.poly(3)
        u = MomentForm([s.rat() for _ in range(20)])
        lhs = J.transpose_apply(u.left_mul(f))
        rhs = J.transpose_apply(u).left_mul(f)
        for n in range(1, 4):
            term = J.shifted(n).transpose_apply(u).left_mul(f.derivative(n))
            rhs = rhs + R((-1) ** n, factorial(n)) * term
        require_equal(lhs, rhs, min(lhs.order, rhs.order), "Leibniz")

    count = 0  # image-dual transport J(u~_n) = lambda_{n+k} u_{n+k}
    while count < 100:
        k = count % 3
        J = random_operator(s, 3, lowering=k)
        lams = J.lambda_seq(k, 12)
        if any(v == 0 for v in lams):
            continue
        P = random_mps(s, 12)
        Pt = jimage_mps(J, P, k)
        duals = dual_sequence(P, 8, 11)
        duals_t = dual_sequence(Pt, 3, len(Pt) - 1)
        for n in range(3):
            lhs = J.transpose_apply(duals_t[n])
            rhs = lams[n] * duals[n + k]
            require_equal(lhs, rhs, min(lhs.order, rhs.order, 7), "transport")
            for m in range(8):
                if P[m].degree <= lhs.order:
                    assert lhs.act(P[m]) == (lams[n] if m == n + k else 0)
        count += 1

    assert time.monotonic() - started < 30
    _announce(1, started, "duality, Leibniz (fg and fu), transport: "
                          "100 exact instances each")


def test_criterion_2_lambda_cross_check():
    """The printed lambda formulas and the leading-coefficient extraction
    both reproduce the lambda sums, >= 50 random operators, n <= 12."""
    started = time.monotonic()
    s = ParamSampler(202)
    for _ in range(50):
        J = random_operator(s, 3)
        lams = J.lambda_seq(0, 12)
        assert lams[0] == J.coef(0, 0)
        assert lams[1] == J.coef(0, 0) + J.coef(1, 1)
        assert lams[2] == J.coef(0, 0) + 2 * J.coef(1, 1) + J.coef(2, 2)
        for n in range(13):
            assert J.apply(Polynomial.monomial(n))[n] == lams[n]
    for k in (1, 2):  # lowering variants against degree-n coefficients
        for _ in range(10):
            J = random_operator(s, 3, lowering=k)
            lams = J.lambda_seq(k, 10)
            for n in range(11):
                assert J.apply(Polynomial.monomial(n + k))[n] == lams[n]
    _announce(2, started, "lambda sums match printed values and "
                          "coefficient extraction, 50+ operators")


def test_criterion_3_two_orthogonality_round_trip():
    """Round trip, biorthogonality, dual recurrence, u_2..u_5 decompositions:
    50 random regular rc, depth 14+, moments to order 40; runtime < 2 min."""
    started = time.monotonic()
    s = ParamSampler(303)
    for draw in range(50):
        rc = s.recurrence(42)
        P = generate(rc, 40)
        fitted = fit_2orth_recurrence(P)
        assert fitted.first_difference(rc) is None
        duals = dual_sequence(P, 5, 40)
        for k in range(6):
            for m in range(9):
                assert duals[k].act(P[m]) == (1 if k == m else 0)
        report = check_dual_identities(rc, duals, 24)
        tags = {item["tag"] for item in report.items}
        assert {"Eq-u2", "Eq-u3", "Eq-u4", "Eq-u5"} <= tags
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(3, started, "50 rc draws: fit round trip, biorthogonality, "
                          "dual recurrence + decompositions to order 24")


def test_criterion_4_closed_form_identities():
    """Phi entries (theorem 4) and varpi entries (theorem 5 table) equal
    their defining constructions at >= 5 generic rational points each."""
    started = time.monotonic()
    s = ParamSampler(404)

    done = 0
    while done < 5:
        rc = random_recurrence(s, 8, alpha1_zero=True)
        a1 = R(-1, 3) / rc.gamma(1) * (X - Polynomial.constant(rc.beta(0)))
        a3 = s.poly(3)
        if a3.degree != 3:
            continue
        J = DiffOperator([Polynomial([s.rat()]), a1, Polynomial.zero(), a3])
        try:
            # a closed-form mismatch raises IdentityViolated, which fails this test
            phi_theorem4(intermediates(J, rc))
        except HypothesisViolated:
            continue
        done += 1

    done = 0
    while done < 5:
        rc = random_recurrence(s, 8, tie_alpha4=True)
        a1 = R(-1, 3) / rc.gamma(1) * (X - Polynomial.constant(rc.beta(0)))
        a2 = Polynomial([s.rat(), s.rat()])
        tau = s.rat()
        J = DiffOperator([Polynomial([s.rat()]), a1, a2, tau * a2])
        try:
            varpi_theorem5(intermediates(J, rc), tau)
        except HypothesisViolated:
            continue
        done += 1
    _announce(4, started, "phi and varpi closed forms exact at 5 generic "
                          "points each")


def test_criterion_5_theorem4_end_to_end(theorem4_sweep):
    """20 seeded draws; zero violated; every scope-qualified draw passes all
    identities exactly to moment order 24 and Hahn to n = 10; < 5 min."""
    started = time.monotonic()
    tree, elapsed = theorem4_sweep
    summary = tree["summary"]
    assert summary["violated"] == 0
    assert summary["passed"] >= 1, "sweep must exercise qualifying draws"
    assert summary["passed"] + summary["hypotheses-unmet"] == DRAWS
    assert elapsed < 300
    rate = summary["hypotheses-unmet"] / DRAWS
    _announce(5, started, f"theorem-4 sweep in {elapsed:.1f}s: "
                          f"{summary['passed']} passed, hypotheses-unmet rate "
                          f"{rate:.2f}, zero violated")


def test_criterion_6_theorem5_end_to_end():
    """Same protocol for the a_3 = tau a_2 family; zero violated."""
    started = time.monotonic()
    tree = run_sweep("verify-theorem5", seed=SWEEP_SEED, draws=DRAWS,
                     moment_order=40, check_order=24)
    summary = tree["summary"]
    assert summary["violated"] == 0
    assert summary["passed"] >= 1
    rate = summary["hypotheses-unmet"] / DRAWS
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _announce(6, started, f"theorem-5 sweep: {summary['passed']} passed, "
                          f"hypotheses-unmet rate {rate:.2f}, zero violated")


def test_criterion_7_determinism(theorem4_sweep, tmp_path):
    """Same seed implies byte-identical reports, in memory and on disk."""
    started = time.monotonic()
    rerun = run_sweep("verify-theorem4", seed=SWEEP_SEED, draws=DRAWS,
                      moment_order=40, check_order=24)
    blob1 = json.dumps(theorem4_sweep[0], indent=2, sort_keys=True)
    blob2 = json.dumps(rerun, indent=2, sort_keys=True)
    assert blob1 == blob2
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["sweep", "--target", "verify-theorem5", "--seed", "17",
            "--draws", "6", "--out"]
    assert cli_main(args + [out1]) == 0
    assert cli_main(args + [out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    _announce(7, started, "full-size sweep rerun and CLI report files "
                          "byte-identical")
