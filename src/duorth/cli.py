"""Batch front-end.

Subcommands: classify, eigensolve, verify-theorem4, verify-theorem5,
verify-identities, hahn, sweep. Inputs come from a JSON config file
(--config) holding the operator and/or recurrence with every rational as
a "p/q" string; numeric flags override config values. Each run writes a
structured JSON report (--out) and prints a one-line verdict.

Exit codes: 0 all checks passed, 1 identity violated (or negative Hahn
verdict), 2 hypotheses unmet / instance outside theorem scope, 3 input
error (a malformed command line, a bad config or an unwritable report path).
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import (DuorthError, NonInvertible, NotTwoOrthogonal,
                     RepeatedEigenvalue)
from .hahn import hahn_check
from .eigensolver import eigen_mps
from .pipelines import (PASSED, UNMET, VIOLATED, run_identities_operator,
                        run_identities_rc, run_sweep, run_theorem4,
                        run_theorem5)
from .serialize import (mps_to_tree, operator_from_tree, rat_from_str,
                        rat_to_str, rc_from_tree, rc_to_tree)
from .two_orth import fit_2orth_recurrence, generate

EXIT_PASSED = 0
EXIT_VIOLATED = 1
EXIT_UNMET = 2
EXIT_INPUT = 3

_STATUS_EXIT = {PASSED: EXIT_PASSED, VIOLATED: EXIT_VIOLATED, UNMET: EXIT_UNMET}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: argparse's exit 2 means unmet here."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="duorth",
        description="Exact verification of 2-orthogonal eigenpolynomial "
                    "families of third-order operators")
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = ("classify", "eigensolve", "verify-theorem4", "verify-theorem5",
             "verify-identities", "hahn", "sweep")
    for mode in modes:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="duorth-report.json",
                       help="report file path (default duorth-report.json)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--draws", type=int, default=None)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--order", type=int, default=None,
                       help="moment order (default 40)")
        p.add_argument("--check-order", type=int, default=None,
                       help="identity-check order (default 24)")
        p.add_argument("--tau", default=None,
                       help="tau as a rational string (verify-theorem5)")
        p.add_argument("--target", default=None,
                       choices=("verify-theorem4", "verify-theorem5",
                                "verify-identities"),
                       help="verification a sweep repeats")
    return parser


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise InputError("config root must be a JSON object")
    for flag, key in (("seed", "seed"), ("draws", "draws"), ("nmax", "n_max"),
                      ("order", "moment_order"), ("check_order", "check_order"),
                      ("tau", "tau"), ("target", "target")):
        val = getattr(args, flag)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("n_max", 12)
    cfg.setdefault("moment_order", 40)
    cfg.setdefault("check_order", 24)
    cfg.setdefault("seed", 0)
    cfg.setdefault("draws", 20)
    cfg.setdefault("target", "verify-theorem4")
    for key in ("n_max", "moment_order", "check_order", "seed", "draws"):
        if type(cfg[key]) is not int:
            raise InputError(f"config field {key} must be an integer")
    if not isinstance(cfg["target"], str):
        raise InputError("config field target must be a string")
    if cfg["n_max"] < 4:
        raise InputError("n_max must be >= 4")
    return cfg


def _get_input(cfg, key, parse, required=True):
    """The config entry `key` read by `parse`; None when it is absent and
    not required."""
    tree = cfg.get(key)
    if tree is None:
        if required:
            raise InputError(f"this mode needs an \"{key}\" in the config")
        return None
    try:
        return parse(tree)
    except (DuorthError, ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise InputError(f"bad {key}: {exc}")


def _infer_tau(cfg, J):
    if cfg.get("tau") is not None:
        try:
            return rat_from_str(cfg["tau"])
        except (ValueError, TypeError) as exc:
            raise InputError(f"bad tau: {exc}")
    a2, a3 = J.coeff(2), J.coeff(3)
    if a2.is_zero():
        raise InputError("cannot infer tau with a2 = 0; pass --tau")
    i = a2.degree
    return a3[i] / a2[i]


def _config_echo(cfg) -> dict:
    echo = {k: cfg[k] for k in
            ("n_max", "moment_order", "check_order", "seed", "draws", "target")}
    if "operator" in cfg:
        echo["operator"] = cfg["operator"]
    if "recurrence" in cfg:
        echo["recurrence"] = cfg["recurrence"]
    if "tau" in cfg:
        echo["tau"] = str(cfg["tau"])
    return echo


def _cmd_classify(cfg):
    J = _get_input(cfg, "operator", operator_from_tree)
    cls = J.classify_order(cfg["n_max"])
    if cls.classified:
        results = {"classified": True, "k": cls.k,
                   "lambda": [rat_to_str(v) for v in cls.lambdas],
                   "horizon": cls.horizon}
        verdict = f"classify: k={cls.k}, lambda nonzero verified to n={cls.horizon}"
    else:
        results = {"classified": False, "reason": cls.reason}
        verdict = f"classify: not classifiable ({cls.reason})"
    return EXIT_PASSED, results, verdict


def _cmd_eigensolve(cfg):
    J = _get_input(cfg, "operator", operator_from_tree)
    try:
        P, lam = eigen_mps(J, cfg["n_max"])
    except (NonInvertible, RepeatedEigenvalue) as exc:
        return EXIT_UNMET, {"error": str(exc)}, f"eigensolve: {exc}"
    results = {"polynomials": mps_to_tree(P),
               "lambda": [rat_to_str(v) for v in lam]}
    try:
        rc = fit_2orth_recurrence(P)
        results["two_orthogonal"] = True
        results["recurrence"] = rc_to_tree(rc)
        note = "2-orthogonal"
    except NotTwoOrthogonal as exc:
        results["two_orthogonal"] = False
        results["fit_failure"] = {"index": exc.index, "reason": exc.reason}
        note = "not 2-orthogonal"
    verdict = f"eigensolve: solved to n={cfg['n_max']}; {note}"
    return EXIT_PASSED, results, verdict


def _verify(cfg, mode, run, *args):
    """Run one pipeline entry at the configured orders; its status gives the
    exit code and the verdict line, an input it rejects an input error."""
    try:
        result = run(*args, moment_order=cfg["moment_order"],
                     check_order=cfg["check_order"])
    except ValueError as exc:
        raise InputError(str(exc))
    verdict = f"{mode}: {result.status}"
    if result.failure:
        brief = result.failure.get("tag", result.failure.get("reason", "failure"))
        verdict += f" ({brief})"
    return _STATUS_EXIT[result.status], result.to_tree(), verdict


def _cmd_theorem4(cfg):
    J = _get_input(cfg, "operator", operator_from_tree)
    return _verify(cfg, "verify-theorem4", run_theorem4, J)


def _cmd_theorem5(cfg):
    J = _get_input(cfg, "operator", operator_from_tree)
    return _verify(cfg, "verify-theorem5", run_theorem5, J, _infer_tau(cfg, J))


def _cmd_identities(cfg):
    J = _get_input(cfg, "operator", operator_from_tree, False)
    rc = _get_input(cfg, "recurrence", rc_from_tree, False)
    if J is not None:
        return _verify(cfg, "verify-identities", run_identities_operator, J)
    if rc is not None:
        return _verify(cfg, "verify-identities", run_identities_rc, rc)
    raise InputError("verify-identities needs an operator or a recurrence")


def _cmd_hahn(cfg):
    J = _get_input(cfg, "operator", operator_from_tree, False)
    rc = _get_input(cfg, "recurrence", rc_from_tree, False)
    depth = cfg["n_max"] + 1  # n_max >= 4: P_0..P_4 at least
    if J is not None:
        try:
            P, _ = eigen_mps(J, depth)
        except (NonInvertible, RepeatedEigenvalue) as exc:
            return EXIT_UNMET, {"error": str(exc)}, f"hahn: {exc}"
    elif rc is not None:
        try:
            P = generate(rc, depth)
        except DuorthError as exc:
            raise InputError(f"recurrence too shallow for n_max={cfg['n_max']}: {exc}")
    else:
        raise InputError("hahn needs an operator or a recurrence")
    try:
        rc = hahn_check(P)
    except NotTwoOrthogonal as exc:
        results = {"positive": False,
                   "witness": {"index": exc.index, "reason": exc.reason}}
        return EXIT_VIOLATED, results, "hahn: negative"
    results = {"positive": True, "derivative_recurrence": rc_to_tree(rc)}
    return EXIT_PASSED, results, f"hahn: positive to n={depth - 1}"


def _cmd_sweep(cfg):
    try:
        tree = run_sweep(cfg["target"], cfg["seed"], cfg["draws"],
                         moment_order=cfg["moment_order"],
                         check_order=cfg["check_order"])
    except ValueError as exc:
        raise InputError(str(exc))
    summary = tree["summary"]
    code = EXIT_PASSED if summary[VIOLATED] == 0 else EXIT_VIOLATED
    verdict = (f"sweep {cfg['target']}: draws={cfg['draws']} "
               f"passed={summary[PASSED]} hypotheses-unmet={summary[UNMET]} "
               f"violated={summary[VIOLATED]}")
    return code, tree, verdict


_HANDLERS = {
    "classify": _cmd_classify,
    "eigensolve": _cmd_eigensolve,
    "verify-theorem4": _cmd_theorem4,
    "verify-theorem5": _cmd_theorem5,
    "verify-identities": _cmd_identities,
    "hahn": _cmd_hahn,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        code, results, verdict = _HANDLERS[args.mode](cfg)
        report = {
            "mode": args.mode,
            "config": _config_echo(cfg),
            "exit_code": code,
            "results": results,
        }
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            except OSError as exc:
                raise InputError(f"cannot write report {args.out}: {exc}")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(verdict)
    if code != EXIT_PASSED:
        print(f"(details in {args.out})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
