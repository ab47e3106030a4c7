"""Batch front-end.

Subcommands: classify, eigensolve, verify-theorem4, verify-theorem5,
verify-identities, hahn, sweep. Each mode reads its own settings, listed
once in _FIELDS: a flag overrides the JSON config file (--config), which
overrides the default. The config may hold only the mode's settings and
the input it reads (an operator, or for verify-identities and hahn an
operator or a recurrence), every rational as a "p/q" string; any other
flag or config key is an input error. Each run writes a structured JSON
report (--out), whose config echoes those settings and that input, and
prints a one-line verdict.

Exit codes: 0 all checks passed, 1 identity violated (or negative Hahn
verdict), 2 hypotheses unmet / instance outside theorem scope, 3 input
error (a malformed command line, a bad config or an unwritable report path).
"""
from __future__ import annotations

import argparse
import json
import os
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


# Every config field: its key, flag, argparse keywords, default and the
# modes that read it. A mode takes only its own flags and config keys.
_VERIFY = ("verify-theorem4", "verify-theorem5", "verify-identities")
_FIELDS = (
    ("n_max", "--nmax", {"type": int, "help": "highest degree solved"}, 12,
     ("classify", "eigensolve", "hahn")),
    ("moment_order", "--order", {"type": int, "help": "moment order"}, 40,
     _VERIFY + ("sweep",)),
    ("check_order", "--check-order", {"type": int, "help": "identity-check order"},
     24, _VERIFY + ("sweep",)),
    ("tau", "--tau", {"help": "tau as a rational string (inferred from "
                              "a_3 = tau a_2 when absent)"}, None,
     ("verify-theorem5",)),
    ("seed", "--seed", {"type": int, "help": "sampler seed"}, 0, ("sweep",)),
    ("draws", "--draws", {"type": int, "help": "number of draws"}, 20, ("sweep",)),
    ("target", "--target", {"choices": _VERIFY,
                            "help": "verification a sweep repeats"},
     "verify-theorem4", ("sweep",)),
)


def _fields(mode):
    return [row for row in _FIELDS if mode in row[4]]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="duorth",
        description="Exact verification of 2-orthogonal eigenpolynomial "
                    "families of third-order operators")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="duorth-report.json",
                       help="report file path (default duorth-report.json)")
        for key, flag, kwargs, default, _ in _fields(mode):
            if default is not None:
                kwargs = {**kwargs, "help": f"{kwargs['help']} (default {default})"}
            p.add_argument(flag, dest=key, **kwargs)
    return parser


def _load_config(args) -> dict:
    """The mode's fields, flag over config file over default, and the
    config's input trees; a config key the mode does not read is an error."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise InputError("config root must be a JSON object")
    fields = _fields(args.mode)
    known = {row[0] for row in fields} | set(_MODES[args.mode][1])
    for key in cfg:
        if key not in known:
            raise InputError(f"{args.mode} does not read config key {key!r}")
    for key, _, kwargs, default, _ in fields:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        cfg.setdefault(key, default)
        if kwargs.get("type") is int and type(cfg[key]) is not int:
            raise InputError(f"config field {key} must be an integer")
    if "n_max" in cfg and cfg["n_max"] < 4:
        raise InputError("n_max must be >= 4")
    return cfg


def _check_out(path):
    """InputError unless a report can be written at path: its directory
    exists and is writable, and path is not a directory. Nothing is
    created or truncated here, so a run that ends in an input error
    leaves no report."""
    folder = os.path.dirname(path) or "."
    if not path or os.path.isdir(path):
        reason = "not a file path"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(folder, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise InputError(f"cannot write report {path}: {reason}")


def _input(cfg, mode):
    """The one input tree the mode reads, parsed: an operator, or for
    verify-identities and hahn an operator or a recurrence."""
    keys = _MODES[mode][1]
    given = [key for key in keys if key in cfg]
    if len(given) > 1:
        raise InputError(f"{mode} takes an operator or a recurrence, not both")
    if not given:
        raise InputError(f"{mode} needs an {' or a '.join(keys)}")
    key = given[0]
    parse = operator_from_tree if key == "operator" else rc_from_tree
    try:
        return parse(cfg[key])
    except (DuorthError, ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise InputError(f"bad {key}: {exc}")


def _infer_tau(cfg, J):
    if cfg["tau"] is not None:
        try:
            return rat_from_str(cfg["tau"])
        except (ValueError, TypeError) as exc:
            raise InputError(f"bad tau: {exc}")
    a2, a3 = J.coeff(2), J.coeff(3)
    if a2.is_zero():
        raise InputError("cannot infer tau with a2 = 0; pass --tau")
    i = a2.degree
    return a3[i] / a2[i]


def _cmd_classify(cfg):
    J = _input(cfg, "classify")
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
    J = _input(cfg, "eigensolve")
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
    return _verify(cfg, "verify-theorem4", run_theorem4,
                   _input(cfg, "verify-theorem4"))


def _cmd_theorem5(cfg):
    J = _input(cfg, "verify-theorem5")
    return _verify(cfg, "verify-theorem5", run_theorem5, J, _infer_tau(cfg, J))


def _cmd_identities(cfg):
    run = run_identities_operator if "operator" in cfg else run_identities_rc
    return _verify(cfg, "verify-identities", run, _input(cfg, "verify-identities"))


def _cmd_hahn(cfg):
    source = _input(cfg, "hahn")
    depth = cfg["n_max"] + 1  # n_max >= 4: P_0..P_4 at least
    if "operator" in cfg:
        try:
            P, _ = eigen_mps(source, depth)
        except (NonInvertible, RepeatedEigenvalue) as exc:
            return EXIT_UNMET, {"error": str(exc)}, f"hahn: {exc}"
    else:
        try:
            P = generate(source, depth)
        except DuorthError as exc:
            raise InputError(f"recurrence too shallow for n_max={cfg['n_max']}: {exc}")
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


# mode: its handler and the config inputs it reads
_MODES = {
    "classify": (_cmd_classify, ("operator",)),
    "eigensolve": (_cmd_eigensolve, ("operator",)),
    "verify-theorem4": (_cmd_theorem4, ("operator",)),
    "verify-theorem5": (_cmd_theorem5, ("operator",)),
    "verify-identities": (_cmd_identities, ("operator", "recurrence")),
    "hahn": (_cmd_hahn, ("operator", "recurrence")),
    "sweep": (_cmd_sweep, ()),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        _check_out(args.out)
        code, results, verdict = _MODES[args.mode][0](cfg)
        report = {"mode": args.mode, "config": cfg, "exit_code": code,
                  "results": results}
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
