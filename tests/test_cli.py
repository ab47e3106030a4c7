"""CLI: config parsing, subcommands, exit codes, report files, determinism."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import duorth.pipelines as pipelines
from duorth.cli import main


def write_config(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def run_cli(args):
    return main(args)


class TestClassify:
    def test_derivative_operator(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {"operator": [["0"], ["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["classify", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        res = report["results"]
        assert res["k"] == 1
        assert res["lambda"][:3] == ["1", "2", "3"]

    def test_orders_not_read(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {"operator": [["0"], ["1"]]})
        assert run_cli(["classify", "--config", cfg, "--order", "20",
                        "--out", str(tmp_path / "report.json")]) == 0

    def test_not_classifiable(self, tmp_path):
        cfg = write_config(tmp_path, "z.json",
                           {"operator": [[], ["1"], ["0", "0", "1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["classify", "--config", cfg, "--out", out]) == 0
        assert json.loads(Path(out).read_text())["results"]["classified"] is False


class TestEigensolve:
    def test_euler(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", {"operator": [["1"], ["0", "1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["eigensolve", "--config", cfg, "--nmax", "5",
                        "--out", out]) == 0
        res = json.loads(Path(out).read_text())["results"]
        assert res["lambda"] == ["1", "2", "3", "4", "5", "6"]
        assert res["polynomials"][2] == ["0", "0", "1"]
        assert res["two_orthogonal"] is False

    def test_generic_cubic_fit_failure(self, tmp_path):
        # the first generic-cubic theorem-4 draw at seed 20250808, order 40
        cfg = write_config(tmp_path, "g.json", {"operator": [
            ["15/13"], ["-4/5", "11/8"], [], ["18/5", "2/3", "7/13", "-9/14"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["eigensolve", "--config", cfg, "--out", out]) == 0
        res = json.loads(Path(out).read_text())["results"]
        assert res["two_orthogonal"] is False
        assert res["fit_failure"] == {
            "index": 3, "reason": "chi_{3,1} = 45471211770034624/1746873676153125 != 0"}

    def test_repeated_eigenvalue(self, tmp_path):
        cfg = write_config(tmp_path, "i.json", {"operator": [["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["eigensolve", "--config", cfg, "--out", out]) == 2

    def test_theorem4_operator_is_two_orthogonal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t4.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["eigensolve", "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().out == "eigensolve: solved to n=12; 2-orthogonal\n"
        res = json.loads(Path(out).read_text())["results"]
        assert res["two_orthogonal"] is True
        assert sorted(res["recurrence"]) == ["alpha", "beta", "gamma"]
        assert res["recurrence"]["alpha"][0] == "0"


class TestTheoremModes:
    def test_theorem4_passes(self, tmp_path):
        cfg = write_config(tmp_path, "t4.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]],
                            "moment_order": 28, "check_order": 14})
        out = str(tmp_path / "report.json")
        assert run_cli(["verify-theorem4", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["results"]["status"] == "passed"
        assert report["results"]["extras"]["fitted_rc_prefix"]["alpha"][0] == "0"

    def test_theorem4_scope_miss(self, tmp_path):
        cfg = write_config(tmp_path, "t4b.json",
                           {"operator": [["2"], ["-1", "3"], [], ["2"]],
                            "moment_order": 20, "check_order": 8})
        out = str(tmp_path / "report.json")
        assert run_cli(["verify-theorem4", "--config", cfg, "--out", out]) == 2

    def test_theorem5_tau_zero(self, tmp_path):
        cfg = write_config(tmp_path, "t5.json",
                           {"operator": [["5"], ["-1", "3"], ["3/2"], ["1"]],
                            "moment_order": 20, "check_order": 8})
        out = str(tmp_path / "report.json")
        code = run_cli(["verify-theorem5", "--config", cfg, "--tau", "0",
                        "--out", out])
        assert code == 2

    def test_theorem4_check_order_up_to_library_rule(self, tmp_path):
        # check_order may reach moment_order - 4, the pipeline's own rule
        cfg = write_config(tmp_path, "t4d.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["verify-theorem4", "--config", cfg, "--order", "28",
                        "--check-order", "20", "--out", out]) == 0
        horizons = {item["tag"]: item.get("horizon") for item in
                    json.loads(Path(out).read_text())["results"]["report"]["items"]}
        assert horizons["eigen-relation"] == 20

    def test_low_order_uses_default_hahn_horizon(self, tmp_path):
        # no --order is too low for the default Hahn horizon
        cfg = write_config(tmp_path, "t4l.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["verify-theorem4", "--config", cfg, "--order", "10",
                        "--check-order", "6", "--out", out]) == 0
        assert json.loads(Path(out).read_text())["results"]["extras"]["hahn"] == {
            "positive": True, "horizon": 9}
        assert run_cli(["sweep", "--target", "verify-theorem4", "--seed", "11",
                        "--draws", "2", "--order", "8", "--check-order", "4",
                        "--out", out]) == 0

    def test_theorem5_tau_inferred(self, tmp_path):
        cfg = write_config(tmp_path, "t5i.json",
                           {"operator": [["5"], ["1/2", "-2"], ["3/2"], ["1"]],
                            "moment_order": 28, "check_order": 14})
        out = str(tmp_path / "report.json")
        assert run_cli(["verify-theorem5", "--config", cfg, "--out", out]) == 0
        assert json.loads(Path(out).read_text())["results"]["extras"]["tau"] == "2/3"


class TestIdentitiesAndHahn:
    def test_identities_rc(self, tmp_path, sampler):
        from duorth.serialize import rc_to_tree
        rc = sampler.recurrence(26)
        cfg = write_config(tmp_path, "rc.json",
                           {"recurrence": rc_to_tree(rc),
                            "moment_order": 24, "check_order": 12})
        out = str(tmp_path / "report.json")
        assert run_cli(["verify-identities", "--config", cfg, "--out", out]) == 0

    def test_identities_rc_at_depth_8(self, tmp_path):
        from duorth import ParamSampler
        from duorth.serialize import rc_to_tree
        cfg = write_config(tmp_path, "rc.json",
                           {"recurrence": rc_to_tree(ParamSampler(1).recurrence(20))})
        out = tmp_path / "report.json"
        assert run_cli(["verify-identities", "--config", cfg, "--order", "8",
                        "--check-order", "4", "--out", str(out)]) == 0
        items = json.loads(out.read_text())["results"]["report"]["items"]
        horizons = {item["tag"]: item.get("horizon") for item in items}
        assert horizons["biorthogonality"] == "k<=5, m<=7"

    def test_hahn_positive(self, tmp_path, sampler):
        from duorth.serialize import rc_to_tree
        rc = sampler.recurrence(16)
        cfg = write_config(tmp_path, "h.json", {"recurrence": rc_to_tree(rc)})
        out = str(tmp_path / "report.json")
        # a plain random rc's sequence is generally not Hahn-classical:
        # accept either verdict, but it must match the report content
        code = run_cli(["hahn", "--config", cfg, "--out", out])
        report = json.loads(Path(out).read_text())
        assert (code == 0) == report["results"]["positive"]

    def test_hahn_negative_from_operator(self, tmp_path):
        cfg = write_config(tmp_path, "he.json", {"operator": [["1"], ["0", "1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["hahn", "--config", cfg, "--out", out]) == 1

    def test_hahn_repeated_eigenvalue(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "hi.json", {"operator": [["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["hahn", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().out == "hahn: lambda_1 = lambda_0: repeated eigenvalue\n"
        assert json.loads(Path(out).read_text())["results"] == {
            "error": "lambda_1 = lambda_0: repeated eigenvalue"}

    def test_hahn_positive_from_theorem_operator(self, tmp_path):
        cfg = write_config(tmp_path, "h4.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]]})
        out = str(tmp_path / "report.json")
        assert run_cli(["hahn", "--config", cfg, "--out", out]) == 0

    @pytest.mark.parametrize("operator, code, witness, digest", [
        ([["1"], ["0", "1"]], 1,
         {"index": 1, "reason": "gamma_1 = 0 breaks regularity"},
         "cad524f76afb022a24545923469c739244ee3ca2bdc60014893c07883ffe93a7"),
        ([["2"], ["-1", "3"], [], ["1"]], 0, None,
         "6fa15886ff60874c41e8d870f83643e5e9b472828ffaafaa8998cc6c6e2b14de"),
    ])
    def test_hahn_report_bytes_pinned(self, tmp_path, operator, code, witness,
                                      digest):
        """SHA-256 of the hahn report file at the default flags."""
        cfg = write_config(tmp_path, "hp.json", {"operator": operator})
        out = tmp_path / "report.json"
        assert run_cli(["hahn", "--config", cfg, "--out", str(out)]) == code
        if witness is not None:
            assert json.loads(out.read_text())["results"]["witness"] == witness
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSweepMode:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        args = ["sweep", "--target", "verify-theorem4", "--seed", "11",
                "--draws", "3", "--order", "24", "--check-order", "12"]
        assert run_cli(args + ["--out", out1]) == 0
        assert run_cli(args + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_summary_shape(self, tmp_path):
        out = str(tmp_path / "s.json")
        run_cli(["sweep", "--target", "verify-identities", "--seed", "2",
                 "--draws", "2", "--order", "20", "--check-order", "8",
                 "--out", out])
        tree = json.loads(Path(out).read_text())
        assert tree["results"]["summary"]["violated"] == 0


class TestNegativeControl:
    def test_sweep_reports_violated_tag(self, tmp_path, monkeypatch):
        solve = pipelines.eigen_mps

        def eigen_mps(J, depth):
            P, lam = solve(J, depth)
            return P, [v + 1 if n == 3 else v for n, v in enumerate(lam)]
        monkeypatch.setattr(pipelines, "eigen_mps", eigen_mps)
        out = str(tmp_path / "s.json")
        assert run_cli(["sweep", "--target", "verify-theorem4", "--seed", "11",
                        "--draws", "3", "--order", "24", "--check-order", "12",
                        "--out", out]) == 1
        entries = json.loads(Path(out).read_text())["results"]["entries"]
        tags = {e["detail"]["failure"]["tag"] for e in entries
                if e["status"] == "violated"}
        assert tags == {"eigen-relation"}


class TestInputErrors:
    def test_missing_config_file(self, tmp_path):
        assert run_cli(["verify-theorem4", "--config",
                        str(tmp_path / "nope.json")]) == 3

    def test_missing_operator(self, tmp_path):
        cfg = write_config(tmp_path, "empty.json", {})
        assert run_cli(["verify-theorem4", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_bad_order_invariant(self, tmp_path):
        # breaks the pipeline's check_order <= moment_order - 4
        cfg = write_config(tmp_path, "bad.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]],
                            "moment_order": 20, "check_order": 17})
        assert run_cli(["verify-theorem4", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_bad_rational(self, tmp_path):
        cfg = write_config(tmp_path, "badrat.json",
                           {"operator": [["1.5"]]})
        assert run_cli(["classify", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_boolean_integer_field(self, tmp_path):
        cfg = write_config(tmp_path, "bool.json",
                           {"operator": [["0"], ["1"]], "draws": True})
        assert run_cli(["eigensolve", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_library_order_rule(self, tmp_path):
        # breaks the pipeline's moment_order >= 6 and 0 <= check_order
        cfg = write_config(tmp_path, "low.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]],
                            "moment_order": 5, "check_order": -7})
        out = str(tmp_path / "r.json")
        for mode in ("verify-theorem4", "verify-identities", "sweep"):
            assert run_cli([mode, "--config", cfg, "--out", out]) == 3
        assert run_cli(["verify-theorem5", "--config", cfg, "--tau", "1",
                        "--out", out]) == 3

    @pytest.mark.parametrize("order", ["6", "7"])
    def test_identities_sweep_order_rule(self, tmp_path, capsys, order):
        assert run_cli(["sweep", "--target", "verify-identities", "--order", order,
                        "--check-order", "2", "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "moment_order must be >= 8 on the recurrence route" in err
        assert "too shallow" not in err

    def test_sweep_needs_a_draw(self, tmp_path):
        assert run_cli(["sweep", "--target", "verify-identities", "--draws", "0",
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_unknown_sweep_target_in_config(self, tmp_path):
        cfg = write_config(tmp_path, "tgt.json", {"target": "verify-nothing"})
        assert run_cli(["sweep", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_non_string_sweep_target_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tgtl.json", {"target": ["x"]})
        assert run_cli(["sweep", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3
        assert "input error: " in capsys.readouterr().err

    def test_out_in_missing_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "d.json", {"operator": [["0"], ["1"]]})
        assert run_cli(["classify", "--config", cfg,
                        "--out", str(tmp_path / "missing" / "r.json")]) == 3
        assert "input error: " in capsys.readouterr().err

    @pytest.mark.parametrize("mode, tree, flags, message", [
        pytest.param("classify", ["x"], [], "config root must be a JSON object",
                     id="config-root-not-object"),
        pytest.param("eigensolve", {"operator": [["0"], ["1"]]}, ["--nmax", "3"],
                     "n_max must be >= 4", id="nmax-3"),
        pytest.param("verify-theorem5",
                     {"operator": [["5"], ["-1", "3"], ["3/2"], ["1"]]}, ["--tau", "1.5"],
                     "bad tau: not a p/q rational string: '1.5'", id="tau-not-rational"),
        pytest.param("verify-identities", {}, [],
                     "verify-identities needs an operator or a recurrence",
                     id="identities-without-input"),
        pytest.param("hahn", {"recurrence": {"beta": ["1", "2", "3"], "alpha": ["1", "2", "3"],
                                             "gamma": ["1", "2", "3"]}}, [],
                     "recurrence too shallow for n_max=12: beta_3 not stored",
                     id="hahn-shallow-recurrence"),
        pytest.param("hahn", {}, [], "hahn needs an operator or a recurrence",
                     id="hahn-without-input"),
        # a string where an array belongs was read one character at a time:
        # a_1 = "13" as 1 + 3x, and beta as ten one-digit coefficients
        pytest.param("verify-theorem4", {"operator": ["2", "13", [], ["1"]]}, [],
                     "bad operator: a polynomial must be an array, not '2'",
                     id="operator-coefficient-string"),
        pytest.param("verify-identities",
                     {"recurrence": {"beta": "1234567890", "alpha": ["1"] * 10,
                                     "gamma": ["1"] * 10}},
                     ["--order", "8", "--check-order", "4"],
                     "bad recurrence: beta must be an array, not '1234567890'",
                     id="recurrence-beta-string"),
        pytest.param("verify-identities", {"recurrence": ["0", "1"]}, [],
                     "bad recurrence: a recurrence must be an object with beta, "
                     "alpha and gamma arrays, not ['0', '1']",
                     id="recurrence-not-object"),
        pytest.param("verify-identities",
                     {"recurrence": {"beta": ["1"] * 10, "alpha": ["1"] * 10}}, [],
                     "bad recurrence: missing \"gamma\" array",
                     id="recurrence-without-gamma"),
        pytest.param("classify", {"operator": [["1/0"]]}, [],
                     "bad operator: zero denominator in '1/0'",
                     id="zero-denominator"),
    ])
    def test_rejected_input(self, tmp_path, capsys, mode, tree, flags, message):
        cfg = write_config(tmp_path, "c.json", tree)
        assert run_cli([mode, "--config", cfg, *flags,
                        "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["verify-theorem4", "--order", "abc"],
                     "argument --order: invalid int value: 'abc'", id="order-not-int"),
        pytest.param(["nosuchmode"], "invalid choice: 'nosuchmode'", id="unknown-mode"),
        pytest.param(["sweep", "--target", "bogus"],
                     "argument --target: invalid choice: 'bogus'", id="unknown-sweep-target"),
    ])
    def test_malformed_command_line(self, tmp_path, capsys, argv, message):
        # a usage error exits 3 like a bad config, not argparse's 2, which
        # would read as hypotheses unmet
        out = tmp_path / "r.json"
        assert run_cli([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify-theorem4", "-h"])
        assert exc.value.code == 0
        assert "--check-order" in capsys.readouterr().out

    def test_tau_required_when_a2_zero(self, tmp_path):
        cfg = write_config(tmp_path, "t5z.json",
                           {"operator": [["2"], ["-1", "3"], [], ["1"]]})
        assert run_cli(["verify-theorem5", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 3


def test_console_script_runs(tmp_path):
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"operator": [["0"], ["1"]]}))
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "duorth.cli", "classify", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "k=1" in proc.stdout
