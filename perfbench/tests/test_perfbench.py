"""The benchmark's own tests: its inputs, its gate (with negative controls),
its tracer and its output contract.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from duorth import DiffOperator, Polynomial, RecurrenceCoeffs, pipelines
from perfbench import run, workloads
from perfbench.tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[2]
DEFAULT = workloads.DEFAULT_SEED


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _traced(name, seed, draws, gate=None):
    gate = gate or workloads.Gate()
    metrics = run.run_traced(workloads.build(name, seed, draws), gate, 0, Tracer())
    return metrics, gate


def test_cases_are_the_acceptance_sweep_draws():
    with open(workloads.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    assert reference["t4-sweep"]["first_20_summary"] == {"passed": 13, "hypotheses-unmet": 7}
    assert reference["identities-sweep"]["first_20_summary"] == {"passed": 20}
    sweep = pipelines.run_sweep("verify-theorem4", DEFAULT, 4)
    cases = workloads.build("t4-sweep", DEFAULT)
    assert [e["shape"] for e in sweep["entries"]] == [c.shape for c in cases[:4]]
    assert Counter(c.shape for c in cases) == workloads.SPECS["t4-sweep"].mix
    assert ([e["status"] for e in sweep["entries"]]
            == reference["t4-sweep"]["statuses"][:4])


def test_gate_accepts_repeated_reference_verdicts():
    gate = workloads.Gate.for_run("t4-sweep", DEFAULT)
    for case in workloads.build("t4-sweep", DEFAULT, 3):
        gate.run(case)
        gate.run(case)
    assert (gate.attempted, gate.failed) == (6, 0)


def test_gate_requires_byte_identical_repeats():
    first, _, third = workloads.build("t4-sweep", DEFAULT, 3)
    gate = workloads.Gate()
    gate.run(first)
    _, other = gate.run(third)
    gate.check(first, other)
    assert gate.failed == 1
    assert "earlier verdict" in gate.failures[0]


def test_negative_control_perturbed_t4_deep_operator():
    case = workloads.build("t4-deep", DEFAULT, 1)[0]
    a = list(case.arg.a)
    a[0] = a[0] + Polynomial([1])
    case.arg = DiffOperator(a)
    gate = workloads.Gate.for_run("t4-deep", DEFAULT)
    gate.run(case)
    assert gate.failed == 1
    assert "reference.json" in gate.failures[0]


def test_negative_control_perturbed_identities_recurrence(monkeypatch):
    generate = pipelines.generate

    def generate_perturbed(rc, n_max):
        betas = list(rc.betas)
        betas[5] += 1
        return generate(RecurrenceCoeffs(betas, rc.alphas, rc.gammas), n_max)

    case = workloads.build("identities-sweep", 12345, 1)[0]
    gate = workloads.Gate()
    monkeypatch.setattr(pipelines, "generate", generate_perturbed)
    gate.run(case)
    assert gate.failed == 1
    assert "violated" in gate.failures[0]


def test_traced_reports_match_untraced_and_counts_repeat():
    originals = (pipelines.eigen_mps, DiffOperator.apply)
    counts = []
    for _ in range(2):
        metrics, gate = _traced("t4-sweep", DEFAULT, 4,
                                workloads.Gate.for_run("t4-sweep", DEFAULT))
        # every traced report matched its untraced twin and the reference
        assert (gate.attempted, gate.failed) == (8, 0)
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["pipelines.calls"] == 4
    assert counts[0]["eigensolver.max_coeff_bits"] > 0
    assert (pipelines.eigen_mps, DiffOperator.apply) == originals


def test_identities_sweep_bypasses_eigensolver_and_hahn():
    metrics, gate = _traced("identities-sweep", 7, 2)
    assert gate.failed == 0
    for layer in LAYERS:
        if layer.startswith(("eigensolver.", "hahn.")):
            assert metrics[f"{layer}.calls"] == 0
    assert metrics["two_orth.generate.calls"] == 2


def test_t4_deep_reports_bit_growth():
    metrics, gate = _traced("t4-deep", DEFAULT, 1)
    assert gate.failed == 0
    assert metrics["eigensolver.max_coeff_bits"] > 300
    assert metrics["two_orth.dual_max_bits"] > 0


def test_spans_nest_within_one_trace():
    tracer = Tracer()
    gate = workloads.Gate()
    run.run_traced(workloads.build("t4-sweep", DEFAULT, 2), gate, 0, tracer)
    spans = {s[0]: s for s in tracer.spans}
    roots = [s for s in spans.values() if s[4] is None]
    assert [s[1] for s in roots] == ["pipelines", "pipelines"]
    assert [s[5] for s in roots] == [0, 1]
    for span_id, name, start, end, parent, trace_id in spans.values():
        assert not name.startswith(("poly.", "forms."))
        if parent is not None:
            outer = spans[parent]
            assert outer[5] == trace_id
            assert outer[2] <= start <= end <= outer[3]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(20))) == (50, 9)
    assert run.tail(list(range(11))) == (9, 0)
    for n in (11, 25, 130, 1000):
        p, value = run.tail(list(range(n)))
        assert n - 1 - value >= 10  # samples above the value
        assert n - math.ceil((p + 1) * n / 100) < 10  # p + 1 would keep fewer


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    metrics, _ = _traced("identities-sweep", 3, 1)
    metrics.update(run.micro_cases(repeat=1))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"]


def test_command_prints_the_contract_line():
    spec = _benchmark_json()
    out = subprocess.run(
        spec["command"] + ["--workload", "t4-sweep", "--seed", str(DEFAULT),
                           "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(out.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    info = json.loads(out.stdout.splitlines()[-2])["info"]
    assert info["passes"] == 1 and last["attempted"] == info["cases"]
    assert set(info["env"]) == {"backend", "python", "git_sha", "nproc", "seed"}
    assert info["tail_samples"] == last["attempted"]
    assert len(info["setup_samples_s"]) == run.SETUPS


def test_setup_again_keeps_the_modules_in_use():
    before = {m: sys.modules[m] for m in run._duorth_modules()}
    assert run.setup_again("t4-deep", DEFAULT) > 0
    assert {m: sys.modules[m] for m in run._duorth_modules()} == before


def test_stripped_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t4-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
