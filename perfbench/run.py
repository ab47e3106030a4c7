#!/usr/bin/env python3
"""Layered benchmark of duorth's exact verifications.

Run from the repository root:

    python3 perfbench/run.py --workload t4-sweep --seed 20250808 \
        --seconds 40 --trace 0

One process, one thread, closed loop: each verdict starts when the previous
one has returned. The loop makes whole passes over the workload's cases,
so the same mix is measured at any speed: one, then more while the next
pass still ends within ``--seconds``. Every verdict goes through the gate
in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: setup_s (import plus input
generation; median of 15 set-ups in this process, spread over the run),
verdicts_per_s, verdict_s_p50, verdict_s_tail and peak_rss_mib. ``--trace 1`` runs whole
passes over the leading cases (``Spec.traced``), each case once untraced
and once traced. It reports per-layer self times (seconds per pass), exact
counts (per pass, checked to repeat in every pass), bit sizes,
trace.overhead_ratio and the kernel micro-cases of
``bench/bench_kernels.py`` on the active lane; the spans go to
``perfbench/out/`` at exit.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the environment, the tail percentile with its
sample count, the failed ratio and the statuses seen.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

SETUPS = 15
UNMET_REASONS = {
    "instance outside theorem scope": "pipelines.unmet.outside_scope",
    "eigen-MPS is not 2-orthogonal": "pipelines.unmet.not_2orth",
}
UNMET_OTHER = "pipelines.unmet.other"
E2E_UNITS = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_s_p50": "s",
             "verdict_s_tail": "s", "peak_rss_mib": "MiB"}


class SetupError(Exception):
    pass


def setup(name: str, seed: int):
    """Import duorth from this checkout and draw the inputs; (seconds, cases)."""
    start = perf_counter()
    try:
        import duorth
    except ImportError as exc:
        raise SetupError(f"cannot import duorth from {SRC}: {exc}")
    if not Path(duorth.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"duorth was imported from {duorth.__file__}, not {SRC}")
    cases = workloads.build(name, seed)
    return perf_counter() - start, cases


def _duorth_modules() -> list:
    return [m for m in sys.modules if m == "duorth" or m.startswith("duorth.")]


def setup_again(name: str, seed: int) -> float:
    """Seconds of one more set-up, with duorth imported afresh (its modules
    run again; the standard library stays loaded). The modules in use
    before are put back, so the run's cases stay valid."""
    saved = {m: sys.modules.pop(m) for m in _duorth_modules()}
    gc.collect()
    try:
        return setup(name, seed)[0]
    finally:
        for m in _duorth_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def tail(times) -> tuple:
    """(p, value): the highest whole percentile p whose nearest-rank value
    has at least ten samples above it."""
    n = len(times)
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(times)[rank - 1]


def passes(seconds: float):
    """Yield pass numbers 1, 2, ..: one pass, then more while a pass as
    long as the last one still ends within ``seconds`` of the start."""
    deadline = perf_counter() + seconds
    number = 0
    while True:
        pass_start = perf_counter()
        number += 1
        yield number
        now = perf_counter()
        if now + (now - pass_start) > deadline:
            return


def run_plain(cases, gate, seconds: float, resetup):
    """Closed loop in whole passes over the cases; (per-verdict seconds,
    wall seconds, set-up seconds).

    ``resetup()`` times one more set-up. It runs ``SETUPS - 1`` times
    between verdicts, spread evenly over ``seconds`` (any left over at the
    end), so that set-up is timed under the same load on the host as the
    verdicts. Its time is left out of the wall seconds."""
    setups = SETUPS - 1
    times, setup_times = [], []
    paused = 0.0
    start = perf_counter()
    for _ in passes(seconds):
        for case in cases:
            times.append(gate.run(case)[0])
            due = start + seconds * len(setup_times) / setups
            if len(setup_times) < setups and perf_counter() >= due:
                pause_start = perf_counter()
                setup_times.append(resetup())
                paused += perf_counter() - pause_start
    wall = perf_counter() - start - paused
    setup_times += [resetup() for _ in range(setups - len(setup_times))]
    return times, wall, setup_times


def run_traced(cases, gate, seconds: float, tracer: Tracer) -> dict:
    """Whole passes, each case untraced then traced, while time remains.

    Returns per-layer metrics: self times averaged per pass, exact counts
    of one pass (a pass that counts differently fails the gate)."""
    self_s = Counter()
    untraced = traced = unmet_work = 0.0
    first_counts = None
    for number in passes(seconds):
        counts = Counter({UNMET_OTHER: 0, **{k: 0 for k in UNMET_REASONS.values()}})
        for case in cases:
            verdict_s, result = gate.run(case)
            untraced += verdict_s
            if result is not None and result.status == workloads.UNMET:
                unmet_work += verdict_s
                counts[UNMET_REASONS.get(result.failure["reason"], UNMET_OTHER)] += 1
            tracer.trace_id = case.index
            with tracer.installed():
                verdict_s, _ = gate.run(case)
            traced += verdict_s
        self_s.update(tracer.self_s)
        counts.update(tracer.counts())
        tracer.clear_totals()
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            gate.fail(f"exact counts of pass {number} differ from pass 1")
    metrics = {f"{layer}.self_s": self_s[layer] / number for layer in LAYERS}
    metrics.update(first_counts)
    metrics["pipelines.unmet_work_s"] = unmet_work / number
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics


def micro_cases(repeat: int = 5) -> dict:
    """The kernel micro-cases of ``bench/bench_kernels.py`` on the active
    lane (``duorth.backend.kernel``), best of ``repeat``, keyed
    ``micro.<case function>_s``."""
    from duorth.backend import kernel
    path = ROOT / "bench" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    out = {}
    for _label, fn, count, size in cases.CASES:
        vecs = cases.make_inputs(kernel, 7, count, size)
        out[f"micro.{fn.__name__}_s"] = cases.bench(lambda: fn(kernel, vecs), repeat)
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import duorth
    return {"backend": duorth.BACKEND, "python": platform.python_version(),
            "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        setup_s, cases = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    gate = workloads.Gate.for_run(args.workload, args.seed)
    info = {"workload": args.workload, "env": environment(args.seed),
            "cases": len(cases)}
    if args.trace:
        tracer = Tracer()
        traced = cases[:workloads.SPECS[args.workload].traced]
        metrics = run_traced(traced, gate, args.seconds, tracer)
        metrics.update(micro_cases())
    else:
        times, wall, setup_samples = run_plain(
            cases, gate, args.seconds,
            lambda: setup_again(args.workload, args.seed))
        setup_samples.insert(0, setup_s)
        p, tail_s = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "verdicts_per_s": len(times) / wall,
            "verdict_s_p50": statistics.median(times),
            "verdict_s_tail": tail_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info.update(verdicts=len(times), passes=len(times) // len(cases),
                    tail_percentile=p, tail_samples=len(times),
                    setup_samples_s=setup_samples)
    info["failed_ratio"] = gate.failed / gate.attempted
    info["statuses"] = dict(gate.statuses)
    info["failures"] = gate.failures[:5]
    if args.trace:
        info["spans_file"] = str(write_spans(tracer, args, info).relative_to(ROOT))
    for failure in gate.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(tracer: Tracer, args, info) -> Path:
    out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    fields = ("id", "name", "start", "end", "parent", "trace_id")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "fields": fields, "spans": tracer.spans}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
