"""The benchmark's workloads and the gate that checks every verdict.

A workload is a list of cases drawn from ``duorth.sampling.ParamSampler``
exactly as ``duorth.pipelines.run_sweep`` draws them, so the first 20 cases
of a sweep workload are the 20-draw sweep of the same seed. One verdict is
one call into a pipeline entry on one case. The entry is looked up on
``duorth.pipelines`` at call time, so a tracer that wraps it sees the call.

Workloads (moment order / check order):

* ``t4-sweep``: theorem-4 sweep draws at 40/24 (acceptance criterion 5).
  Scope-miss draws end ``hypotheses-unmet`` early.
* ``identities-sweep``: recurrence identity sweep draws at 40/24. P comes
  from ``generate``; the eigensolver and hahn are never called.
* ``t4-deep``: qualifying theorem-4 draws at 80/64, where P coefficients
  reach several hundred bits.

Each workload holds as many draws as one pass of a 40-s run fits (about
35 s on a 2-vCPU VM), so that its medians do not follow the cost of a few
draws, and a run is one pass whether the host is fast or slow: a second
pass, which would change the sample count and so the tail percentile,
fits only once a pass takes under 20 s (see README.md). A sweep workload
keeps a fixed mix of shapes: the leading ``as_drawn`` draws are kept as
drawn, so they are the sweep of the seed; later draws are kept while their
shape is under its count in ``mix``. Traced passes cover only the
leading ``traced`` cases, so that each pass fits in a run and repeats
exactly.

The gate fails a verdict that raises, returns ``violated``, returns another
status than its draw's shape implies, or whose canonical report bytes
differ from the first verdict on the same case in the run. At the default
seed it also compares status and SHA-256 with ``reference.json``.
"""
from __future__ import annotations

import hashlib
import json
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

DEFAULT_SEED = 20250808
REFERENCE = Path(__file__).with_name("reference.json")

PASSED = "passed"
UNMET = "hypotheses-unmet"
VIOLATED = "violated"


class Spec(NamedTuple):
    moment_order: int
    check_order: int
    entry: str  # pipeline function in duorth.pipelines
    as_drawn: int  # leading draws kept whatever their shape
    traced: int  # leading cases a traced pass covers
    mix: dict  # cases of each shape in one pass


SPECS = {
    "t4-sweep": Spec(40, 24, "run_theorem4", 20, 20, {
        "qualifying": 84, "const-offscale": 18, "generic-cubic": 18}),
    "identities-sweep": Spec(40, 24, "run_identities_rc", 20, 20, {"recurrence": 120}),
    "t4-deep": Spec(80, 64, "run_theorem4", 0, 4, {"qualifying": 20}),
}
WORKLOADS = tuple(SPECS)


@dataclass
class Case:
    """One input: ``entry(arg, moment_order=.., check_order=..)``. Random
    recurrences and ``qualifying`` theorem-4 draws meet every hypothesis
    and must pass; the sampler's other theorem-4 shapes miss the scope."""

    index: int
    shape: str
    entry: str
    arg: object
    orders: tuple
    expected: str

    def run(self):
        from duorth import pipelines
        moment_order, check_order = self.orders
        return getattr(pipelines, self.entry)(
            self.arg, moment_order=moment_order, check_order=check_order)


def build(name: str, seed: int, draws: int | None = None) -> list:
    """The cases of workload ``name`` for ``seed``; ``draws`` shortens it."""
    from duorth.sampling import ParamSampler
    spec = SPECS[name]
    draws = draws or sum(spec.mix.values())
    left = dict(spec.mix)
    orders = (spec.moment_order, spec.check_order)
    sampler = ParamSampler(seed)
    cases = []
    while len(cases) < draws:
        if name == "identities-sweep":
            shape, arg = "recurrence", sampler.recurrence(spec.moment_order + 2)
        else:
            draw = sampler.sample_theorem4(spec.moment_order)
            shape, arg = draw["shape"], draw["J"]
        if len(cases) >= spec.as_drawn and left.get(shape, 0) <= 0:
            continue
        left[shape] = left.get(shape, 0) - 1
        cases.append(Case(len(cases), shape, spec.entry, arg, orders,
                          PASSED if shape in ("recurrence", "qualifying") else UNMET))
    return cases


def canonical_bytes(result) -> bytes:
    """The report as the CLI writes it: indented, sorted keys, newline."""
    return (json.dumps(result.to_tree(), indent=2, sort_keys=True) + "\n").encode()


def load_reference(name: str) -> list:
    """Recorded ``(status, report SHA-256)`` of each case of ``name`` at the
    default seed. The file keeps each distinct digest once, with the cases
    that share it."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[name]
    digest_of = {i: digest for digest, cases in ref["reports"].items() for i in cases}
    return [(status, digest_of[i]) for i, status in enumerate(ref["statuses"])]


class Gate:
    """Checks verdicts and counts the failures."""

    def __init__(self, reference: list | None = None):
        self.reference = reference
        self.first_digest = {}
        self.statuses = Counter()
        self.attempted = 0
        self.failures = []

    @classmethod
    def for_run(cls, name: str, seed: int) -> "Gate":
        return cls(load_reference(name) if seed == DEFAULT_SEED else None)

    def run(self, case):
        """Run one verdict; returns (seconds, result or None)."""
        from time import perf_counter
        start = perf_counter()
        try:
            result = case.run()
        except Exception:  # a raising verdict is counted, the loop goes on
            seconds = perf_counter() - start
            self.attempted += 1
            self._fail(case, "raised:\n" + traceback.format_exc())
            return seconds, None
        seconds = perf_counter() - start
        self.check(case, result)
        return seconds, result

    def check(self, case, result):
        self.attempted += 1
        self.statuses[result.status] += 1
        if result.status == VIOLATED:
            self._fail(case, f"violated: {result.failure}")
            return
        if result.status != case.expected:
            self._fail(case, f"status {result.status}, expected {case.expected}")
            return
        digest = hashlib.sha256(canonical_bytes(result)).hexdigest()
        first = self.first_digest.setdefault(case.index, digest)
        if digest != first:
            self._fail(case, "report bytes differ from an earlier verdict")
            return
        if self.reference is not None:
            if (result.status, digest) != self.reference[case.index]:
                self._fail(case, "status or report differs from reference.json")

    def fail(self, what: str):
        """Count a failure that belongs to no single verdict."""
        self.failures.append(what)

    def _fail(self, case, why: str):
        self.failures.append(f"draw {case.index} ({case.shape}): {why}")

    @property
    def failed(self) -> int:
        return len(self.failures)
