"""Spans and exact counters around calls into duorth's layers.

The tracer wraps the names that callers look up (module globals such as
``duorth.pipelines.eigen_mps`` or ``duorth.poly.pmul``, and the methods
``DiffOperator.apply`` / ``transpose_apply``) for the duration of an
``installed()`` block; nothing in ``duorth`` itself changes. A layer's self
time is its span time minus the time of the wrapped calls made inside it.

Algorithm-layer calls are kept as spans in memory: (id, name, start, end,
parent id, trace id), where the trace id is the draw index. Kernel calls
(``poly.*``, ``forms.*``) run far too often to keep one span each, so they
only add to their layer's self time, call count and coefficient-product
count.
"""
from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _eigen_bits(result) -> int:
    P, _ = result
    return max(coeff_bits(p.coeffs) for p in P)


def _dual_bits(result) -> int:
    return max(coeff_bits(u.moments) for u in result)


def _pair_mults(a, b, *_):
    return len(a) * len(b)


def _mact_mults(p, m):
    return len(p)


def _mleft_mults(f, m):
    return len(f) * (len(m) - len(f) + 1) if f else 0


# (owner, attribute, layer, keeps spans, work count, bit-size probe)
def _targets():
    from duorth import diffop, forms, hahn, pipelines, poly
    P, J = pipelines, diffop.DiffOperator
    bits = {"eigensolver.max_coeff_bits": _eigen_bits,
            "two_orth.dual_max_bits": _dual_bits}
    return [
        (P, "run_theorem4", "pipelines", True, None, None),
        (P, "run_identities_rc", "pipelines", True, None, None),
        (P, "eigen_mps", "eigensolver.eigen_mps", True, None,
         "eigensolver.max_coeff_bits"),
        (P, "verify_eigen", "eigensolver.verify_eigen", True, None, None),
        (P, "generate", "two_orth.generate", True, None, None),
        (P, "fit_2orth_recurrence", "two_orth.fit_2orth_recurrence", True, None, None),
        (hahn, "fit_2orth_recurrence", "two_orth.fit_2orth_recurrence", True, None, None),
        (P, "dual_sequence", "two_orth.dual_sequence", True, None,
         "two_orth.dual_max_bits"),
        (P, "check_dual_identities", "two_orth.check_dual_identities", True, None, None),
        (P, "orthogonality_check", "two_orth.orthogonality_check", True, None, None),
        (P, "j_expansion_check", "hahn.j_expansion_check", True, None, None),
        (P, "lemma_identities_check", "hahn.lemma_identities_check", True, None, None),
        (P, "classical_system_check", "hahn.classical_system_check", True, None, None),
        (P, "hahn_check", "hahn.hahn_check", True, None, None),
        (P, "intermediates", "hahn.closed_forms", True, None, None),
        (P, "phi_theorem4", "hahn.closed_forms", True, None, None),
        (P, "varpi_theorem5", "hahn.closed_forms", True, None, None),
        (hahn, "intermediates", "hahn.closed_forms", True, None, None),
        (J, "apply", "diffop.apply", True, None, None),
        (J, "transpose_apply", "diffop.transpose_apply", True, None, None),
        (poly, "pmul", "poly.pmul", False, _pair_mults, None),
        (poly, "psub", "poly.psub", False, None, None),
        (poly, "pscale", "poly.pscale", False, None, None),
        (poly, "padd", "poly.padd", False, None, None),
        (forms, "mact", "forms.mact", False, _mact_mults, None),
        (forms, "mleft", "forms.mleft", False, _mleft_mults, None),
        (forms, "mderive", "forms.mderive", False, None, None),
    ], bits


LAYERS = (
    "pipelines", "eigensolver.eigen_mps", "eigensolver.verify_eigen",
    "two_orth.generate", "two_orth.fit_2orth_recurrence",
    "two_orth.dual_sequence", "two_orth.check_dual_identities",
    "two_orth.orthogonality_check", "hahn.j_expansion_check",
    "hahn.lemma_identities_check", "hahn.classical_system_check",
    "hahn.hahn_check", "hahn.closed_forms", "diffop.apply",
    "diffop.transpose_apply", "poly.pmul", "poly.psub", "poly.pscale",
    "poly.padd", "forms.mact", "forms.mleft", "forms.mderive",
)
WORK_LAYERS = ("poly.pmul", "forms.mact", "forms.mleft")
BIT_METRICS = ("eigensolver.max_coeff_bits", "two_orth.dual_max_bits")


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.spans = []
        self.self_s = Counter()
        self.calls = Counter()
        self.coef_mults = Counter()
        self.max_bits = Counter()
        self.trace_id = None
        self._stack = []
        self._next_id = 0
        targets, self._bit_probes = _targets()
        self._patches = [(owner, attr, vars(owner)[attr],
                          self._wrap(vars(owner)[attr], *rest))
                         for owner, attr, *rest in targets]

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def counts(self) -> dict:
        """The exact counters, keyed by metric name."""
        out = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        out.update({f"{layer}.coef_mults": self.coef_mults[layer]
                    for layer in WORK_LAYERS})
        out.update({name: self.max_bits[name] for name in BIT_METRICS})
        return out

    def clear_totals(self):
        """Zero the per-layer totals; spans are kept."""
        for totals in (self.self_s, self.calls, self.coef_mults, self.max_bits):
            totals.clear()

    def _wrap(self, fn, layer, keep_span, work, bit_metric):
        stack = self._stack
        bit_probe = self._bit_probes[bit_metric] if bit_metric else None

        def traced(*args, **kwargs):
            span_id = parent = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0.0, span_id]  # seconds spent in wrapped children, span id
            stack.append(frame)
            start = perf_counter()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = perf_counter()
                if bit_probe is not None:
                    bits = bit_probe(result)
                    if bits > self.max_bits[bit_metric]:
                        self.max_bits[bit_metric] = bits
                return result
            finally:
                if end is None:
                    end = perf_counter()
                stack.pop()
                self.self_s[layer] += end - start - frame[0]
                self.calls[layer] += 1
                if work is not None:
                    self.coef_mults[layer] += work(*args)
                if keep_span:
                    self.spans.append((span_id, layer, start, end, parent, self.trace_id))
                if stack:
                    # bookkeeping time counts as the child's, not the parent's
                    stack[-1][0] += perf_counter() - start

        return traced
