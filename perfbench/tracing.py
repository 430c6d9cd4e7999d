"""Spans around the library's layer calls, recorded by the traced run only.

The benchmark does not edit the package.  Instead, for the duration of the
traced run, every module attribute that binds a traced function (in the
package, in ``numpy.linalg``/``scipy.linalg`` and in the benchmark's own
workloads module) is replaced by a wrapper that records a span: name, layer,
parent span, item id, start and end.  Work reached only through another call
(a classification inside a scan, an assembly inside the residual, the
eigensolvers) thus gets its own span, nested under its caller.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

ITEM = "perfbench.item"
EIGENSOLVE = "spectral_analysis.eigensolve"


def _model_terms(args, result) -> dict:
    return {
        "h_terms": len(result.hamiltonian.terms),
        "channel_terms": sum(len(lm.terms) for lm in result.lindblads),
    }


def _generator_size(args, result) -> dict:
    mat = result.mat
    return {"dim": mat.shape[0], "nnz": int(np.count_nonzero(mat)), "bytes": mat.nbytes}


def _residual_flops(args, result) -> dict:
    # two dense complex products of dimension 4^n, 8 real flops per multiply-add
    dim = 4 ** args[0].n
    return {"flops": 2 * 8 * dim ** 3}


def _solve_dim(args, result) -> dict:
    return {"dim": int(np.shape(args[0])[0])}


# (span name, defining module, attribute, attribute recorder).  The layer is
# the part of the span name before the dot.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("model_builder.parse_model_config", "ptliouville.model_builder", "parse_model_config", None),
    ("model_builder.build_model", "ptliouville.model_builder", "build_model", _model_terms),
    ("model_builder.scale_noise", "ptliouville.model_builder", "scale_noise", None),
    ("lemma_checker.check_lemma", "ptliouville.lemma_checker", "check_lemma", None),
    ("lemma_checker.check_condition_i", "ptliouville.lemma_checker", "check_condition_i", None),
    ("lemma_checker.solve_reflection_matrix", "ptliouville.lemma_checker",
     "solve_reflection_matrix", None),
    ("lemma_checker.check_condition_iii", "ptliouville.lemma_checker", "check_condition_iii", None),
    ("superoperator.build_liouvillian", "ptliouville.superoperator", "build_liouvillian",
     _generator_size),
    ("superoperator.pt_residual", "ptliouville.superoperator", "pt_residual", _residual_flops),
    ("spectral_analysis.liouvillian_spectra", "ptliouville.spectral_analysis",
     "liouvillian_spectra", None),
    ("spectral_analysis.check_pt_pairing", "ptliouville.spectral_analysis", "check_pt_pairing", None),
    ("spectral_analysis.hamiltonian_eigenbasis", "ptliouville.spectral_analysis",
     "hamiltonian_eigenbasis", None),
    ("spectral_analysis.v_matrix", "ptliouville.spectral_analysis", "v_matrix", None),
    ("spectral_analysis.scan_pt_breaking", "ptliouville.spectral_analysis", "scan_pt_breaking", None),
    ("spectral_analysis.classify_pt_phase", "ptliouville.spectral_analysis",
     "classify_pt_phase", None),
    ("spectral_analysis.check_uniform_rate", "ptliouville.spectral_analysis",
     "check_uniform_rate", None),
    # general (non-Hermitian) dense eigensolvers: the generator spectra
    (EIGENSOLVE, "numpy.linalg", "eigvals", _solve_dim),
    (EIGENSOLVE, "numpy.linalg", "eig", _solve_dim),
    (EIGENSOLVE, "scipy.linalg", "eigvals", _solve_dim),
    (EIGENSOLVE, "scipy.linalg", "eig", _solve_dim),
]

# Traced at the benchmark's call site only: (span name, attribute of the
# workloads module).  The serializer calls itself through its own module.
CALL_SITES = [("cli.dumps_canonical", "serialize")]


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for an item span
    item: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._item = -1

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, self._item, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    @contextmanager
    def item(self, item_id: int):
        self._item = item_id
        index = self._begin(ITEM)
        try:
            yield
        finally:
            self._finish(index)

    def wrap(self, name: str, fn: Callable, record: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._finish(index)
            if record is not None:
                span.attrs = record(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, bench_module):
        """Wrap every binding of the traced functions; restore them on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ptliouville" or name.startswith("ptliouville.")]
        modules += [importlib.import_module("numpy.linalg"),
                    importlib.import_module("scipy.linalg"), bench_module]
        patched = []
        for name, module_name, attr, record in TARGETS:
            fn = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, fn, record)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        patched.append((module, binding, fn))
                        setattr(module, binding, wrapper)
        for name, attr in CALL_SITES:
            fn = getattr(bench_module, attr)
            patched.append((bench_module, attr, fn))
            setattr(bench_module, attr, self.wrap(name, fn))
        try:
            yield
        finally:
            for module, binding, fn in reversed(patched):
                setattr(module, binding, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run
# ---------------------------------------------------------------------------

# Self time per item of these spans, reported under the metric name.
SELF_TIMES = {
    "model_builder.parse_s": "model_builder.parse_model_config",
    "model_builder.build_s": "model_builder.build_model",
    "lemma_checker.cond_i_s": "lemma_checker.check_condition_i",
    "lemma_checker.cond_ii_s": "lemma_checker.solve_reflection_matrix",
    "lemma_checker.cond_iii_s": "lemma_checker.check_condition_iii",
    "cli.serialize_s": "cli.dumps_canonical",
    "superoperator.assemble_s": "superoperator.build_liouvillian",
    "superoperator.pt_residual_s": "superoperator.pt_residual",
    "spectral_analysis.spectra_s": "spectral_analysis.liouvillian_spectra",
    "spectral_analysis.eigensolve_s": EIGENSOLVE,
    "spectral_analysis.pairing_s": "spectral_analysis.check_pt_pairing",
    "spectral_analysis.eigenbasis_s": "spectral_analysis.hamiltonian_eigenbasis",
    "spectral_analysis.vmatrix_s": "spectral_analysis.v_matrix",
    "spectral_analysis.uniform_rate_s": "spectral_analysis.check_uniform_rate",
}

LAYERS = ("model_builder", "lemma_checker", "cli", "superoperator", "spectral_analysis")

# metric name -> unit, in report order
UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "spectral_analysis.classify_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "perfbench.unattributed_s": "s",
    "trace.item_p50_s": "s",
    "trace.spans": "count",
    "pauli_algebra.h_terms": "count",
    "pauli_algebra.channel_terms": "count",
    "superoperator.assemblies": "count",
    "superoperator.generator_dim": "count",
    "superoperator.generator_nnz": "count",
    "superoperator.generator_bytes": "B-computed",
    "superoperator.pt_residual_flops": "flop-computed",
    "spectral_analysis.eigensolves": "count",
    "spectral_analysis.eigensolve_dim": "count",
    "spectral_analysis.scan_probes": "count",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], first_round: int) -> dict:
    """Per-item self times over all items, and exact counts over the first round.

    Self time is a span's duration minus the durations of its direct
    children.  The self times of the layers plus the unattributed remainder
    (the benchmark's own code between layer calls) sum to the item time.
    Counts are taken over the items of the first round, whose inputs depend
    only on the seed, so they repeat exactly.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    self_time = [s.end - s.start - c for s, c in zip(spans, child_time)]
    items = [s for s in spans if s.name == ITEM]
    count = len(items)

    def self_per_item(pred) -> float:
        return sum(t for s, t in zip(spans, self_time) if pred(s)) / count

    metrics = {name: self_per_item(lambda s, n=span: s.name == n)
               for name, span in SELF_TIMES.items()}
    probes = [t for s, t in zip(spans, self_time) if s.name == "spectral_analysis.classify_pt_phase"]
    metrics["spectral_analysis.classify_s"] = _mean(probes)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_per_item(lambda s, l=layer: s.layer == l)
    metrics["perfbench.unattributed_s"] = self_per_item(lambda s: s.name == ITEM)
    metrics["trace.item_p50_s"] = statistics.median(s.end - s.start for s in items)

    first = [s for s in spans if s.item < first_round]
    metrics["trace.spans"] = len(first) / first_round

    def named(name):
        return [s for s in first if s.name == name]

    builds = named("model_builder.build_model")
    generators = named("superoperator.build_liouvillian")
    solves = named(EIGENSOLVE)
    metrics.update({
        "pauli_algebra.h_terms": _mean(s.attrs["h_terms"] for s in builds),
        "pauli_algebra.channel_terms": _mean(s.attrs["channel_terms"] for s in builds),
        "superoperator.assemblies": len(generators) / first_round,
        "superoperator.generator_dim": max((s.attrs["dim"] for s in generators), default=0),
        "superoperator.generator_nnz": max((s.attrs["nnz"] for s in generators), default=0),
        "superoperator.generator_bytes": max((s.attrs["bytes"] for s in generators), default=0),
        "superoperator.pt_residual_flops":
            sum(s.attrs["flops"] for s in named("superoperator.pt_residual")) / first_round,
        "spectral_analysis.eigensolves": len(solves) / first_round,
        "spectral_analysis.eigensolve_dim": max((s.attrs["dim"] for s in solves), default=0),
        "spectral_analysis.scan_probes":
            len(named("spectral_analysis.classify_pt_phase")) / first_round,
    })
    return {name: metrics[name] for name in UNITS}
