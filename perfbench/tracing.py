"""Span and call-count tracing of wignerlab's public functions.

The tracer wraps each target function in every ``wignerlab`` module
namespace that holds a reference to it (``from .dense import materialize``
copies the reference, so patching only the defining module would miss
calls).  Wrappers pass arguments and results through untouched.  Hot
primitives get a call counter and no span.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps

# (module, attribute, span name, kind); kind "count" records calls only.
TARGETS = [
    ("pauli", "mul", "pauli.mul", "count"),
    ("pauli", "commutes", "pauli.commutes", "count"),
    ("pauli", "PauliSum.__mul__", "pauli.PauliSum.mul", "count"),
    ("clifford", "conjugate_gate", "clifford.conjugate_gate", "count"),
    ("clifford", "conjugate_circuit", "clifford.conjugate_circuit", "span"),
    ("clifford", "verify_automorphism", "clifford.verify_automorphism", "span"),
    ("clifford", "build_u1", "clifford.build", "span"),
    ("clifford", "build_u2", "clifford.build", "span"),
    ("clifford", "build_u_gauged", "clifford.build", "span"),
    ("clifford", "phi1_table", "clifford.build", "span"),
    ("clifford", "phi2_table", "clifford.build", "span"),
    ("clifford", "phi_gauged_table", "clifford.build", "span"),
    ("models", "build_hamiltonian", "models.build_hamiltonian", "span"),
    ("models", "projected_commutation_check",
     "models.projected_commutation_check", "span"),
    ("models", "eta_conservation", "models.eta_conservation", "span"),
    ("dense", "materialize", "dense.materialize", "span"),
    ("dense", "hermitian_eigensolve", "dense.hermitian_eigensolve", "span"),
    ("dense", "transition_experiment", "dense.transition_experiment", "span"),
    ("dense", "write_dense_binary", "dense.io.write", "span"),
    ("dense", "write_dense_csv", "dense.io.write", "span"),
    ("dense", "read_dense_binary", "dense.io.read", "span"),
    ("dense", "read_dense_csv", "dense.io.read", "span"),
    ("polar", "svd", "polar.svd", "span"),
    ("polar", "polar_decompose", "polar.polar_decompose", "span"),
    ("polar", "verify_theorem_structure", "polar.verify_theorem_structure",
     "span"),
    ("polar", "corollary_check", "polar.corollary_check", "span"),
    ("gauge", "spectral_equivalence_check", "gauge.spectral_equivalence_check",
     "span"),
    ("gauge", "gauss_sector_projector", "gauge.gauss_sector_projector", "span"),
    ("gauge", "build_d_hat", "gauge.build_d_hat", "span"),
    ("gauge", "build_d_noninvertible", "gauge.build_d_noninvertible", "span"),
    ("cli", "gauge_checks", "cli.gauge_checks", "span"),
]

# metric name -> (unit, how, span or counter names).  The "cli.*" spans are
# opened by the suite workload around each command it runs.
PER_LAYER = {
    "clifford.verify_automorphism.self_s": (
        "s", "self", ["clifford.verify_automorphism"]),
    "clifford.conjugate_circuit.calls": (
        "count", "calls", ["clifford.conjugate_circuit"]),
    "clifford.conjugate_gate.calls": ("count", "counter",
                                      ["clifford.conjugate_gate"]),
    "pauli.mul.calls": ("count", "counter", ["pauli.mul"]),
    "pauli.commutes.calls": ("count", "counter", ["pauli.commutes"]),
    "clifford.build.s": ("s", "incl", ["clifford.build"]),
    "models.projected_commutation_check.self_s": (
        "s", "self", ["models.projected_commutation_check"]),
    "models.eta_conservation.self_s": ("s", "self", ["models.eta_conservation"]),
    "pauli.PauliSum.mul.calls": ("count", "counter", ["pauli.PauliSum.mul"]),
    "models.build_hamiltonian.s": ("s", "incl", ["models.build_hamiltonian"]),
    "dense.hermitian_eigensolve.s": ("s", "incl",
                                     ["dense.hermitian_eigensolve"]),
    "dense.hermitian_eigensolve.calls": ("count", "calls",
                                         ["dense.hermitian_eigensolve"]),
    "dense.hermitian_eigensolve.sweeps": ("count", "extra_sum",
                                          ["dense.hermitian_eigensolve"]),
    "dense.hermitian_eigensolve.dim_max": ("dim", "dim_max",
                                           ["dense.hermitian_eigensolve"]),
    "dense.hermitian_eigensolve.pair_visits": ("count", "pair_visits",
                                               ["dense.hermitian_eigensolve"]),
    "dense.materialize.sum.s": ("s", "incl", ["dense.materialize.sum"]),
    "dense.materialize.circuit.s": ("s", "incl", ["dense.materialize.circuit"]),
    "dense.materialize.string.s": ("s", "incl", ["dense.materialize.string"]),
    "dense.materialize.bytes": ("bytes", "extra_sum", ["dense.materialize.sum",
                                                       "dense.materialize.circuit",
                                                       "dense.materialize.string"]),
    "dense.io.write_s": ("s", "incl", ["dense.io.write"]),
    "dense.io.read_s": ("s", "incl", ["dense.io.read"]),
    "dense.io.bytes": ("bytes", "extra_sum", ["dense.io.write", "dense.io.read"]),
    "dense.transition_experiment.s": ("s", "incl",
                                      ["dense.transition_experiment"]),
    "polar.svd.calls": ("count", "calls", ["polar.svd"]),
    "polar.svd.self_s": ("s", "self", ["polar.svd"]),
    "polar.polar_decompose.calls": ("count", "calls", ["polar.polar_decompose"]),
    "polar.verify_theorem_structure.s": ("s", "incl",
                                         ["polar.verify_theorem_structure"]),
    "polar.corollary_check.s": ("s", "incl", ["polar.corollary_check"]),
    "gauge.spectral_equivalence_check.self_s": (
        "s", "self", ["gauge.spectral_equivalence_check"]),
    "gauge.gauss_sector_projector.s": ("s", "incl",
                                       ["gauge.gauss_sector_projector"]),
    "gauge.build_d_hat.s": ("s", "incl", ["gauge.build_d_hat"]),
    "gauge.build_d_noninvertible.s": ("s", "incl",
                                      ["gauge.build_d_noninvertible"]),
    "cli.full-suite.s": ("s", "incl", ["cli.full-suite"]),
    "cli.transition-check.s": ("s", "incl", ["cli.transition-check"]),
    "cli.polar.s": ("s", "incl", ["cli.polar"]),
}

OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")

# Span field indices: name, start, end, parent id, pass id, L, dim, extra.
NAME, START, END, PARENT, PASS, SIZE_L, SIZE_DIM, EXTRA = range(8)


def _sizes(args, result) -> tuple[int | None, int | None]:
    """Chain length L and Hilbert-space dimension of a call, where known."""
    L = dim = None
    for a in args:
        if isinstance(a, bool):
            continue
        if isinstance(a, int):
            if L is None:
                L = a
            continue
        layout = getattr(a, "layout", None)
        if layout is not None:
            return layout.n_matter, layout.dim
        if dim is None:
            dim = _dim_of(a)
    if dim is None:
        dim = _dim_of(result)
        layout = getattr(result, "layout", None)
        if layout is not None:
            dim = layout.dim
    return L, dim


def _dim_of(obj) -> int | None:
    d = getattr(obj, "dim", None)
    if isinstance(d, int):
        return d
    shape = getattr(obj, "shape", None)
    if shape:
        return int(shape[0])
    vals = getattr(obj, "eigenvalues", None)
    return None if vals is None else len(vals)


class Tracer:
    """Installs wrappers, records spans and counts, and restores on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}
        self._pass_counts: dict[int, dict[str, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.pass_id,
               None, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def attributed(self, pass_id: int, name: str, L: int | None = None):
        """Top-level span of one timed call; spans and counts made inside it
        belong to ``pass_id``, everything outside it to no pass."""
        before = {k: c[0] for k, c in self._cells.items()}
        self.pass_id = pass_id
        rec = self._open(name)
        rec[SIZE_L] = L
        try:
            yield
        finally:
            self._close(rec)
            self.pass_id = None
            counts = self._pass_counts.setdefault(pass_id, {})
            for k, c in self._cells.items():
                counts[k] = counts.get(k, 0) + c[0] - before.get(k, 0)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            rec[SIZE_L], rec[SIZE_DIM] = _sizes(args, result)
            tracer._annotate(rec, args, result)
            return result
        return wrapper

    @staticmethod
    def _annotate(rec: list, args, result) -> None:
        name = rec[NAME]
        if name == "dense.materialize":
            kind = {"PauliSum": "sum", "CliffordCircuit": "circuit",
                    "PauliString": "string"}.get(type(args[0]).__name__)
            rec[NAME] = f"dense.materialize.{kind}"
            rec[EXTRA] = 16 * rec[SIZE_DIM] ** 2   # computed, complex128
        elif name == "dense.hermitian_eigensolve":
            rec[EXTRA] = int(result.sweeps)
        elif name.startswith("dense.io."):
            rec[EXTRA] = os.path.getsize(args[0])

    def _count_wrapper(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``wignerlab`` namespace."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "wignerlab" or n.startswith("wignerlab.")]
        for module, attr, name, kind in TARGETS:
            owner = sys.modules.get(f"wignerlab.{module}")
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"wignerlab.{module}.{attr}")
                continue
            wrapper = (self._count_wrapper if kind == "count"
                       else self._span_wrapper)(name, original)
            holders = [owner] if cls_name else namespaces
            for ns in holders:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            setattr(ns, key, value)
        self._restore.clear()

    # -- metrics -------------------------------------------------------------

    def absent_metrics(self) -> set[str]:
        """Per-layer metrics whose wrap target is missing."""
        missing_names = {name for module, attr, name, _ in TARGETS
                         if f"wignerlab.{module}.{attr}" in self.absent}
        out = set()
        for metric, (_, _, names) in PER_LAYER.items():
            if any(n == m or n.startswith(m + ".") for n in names
                   for m in missing_names):
                out.add(metric)
        return out

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        spans = [(i, s) for i, s in enumerate(self.spans) if s[PASS] == pass_id]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] = (child_time.get(s[PARENT], 0.0)
                                         + s[END] - s[START])
        counts = self._pass_counts.get(pass_id, {})
        out = {}
        for metric, (_, how, names) in PER_LAYER.items():
            sel = [(i, s) for i, s in spans if s[NAME] in names]
            if how == "incl":
                v = sum(s[END] - s[START] for _, s in sel)
            elif how == "self":
                v = sum(s[END] - s[START] - child_time.get(i, 0.0)
                        for i, s in sel)
            elif how == "calls":
                v = len(sel)
            elif how == "counter":
                v = sum(counts.get(n, 0) for n in names)
            elif how == "extra_sum":
                v = sum(s[EXTRA] or 0 for _, s in sel)
            elif how == "dim_max":
                v = max((s[SIZE_DIM] or 0 for _, s in sel), default=0)
            else:  # pair_visits: sweeps x n(n-1)/2, computed
                v = sum((s[EXTRA] or 0) * (s[SIZE_DIM] or 0)
                        * ((s[SIZE_DIM] or 0) - 1) // 2 for _, s in sel)
            out[metric] = v
        return out

    def metrics(self, pass_ids: list[int]) -> dict[str, float]:
        per_pass = [self.pass_metrics(p) for p in pass_ids]
        absent = self.absent_metrics()
        return {m: statistics.median(p[m] for p in per_pass)
                for m in PER_LAYER if m not in absent}

    def durations(self, name: str, pass_id: int, **size) -> list[float]:
        """Durations of the spans called ``name`` in a pass with given sizes."""
        keys = {"L": SIZE_L, "dim": SIZE_DIM}
        return [s[END] - s[START] for s in self.spans
                if s[NAME] == name and s[PASS] == pass_id
                and all(s[keys[k]] == v for k, v in size.items())]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass",
                                  "L", "dim", "extra"],
                       "spans": self.spans,
                       "counts": self._pass_counts,
                       "absent_targets": self.absent}, fh)
