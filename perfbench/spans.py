"""Span tracer that wraps pwdual's public functions from outside the package.

Every public function defined in a pwdual layer module is replaced by a
timing wrapper in its own module and under every alias another pwdual
module imported with ``from .x import f``; three methods that carry most
of their layer's work are wrapped on their classes. A wrapper only records
while a job is open, so the benchmark's own checks run untraced.

Each span keeps name, start, end, parent span and job id in memory until
the run ends. The leaves in ``FOLDED``, which a job calls about 10^4
times or more, keep a call count and time per (function, parent) and no
span of their own. Self time is a span's duration minus the time its child spans
cover; a job's root span therefore holds the time no wrapped function
accounts for ("unattributed"). Counts named in ``HOOKS`` (gates, depth,
terms, shots, evaluations, computed bytes) are read from each call's
arguments and result after its span closes, and the time that takes is
kept out of every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

LAYER_MODULES = ("geometry", "fermion", "pauli", "hamiltonian", "statevector",
                 "ffft", "swapnet", "trotter", "lcu", "measurement", "vqe",
                 "serialize")
METHODS = (("hamiltonian", "HamiltonianSet", "spectrum"),
           ("lcu", "LcuModel", "reconstruction"),
           ("vqe", "Ansatz", "circuit"))
FOLDED = frozenset({"statevector.apply_gate", "pauli.apply_string",
                    "pauli.multiply_strings", "pauli.pauli_string",
                    "swapnet.snake_qubit", "serialize.fmt"})
TIME_STATS = ("calls", "self_s", "total_s", "errors")

COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _circuit_counts(circ):
    return {"gates": len(circ.gates), "depth": circ.depth()}


def _hamiltonian_terms(hs):
    return {"terms": len(hs.kinetic.terms) + len(hs.external.terms)
            + len(hs.interaction.terms)}


def _matrix_bytes(index):
    """Computed, not measured: one dense complex 2^n x 2^n matrix."""
    def hook(result, args, kwargs):
        n = _arg(args, kwargs, index, "n_qubits")
        return {"bytes_computed": COMPLEX_BYTES * 4 ** n}
    return hook


def _circuit_matrix(result, args, kwargs):
    circ = args[0]
    return {"gates": len(circ.gates),
            "bytes_computed": COMPLEX_BYTES * 4 ** circ.n_qubits}


def _apply_circuit(result, args, kwargs):
    # one new 2^n state per gate applied; computed, not measured
    gates = len(args[1].gates)
    return {"gates": gates,
            "bytes_computed": COMPLEX_BYTES * 2 ** args[0].n_qubits * gates}


HOOKS = {
    "hamiltonian.build_dual": (("terms",), lambda r, a, k:
                               _hamiltonian_terms(r)),
    "hamiltonian.build_plane_wave": (("terms",), lambda r, a, k:
                                     _hamiltonian_terms(r)),
    "fermion.fermion_matrix": (("bytes_computed",), _matrix_bytes(1)),
    "pauli.qubit_operator_matrix": (("bytes_computed",), _matrix_bytes(1)),
    "statevector.circuit_matrix": (("gates", "bytes_computed"),
                                   _circuit_matrix),
    "statevector.apply_circuit": (("gates", "bytes_computed"),
                                  _apply_circuit),
    "statevector.sample_bitstrings": (("shots",), lambda r, a, k:
                                      {"shots": _arg(a, k, 2, "shots", 1)}),
    "ffft.build_ffft_nd": (("gates", "depth"), lambda r, a, k:
                           _circuit_counts(r)),
    "trotter.split_operator_step": (("gates", "depth"), lambda r, a, k:
                                    _circuit_counts(r)),
    "trotter.direct_jw_step": (("gates", "depth"), lambda r, a, k:
                               _circuit_counts(r)),
    "swapnet.build_full_schedule": (("depth",), lambda r, a, k:
                                    {"depth": r.depth()}),
    "lcu.build_weights": (("terms",), lambda r, a, k:
                          {"terms": len(r.weights)}),
    "vqe.optimize": (("evaluations",), lambda r, a, k:
                     {"evaluations": r.evaluations}),
}


class Tracer:
    """Spans and per-function statistics for one workload process."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.folded = defaultdict(lambda: [0, 0.0])
        self.spans = []
        self.stack = []
        self.job = None
        self.wrapped = []
        self._restore = []

    # -- recording -------------------------------------------------------------

    def _enter(self, name, folded=False):
        index = None if folded else len(self.spans)
        if not folded:
            self.spans.append(None)
        frame = [name, index, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, ok):
        end = time.perf_counter()
        self.stack.pop()
        name, index, child, start = frame
        duration = end - start
        stat = self.stats[name]
        stat["calls"] += 1
        stat["self_s"] += duration - child
        stat["total_s"] += duration
        stat["errors"] += not ok
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if index is None:
            fold = self.folded[(name, parent[0] if parent else None)]
            fold[0] += 1
            fold[1] += duration
        else:
            self.spans[index] = (name, start, end,
                                 parent[1] if parent else None, self.job)
        return end

    def _count(self, name, hook, result, args, kwargs, since):
        for key, value in hook(result, args, kwargs).items():
            self.stats[name][key] += value
        spent = time.perf_counter() - since
        self.stats["trace"]["hook_s"] += spent
        if self.stack:
            self.stack[-1][2] += spent

    def begin_job(self, job_id, name):
        self.job = job_id
        return self._enter(name)

    def end_job(self, frame, ok):
        self._exit(frame, ok)
        self.job = None

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        folded = name in FOLDED
        hook = HOOKS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, folded)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = tracer._exit(frame, ok)
            if hook is not None:
                tracer._count(name, hook, result, args, kwargs, end)
            return result

        self.wrapped.append(name)
        return wrapper

    def install(self):
        """Wrap every public layer function under each of its bindings."""
        import pwdual
        modules = [pwdual] + [
            importlib.import_module(f"pwdual.{info.name}")
            for info in pkgutil.iter_modules(pwdual.__path__)]
        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"pwdual.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}",
                                                         obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"pwdual.{short}"),
                          cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth,
                    self._wrap(f"{short}.{cls_name}.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def values(self):
        """Flat ``<name>.<stat>`` totals, zero for wrapped names never
        called, so every metric name exists on every workload."""
        out = {}
        for name in self.wrapped:
            for stat in TIME_STATS:
                out[f"{name}.{stat}"] = 0.0
        for name, (keys, _) in HOOKS.items():
            for key in keys:
                out[f"{name}.{key}"] = 0.0
        for name, stat in self.stats.items():
            for key, value in stat.items():
                out[f"{name}.{key}"] = value
        return out

    def span_records(self):
        spans = [s for s in self.spans if s is not None]
        folded = [(name, parent, calls, seconds)
                  for (name, parent), (calls, seconds) in self.folded.items()]
        return spans, folded

