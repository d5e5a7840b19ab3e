"""Spans at the library's module boundaries, recorded from outside.

The tracer replaces public functions on the modules that call them (the
names `hopfieldkit.experiments` and `hopfieldkit.quantum.solver` import,
the inversion and Hebbian entry points, and the LAPACK-backed
`numpy.linalg` functions) with wrappers that record a span: layer name,
parent span, start and end. Spans are kept in memory and written out at
exit. A wrapper records only inside a root span opened by the benchmark,
so the benchmark's own checks pass through untouched.

A layer's time is its span's duration minus its children that are other
library layers; the LAPACK calls a layer makes stay charged to it, and
are also summed across layers as `linalg`. The root's own share is the
remainder: benchmark glue and any library code outside a wrapped name.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from hopfieldkit import experiments, hebbian, inversion
from hopfieldkit.quantum import solver

ROOT = "bench.round"
EIGENSOLVES = ("eigh", "eigvalsh", "eig", "eigvals", "svd")
FACTORIZATIONS = ("solve", "slogdet", "det", "inv", "cholesky", "lstsq", "qr")

# (module, attribute, layer): each library name the benchmark reaches,
# patched on the module whose code calls it.
LIBRARY_POINTS = (
    (experiments, "ingest", "experiments.ingest"),
    (experiments, "train", "hebbian.train"),
    (hebbian, "train", "hebbian.train"),
    (experiments, "run_recovery_curve", "experiments.curve"),
    (experiments, "run_trial", "experiments.run_trial"),
    (experiments, "recall", "iterative.recall"),
    (experiments, "truncated_pseudoinverse_apply", "inversion.fallback"),
    (inversion, "assemble", "inversion.assemble"),
    (inversion, "solve", "inversion.solve"),
    (inversion, "certify_minimum", "inversion.certify"),
    (solver, "qhop_solve", "quantum.solver"),
    (solver, "controlled_powers", "quantum.powers"),
    (solver, "qpe_forward", "quantum.qpe_forward"),
    (solver, "qpe_backward", "quantum.qpe_backward"),
)


class _TracedEvolution:
    """Proxy for the evolution callback qhop_solve builds: calls become quantum.evolve spans."""

    def __init__(self, tracer: "Tracer", inner):
        self._tracer = tracer
        self._inner = inner

    def __call__(self, t):
        return self._tracer.call("quantum.evolve", self._inner, (t,), {})

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Installs wrappers, records spans, and aggregates them per layer."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._taken = 0
        self.recalls: list = []  # RecallTrace of every traced iterative.recall

    def call(self, layer: str, fn, args, kwargs):
        index = len(self.spans)
        span = [layer, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def root(self):
        index = len(self.spans)
        span = [ROOT, -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr: str, layer: str):
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return orig(*args, **kwargs)
            out = tracer.call(layer, orig, args, kwargs)
            if layer == "iterative.recall":
                tracer.recalls.append(out)
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def install(self) -> None:
        for module, attr, layer in LIBRARY_POINTS:
            self._wrap(module, attr, layer)
        for name in EIGENSOLVES + FACTORIZATIONS:
            self._wrap(np.linalg, name, f"linalg.{name}")
        build = solver.assemble_quantum_a
        tracer = self

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            if not tracer._stack:
                return build(*args, **kwargs)
            return _TracedEvolution(tracer, tracer.call("quantum.evolution_build", build,
                                                        args, kwargs))

        solver.assemble_quantum_a = traced_build
        self._patches.append((solver, "assemble_quantum_a", build))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def take(self, scale: float = 1.0) -> dict:
        """Aggregate of the spans recorded since the last take, times scaled."""
        agg = self.aggregate(self._taken, len(self.spans))
        self._taken = len(self.spans)
        return {k: v if k.startswith("count:") else v * scale for k, v in agg.items()}

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-layer charged time, span counts and linalg sums for spans[lo:hi].

        Keys: layer names (seconds), "count:<layer>" (calls), "linalg" (all
        LAPACK time), "linalg.under:<layer>:<fn>" (LAPACK time by caller).
        """
        spans = self.spans
        out: dict[str, float] = defaultdict(float)
        charged = {}
        for k in range(lo, hi):
            layer, parent, t0, t1 = spans[k]
            charged[k] = charged.get(k, 0.0) + (t1 - t0)
            if parent >= 0 and not layer.startswith("linalg."):
                charged[parent] = charged.get(parent, 0.0) - (t1 - t0)
        for k in range(lo, hi):
            layer, parent, t0, t1 = spans[k]
            out[f"count:{layer}"] += 1
            if layer.startswith("linalg."):
                out["linalg"] += t1 - t0
                caller = spans[parent][0] if parent >= 0 else ROOT
                out[f"linalg.under:{caller}:{layer[7:]}"] += t1 - t0
            else:
                out[layer] += charged[k]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: layer, parent, start, end (seconds)."""
        with open(path, "w") as fh:
            for layer, parent, t0, t1 in self.spans:
                fh.write(json.dumps([layer, parent, t0, t1]) + "\n")
