"""Spans around the public calls of each wgconvect module, for traced runs.

A traced run wraps the module functions listed in `TARGETS` from outside
the package: each call records one span (name, start, end, parent, run id)
in memory.  The run id is "setup" for the set-up phase and "round-<i>" for
measured round i.  A layer's self time is its spans' duration minus the
part covered by their child spans.  Nothing here changes what the wrapped
functions compute.
"""

import contextlib
import functools
import json
import os
import time

from wgconvect import forms, linsys, mesh, postproc, problems, solver


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "extra")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.extra = {}

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, **self.extra}


class Tracer:
    """In-memory span recorder; `run` names the phase spans belong to."""

    def __init__(self):
        self.spans = []
        self.run = "setup"
        self._stack = []
        self._paused = 0

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, args, kwargs, on_result=None):
        if self._paused:
            return fn(*args, **kwargs)
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if on_result is not None:
            # harness work on the result gets its own span, so that it is
            # charged to no layer
            with self.span("trace"):
                on_result(span, result)
        return result

    @contextlib.contextmanager
    def paused(self):
        """Context in which wrapped calls record nothing (the harness's
        own correctness checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s.as_dict()}) + "\n")


def _record_fill(span, lu):
    # entries SuperLU stores for L and U, supernodal padding included
    # (about 1.2 x L.nnz + U.nnz, which would cost a copy of both factors)
    span.extra["fill"] = int(lu.nnz)


def _record_bytes(span, path):
    span.extra["bytes"] = os.path.getsize(path)


def _record_iterations(span, result):
    span.extra["iterations"] = result[1].iterations


class _SplaProxy:
    """Stands in for `scipy.sparse.linalg` inside linsys, so that only the
    factorizations linsys makes are counted."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


# (owner, attribute, layer, result hook); the owner is a module or a class
TARGETS = [
    (problems, "manufactured_convection", "problems.build", None),
    (problems, "cavity", "problems.build", None),
    (problems.ProblemSpec, "with_rayleigh", "problems.build", None),
    (mesh, "build_structured_mesh", "mesh.build", None),
    (linsys.StepAssembler, "__init__", "linsys.setup", None),
    (linsys.StepAssembler, "assemble", "linsys.assemble", None),
    (forms, "viscous_blocks", "forms.static", None),
    (forms, "pressure_blocks", "forms.static", None),
    (forms, "conduction_blocks", "forms.static", None),
    (forms, "buoyancy_factor", "forms.static", None),
    (forms, "skew_convection_blocks", "forms.convection", None),
    (linsys, "solve_sparse", "linsys.solve", None),
    (solver, "oseen_solve", "solver", _record_iterations),
    (solver, "ramp_rayleigh", "solver", None),
    (postproc, "triple_norm", "postproc.norms", None),
    (postproc, "pressure_l2", "postproc.norms", None),
    (postproc, "divergence_diagnostic", "postproc.divergence", None),
    (postproc, "cavity_report", "postproc.report", None),
    (postproc, "error_report", "postproc.report", None),
    (postproc, "export_fields", "postproc.export", _record_bytes),
    (postproc, "write_cavity_csv", "postproc.export", _record_bytes),
    (postproc, "write_convergence_csv", "postproc.export", _record_bytes),
    (solver, "write_trace_csv", "postproc.export", _record_bytes),
]


def _wrap(tracer, name, fn, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result)
    return traced


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for owner, attr, layer, hook in TARGETS:
        fn = owner.__dict__[attr]
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, layer, fn, hook))
    real = linsys.spla
    saved.append((linsys, "spla", real))
    linsys.spla = _SplaProxy(real, _wrap(tracer, "linsys.factor", real.splu,
                                         _record_fill))

    def restore():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return restore


def self_times(spans):
    """Per-span duration minus the duration of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# metric name -> (layer, quantity); quantity is "self", "calls" or an extra
LAYER_METRICS = {
    "problems.build_s": ("problems.build", "self"),
    "mesh.build_s": ("mesh.build", "self"),
    "linsys.setup_s": ("linsys.setup", "self"),
    "linsys.setup_calls": ("linsys.setup", "calls"),
    "forms.static_s": ("forms.static", "self"),
    "linsys.assemble_s": ("linsys.assemble", "self"),
    "linsys.assemble_calls": ("linsys.assemble", "calls"),
    "forms.convection_s": ("forms.convection", "self"),
    "linsys.factor_s": ("linsys.factor", "self"),
    "linsys.factorizations": ("linsys.factor", "calls"),
    "linsys.solve_s": ("linsys.solve", "self"),
    "linsys.solve_calls": ("linsys.solve", "calls"),
    "solver.iterations": ("solver", "iterations"),
    "solver.self_s": ("solver", "self"),
    "postproc.norms_s": ("postproc.norms", "self"),
    "postproc.norm_calls": ("postproc.norms", "calls"),
    "postproc.divergence_s": ("postproc.divergence", "self"),
    "postproc.divergence_calls": ("postproc.divergence", "calls"),
    "postproc.report_s": ("postproc.report", "self"),
    "postproc.export_s": ("postproc.export", "self"),
    "postproc.export_bytes": ("postproc.export", "bytes"),
}


def layer_metrics(spans):
    """Per-layer figures of one set-up plus the fastest round.

    Each figure is the set-up phase's total plus the smallest of the
    measured rounds' totals (counts repeat exactly from round to round);
    `linsys.lu_fill_nnz` is the largest fill of any factorization.
    """
    own = self_times(spans)
    totals = {}                    # (layer, quantity) -> {run: value}
    for s, t in zip(spans, own):
        for quantity, value in (("self", t), ("calls", 1), *s.extra.items()):
            if quantity == "fill":
                continue
            per_run = totals.setdefault((s.name, quantity), {})
            per_run[s.run] = per_run.get(s.run, 0) + value
    rounds = sorted({s.run for s in spans if s.run != "setup"})
    out = {}
    for metric, key in LAYER_METRICS.items():
        per_run = totals.get(key, {})
        value = per_run.get("setup", 0)
        if rounds:
            value += min(per_run.get(r, 0) for r in rounds)
        out[metric] = value
    out["linsys.lu_fill_nnz"] = max(
        (s.extra.get("fill", 0) for s in spans), default=0)
    return out
