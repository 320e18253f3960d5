"""Spans recorded around the calls into each nsfem module.

The tracer wraps public nsfem functions in the benchmark's own process: it
rebinds each name in every nsfem module that looked it up by import
(``timestepper`` imports ``solve`` and ``assemble_convection`` by name,
``study`` imports ``run``), records one span per call and restores the
originals afterwards.  No nsfem source changes.

Coarse probes (mesh, spaces, projection, run operators and the run itself)
are installed on every repetition because ``setup_s`` and ``march_s`` come
from them; fine probes only on traced repetitions.  Spans use a clock that
stops while the tracer does its own bookkeeping (counting LU fill), so span
times and self times exclude it.
"""

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Probe:
    span: str
    module: str
    attr: str
    fine: bool = True
    attrs: object = None      # result -> dict of numbers stored on the span
    keep: bool = False        # keep each result for the correctness gate


PROBES = (
    Probe("mesh.build", "nsfem.mesh", "build_structured_mesh", fine=False),
    Probe("mesh.build", "nsfem.mesh", "alfeld_split", fine=False),
    Probe("space.build", "nsfem.space", "build_velocity_space", fine=False,
          attrs=lambda V: {"velocity_dofs": V.num_dofs}),
    Probe("space.build", "nsfem.space", "build_pressure_space", fine=False,
          attrs=lambda Q: {"pressure_dofs": Q.num_dofs}),
    Probe("projections.l2_project", "nsfem.projections",
          "l2_project_divfree", fine=False),
    Probe("timestepper.operators", "nsfem.timestepper", "RunOperators",
          fine=False),
    Probe("timestepper.run", "nsfem.timestepper", "run", fine=False,
          keep=True),
    Probe("saddle.solve", "nsfem.saddle", "solve",
          attrs=lambda out: {"residual": out[2].residual}),
    Probe("assembly.convection", "nsfem.assembly", "assemble_convection"),
    Probe("assembly.mass", "nsfem.assembly", "assemble_mass"),
    Probe("assembly.stiffness", "nsfem.assembly", "assemble_stiffness"),
    Probe("assembly.divergence", "nsfem.assembly", "assemble_divergence"),
    Probe("assembly.load", "nsfem.assembly", "assemble_load"),
    Probe("timestepper.step", "nsfem.timestepper", "step"),
    Probe("timestepper.energy_residual", "nsfem.timestepper",
          "energy_residual"),
    Probe("study.l2_error_cross", "nsfem.study", "l2_error_cross"),
    Probe("space.evaluate_many", "nsfem.space", "evaluate_many"),
)

SETUP_SPANS = ("mesh.build", "space.build", "projections.l2_project",
               "timestepper.operators")

#: spans every traced repetition must record; a refactor that stops a call
#: from reaching a wrapped name fails the traced run instead of reporting 0
EXPECTED_SPANS = (
    "mesh.build", "space.build", "projections.l2_project",
    "timestepper.operators", "timestepper.run", "timestepper.step",
    "timestepper.energy_residual", "saddle.factor", "saddle.solve",
    "assembly.convection", "assembly.mass", "assembly.stiffness",
    "assembly.divergence", "assembly.load", "initial_data.eval",
)
CROSS_MESH_SPANS = ("study.l2_error_cross", "space.evaluate_many")


def expected_spans(workload):
    return EXPECTED_SPANS + (CROSS_MESH_SPANS if workload.cross_mesh else ())


class Tracer:
    """In-memory span recorder for one repetition of a workload."""

    def __init__(self, run_id, fine):
        self.run_id = run_id
        self.fine = fine
        self.spans = []
        self.kept = []
        self._stack = []
        self._paused = 0.0
        self._patches = []

    def now(self):
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name):
        rec = {"run": self.run_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": self.now()}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = self.now()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Bookkeeping inside this block is invisible to every span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def _wrap(self, probe, fn):
        @functools.wraps(fn, assigned=("__name__", "__qualname__",
                                       "__doc__"), updated=())
        def wrapper(*args, **kwargs):
            with self.span(probe.span) as rec:
                out = fn(*args, **kwargs)
            if probe.attrs is not None:
                with self.paused():
                    rec.update(probe.attrs(out))
            if probe.keep:
                self.kept.append(out)
            return out
        return wrapper

    def _factor_wrapper(self, splu):
        def wrapper(*args, **kwargs):
            with self.span("saddle.factor") as rec:
                lu = splu(*args, **kwargs)
            with self.paused():
                rec["fill"] = int(lu.L.nnz + lu.U.nnz)
            return lu
        return wrapper

    def field(self, field):
        """The initial-data field, wrapped on traced repetitions."""
        if not self.fine:
            return field

        def traced(points):
            with self.span("initial_data.eval") as rec:
                out = field(points)
            rec["points"] = len(points)
            return out
        return traced

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    @contextmanager
    def installed(self):
        """Rebind every probed name for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nsfem" or name.startswith("nsfem.")]
        try:
            for probe in PROBES:
                if probe.fine and not self.fine:
                    continue
                orig = getattr(importlib.import_module(probe.module),
                               probe.attr)
                wrapper = self._wrap(probe, orig)
                sites = [(m, k) for m in modules
                         for k, v in vars(m).items() if v is orig]
                for m, k in sites:
                    self._patch(m, k, wrapper)
            if self.fine:
                # saddle calls scipy's splu as ``spla.splu``: give saddle a
                # copy of that module whose splu records the factorization
                saddle = importlib.import_module("nsfem.saddle")
                spla = saddle.spla
                proxy = type(spla)(spla.__name__)
                proxy.__dict__.update(vars(spla))
                proxy.splu = self._factor_wrapper(spla.splu)
                self._patch(saddle, "spla", proxy)
            yield self
        finally:
            while self._patches:
                obj, attr, value = self._patches.pop()
                setattr(obj, attr, value)

    def setup_s(self):
        return sum(_duration(s) for s in self.spans
                   if s["name"] in SETUP_SPANS)

    def march_s(self):
        """Time inside timestepper.run, less building its RunOperators."""
        runs = {i for i, s in enumerate(self.spans)
                if s["name"] == "timestepper.run"}
        ops = sum(_duration(s) for s in self.spans
                  if s["name"] == "timestepper.operators"
                  and s["parent"] in runs)
        return sum(_duration(self.spans[i]) for i in runs) - ops

    def dump(self, stream):
        for rec in self.spans:
            stream.write(json.dumps(rec) + "\n")


def _duration(span):
    return span["end"] - span["start"]


def _self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def layer_metrics(tracers, overhead_s):
    """Per-layer metrics, per repetition, from the traced repetitions."""
    reps = len(tracers)
    dur, calls, own, attr = {}, {}, {}, {}
    steps = []
    for tr in tracers:
        for s, self_s in zip(tr.spans, _self_times(tr.spans)):
            name = s["name"]
            d = _duration(s)
            dur[name] = dur.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_s
            for key in ("fill", "residual", "velocity_dofs", "pressure_dofs",
                        "points"):
                if key in s:
                    attr.setdefault(key, []).append(s[key])
            if name == "timestepper.step":
                steps.append(d)

    def per_rep(table, name):
        return table.get(name, 0) / reps

    fills = attr.get("fill", [0])
    steps = steps or [0.0]
    m = {
        "saddle.factor_s": per_rep(dur, "saddle.factor"),
        "saddle.factor_calls": per_rep(calls, "saddle.factor"),
        "saddle.lu_fill_nnz_max": max(fills),
        "saddle.lu_fill_nnz_sum": sum(fills) / reps,
        "saddle.solve_s": per_rep(dur, "saddle.solve"),
        "saddle.solve_calls": per_rep(calls, "saddle.solve"),
        "saddle.solve_self_s": per_rep(own, "saddle.solve"),
        "saddle.residual_max": max(attr.get("residual", [0.0])),
        "assembly.convection_s": per_rep(dur, "assembly.convection"),
        "assembly.convection_calls": per_rep(calls, "assembly.convection"),
        "assembly.mass_s": per_rep(dur, "assembly.mass"),
        "assembly.stiffness_s": per_rep(dur, "assembly.stiffness"),
        "assembly.divergence_s": per_rep(dur, "assembly.divergence"),
        "assembly.load_s": per_rep(dur, "assembly.load"),
        "timestepper.step_s_p50": float(np.percentile(steps, 50)),
        "timestepper.step_s_p90": float(np.percentile(steps, 90)),
        "timestepper.steps": per_rep(calls, "timestepper.step"),
        "timestepper.step_self_s": per_rep(own, "timestepper.step"),
        "timestepper.energy_residual_s": per_rep(
            dur, "timestepper.energy_residual"),
        "timestepper.operators_s": per_rep(dur, "timestepper.operators"),
        "projections.l2_project_s": per_rep(dur, "projections.l2_project"),
        "mesh.build_s": per_rep(dur, "mesh.build"),
        "space.build_s": per_rep(dur, "space.build"),
        "space.velocity_dofs": sum(attr.get("velocity_dofs", [0])) / reps,
        "space.pressure_dofs": sum(attr.get("pressure_dofs", [0])) / reps,
        "initial_data.eval_s": per_rep(dur, "initial_data.eval"),
        "initial_data.points": sum(attr.get("points", [0])) / reps,
        "study.l2_error_cross_s": per_rep(dur, "study.l2_error_cross"),
        "space.evaluate_many_s": per_rep(dur, "space.evaluate_many"),
        "trace.overhead_s": overhead_s,
    }
    return m, calls
