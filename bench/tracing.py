"""Spans around the library's public entry points, and the per-layer metrics.

The tracer replaces the bindings that callers actually use (``evolution``
imports its sensitivity functions by name, so they are wrapped in
``evolution``'s namespace) with thin wrappers.  Each call records a span:
its name, start, end (``perf_counter_ns``) and the index of the enclosing
span.  Spans stay in memory in compact arrays until the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.  Summed over all
spans of one solve, self times telescope to the duration of the top-level
spans, and the rest of the solve's wall time is reported as time outside any
span.  The wrappers' own cost lands in the self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ocflow import costate, evolution, integrate, parameterization, problem, sensitivity

LAYERS = ("evolution", "sensitivity", "integrate", "parameterization", "problem",
          "quadrature", "costate")

# span name -> the (namespace, attribute) bindings it wraps
TARGETS = {
    "evolution.solve": [(evolution, "solve_evolution")],
    "evolution.pipeline": [(evolution, "evaluate_iterate")],
    "evolution.multiplier": [(evolution, "multiplier")],
    "sensitivity.state": [(evolution, "solve_state")],
    "sensitivity.adjoint": [(evolution, "solve_adjoints")],
    "sensitivity.assembly": [(mod, fn) for mod in (evolution, sensitivity)
                             for fn in ("assemble_form1", "assemble_form2",
                                        "nlp_gradients")],
    "sensitivity.spd": [(evolution, "spd_solve"), (costate, "spd_solve")],
    "integrate.ivp": [(problem, "integrate_ivp"), (sensitivity, "integrate_ivp")],
    "integrate.dense": [(integrate.DenseTrajectory, "__call__")],
    "parameterization.eval": [(parameterization.Parameterization, "eval")],
    "parameterization.jac": [(parameterization.Parameterization, "jac_p"),
                             (parameterization.Parameterization, "jac_tf")],
    "quadrature.simpson": [(sensitivity, "simpson_points"), (costate, "simpson_points")],
    "costate.reconstruct": [(costate, "reconstruct_costate")],
    "costate.multiplier": [(costate, "continuous_multiplier")],
    "costate.residuals": [(costate, "optimality_residuals")],
}
CALLBACKS = ("f", "f_x", "f_u", "L", "L_x", "L_u", "phi", "phi_x", "phi_t",
             "g", "g_x", "g_t")


class Recorder:
    """In-memory span store plus the integrator's step counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("B")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.steps = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; ``after(result)`` runs outside it."""
        nid = self.intern(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def count_steps(self, sol) -> None:
        self.steps += sol.nsteps
        self.rejected += sol.nrejected

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name_id, parent, start, end) of spans lo..hi as numpy arrays."""
        hi = len(self) if hi is None else hi
        return (np.frombuffer(self.name_id, dtype=np.uint8)[lo:hi],
                np.frombuffer(self.parent, dtype=np.int64)[lo:hi],
                np.frombuffer(self.start, dtype=np.int64)[lo:hi],
                np.frombuffer(self.end, dtype=np.int64)[lo:hi])

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then the raw name_id, parent, start, end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, spans=len(self),
                      layout=["name_id:u1", "parent:i8", "start_ns:i8", "end_ns:i8"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path):
    """Inverse of Recorder.write: (header, name_id, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = [np.fromfile(fh, dtype=dt, count=n)
                for dt in (np.uint8, np.int64, np.int64, np.int64)]
    return (header, *cols)


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for name, bindings in TARGETS.items():
            after = rec.count_steps if name == "integrate.ivp" else None
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, rec.wrap(name, original, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_problem(rec: Recorder, prob):
    """A copy of the problem whose user callbacks record problem.callback spans."""
    return replace(prob, **{cb: rec.wrap("problem.callback", getattr(prob, cb))
                            for cb in CALLBACKS})


@dataclass
class SolveSpans:
    """The span range and wall interval of one traced certified solve."""

    lo: int
    hi: int
    t_start: int
    t_end: int
    rows: int
    steps: int
    rejected: int


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray,
               lo: int = 0) -> np.ndarray:
    """Duration minus direct children's durations, in ns (exact integers).

    ``parent`` holds absolute span indices; ``lo`` is the index of the first
    span in the arrays, and parents before it (or -1) are ignored.
    """
    dur = end - start
    child = np.zeros(dur.size, dtype=np.int64)
    inside = parent >= lo
    np.add.at(child, parent[inside] - lo, dur[inside])
    return dur - child


def solve_metrics(rec: Recorder, sv: SolveSpans) -> dict[str, float]:
    """Per-layer counts and times of one traced solve."""
    name_id, parent, start, end = rec.arrays(sv.lo, sv.hi)
    dur = end - start
    own = self_times(parent, start, end, sv.lo)
    ids = {n: i for i, n in enumerate(rec.names)}
    k = len(rec.names)
    calls = np.bincount(name_id, minlength=k)
    # inclusive time counts only the outermost span of nested same-name calls
    local_parent = parent - sv.lo
    has_parent = local_parent >= 0
    same_as_parent = np.zeros(dur.size, dtype=bool)
    same_as_parent[has_parent] = name_id[local_parent[has_parent]] == name_id[has_parent]
    incl = np.bincount(name_id[~same_as_parent], weights=dur[~same_as_parent],
                       minlength=k) * 1e-9
    own_by_name = np.bincount(name_id, weights=own, minlength=k) * 1e-9

    def n_calls(name):
        return float(calls[ids[name]]) if name in ids else 0.0

    def secs(name):
        return float(incl[ids[name]]) if name in ids else 0.0

    def layer_self(layer):
        return float(sum(own_by_name[i] for n, i in ids.items()
                         if n.split(".")[0] == layer))

    pipelines = n_calls("evolution.pipeline")
    ivp = n_calls("integrate.ivp")
    top = local_parent < 0
    solve_s = (sv.t_end - sv.t_start) * 1e-9
    m = {
        "evolution.pipelines_record": float(sv.rows),
        "evolution.pipelines_flow": pipelines - sv.rows,
        "evolution.pipeline_ms": 1e3 * secs("evolution.pipeline") / max(pipelines, 1),
        "evolution.multiplier_calls": n_calls("evolution.multiplier"),
        "evolution.multiplier_s": secs("evolution.multiplier"),
        "sensitivity.state_calls": n_calls("sensitivity.state"),
        "sensitivity.state_s": secs("sensitivity.state"),
        "sensitivity.adjoint_calls": n_calls("sensitivity.adjoint"),
        "sensitivity.adjoint_s": secs("sensitivity.adjoint"),
        "sensitivity.assembly_calls": n_calls("sensitivity.assembly"),
        "sensitivity.assembly_s": secs("sensitivity.assembly"),
        "sensitivity.spd_calls": n_calls("sensitivity.spd"),
        "sensitivity.spd_s": secs("sensitivity.spd"),
        "integrate.ivp_calls": ivp,
        "integrate.steps": float(sv.steps),
        "integrate.rejected": float(sv.rejected),
        "integrate.accept_ratio": sv.steps / max(sv.steps + sv.rejected, 1),
        "integrate.steps_per_ivp": sv.steps / max(ivp, 1),
        "integrate.dense_calls": n_calls("integrate.dense"),
        "integrate.dense_s": secs("integrate.dense"),
        "parameterization.eval_calls": n_calls("parameterization.eval"),
        "parameterization.eval_s": secs("parameterization.eval"),
        "parameterization.jac_calls": n_calls("parameterization.jac"),
        "parameterization.jac_s": secs("parameterization.jac"),
        "problem.callback_calls": n_calls("problem.callback"),
        "problem.callback_s": secs("problem.callback"),
        "quadrature.simpson_calls": n_calls("quadrature.simpson"),
        "quadrature.simpson_s": secs("quadrature.simpson"),
        "costate.reconstruct_s": secs("costate.reconstruct"),
        "costate.multiplier_s": secs("costate.multiplier"),
        "costate.residuals_s": secs("costate.residuals"),
        "trace.solve_s": solve_s,
        "trace.outside_s": (sv.t_end - sv.t_start - int(dur[top].sum())) * 1e-9,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def mean_metrics(per_solve: list[dict[str, float]]) -> dict[str, float]:
    return {k: sum(d[k] for d in per_solve) / len(per_solve) for k in per_solve[0]}
