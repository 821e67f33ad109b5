"""ocflow solver benchmark: time to a certified solution, per workload.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload e1_form1 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10

One process, one caller, one solve at a time (a closed loop), with BLAS
pinned to one thread.  The run repeats the workload's certified solve on the
seed's input until ``--seconds`` have passed (at least once) and checks every
answer.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced solves and reports the
per-layer metrics, including the tracing overhead, and writes the spans to
``.bench_out/<workload>.spans``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``solve_s`` is scaled to a reference host speed by a probe
interleaved with the solves (see README.md).  ``--workload all`` runs each
workload in its own process and prints one table.

The library is imported from this checkout's ``src`` directory and nowhere
else; without it the benchmark exits with status 1 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from stats import Tally, describe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("e1_form1", "e1_gradflow", "brach_pwc20")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170
E2E_UNITS = {"solve_s": "s", "pipelines": "count", "setup_s": "s", "peak_rss_mb": "MB"}
# Small shared hosts drift in speed by 10-30 % over tens of seconds, alike
# for all code of the solver's kind.  Untraced solves are interleaved with a
# short host probe every PROBE_EVERY_S; solve_s divides the run's drift out
# by scaling the solves' wall time (probes excluded) by PROBE_REF_S over the
# run's median probe time.
PROBE_STEPS = 950
PROBE_EVERY_S = 0.5
PROBE_REF_S = 0.025       # median host_probe() on the baseline host


def import_library():
    """Import ocflow from this checkout's src; exit with status 1 otherwise."""
    pkg = SRC / "ocflow"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no ocflow sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ocflow
    if Path(ocflow.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported ocflow from {ocflow.__file__}, not from {pkg}")
    return ocflow


def setup_once(workload: str, seed: int) -> float:
    """Seconds for import ocflow plus building the workload's inputs."""
    t0 = time.perf_counter()
    import_library()
    import workloads
    workloads.WORKLOADS[workload](seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_RUNS fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: set-up run failed with status {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def machine_notes() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def host_probe() -> float:
    """Seconds for PROBE_STEPS steps of a fixed mix of small numpy work.

    Each step takes an explicit midpoint step of a 2-state linear ODE and
    does the lookups and reductions the solver makes on tiny arrays.  It runs
    no ocflow code, so no change to the library can move it.
    """
    import numpy as np
    A = np.array([[0.0, 1.0], [-1.0, -0.1]])
    grid = np.linspace(0.0, 1.0, 50)
    t0 = time.perf_counter()
    y, acc = np.array([1.0, 0.0]), 0.0
    for i in range(PROBE_STEPS):
        t = (i % 97) / 97.0
        j = int(np.searchsorted(grid, t, side="right")) - 1
        k1 = A @ y + np.array([np.sin(t), 0.0])
        y = y + 1e-3 * (A @ (y + 5e-4 * k1))
        v = np.concatenate([y, [t]])
        acc += (float(np.einsum("i,i->", v[:2], A[1])) + float(np.linalg.norm(v))
                + float(np.stack([v, v]).sum()) + j)
    return time.perf_counter() - t0


class PipelineClock:
    """Counts and times evaluate_iterate calls (the untraced pipeline counter).

    Given a ``probes`` list, it also runs host_probe() after the first
    pipeline and then after the first one to end PROBE_EVERY_S later,
    appends each probe's duration, and sums them in ``probe_s`` for the
    caller to take out of the solve's wall time.
    """

    def __init__(self, evolution, probes: list[float] | None = None):
        self.evolution = evolution
        self.original = evolution.evaluate_iterate
        self.probes = probes
        self.calls = 0
        self.probe_s = 0.0
        self.seconds: list[float] = []

    def __enter__(self):
        original, seconds, clock = self.original, self.seconds, time.perf_counter
        next_probe = -float("inf")

        def counted(*args, **kwargs):
            nonlocal next_probe
            self.calls += 1
            t0 = clock()
            result = original(*args, **kwargs)
            t1 = clock()
            seconds.append(t1 - t0)
            if self.probes is not None and t1 >= next_probe:
                d = host_probe()
                self.probes.append(d)
                self.probe_s += d
                next_probe = clock() + PROBE_EVERY_S
            return result
        self.evolution.evaluate_iterate = counted
        return self

    def __exit__(self, *exc):
        self.evolution.evaluate_iterate = self.original


def run_workload(args) -> int:
    notes = machine_notes()
    setup = measure_setup(args.workload, args.seed)
    ocflow = import_library()
    import tracing
    import workloads
    case = workloads.WORKLOADS[args.workload](args.seed)
    print(f"machine: {json.dumps(notes)}")
    print(f"workload {args.workload}, seed {args.seed}: p0 = {case.init.p.tolist()}, "
          f"t_f0 = {case.init.t_f!r}; trace {args.trace}")

    tally = Tally()
    wall_s, probes, pipelines, pipeline_ms, per_solve = [], [], [], [], []
    rec = tracing.Recorder() if args.trace else None
    t_run = time.perf_counter()
    while (not wall_s or (rec is not None and not per_solve)
           or time.perf_counter() - t_run < args.seconds):
        traced = rec is not None and len(per_solve) < len(wall_s)
        with PipelineClock(ocflow.evolution, None if traced else probes) as clock:
            if traced:
                lo, steps0, rejected0 = len(rec), rec.steps, rec.rejected
                traced_case = replace(case, prob=tracing.traced_problem(rec, case.prob))
                with tracing.instrument(rec):
                    out, err, t0, t1 = solve_once(ocflow, workloads, traced_case)
                hi = len(rec)
            else:
                out, err, t0, t1 = solve_once(ocflow, workloads, case)
        ok, detail = judge(workloads, case, out, err, tally)
        seconds = (t1 - t0) * 1e-9 - clock.probe_s
        kind = "traced" if traced else "untraced, probes excluded"
        print(f"solve {tally.attempted} ({kind}): {seconds:.4f} s, "
              f"{clock.calls} pipelines, {'ok' if ok else 'FAILED'}: {detail}")
        if traced:
            rows = out.rows if out is not None else 0
            per_solve.append(tracing.solve_metrics(rec, tracing.SolveSpans(
                lo=lo, hi=hi, t_start=t0, t_end=t1, rows=rows,
                steps=rec.steps - steps0, rejected=rec.rejected - rejected0)))
        else:
            wall_s.append(seconds)
            pipelines.append(clock.calls)
            pipeline_ms += [1e3 * s for s in clock.seconds]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_factor = PROBE_REF_S / statistics.median(probes or [host_probe()])
    print(f"wall time per solve: {describe(wall_s, 's')}")
    print(f"host probe: {describe([1e3 * p for p in probes], 'ms')}; "
          f"reference {1e3 * PROBE_REF_S:g} ms, so solve_s = wall x {host_factor:.4f}")
    print(f"pipeline latency (untraced): {describe(pipeline_ms, 'ms')}")
    print(f"setup_s: {describe(setup, 's')}")
    print(f"failed_frac: {tally.failed_frac:g} ratio "
          f"({tally.failed} of {tally.attempted} solves)")
    if rec is None:
        metrics = {"solve_s": statistics.median(wall_s) * host_factor,
                   "pipelines": statistics.median(pipelines),
                   "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        units = E2E_UNITS
    else:
        metrics = tracing.mean_metrics(per_solve)
        metrics["trace.overhead_frac"] = (
            statistics.median(m["trace.solve_s"] for m in per_solve)
            / statistics.median(wall_s) - 1.0)
        units = {k: tracing.unit_of(k) for k in metrics}
        path = OUT_DIR / f"{args.workload}.spans"
        rec.write(path, {"workload": args.workload, "seed": args.seed,
                         "solves": len(per_solve)})
        print(f"wrote {len(rec)} spans to {path}")
        own = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print(f"layer self times {own:.6f} s + outside spans "
              f"{metrics['trace.outside_s']:.6f} s = traced solve_s "
              f"{metrics['trace.solve_s']:.6f} s")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def solve_once(ocflow, workloads, case):
    """One timed certified solve: (outcome, error, start_ns, end_ns).

    The outcome is None and the error a message when the solver raised one
    of its own errors.
    """
    t0 = time.perf_counter_ns()
    try:
        out, err = workloads.certified_solve(case), None
    except ocflow.OcflowError as exc:
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, t0, time.perf_counter_ns()


def judge(workloads, case, out, err, tally: Tally) -> tuple[bool, str]:
    """Check one solve and count it; an error and a wrong answer both fail."""
    ok, detail = (False, err) if err else workloads.check_outcome(case, out)
    tally.record(ok)
    return ok, detail


def run_all(args) -> int:
    """Every workload in its own process; one table and one JSON line."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    print("\n" + f"{'metric':34s}" + "".join(f"{n:>16s}" for n, _ in rows) + "  unit")
    for k in names:
        unit = rows[0][1]["metrics"][k]["unit"]
        print(f"{k:34s}" + "".join(f"{r['metrics'][k]['value']:16.6g}" for _, r in rows)
              + f"  {unit}")
    print(f"{'failed_frac':34s}" + "".join(
        f"{r['failed'] / r['attempted']:16.6g}" for _, r in rows) + "  ratio")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    for var in THREAD_VARS:        # before anything imports numpy
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(f"{setup_once(args.workload, args.seed):.9f}")
        return 0
    if not (SRC / "ocflow" / "__init__.py").is_file():
        sys.exit(f"bench: no ocflow sources under {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
