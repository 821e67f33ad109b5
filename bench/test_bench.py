"""Self-tests of the benchmark harness.

Run from the root of a checkout with either of::

    python3 -m pytest -q bench/test_bench.py
    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ocflow  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail(list(range(19))))

    def test_twenty_samples_reach_the_median_only(self):
        self.assertEqual(stats.beyond(20, 50.0), 10)
        self.assertEqual(stats.beyond(20, 75.0), 5)
        self.assertEqual(stats.tail(list(range(1, 21))), (50.0, 10))

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.tail(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(stats.tail(list(range(1, 1000)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(1, 10001))), (99.9, 9990))

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50.0), 3)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(stats.spread(values), (4.5 - 1.5) / 3.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans_hand_built(self):
        # root [0, 100] > a [10, 40] > a1 [20, 30];  root > b [50, 90]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0, 10, 20, 50])
        end = np.array([100, 40, 30, 90])
        own = tracing.self_times(parent, start, end)
        self.assertEqual(own.tolist(), [30, 20, 10, 40])
        self.assertEqual(int(own.sum()), 100)

    def test_offset_ignores_parents_before_the_range(self):
        parent = np.array([4, 5, 5])        # span 5 is the first in range
        start = np.array([0, 10, 30])
        end = np.array([60, 20, 50])
        own = tracing.self_times(parent, start, end, lo=5)
        self.assertEqual(own.tolist(), [30, 10, 20])

    def test_recorder_links_parents_and_times_add_up(self):
        rec = tracing.Recorder()

        def leaf(x):
            return sum(range(x))

        leaf_t = rec.wrap("problem.callback", leaf)
        mid_t = rec.wrap("integrate.dense", lambda x: leaf_t(x) + leaf_t(x))
        top_t = rec.wrap("evolution.pipeline", lambda: mid_t(2000) + leaf_t(10))
        t0 = tracing.time.perf_counter_ns()
        top_t()
        t1 = tracing.time.perf_counter_ns()
        _, parent, start, end = rec.arrays()
        self.assertEqual(parent.tolist(), [-1, 0, 1, 1, 0])
        m = tracing.solve_metrics(rec, tracing.SolveSpans(
            lo=0, hi=len(rec), t_start=t0, t_end=t1, rows=0, steps=0, rejected=0))
        own = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(own + m["trace.outside_s"], m["trace.solve_s"], places=12)
        self.assertEqual(m["problem.callback_calls"], 3)
        self.assertEqual(m["evolution.pipelines_flow"], 1)

    def test_nested_same_name_counts_once_in_inclusive_time(self):
        rec = tracing.Recorder()
        inner = rec.wrap("integrate.dense", lambda: None)
        outer = rec.wrap("integrate.dense", lambda: inner())
        outer()
        _, parent, start, end = rec.arrays()
        m = tracing.solve_metrics(rec, tracing.SolveSpans(
            lo=0, hi=2, t_start=int(start[0]), t_end=int(end[0]), rows=0, steps=0,
            rejected=0))
        self.assertEqual(m["integrate.dense_calls"], 2)
        self.assertAlmostEqual(m["integrate.dense_s"], (end[0] - start[0]) * 1e-9)

    def test_span_file_round_trip(self):
        rec = tracing.Recorder()
        inner = rec.wrap("problem.callback", lambda: None)
        rec.wrap("integrate.dense", lambda: inner())()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.spans"
            rec.write(path, {"workload": "w"})
            header, name_id, parent, start, end = tracing.read_spans(path)
        self.assertEqual((header["workload"], header["spans"]), ("w", 2))
        self.assertEqual([header["names"][i] for i in name_id],
                         ["integrate.dense", "problem.callback"])
        for got, want in zip((name_id, parent, start, end), rec.arrays()):
            self.assertEqual(got.tolist(), want.tolist())

    def test_instrument_restores_every_binding(self):
        before = {(owner, attr): owner.__dict__[attr]
                  for bindings in tracing.TARGETS.values() for owner, attr in bindings}
        with tracing.instrument(tracing.Recorder()):
            self.assertIsNot(ocflow.evolution.evaluate_iterate,
                             before[(ocflow.evolution, "evaluate_iterate")])
        for (owner, attr), fn in before.items():
            self.assertIs(owner.__dict__[attr], fn)


class Contract(unittest.TestCase):
    """BENCHMARK.json names exactly the workloads and metrics the harness emits."""

    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOAD_NAMES))
        self.assertEqual(names, list(workloads.WORKLOADS))

    def test_end_to_end_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.E2E_UNITS)

    def test_per_layer_metrics(self):
        rec = tracing.Recorder()
        emitted = list(tracing.solve_metrics(rec, tracing.SolveSpans(
            lo=0, hi=0, t_start=0, t_end=1, rows=0, steps=0, rejected=0)))
        emitted.append("trace.overhead_frac")
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], emitted)
        for m in self.spec["per_layer"]:
            self.assertEqual(m["unit"], tracing.unit_of(m["name"]), m["name"])


class FailureCounting(unittest.TestCase):
    def test_tally(self):
        tally = stats.Tally()
        for ok in (True, False, True, True):
            tally.record(ok)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.failed_frac, 0.25)

    def test_wrong_answer_counts_as_failed(self):
        # a real solve stopped early: it returns, but p is far from p*
        tally = stats.Tally()
        tally.record(True)
        case = replace(workloads.build_e1_form1(0),
                       stop=ocflow.StopCriteria(tau_max=3.0))
        out, err, t0, t1 = run.solve_once(ocflow, workloads, case)
        self.assertIsNone(err)
        self.assertLess(t0, t1)
        ok, detail = run.judge(workloads, case, out, err, tally)
        self.assertFalse(ok, detail)
        self.assertIn("p err", detail)
        self.assertEqual((tally.attempted, tally.failed, tally.failed_frac), (2, 1, 0.5))

    def test_solver_error_counts_as_failed(self):
        # gradient flow without K_theta raises ConfigurationError in the solver
        tally = stats.Tally()
        case = replace(workloads.build_e1_gradflow(0),
                       mode=ocflow.EvolutionMode.gradient_flow())
        out, err, _, _ = run.solve_once(ocflow, workloads, case)
        self.assertIsNone(out)
        self.assertIn("ConfigurationError", err)
        ok, detail = run.judge(workloads, case, out, err, tally)
        self.assertFalse(ok)
        self.assertEqual((tally.failed, tally.failed_frac), (1, 1.0))

    def test_seed_zero_is_the_acceptance_input(self):
        self.assertEqual(workloads.build_e1_form1(0).init.p.tolist(), [0.0] * 4)
        case = workloads.build_brach_pwc20(0)
        self.assertEqual((case.init.p.tolist(), case.init.t_f), ([0.0] * 20, 1.0))
        a, b = workloads.build_brach_pwc20(3), workloads.build_brach_pwc20(3)
        self.assertEqual(a.init.p.tolist(), b.init.p.tolist())
        self.assertNotEqual(a.init.t_f, 1.0)
        self.assertLessEqual(np.abs(a.init.p).max(), workloads.PERTURBATION)


if __name__ == "__main__":
    unittest.main()
