"""Run the benchmark once per seed and summarize each metric across the runs.

Usage (from the root of a checkout)::

    python3 bench/repeat.py --workload brach_pwc20 --seeds 1-10 --seconds 10
    python3 bench/repeat.py --workload e1_form1 --seeds 1-5 --out runs.json

Runs are sequential, one process at a time.  For every metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and the
spread, the interquartile range as a share of the median.  ``--out`` writes
every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,4,9' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        row = {"unit": first["unit"], "median": statistics.median(values),
               "min": min(values), "max": max(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3,
                       spread=spread(values) if row["median"] else None)
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: benchmark exited with status {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = summarize(results)
    print(f"\n{args.workload}, {len(results)} runs of {args.seconds:g} s")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, row in summary.items():
        spr = row.get("spread")
        print(f"{name:34s} {row['median']:12.6g} {row.get('q1', row['median']):12.6g} "
              f"{row.get('q3', row['median']):12.6g} "
              f"{'-' if spr is None else format(spr, '8.4f'):>8s}  {row['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload,
                                        "seconds": args.seconds,
                                        "runs": results, "summary": summary},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
