"""Run workloads repeatedly, one seed per run, and report each metric's
median and quartiles against the bounds in BENCHMARK.json.

    python3 perfbench/repeat.py --workload reduce --runs 10 --first-seed 1
    python3 perfbench/repeat.py --runs 10            # every workload

Runs are sequential.  For each end-to-end metric the spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median; the bound is the share by which a change may worsen
the metric before it counts as a regression.  The last line of standard
output is one JSON object with the raw values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values, "bound": bounds.get(name), **summarize(values)}
        report[workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed_shares": shares,
            "metrics": metrics,
        }
        print(f"\n{workload}: all correct={report[workload]['all_correct']}, "
              f"failed shares {shares}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            bound = "-" if m["bound"] is None else f"{m['bound']:.2f}"
            print(f"  {name:24s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} {spread:>8s} {bound:>6s}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
