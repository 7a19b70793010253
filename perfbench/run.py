"""Run one spinsep benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {reduce,construct} --seed N \
        --seconds S --trace {0,1}

The workload runs in this single process, in whole rounds of the same
operations: as many rounds as bring the operation time nearest to
``--seconds`` seconds.
Every operation's output is checked against references computed with numpy
(see ``refs.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``perfbench/out/trace_<workload>_<seed>.json``.

The package is imported from ``src/`` of the checkout that holds this file;
without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# cap BLAS threads at the cores this process may use, before numpy loads
_CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _given = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_given), _CORES) if _given.isdigit() and int(_given) > 0 else _CORES)

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("reduce", "construct")
# fresh interpreters timed per run; setup_s is their median
SETUP_SAMPLES = 9
READY = "ready"


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def prepare(workload: str, seed: int):
    """Import spinsep from the checkout and build the workload's operations;
    everything before the first timed operation."""
    if not (SRC / "spinsep" / "__init__.py").is_file():
        _fail(f"no spinsep sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import spinsep

    if Path(spinsep.__file__).resolve().parent != SRC / "spinsep":
        _fail(f"imported spinsep from {spinsep.__file__}, not from {SRC}")
    import workloads

    return workloads, workloads.WORKLOADS[workload](seed)


def measure_setup(args) -> float:
    """Median wall time from spawning a fresh interpreter to its inputs being
    ready."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != READY or code != 0:
            _fail(f"set-up process exited with code {code}")
        samples.append(elapsed)
    return statistics.median(samples)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.durations: list[float] = []

    def wrong(self, op_name: str, message: str) -> None:
        if self.correct:
            print(f"perfbench: {op_name}: {message}", file=sys.stderr)
        self.correct = False


def run_rounds(ops, seconds: float, tally: Tally, check_error) -> tuple[int, float]:
    """The whole number of rounds, at least one, whose operation time comes
    nearest to ``seconds``; returns the number of rounds and the summed
    operation time."""
    rounds, busy = 0, 0.0
    # go on while one more round, at the mean round time so far, ends
    # nearer to ``seconds`` than stopping now
    while rounds == 0 or busy + 0.5 * busy / rounds < seconds:
        for op in ops:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                busy += time.perf_counter() - start
                tally.attempted += 1
                tally.failed += 1
                tally.wrong(op.name, traceback.format_exc())
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            tally.durations.append(elapsed)
            tally.attempted += 1
            try:
                op.check(result)
            except check_error as exc:
                tally.wrong(op.name, str(exc))
        rounds += 1
    return rounds, busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        prepare(args.workload, args.seed)
        print(READY, flush=True)
        return 0

    setup_s = measure_setup(args)
    workloads, ops = prepare(args.workload, args.seed)
    tally = Tally()
    rounds, busy = run_rounds(ops, args.seconds, tally, workloads.CheckFailed)
    if args.trace:
        metrics = traced_metrics(args, ops, tally, workloads.CheckFailed, busy / rounds)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (tally.attempted / busy, "1/s"),
            "op_p50_ms": (statistics.median(tally.durations) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    print(
        f"perfbench: {args.workload} seed {args.seed}: {rounds} untraced rounds of {len(ops)} "
        f"operations, {tally.attempted} operations attempted in all",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def traced_metrics(args, ops, tally, check_error, untraced_round_s: float) -> dict:
    """Run the same rounds again with every public function traced; returns
    the per-layer metrics and writes the spans."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rounds, busy = run_rounds(ops, args.seconds, tally, check_error)
    finally:
        tracer.uninstall()
    overhead_s = busy / rounds - untraced_round_s
    metrics = tracer.layer_metrics(rounds)
    metrics["trace.overhead_s"] = (overhead_s, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{args.workload}_{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": rounds,
                "untraced_round_s": untraced_round_s,
                "traced_round_s": busy / rounds,
                "overhead_s": overhead_s,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "spans_dropped": tracer.dropped,
                "spans": tracer.span_records(),
            }
        ),
        encoding="utf-8",
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
