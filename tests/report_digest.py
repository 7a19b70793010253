"""Print the SHA-256 of every output a refactor is meant to leave byte-identical.

    python3 tests/report_digest.py > digest.txt

The outputs are the 18 reports (the 8 claims reports, the overlap-sweep
report and its CSV, and the 8 per-kind reports of ``test_scenario_kinds.py``)
and the outputs of the 46 ``reduce`` and ``construct`` benchmark operations
at seed 1.  Operations are keyed by workload and index in the round, because
their names repeat.  Run it at two commits on the same machine and compare
the two listings with ``diff``.  It is not a test: the bytes depend on the
machine's floating-point libraries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from spinsep.runner import execute_scenario, report_json, run_scenario_file, run_suite  # noqa: E402
from spinsep.scenario import parse_scenario  # noqa: E402
from test_scenario_kinds import CASES  # noqa: E402

SCENARIOS = ROOT / "src" / "spinsep" / "scenarios"
SEED = 1


def _feed(digest, obj) -> None:
    """Hash an operation's output: arrays by their bytes, containers item by item,
    and scalars by their repr, which round-trips every float."""
    if isinstance(obj, np.ndarray):
        digest.update(f"array {obj.dtype.str} {obj.shape}:".encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        _feed(digest, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, dict):
        digest.update(b"{")
        for key in sorted(obj):
            _feed(digest, key)
            _feed(digest, obj[key])
        digest.update(b"}")
    elif isinstance(obj, (list, tuple)):
        digest.update(b"[")
        for item in obj:
            _feed(digest, item)
        digest.update(b"]")
    else:
        digest.update(f"{type(obj).__name__} {obj!r};".encode())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    quiet = lambda *args, **kwargs: None  # noqa: E731
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_suite(SCENARIOS / "claims", out_dir=out / "claims", echo=quiet)
        run_scenario_file(SCENARIOS / "overlap_sweep.json", out_dir=out / "sweep", echo=quiet)
        for path in sorted(out.rglob("*")):
            if path.is_file():
                print(f"{path.relative_to(out)} {_sha(path.read_bytes())}")
    for kind in sorted(CASES):
        report = execute_scenario(parse_scenario(CASES[kind]()[0])).report
        print(f"kinds/{kind}.report.json {_sha(report_json(report).encode())}")
    for workload in ("reduce", "construct"):
        for index, op in enumerate(workloads.WORKLOADS[workload](SEED)):
            digest = hashlib.sha256()
            _feed(digest, op.call())
            print(f"{workload}[{index:02d}] {op.name} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
