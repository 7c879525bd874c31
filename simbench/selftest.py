"""Self-test of the benchmark's termination budget.

    python3 simbench/selftest.py

Checks that an operation which never terminates is stopped and counted
as failed, never hangs the run and never passes as a success:

1. an app that computes forever is stopped at its simulated-time budget;
2. an app that spins at one simulated instant is stopped at the host
   cap;
3. a pass whose child process outlives the run deadline is killed and
   its unreported ops count as failed.

Exits 0 when all three hold.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _forever(ctx, state=None):
    while True:
        yield from ctx.compute(1_000)


def _frozen(ctx, state=None):
    while True:
        yield from ctx.compute(0)


def _run_app(app, host_cap_s: float):
    """One op of ``app`` through the benchmark's timed op loop."""
    from repro.core.clusters import ClusterMap
    from repro.harness.runner import run_spbc

    op = {"key": app.__name__, "app": app.__name__, "nranks": 4, "shards": None,
          "schedule": []}
    refs = {op["key"]: {"sha256": "-", "end_ns": 1_000_000}}
    execute = workloads.execute
    workloads.execute = lambda op, trace: run_spbc(
        app, 4, ClusterMap.block(4, 2), trace=trace)
    out = io.StringIO()
    tmpdir = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        with redirect_stdout(out):
            child.run_timed([op], refs, tmpdir, host_cap_s, traced=False)
    finally:
        workloads.execute = execute
        shutil.rmtree(tmpdir, ignore_errors=True)
    lines = [json.loads(ln) for ln in out.getvalue().splitlines()]
    return lines[0]


def main() -> int:
    failures = []

    line = _run_app(_forever, host_cap_s=30.0)
    print(f"forever: {line['status']} after {line['wall_s']:.2f} s")
    if line["status"] != "sim-budget" or line["wall_s"] > 10.0:
        failures.append("an op running past its simulated budget was not stopped")

    line = _run_app(_frozen, host_cap_s=2.0)
    print(f"frozen clock: {line['status']} after {line['wall_s']:.2f} s")
    if line["status"] != "host-budget" or line["wall_s"] > 10.0:
        failures.append("an op stuck at one simulated instant was not stopped")

    ops = workloads.make_pass("ring4096", 0)
    refs = {op["key"]: {"sha256": "-", "end_ns": 10**12} for op in ops}
    tmpdir = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
    t0 = time.monotonic()
    try:
        p = run.run_pass("timed", ops, refs, tmpdir, deadline=time.monotonic() + 2.0)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    took = time.monotonic() - t0
    statuses = [op["status"] for op in p["ops"]]
    print(f"deadline kill: {statuses} after {took:.2f} s")
    if statuses != ["killed"] or took > 10.0:
        failures.append("a pass outliving the run deadline was not killed")
    verdict = run._verdict([p], refs, ops)
    if verdict["failed"] != 1:
        failures.append("a killed op was not counted as failed")

    for msg in failures:
        print(f"FAIL: {msg}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
