"""Simulator benchmark: one workload, timed end to end, outputs checked.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each pass (one sequence of simulations,
see ``workloads.py``) runs in a fresh child process (``child.py``).
With ``--trace 0`` passes repeat until ``--seconds`` would be exceeded
and the end-to-end metrics are medians over the passes.  With
``--trace 1`` one untraced pass and one traced pass run, and the
per-layer ledger is reported (``ledger.py``).

Every op's outputs are compared with its reference digest: pinned in
``reference.json`` for seed-independent ops, otherwise produced by the
``trace=True`` reference path in a child process before any timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 simbench/run.py --pin

recomputes ``reference.json`` for every seed-independent op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference.json")
#: Scratch space inside the checkout (listed in .gitignore).
WORK_DIR = os.path.join(ROOT, ".simbench")
#: A run must end well inside three minutes: passes are killed past this.
RUN_DEADLINE_S = 165.0
#: Host-time cap per op (a backstop behind the simulated-time budget).
OP_HOST_CAP_S = 60.0

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _child(mode: str, ops, refs, tmpdir: str, timeout_s: float):
    """Run one child pass; returns (per-op lines, pass line or None)."""
    req = {"mode": mode, "ops": ops, "refs": refs, "tmpdir": tmpdir,
           "host_cap_s": OP_HOST_CAP_S}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(req), timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    lines = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    pass_line = next((ln for ln in lines if ln.get("pass")), None)
    return [ln for ln in lines if not ln.get("pass")], pass_line


def load_pinned() -> dict:
    if not os.path.exists(REFERENCE_FILE):
        return {}
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def references(ops, tmpdir: str, deadline: float) -> dict:
    """Reference digest per op key: pinned ones, the rest computed on
    the reference path (outside every timed region)."""
    refs = load_pinned()
    missing = [op for op in ops if op["key"] not in refs]
    if missing:
        lines, _ = _child("reference", missing, {}, tmpdir, deadline - time.monotonic())
        for ln in lines:
            refs[ln["key"]] = {k: ln[k] for k in ("sha256", "makespan_ns", "end_ns", "host_s")}
    return {op["key"]: refs[op["key"]] for op in ops if op["key"] in refs}


def run_pass(mode: str, ops, refs, tmpdir: str, deadline: float) -> dict:
    """One pass in a fresh process.  Ops the child never reported (it
    was killed at the run deadline) count as failed."""
    os.makedirs(tmpdir, exist_ok=True)
    for name in os.listdir(tmpdir):
        if name.startswith("worker-"):
            os.remove(os.path.join(tmpdir, name))
    t0 = time.monotonic()
    lines, pass_line = _child(mode, ops, refs, tmpdir, deadline - time.monotonic())
    elapsed = time.monotonic() - t0
    reported = {ln["key"] for ln in lines}
    for op in ops:
        if op["key"] not in reported:
            lines.append({"key": op["key"], "status": "killed", "wall_s": 0.0,
                          "setup_s": 0.0})
    if pass_line is None:
        pass_line = {"wall_s": elapsed, "peak_rss_kb": 0, "cpu_s": 0.0}
    return {"ops": lines, **pass_line}


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def end_to_end(passes) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    ok = sum(op["status"] == "ok" for op in ops)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(sum(op["setup_s"] for op in p["ops"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
        "ok_frac": ok / len(ops),
    }


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def print_ops(passes) -> None:
    for i, p in enumerate(passes):
        row = "  ".join(
            f"{op.get('label', op['key'])}={op['status']}:{op['wall_s']:.2f}s"
            for op in p["ops"]
        )
        print(f"  pass {i}: {p['wall_s']:.3f} s  rss {p['peak_rss_kb'] / 1024:.1f} MB  {row}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="recompute reference.json and exit")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"simbench: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    import workloads

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    tmpdir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        if args.pin:
            return pin(workloads, tmpdir)
        if args.workload not in workloads.WORKLOADS:
            print(f"simbench: --workload must be one of {workloads.WORKLOADS}",
                  file=sys.stderr)
            return 2
        ops = workloads.make_pass(args.workload, args.seed)
        refs = references(ops, tmpdir, deadline)
        if args.trace:
            result = traced_run(args, ops, refs, tmpdir, deadline)
        else:
            result = timed_run(args, ops, refs, tmpdir, deadline)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _verdict(passes, refs, ops) -> dict:
    all_ops = [op for p in passes for op in p["ops"]]
    return {
        "correct": len(refs) == len({op["key"] for op in ops})
        and not any(op["status"] in ("mismatch", "unchecked") for op in all_ops),
        "attempted": len(all_ops),
        "failed": sum(op["status"] != "ok" for op in all_ops),
    }


def timed_run(args, ops, refs, tmpdir, deadline) -> dict:
    t_measure = time.monotonic()
    passes = []
    while True:
        passes.append(run_pass("timed", ops, refs, tmpdir, deadline))
        spent = time.monotonic() - t_measure
        per_pass = spent / len(passes)
        if spent + per_pass > args.seconds or time.monotonic() + per_pass > deadline:
            break
    e2e = end_to_end(passes)
    failed = [op for p in passes for op in p["ops"] if op["status"] != "ok"]
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(ops)} ops")
    print_ops(passes)
    for name, value in e2e.items():
        print(f"  {name:12s} {_fmt(value):>10s} {UNITS[name]}")
    print(f"  {'failed_frac':12s} {_fmt(len(failed) / (len(passes) * len(ops))):>10s} ratio")
    return dict(_verdict(passes, refs, ops), metrics={
        name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()
    })


def traced_run(args, ops, refs, tmpdir, deadline) -> dict:
    import ledger

    plain = run_pass("timed", ops, refs, tmpdir, deadline)
    traced = run_pass("traced", ops, refs, tmpdir, deadline)
    passes = [plain, traced]
    wall = traced["wall_s"]
    metrics = {}
    if "summaries" in traced:
        m, layer_self, gc_pause = ledger.layer_metrics(
            traced["summaries"], wall, traced["extra"])
        metrics.update(m)
        spans = os.path.join(WORK_DIR, f"spans-{args.workload}")
        shutil.rmtree(spans, ignore_errors=True)
        os.makedirs(spans)
        for name in os.listdir(tmpdir):
            if name.startswith("spans-"):
                shutil.move(os.path.join(tmpdir, name), spans)
        print(f"{args.workload} seed={args.seed}: traced wall {wall:.3f} s, "
              f"untraced {plain['wall_s']:.3f} s, spans in {spans}/")
        op_sums = [s for s in traced["summaries"] if s["role"] == "op"]
        op_gc = sum(s["gc_pause_s"] for s in op_sums)
        op_wrappers = sum(s["wrapper_s"] for s in op_sums)
        layers = sum(
            v for s in op_sums for k, v in s["self"].items() if not k.startswith("harness:")
        )
        accounted = layers + op_gc + op_wrappers
        residual = wall - accounted
        for layer in ledger.LAYERS:
            print(f"  {layer:9s} self {layer_self[layer]:9.3f} s")
        print(f"  {'gc':9s} pause {gc_pause:8.3f} s")
        if traced.get("worker_walls"):
            print(f"  (layer times summed over {len(traced['worker_walls'])} shard "
                  f"workers, walls {', '.join(f'{w:.2f}' for w in traced['worker_walls'])} s;"
                  f" the accounting below is the coordinator's)")
        print(f"  layers {layers:.3f} s + gc {op_gc:.3f} s + span wrappers {op_wrappers:.3f} s"
              f" = {accounted:.3f} s of traced wall {wall:.3f} s; residual {residual:.3f} s;"
              f" measured tracing overhead {wall - plain['wall_s']:.3f} s")
        metrics["trace.residual_s"] = residual
    else:
        print(f"{args.workload}: traced pass produced no ledger", file=sys.stderr)
    metrics["host.cpu_s"] = traced["cpu_s"]
    metrics["trace.overhead_s"] = wall - plain["wall_s"]
    print_ops(passes)
    return dict(_verdict(passes, refs, ops), metrics={
        k: {"value": v, "unit": ledger.unit_of(k)} for k, v in metrics.items()
    })


def pin(workloads, tmpdir: str) -> int:
    """Recompute the pinned references of every seed-independent op."""
    pinned = {}
    for name in ("ring4096", "paper-sweep"):
        ops = workloads.make_pass(name, 0)
        lines, _ = _child("reference", ops, {}, tmpdir, 3600)
        for op, ln in zip(ops, lines):
            pinned[ln["key"]] = {"label": workloads.op_label(op),
                                 "sha256": ln["sha256"],
                                 "makespan_ns": ln["makespan_ns"],
                                 "end_ns": ln["end_ns"],
                                 "host_s": round(ln["host_s"], 3)}
            print(f"{workloads.op_label(op)}: {ln['sha256'][:16]} "
                  f"makespan {ln['makespan_ns']} ns ({ln['host_s']:.2f} s)")
    with open(REFERENCE_FILE, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
