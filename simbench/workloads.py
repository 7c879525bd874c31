"""Workload definitions for the simulator benchmark.

A workload run is a *pass*: a fixed sequence of operations, each one
simulation driven through the public run API
(:func:`repro.harness.runner.run_spbc`,
:func:`repro.harness.runner.run_failure_schedule` and the
:mod:`repro.apps` registry).  An operation is a plain JSON-able dict, so
the parent process can hand it to a fresh child process unchanged.

The seed only shapes the inputs: the failure schedules of
``failure-recovery`` and the app order of ``paper-sweep``.  The ring
workloads have no random input; their seed is accepted and ignored.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from typing import Dict, List

#: Paper and NAS apps swept by ``paper-sweep`` (every registered app
#: that the paper's Tables 1/2 cover).
SWEEP_APPS = ("amg", "cm1", "gtc", "milc", "minife", "minighost",
              "bt", "lu", "mg", "sp")

#: The simperf ring kernel at cluster-machine scale.
RING_RANKS = 4096
RING_ITERS = 8

#: failure-recovery: minife with one cluster per node under a seeded
#: schedule of 4-6 failures, half of them (rounded down) node failures.
#: The failure count barely moves the work (the failure-free part
#: dominates), so seeds stay comparable.
RECOVERY_RANKS = 512
RECOVERY_FAILURES = (4, 5, 6)
#: Nominal failure-free makespan of the recovery op (simulated ns); the
#: schedule spreads failures over [10%, 90%] of it.
RECOVERY_SPAN_NS = 470_000_000

WORKLOADS = ("ring4096", "ring4096-shard2", "paper-sweep", "failure-recovery")


def _ring_op(shards=None) -> dict:
    return {
        "app": "ring",
        "params": {"iters": RING_ITERS, "msg_bytes": 4096, "compute_ns": 200_000},
        "nranks": RING_RANKS,
        "clusters": RING_RANKS // 8,
        "checkpoint_every": 8,
        "state_nbytes": 1 << 20,
        "storage": "tiered:ram@1,pfs@4",
        "ckpt_data": None,
        "schedule": [],
        "shards": shards,
    }


def _app_op(name: str, nranks: int, clusters: int, storage: str) -> dict:
    from repro.harness.experiments import BENCH_PARAMS

    return {
        "app": name,
        "params": dict(BENCH_PARAMS.get(name, {})),
        "nranks": nranks,
        "clusters": clusters,
        "checkpoint_every": 2,
        "state_nbytes": None,  # the app profile's total bytes
        "storage": storage,
        "ckpt_data": "incr:4:zlib-like",
        "schedule": [],
        "shards": None,
    }


def failure_schedule(rng: random.Random, nranks: int) -> List[list]:
    """One failure per slot of the nominal span: count, kinds, times
    within the slots and target ranks all drawn from ``rng``."""
    n = rng.choice(RECOVERY_FAILURES)
    kinds = ["node"] * (n // 2) + ["process"] * (n - n // 2)
    rng.shuffle(kinds)
    out = []
    for i, kind in enumerate(kinds):
        frac = 0.1 + 0.8 * (i + rng.random()) / n
        out.append([int(RECOVERY_SPAN_NS * frac), rng.randrange(nranks), kind])
    return out


def make_pass(workload: str, seed: int) -> List[dict]:
    """The operations of one pass of ``workload`` under ``seed``."""
    rng = random.Random(seed)
    if workload == "ring4096":
        ops = [_ring_op()]
    elif workload == "ring4096-shard2":
        ops = [_ring_op(shards=2)]
    elif workload == "paper-sweep":
        names = list(SWEEP_APPS)
        rng.shuffle(names)
        ops = [
            _app_op(name, 128, 16, "tiered:ram@1,pfs@4:async") for name in names
        ]
    elif workload == "failure-recovery":
        op = _app_op(
            "minife", RECOVERY_RANKS, RECOVERY_RANKS // 8,
            "partner:ram@1,partner@1,pfs@4:async",
        )
        op["schedule"] = failure_schedule(rng, RECOVERY_RANKS)
        ops = [op]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for op in ops:
        op["key"] = op_key(op)
    return ops


def op_key(op: dict) -> str:
    """Identity of an op's inputs.  Sharding is left out: a sharded run
    must reproduce the sequential run's observables bit for bit, so both
    share one reference."""
    spec = {k: v for k, v in op.items() if k not in ("key", "shards")}
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def op_label(op: dict) -> str:
    label = f"{op['app']}@{op['nranks']}"
    if op["schedule"]:
        label += f"+{len(op['schedule'])}f"
    if op["shards"]:
        label += f"/{op['shards']}sh"
    return label


def preload() -> None:
    """Import the simulator before anything is timed."""
    import repro.apps  # noqa: F401
    import repro.harness.parallel  # noqa: F401
    import repro.harness.runner  # noqa: F401
    import repro.journal.recorder  # noqa: F401


def execute(op: dict, trace: bool):
    """Run one op through the public run API and return its result."""
    from repro.apps import get_app
    from repro.apps.synthetic import ring_app
    from repro.core.clusters import ClusterMap
    from repro.core.protocol import SPBCConfig
    from repro.harness.runner import run_failure_schedule, run_spbc

    nranks = op["nranks"]
    cm = ClusterMap.block(nranks, op["clusters"])
    if op["app"] == "ring":
        factory = ring_app(**op["params"])
        profile = None
    else:
        spec = get_app(op["app"])
        factory = spec.factory(**op["params"])
        profile = spec.profile
    state_nbytes = op["state_nbytes"]
    if state_nbytes is None:
        state_nbytes = profile.total_bytes
    cfg = SPBCConfig(
        clusters=cm,
        checkpoint_every=op["checkpoint_every"],
        state_nbytes=state_nbytes,
    )
    kw = dict(
        config=cfg,
        storage=op["storage"],
        ckpt_data=op["ckpt_data"],
        profile=profile if op["ckpt_data"] else None,
        trace=trace,
        shards=op["shards"],
    )
    if op["schedule"]:
        schedule = [tuple(f) for f in op["schedule"]]
        return run_failure_schedule(factory, nranks, cm, schedule, **kw)
    return run_spbc(factory, nranks, cm, **kw)


def bookkeeping(res):
    """(hooks, failure events, restarts per rank) of a finished op,
    sequential or sharded."""
    hooks = getattr(res, "hooks", None) or res.world.hooks
    manager = getattr(res, "manager", None)
    if manager is not None:
        return hooks, manager.failures, dict(manager.restarts)
    return hooks, getattr(res, "failures", []), dict(getattr(res, "restarts", {}))


def digest(res) -> Dict[str, object]:
    """Canonical observables of a finished op and their hash.

    Covers makespan, per-rank results and finish times, per-rank log
    counters, the commit history and the failure bookkeeping — the same
    fields for sequential and sharded results."""
    from repro.journal.recorder import commit_history_of, log_counters_of

    hooks, failures, restarts = bookkeeping(res)
    if hasattr(res, "commit_history"):  # sharded result
        finish, commits = res.finish_ns, res.commit_history
    else:
        finish = {r: p.finish_time for r, p in res.world.processes.items()}
        commits = commit_history_of(hooks)
    obs = {
        "makespan_ns": res.makespan_ns,
        "finish_ns": sorted(finish.items()),
        "results": sorted((r, repr(v)) for r, v in res.results.items()),
        "log": sorted((r, list(v)) for r, v in log_counters_of(hooks).items()),
        "commits": sorted((r, [list(c) for c in h]) for r, h in commits.items()),
        "failures": [sorted(asdict(f).items()) for f in failures],
        "restarts": sorted(restarts.items()),
    }
    blob = json.dumps(obs, sort_keys=True, default=list).encode()
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "makespan_ns": res.makespan_ns,
    }
