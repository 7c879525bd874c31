"""One benchmark pass in a fresh process.

Reads a JSON request on stdin — ``{"mode", "ops", "refs", "tmpdir"}``
— and writes one JSON line per op, then one ``{"pass": ...}`` line.

Modes:

* ``reference`` — every op on the ``trace=True`` reference path; each
  line carries the op's output digest and makespan.
* ``timed`` — every op with tracing off, under its budget, timed;
  outputs are checked against ``refs``.
* ``traced`` — like ``timed`` with the per-layer ledger installed.

The budget: an op is stopped once its simulated clock passes
:data:`SIM_BUDGET` times the time of its reference's last event, or
once it has run
``host_cap_s`` host seconds, whichever comes first.  A stopped op
counts as failed and is timed up to its stop point.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

#: Simulated-time budget as a multiple of the reference makespan.
SIM_BUDGET = 1.02
#: How often the budget is checked (host seconds).
TICK_S = 0.02


class BudgetStop(BaseException):
    """Raised in a shard coordinator whose op ran past its budget (a
    BaseException so no simulator handler swallows it)."""


class Budget:
    """Watches the running op: marks its first event (the end of
    set-up) and stops it once it runs past its budget.

    Sequential ops are stopped through ``Engine.stop()`` from a timer
    signal, which the event loop honours after the current event.  A
    shard coordinator has no engine; it tracks the workers' clocks from
    their reports and raises :class:`BudgetStop` instead."""

    def __init__(self) -> None:
        self.engine = None
        self.first_event_t = None
        self.reports = 0
        self.nshards = 0
        self.sim_now = 0
        self.sim_limit = None
        self.host_deadline = None
        self.stopped = None

    def arm(self, op: dict, sim_limit, host_cap_s: float) -> None:
        self.engine = None
        self.first_event_t = None
        self.reports = 0
        self.nshards = op["shards"] or 0
        self.sim_now = 0
        self.sim_limit = sim_limit
        self.stopped = None
        self.host_deadline = time.perf_counter() + host_cap_s
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.engine = None

    def install(self) -> None:
        from repro.harness import parallel
        from repro.sim.engine import Engine

        budget = self
        run = Engine.run

        def engine_run(engine, *args, **kwargs):
            if budget.first_event_t is None:
                budget.first_event_t = time.perf_counter()
            budget.engine = engine
            return run(engine, *args, **kwargs)

        Engine.run = engine_run
        recv = parallel._recv

        def coord_recv(conn, sid):
            msg = recv(conn, sid)
            budget.reports += 1
            if budget.reports == budget.nshards:
                budget.first_event_t = time.perf_counter()
            now = msg.get("now_ns") if isinstance(msg, dict) else None
            if now is not None and now > budget.sim_now:
                budget.sim_now = now
            return msg

        parallel._recv = coord_recv
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        engine = self.engine
        now = engine.now if engine is not None else self.sim_now
        if self.sim_limit is not None and now > self.sim_limit:
            reason = "sim-budget"
        elif time.perf_counter() > self.host_deadline:
            reason = "host-budget"
        else:
            return
        if engine is not None:
            # Repeated every tick: run() clears the flag when it starts.
            self.stopped = reason
            engine.stop()
        elif self.nshards and self.stopped is None:
            self.stopped = reason
            raise BudgetStop(reason)


def _peak_rss_kb(tmpdir: str) -> int:
    """This process's peak RSS plus that of every shard worker it ran."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for name in os.listdir(tmpdir):
        if name.startswith("worker-"):
            with open(os.path.join(tmpdir, name)) as f:
                total += json.load(f)["maxrss_kb"]
    return total


def _install_worker_hook(tmpdir: str, rec=None) -> None:
    """Make every shard worker report its peak RSS (and, when traced,
    its ledger and pipe traffic) into ``tmpdir`` before it exits."""
    from repro.harness import parallel

    main = parallel.shard_worker_main

    def worker_main(conn, plan):
        if rec is not None:
            rec.reset()
            conn = MeteredConn(conn, rec)
            run = rec.plain(main, "shard:worker")
        else:
            run = main
        t0 = time.perf_counter()
        try:
            run(conn, plan)
        finally:
            out = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if rec is not None:
                rec.on = False
                out["wall_s"] = time.perf_counter() - t0
                out["summary"] = rec.summarize()
                out["extra"] = _world_extra(rec)
                out["pipe_bytes"] = conn.nbytes
                rec.dump(os.path.join(tmpdir, f"spans-worker{os.getpid()}.npz"))
            path = os.path.join(tmpdir, f"worker-{os.getpid()}.json")
            with open(path, "w") as f:
                json.dump(out, f)

    parallel.shard_worker_main = worker_main


class MeteredConn:
    """A worker's end of the coordinator pipe that counts the bytes it
    carries and records its blocking receives as spans."""

    def __init__(self, conn, rec) -> None:
        from multiprocessing.reduction import ForkingPickler

        self._conn = conn
        self._dumps = ForkingPickler.dumps
        self._loads = ForkingPickler.loads
        self.nbytes = 0
        self.recv = rec.plain(self._recv, "shard:worker_recv")

    def send(self, obj) -> None:
        buf = self._dumps(obj)
        self.nbytes += len(buf)
        self._conn.send_bytes(buf)

    def _recv(self):
        buf = self._conn.recv_bytes()
        self.nbytes += len(buf)
        return self._loads(buf)


def _world_extra(rec) -> dict:
    """Channel-table occupancy of the networks built while recording."""
    slots = used = 0
    for net in rec.networks:
        table = net._chan_state
        slots += len(table)
        used += len(table) - table.count(None)
    return {
        "network.chan_slots": slots,
        "network.chan_used": used,
        "eventq.peak_depth": rec.peak_depth,
    }


def _result_extra(res) -> dict:
    """Protocol-level totals of a finished op (sequential or sharded)."""
    from repro.journal.recorder import log_counters_of

    hooks, failures, restarts = workloads.bookkeeping(res)
    log = log_counters_of(hooks).values()
    world = getattr(res, "world", None)
    sent = world.network.bytes_sent if world is not None else res.bytes_sent
    return {
        "spbc.logged_bytes": sum(b for b, _n in log),
        "spbc.logged_msgs": sum(n for _b, n in log),
        "network.bytes_sent": sent,
        "recovery.failures": len(failures),
        "recovery.restarts": sum(restarts.values()),
    }


def _merge(into: dict, more: dict) -> None:
    """Add ``more`` into ``into``; the queue depth is a maximum."""
    for k, v in more.items():
        if k == "eventq.peak_depth":
            into[k] = max(into.get(k, 0), v)
        else:
            into[k] = into.get(k, 0) + v


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_reference(ops) -> None:
    """The reference path: sequential, trace on.  ``end_ns`` is the
    simulated time of the last event, which background flushes can push
    past the makespan; the budget is set from it."""
    for op in ops:
        t0 = time.perf_counter()
        res = workloads.execute(dict(op, shards=None), trace=True)
        host = time.perf_counter() - t0
        _emit({"key": op["key"], "host_s": host, "end_ns": res.world.engine.now,
               **workloads.digest(res)})
        del res
        gc.collect()


def run_timed(ops, refs, tmpdir, host_cap_s, traced) -> None:
    rec = None
    if traced:
        import ledger

        rec = ledger.Recorder()
        rec.calibrate()
        ledger.install(rec)
    budget = Budget()
    budget.install()
    _install_worker_hook(tmpdir, rec)
    extras: dict = {}
    summaries: list = []
    t_pass = 0.0
    cpu0 = os.times()
    execute = workloads.execute
    if rec is not None:
        execute = rec.plain(execute, "harness:op")
    for op in ops:
        ref = refs.get(op["key"])
        limit = int(ref["end_ns"] * SIM_BUDGET) if ref else None
        gc.collect()
        res = error = None
        budget.arm(op, limit, host_cap_s)
        if rec is not None:
            rec.depth = 0
            rec.on = True
        t0 = time.perf_counter()
        try:
            res = execute(op, trace=False)
        except BudgetStop:
            pass
        except Exception as exc:  # the op failed: record why, keep going
            error = f"{type(exc).__name__}: {exc}"[:300]
        t1 = time.perf_counter()
        if rec is not None:
            rec.on = False
        budget.disarm()
        t_pass += t1 - t0
        setup = (budget.first_event_t or t1) - t0
        if budget.stopped:
            status = budget.stopped
        elif error is not None:
            status = "raised"
        else:
            got = workloads.digest(res)
            if ref is None:
                status = "unchecked"
            elif got["sha256"] != ref["sha256"]:
                status = "mismatch"
            else:
                status = "ok"
        line = {"key": op["key"], "label": workloads.op_label(op), "status": status,
                "wall_s": t1 - t0, "setup_s": setup}
        if error is not None:
            line["error"] = error
        _emit(line)
        if rec is not None:
            # Summarize and dump per op, so memory holds one op's spans.
            _merge(extras, _world_extra(rec))
            if res is not None:
                _merge(extras, _result_extra(res))
            summaries.append(dict(rec.summarize(), role="op"))
            rec.dump(os.path.join(tmpdir, f"spans-op{len(summaries):02d}-{op['app']}.npz"))
            rec.reset()
        del res
    cpu1 = os.times()
    out = {"pass": True, "wall_s": t_pass, "peak_rss_kb": _peak_rss_kb(tmpdir),
           "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
           + (cpu1.children_user - cpu0.children_user)
           + (cpu1.children_system - cpu0.children_system)}
    if rec is not None:
        workers = []
        for name in sorted(os.listdir(tmpdir)):
            if name.startswith("worker-"):
                with open(os.path.join(tmpdir, name)) as f:
                    workers.append(json.load(f))
        for w in workers:
            summaries.append(dict(w["summary"], role="worker"))
            blocked = w["summary"]["self"].get("shard:worker_recv", 0.0)
            _merge(extras, dict(w["extra"], **{
                "shard.worker_blocked_s": blocked,
                "shard.worker_busy_s": w["wall_s"] - blocked,
                "shard.pipe_bytes": w["pipe_bytes"],
            }))
        out["summaries"] = summaries
        out["extra"] = extras
        out["worker_walls"] = [w["wall_s"] for w in workers]
    _emit(out)


def main() -> int:
    req = json.load(sys.stdin)
    workloads.preload()
    if req["mode"] == "reference":
        run_reference(req["ops"])
    else:
        run_timed(req["ops"], req["refs"], req["tmpdir"], req["host_cap_s"],
                  traced=req["mode"] == "traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
