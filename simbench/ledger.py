"""Per-layer ledger for the traced benchmark run.

The ledger wraps public entry points and event callbacks of each
simulator layer *from the benchmark's side* (no file under ``src/``
changes) before any world is built, so every bound method the
simulation creates afterwards goes through a wrapper.  Each call records
a span — name, start, end, parent — into flat in-memory arrays; cyclic
GC pauses, seen through :data:`gc.callbacks`, are kept as separate spans
charged to the ``gc`` layer and subtracted from the span they interrupt.
A span's self time is its duration minus its children.  Spans are
written out with :meth:`Recorder.dump` when the traced run ends.

Only the traced run installs the ledger; the timed runs measure the
untouched program.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
import types
from array import array
from typing import Callable, Dict, List, Optional

#: Layers in report order (``harness`` is the op's own root span: time
#: inside an op that no layer span covers).
LAYERS = ("engine", "eventq", "network", "mpi", "spbc", "recovery",
          "storage", "ckptdata", "apps", "shard", "harness")

#: SPBC methods that make up checkpointing (``spbc.ckpt_self_s``).
CKPT_METHODS = {
    "maybe_checkpoint", "_coordinated_checkpoint", "_build_checkpoint",
    "_deferred_gc", "_send_gc_notices", "checkpoint_noop",
    "_expected_write_cost_ns", "_cadence",
}

LOG_GC_KIND = "spbc.log_gc"


class Recorder:
    """Span arrays plus the counters the wrappers maintain."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.sname = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        #: (start, end, parent span, generation) per collection.
        self.gc_spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.networks: list = []
        self.depth = 0
        self.peak_depth = 0
        self._gc_t0 = 0.0
        #: Wrapper cost per span charged to its parent's self time, by
        #: span kind (see :meth:`calibrate`).
        self.cost = {"plain": 0.0, "generator": 0.0}
        self._kind: List[str] = []

    def name_id(self, name: str, kind: str = "plain") -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._kind.append(kind)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def reset(self) -> None:
        """Forget everything recorded so far (in place: the wrappers hold
        the arrays).  A forked shard worker starts from here."""
        for arr in (self.sname, self.parent, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.gc_spans.clear()
        self.counters.clear()
        self.networks.clear()
        self.depth = self.peak_depth = 0

    # -- cyclic GC ------------------------------------------------------
    def _gc_callback(self, phase: str, info: dict) -> None:
        if not self.on:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_spans.append(
                (self._gc_t0, time.perf_counter(), self.stack[-1], info["generation"])
            )

    # -- wrappers -------------------------------------------------------
    def plain(self, fn: Callable, name: str, hook: Optional[Callable] = None,
              pre: Optional[Callable] = None) -> Callable:
        rec = self
        nid = self.name_id(name)
        sname, parent, start, end, stack = (
            self.sname, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            i = len(sname)
            sname.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: every resume of the generator body
        is one span (the time between resumes belongs to whoever runs)."""
        rec = self
        nid = self.name_id(name, "generator")
        sname, parent, start, end, stack = (
            self.sname, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value = None
            thrown = None
            while True:
                i = -1
                if rec.on:
                    i = len(sname)
                    sname.append(nid)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                try:
                    if thrown is None:
                        item = gen.send(value)
                    else:
                        exc, thrown = thrown, None
                        item = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if i >= 0:
                        end[i] = clock()
                        stack.pop()
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in: forward to gen
                    thrown = exc
                    value = None

        return wrapper

    def calibrate(self, calls: int = 50_000, trials: int = 3) -> None:
        """Measure what a wrapper adds to its caller.

        Most of a wrapper's work (the bookkeeping before the start clock
        and after the end clock) lands in the *parent* span's self time;
        :meth:`summarize` subtracts this cost once per child span so
        layer self times estimate the untraced program.  The median of
        ``trials`` runs of ``calls`` no-op calls is kept."""
        def noop():
            return None

        def gnoop(n):
            for _ in range(n):
                yield None

        clock = time.perf_counter
        was_on, self.on = self.on, True
        plain = self.plain(noop, "calibrate:plain")
        gen = self.generator(gnoop, "calibrate:generator")
        samples = {"plain": [], "generator": []}
        for _ in range(trials):
            for kind in ("plain", "generator"):
                base = len(self.sname)
                if kind == "plain":
                    t0 = clock()
                    for _ in range(calls):
                        noop()
                    t1 = clock()
                    for _ in range(calls):
                        plain()
                    t2 = clock()
                else:
                    t0 = clock()
                    for _ in gnoop(calls):
                        pass
                    t1 = clock()
                    for _ in gen(calls):
                        pass
                    t2 = clock()
                inside = sum(self.end[base:]) - sum(self.start[base:])
                added = (t2 - t1) - (t1 - t0)
                # Added cost outside the child's own [start, end].
                samples[kind].append(max(0.0, (added - (inside - (t1 - t0))) / calls))
                self.reset()
        self.on = was_on
        for kind, vals in samples.items():
            self.cost[kind] = sorted(vals)[len(vals) // 2]

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span (and the GC spans) to ``path`` as ``.npz``."""
        import numpy as np

        g = np.array(self.gc_spans, dtype=float).reshape(-1, 4)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.sname, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            gc=g,
        )

    def summarize(self) -> Dict[str, object]:
        """Self time and call count per span name, GC totals, counters."""
        import numpy as np

        n = len(self.sname)
        names = np.frombuffer(self.sname, dtype=np.uint16) if n else np.zeros(0, int)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, int)
        dur = (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
            if n else np.zeros(0)
        )
        dur = np.clip(dur, 0.0, None)
        child = np.zeros(n)
        inner = parent >= 0
        if inner.any():
            child += np.bincount(parent[inner], weights=dur[inner], minlength=n)
        gc_total = 0.0
        gen2 = 0
        if self.gc_spans:
            g = np.array(self.gc_spans, dtype=float)
            gdur = g[:, 1] - g[:, 0]
            gc_total = float(gdur.sum())
            gen2 = int((g[:, 3] == 2).sum())
            gpar = g[:, 2].astype(int)
            ok = gpar >= 0
            if ok.any():
                child += np.bincount(gpar[ok], weights=gdur[ok], minlength=n)
        k = len(self.names)
        cost = np.array([self.cost[kind] for kind in self._kind]) if k else np.zeros(0)
        wrapper_cost = 0.0
        if inner.any():
            child += np.bincount(parent[inner], weights=cost[names[inner]], minlength=n)
            wrapper_cost = float(cost[names[inner]].sum())
        selft = dur - child

        self_by = np.bincount(names, weights=selft, minlength=k) if n else np.zeros(k)
        count_by = np.bincount(names, minlength=k) if n else np.zeros(k, int)
        return {
            "self": {nm: float(self_by[i]) for i, nm in enumerate(self.names)},
            "calls": {nm: int(count_by[i]) for i, nm in enumerate(self.names)},
            "gc_pause_s": gc_total,
            "wrapper_s": wrapper_cost,
            "gc_count": len(self.gc_spans),
            "gc_gen2_count": gen2,
            "counters": dict(self.counters),
            "spans": n,
        }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _methods(cls, names=None):
    """(name, function) pairs to wrap, among the plain functions defined
    on ``cls`` itself.  ``names`` is an explicit list, ``"all"`` every
    non-dunder method (for layers whose calls are rare), and None the
    public methods — a layer's entry points."""
    out = []
    for attr, fn in vars(cls).items():
        if not isinstance(fn, types.FunctionType):
            continue
        if names == "all":
            keep = not attr.startswith("__")
        elif names is None:
            keep = not attr.startswith("_")
        else:
            keep = attr in names
        if keep:
            out.append((attr, fn))
    return out


def _wrap_class(rec: Recorder, layer: str, cls, names=None, hooks=None,
                extra=(), skip=()) -> None:
    """Wrap ``cls``'s methods picked by ``names`` (see :func:`_methods`)
    plus the private ``extra`` ones (event callbacks the engine calls),
    minus ``skip``."""
    hooks = hooks or {}
    picked = _methods(cls, names) + _methods(cls, list(extra))
    for attr, fn in picked:
        if attr in skip:
            continue
        span = f"{layer}:{cls.__name__}.{attr}"
        if inspect.isgeneratorfunction(fn):
            wrapped = rec.generator(fn, span)
        else:
            pre, post = hooks.get(attr, (None, None))
            wrapped = rec.plain(fn, span, hook=post, pre=pre)
        setattr(cls, attr, wrapped)


def _module_classes(mod):
    return [
        obj for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
        and not issubclass(obj, BaseException)
    ]


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points.  Call once, before any world is
    built, in a process that runs nothing but the traced pass."""
    from repro.ckptdata import plane
    from repro.core import logstore, protocol, recovery
    from repro.harness import parallel
    from repro.mpi import collectives, matching, runtime
    from repro.sim import engine, eventq, network, process, resources, shard
    from repro.storage import backend, iosched

    count = rec.count

    # engine: the dispatch loop; its result is the events executed.
    _wrap_class(rec, "engine", engine.Engine, ["run"],
                {"run": (None, lambda a, r: count("engine.events", r))})

    # eventq: push/pop of every backend, with a depth tracker.
    def on_push(args, result):
        rec.depth += 1
        if rec.depth > rec.peak_depth:
            rec.peak_depth = rec.depth
        count("eventq.push_calls")

    def on_pop(args, item):
        count("eventq.pop_calls")
        if item is not None:
            rec.depth -= 1
            handle = item[2]
            if handle is not None and handle.cancelled:
                count("eventq.cancelled")

    for cls in set(eventq.BACKENDS.values()):
        _wrap_class(rec, "eventq", cls, ["push", "pop", "pop_until", "next_live_time"], {
            "push": (None, on_push),
            "pop": (None, on_pop),
            "pop_until": (None, on_pop),
        })

    # network: construction (the dense channel table) and the data path.
    _wrap_class(rec, "network", network.Network,
                ["__init__", "send", "_deliver", "purge_involving"],
                {"__init__": (None, lambda a, r: rec.networks.append(a[0]))})
    _wrap_class(rec, "network", shard.ShardNetwork, ["send", "purge_involving", "inject"])

    # mpi: runtime, matching, collectives.  RankContext only forwards to
    # the runtime; its calls are left to the app that makes them.
    def on_iprobe(args, result):
        count("mpi.iprobe_calls")
        if result[0]:
            count("mpi.iprobe_hits")

    def on_control(args, result):
        if args[2] == LOG_GC_KIND:
            count("spbc.gc_notices")

    _wrap_class(rec, "mpi", runtime.MPIRuntime, None, {
        "iprobe": (None, on_iprobe),
        "control_send": (None, on_control),
    }, extra=("_on_packet", "_transmit_evt", "_complete_send_evt",
              "_loopback_arrival", "_local_control"))
    _wrap_class(rec, "mpi", matching.MatchingEngine,
                ["post", "arrive", "probe", "cancel"], {
        "post": (lambda a: count("mpi.match_scans", len(a[0].unexpected)), None),
        "probe": (lambda a: count("mpi.match_scans", len(a[0].unexpected)), None),
        "arrive": (lambda a: count("mpi.match_scans", len(a[0].posted)), None),
    })
    for attr, fn in list(vars(collectives).items()):
        if inspect.isgeneratorfunction(fn) and not attr.startswith("_"):
            setattr(collectives, attr, rec.generator(fn, f"mpi:coll.{attr}"))

    # spbc: protocol hooks and the sender-side log.
    def on_replay(args, result):
        count("recovery.replayed_msgs", len(result))

    # The identifier getters are trivial and called on every probe;
    # their cost stays with the MPI call that asks.
    _wrap_class(rec, "spbc", protocol.SPBC,
                extra=("_on_send_with_cost_fused", "_build_checkpoint"),
                skip=("message_ident", "request_ident"))
    _wrap_class(rec, "spbc", logstore.LogStore,
                ["append", "collect", "replay_after", "truncate", "snapshot",
                 "restore", "inherit_floors"],
                {"replay_after": (None, on_replay)})

    # recovery: the manager and its restart-read pipelines.
    for cls in (recovery.RecoveryManager, recovery._FlowRestore,
                shard.ShardRecoveryManager):
        _wrap_class(rec, "recovery", cls, "all")

    # storage: backends, I/O scheduler, shared-bandwidth resources.
    def on_save(args, result):
        count("storage.bytes_written", args[1].stored_bytes)

    def on_read(args, result):
        count("storage.bytes_read", args[2] if len(args) > 2 else 0)

    def on_cancel(args, result):
        if result:
            count("storage.flow_cancels")

    for cls in _module_classes(backend):
        if issubclass(cls, backend.StorageBackend):
            _wrap_class(rec, "storage", cls, "all", {"save": (None, on_save)})
    for cls in _module_classes(iosched):
        _wrap_class(rec, "storage", cls, "all", {"read": (None, on_read)})
    for cls in _module_classes(resources):
        hooks = {"cancel": (None, on_cancel)} if cls is resources.BandwidthResource else {}
        _wrap_class(rec, "storage", cls, "all", hooks)

    # ckptdata: the incremental data plane.
    def on_payload(args, result):
        if getattr(result, "kind", None) == plane.DELTA:
            count("ckptdata.deltas")

    _wrap_class(rec, "ckptdata", plane.CkptDataPlane, "all",
                {"build_payload": (None, on_payload)})

    # apps: resumes of the application generators.
    _wrap_class(rec, "apps", process.SimProcess, ["_advance"])

    # shard: coordinator loop and its blocking receives.
    parallel._coordinate = rec.plain(
        parallel._coordinate, "shard:coordinate",
        hook=lambda a, r: count("shard.windows", r[1]),
    )
    parallel._recv = rec.plain(parallel._recv, "shard:coord_recv")
    # A worker builds its world like a sequential op does: harness time.
    shard.build_shard_world = rec.plain(shard.build_shard_world, "harness:shard_world")

    gc.callbacks.append(rec._gc_callback)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_event"):
        return "us"
    if "bytes" in metric:
        return "B"
    if metric.endswith(("ratio", "share", "fill")):
        return "ratio"
    return "count"


def _sum(d: Dict[str, float], pred) -> float:
    return sum(v for k, v in d.items() if pred(k))


def layer_metrics(summaries: List[dict], wall_s: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Fold the summaries of every traced process into the per-layer
    metrics.  ``extra`` carries what the ops' results report (logged
    bytes, sent bytes, committed rounds, failures, restarts, channel
    table occupancy, shard worker time split)."""
    selft: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    gc_pause = 0.0
    gen2 = 0
    wrapper = 0.0
    for s in summaries:
        wrapper += s["wrapper_s"]
        for k, v in s["self"].items():
            selft[k] = selft.get(k, 0.0) + v
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v
        gc_pause += s["gc_pause_s"]
        gen2 += s["gc_gen2_count"]
    layer_self = {
        layer: _sum(selft, lambda k, p=f"{layer}:": k.startswith(p))
        for layer in LAYERS
    }
    # Pipe receives are waiting, not work: kept out of the shard layer
    # and reported as the coordinator's wait and the workers' blocked time.
    coord_wait = selft.get("shard:coord_recv", 0.0)
    layer_self["shard"] -= coord_wait + selft.get("shard:worker_recv", 0.0)

    def c(key):
        return counters.get(key, 0)

    def n(span):
        return calls.get(span, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    events = c("engine.events")
    flows = n("storage:BandwidthResource.start_flow") + n("storage:BandwidthResource.mirror_flow")
    payloads = n("ckptdata:CkptDataPlane.build_payload")
    m = {
        "gc.pause_s": gc_pause,
        "gc.gen2_count": gen2,
        "gc.share": ratio(gc_pause, wall_s),
        "engine.events": events,
        "engine.self_s": layer_self["engine"],
        "engine.us_per_event": ratio(layer_self["engine"], events) * 1e6,
        "eventq.push_calls": c("eventq.push_calls"),
        "eventq.pop_calls": c("eventq.pop_calls"),
        "eventq.self_s": layer_self["eventq"],
        "eventq.peak_depth": extra.get("eventq.peak_depth", 0),
        "eventq.cancelled_ratio": ratio(c("eventq.cancelled"), c("eventq.pop_calls")),
        "network.sends": n("network:Network.send"),
        "network.self_s": layer_self["network"],
        "network.setup_s": selft.get("network:Network.__init__", 0.0),
        "network.chan_slots": extra.get("network.chan_slots", 0),
        "network.chan_fill": ratio(extra.get("network.chan_used", 0),
                                   extra.get("network.chan_slots", 0)),
        "mpi.isend_calls": n("mpi:MPIRuntime.isend"),
        "mpi.irecv_calls": n("mpi:MPIRuntime.irecv"),
        "mpi.self_s": layer_self["mpi"],
        "mpi.match_scans": c("mpi.match_scans"),
        "mpi.iprobe_calls": c("mpi.iprobe_calls"),
        "mpi.iprobe_hit_ratio": ratio(c("mpi.iprobe_hits"), c("mpi.iprobe_calls")),
        "mpi.collective_self_s": _sum(selft, lambda k: k.startswith("mpi:coll.")),
        "spbc.self_s": layer_self["spbc"],
        "spbc.logged_msgs": extra.get("spbc.logged_msgs", 0),
        "spbc.logged_bytes": extra.get("spbc.logged_bytes", 0),
        "spbc.log_ratio": ratio(extra.get("spbc.logged_bytes", 0),
                                extra.get("network.bytes_sent", 0)),
        "spbc.ckpt_rounds": n("spbc:SPBC._build_checkpoint"),
        "spbc.ckpt_self_s": _sum(
            selft, lambda k: k.startswith("spbc:SPBC.")
            and k.split(".", 1)[1] in CKPT_METHODS),
        "spbc.gc_notices": c("spbc.gc_notices"),
        "recovery.self_s": layer_self["recovery"],
        "recovery.failures": extra.get("recovery.failures", 0),
        "recovery.restarts": extra.get("recovery.restarts", 0),
        "recovery.replayed_msgs": c("recovery.replayed_msgs"),
        "storage.self_s": layer_self["storage"],
        "storage.saves": _sum(calls, lambda k: k.startswith("storage:") and k.endswith(".save")),
        "storage.retrieves": _sum(calls, lambda k: k.startswith("storage:") and k.endswith(".retrieve")),
        "storage.bytes_written": c("storage.bytes_written"),
        "storage.bytes_read": c("storage.bytes_read"),
        "storage.flows": flows,
        "storage.flow_cancel_ratio": ratio(c("storage.flow_cancels"), flows),
        "ckptdata.self_s": layer_self["ckptdata"],
        "ckptdata.payloads": payloads,
        "ckptdata.delta_ratio": ratio(c("ckptdata.deltas"), payloads),
        "apps.self_s": layer_self["apps"],
        "shard.windows": c("shard.windows"),
        "shard.pipe_bytes": extra.get("shard.pipe_bytes", 0),
        "shard.worker_busy_s": extra.get("shard.worker_busy_s", 0.0),
        "shard.worker_blocked_s": extra.get("shard.worker_blocked_s", 0.0),
        "shard.blocked_ratio": ratio(
            extra.get("shard.worker_blocked_s", 0.0),
            extra.get("shard.worker_busy_s", 0.0) + extra.get("shard.worker_blocked_s", 0.0)),
        "shard.coord_self_s": selft.get("shard:coordinate", 0.0),
        "shard.coord_wait_s": coord_wait,
        "trace.wrapper_s": wrapper,
    }
    return m, layer_self, gc_pause
