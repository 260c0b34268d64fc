"""Span tracing from outside the program.

The benchmark wraps the public entry points of each layer (class
methods and module-level functions, patched where the calling module
looks them up) before it builds anything, so the program runs its own
code unchanged underneath.  Every wrapped call is a span: a name, a
start and an end, the span that was open on the same thread when it
began (its parent) and the id of the traced run.  A span's self time is
its duration minus the time of its child spans.

Spans are kept in memory, in per-thread buffers (the service runs
engine work on executor threads), and summed when the traced
repetition ends.  A
forked child (a mesh worker) inherits the wrappers but records nothing:
the tracer switches itself off in the child.
"""

from __future__ import annotations

import functools
import gc
import os
import threading
import time
from array import array

perf = time.perf_counter


class _Buffer:
    """One thread's spans and counters."""

    def __init__(self) -> None:
        self.stack: list[int] = []  # indexes of the open spans
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}


class Tracer:
    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.enabled = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        #: (start, end) of every garbage collection
        self.gc_pauses: list[tuple[float, float]] = []
        self._gc_t0 = 0.0
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, key: str, n: float = 1) -> None:
        c = self.buffer().counters
        c[key] = c.get(key, 0) + n

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, after=None, name_of=None):
        """``fn`` recording a span per call.  ``after(result, args,
        kwargs)`` runs inside the span to update counters; ``name_of(args,
        kwargs)`` picks the span name per call."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            buf = tracer.buffer()
            stack = buf.stack
            sid = len(buf.start)
            buf.name.append(nid if name_of is None else tracer.name_id(name_of(args, kwargs)))
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(sid)
            buf.start.append(perf())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                buf.end[sid] = perf()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, **kw)))
        else:
            setattr(owner, attr, self.wrap(name, raw, **kw))

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf()
        else:
            self.gc_pauses.append((self._gc_t0, perf()))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- summaries -------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """name -> {calls, self_s, total_s} over every finished span."""
        out: dict[str, dict] = {}
        for buf in self._buffers:
            n = len(buf.start)
            child = [0.0] * n
            for i in range(n - 1, -1, -1):
                p = buf.parent[i]
                if p >= 0:
                    child[p] += buf.end[i] - buf.start[i]
            for i in range(n):
                dur = buf.end[i] - buf.start[i]
                ent = out.setdefault(self.names[buf.name[i]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                ent["calls"] += 1
                ent["self_s"] += dur - child[i]
                ent["total_s"] += dur
        return out

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for buf in self._buffers:
            for k, v in buf.counters.items():
                out[k] = out.get(k, 0) + v
        return out

    def span_count(self) -> int:
        return sum(len(b.start) for b in self._buffers)

    def covered(self, t0: float, t1: float) -> float:
        """Wall time in [t0, t1] covered by at least one root span, on
        any thread."""
        roots = sorted(
            (max(b.start[i], t0), min(b.end[i], t1))
            for b in self._buffers
            for i in range(len(b.start))
            if b.parent[i] < 0 and b.end[i] > t0 and b.start[i] < t1
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in roots:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points.  Call before anything is built:
    kernels cache some bound methods at construction."""
    from repro.apps import pvwatts
    from repro.core import session
    from repro.core.database import Database, InsertOutcome
    from repro.core.delta import Delete, DeltaTree
    from repro.core.executors import codegen as codegen_tier
    from repro.core.executors.codegen import CodegenExecutor
    from repro.core.executors.columnar import ColumnarExecutor
    from repro.core.executors.scalar import ScalarExecutor
    from repro.dist import procrun, transport
    from repro.gamma import base as gamma_base
    from repro.plan import codegen
    from repro.plan.cache import PlanCache
    from repro.serve import protocol, tenant

    t = tracer

    # core.delta
    def on_insert_batch(result, args, kwargs):
        t.count("delta.offered", len(result))
        t.count("delta.accepted", sum(1 for ok in result if ok))

    t.patch(DeltaTree, "insert_batch", "delta.insert_batch", after=on_insert_batch)
    t.patch(DeltaTree, "pop_min_class", "delta.pop_min_class")

    # core.database
    new = InsertOutcome.NEW

    def on_insert(result, args, kwargs):
        t.count("database.insert_attempts")
        if result is new:
            t.count("database.insert_new")

    t.patch(Database, "timestamp", "database.timestamp")
    t.patch(Database, "insert_batch", "database.insert_batch")
    t.patch(Database, "_insert_into", "database.insert", after=on_insert)
    t.patch(Database, "select", "database.select")

    # planned queries (plan cache, codegen sites) run the closure a
    # store's prepare() returns; wrap each closure once
    def on_prepare(prepared, args, kwargs):
        if not hasattr(prepared.run, "__wrapped__"):
            prepared.run = t.wrap("database.select", prepared.run)

    stores = [gamma_base.TableStore] + _subclasses(gamma_base.TableStore)
    for cls in stores:
        if "prepare" in cls.__dict__:
            t.patch(cls, "prepare", "plan.query_plan", after=on_prepare)

    # core.executors: one span name per tier
    for cls in (ScalarExecutor, ColumnarExecutor, CodegenExecutor):
        for meth in ("fire_class", "fire_one", "handle_puts"):
            if meth in cls.__dict__:
                t.patch(cls, meth, f"executors.{cls.name}.{meth}")

    # plan: codegen compile + driver binding, query-plan compile
    t.patch(codegen, "compile_rule", "plan.compile_rule")
    t.patch(codegen_tier, "bind_driver", "plan.bind_driver")
    t.patch(PlanCache, "_warm", "plan.query_plan")
    t.patch(PlanCache, "_compile", "plan.query_plan")

    # csvio, at the PvWatts reader's call site
    t.patch(pvwatts, "read_region", "csvio.read_region",
            after=lambda n, a, k: t.count("csvio.records", n))

    # core.session; a feed carrying Delete events is a retract feed
    t.name_id("session.retract_feed")  # registered now, not from two threads

    def feed_name(args, kwargs):
        events = args[1] if len(args) > 1 else kwargs.get("tuples")
        if isinstance(events, list) and any(isinstance(e, Delete) for e in events):
            return "session.retract_feed"
        return "session.feed"

    es = session.EngineSession
    t.patch(es, "feed", "session.feed", name_of=feed_name)
    t.patch(es, "settle", "session.settle")
    t.patch(es, "snapshot", "session.snapshot")
    t.patch(es, "close", "session.close")

    # serve: frame codec (the service and the in-process client share
    # protocol.py, so both ends of the loopback are counted), event
    # decoding, tenant verbs, checkpoints
    protocol.json = _Codec(t)
    t.patch(tenant, "decode_events", "serve.decode_events")
    ts = tenant.TenantSession

    def on_checkpoint(result, args, kwargs):
        self = args[0]
        t.count("serve.checkpoints")
        t.count("serve.checkpoint_bytes",
                os.path.getsize(ts.snapshot_path(self.data_dir, self.tenant)))

    t.patch(ts, "create", "serve.tenant_open")
    t.patch(ts, "feed", "serve.tenant_feed")
    t.patch(ts, "settle", "serve.tenant_settle")
    t.patch(ts, "checkpoint", "serve.checkpoint", after=on_checkpoint)
    t.patch(ts, "close", "serve.tenant_close")

    # dist: the coordinator's waits on its workers (forked workers
    # inherit these wrappers but the tracer is off in them)
    t.patch(procrun, "wait_readable", "dist.coordinator_wait")
    for cls in (transport.PipeChannel, transport.SocketChannel):
        t.patch(cls, "recv_bytes", "dist.coordinator_wait")
    t.patch(procrun.ProcessShardRuntime, "_await_hello", "dist.coordinator_wait")

    t.watch_gc()


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


class _Codec:
    """Stands in for the ``json`` module inside ``repro.serve.protocol``:
    frame bodies are encoded with ``dumps`` and decoded with ``loads``."""

    def __init__(self, tracer: Tracer) -> None:
        import json as real

        self.loads = tracer.wrap("serve.decode", real.loads)
        self.dumps = tracer.wrap("serve.encode", real.dumps)

    def __getattr__(self, attr: str):
        import json as real

        return getattr(real, attr)
