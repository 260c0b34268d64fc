"""The shard worker process of :class:`~repro.dist.procrun.ProcessShardRuntime`.

One worker = one OS process owning the Gamma shards its
:class:`~repro.dist.placement.PlacementMap` assigns it.  The worker is
a thin loop around the existing single-node machinery:

* its Gamma shard is a :class:`~repro.core.kernel.StepKernel` database
  (same registry construction, same insert/select semantics);
* firing goes through :class:`~repro.dist.router.RoutedRuleContext`,
  the query router the simulated :class:`~repro.dist.engine.DistEngine`
  shares: a query this shard answers alone keeps the compiled-plan
  path, any other reaches its owners through
  :meth:`ShardWorker.remote_query`.

v2 replaces PR 5's coordinator relay with a **peer mesh**: every
worker holds a direct :mod:`~repro.dist.transport` channel to every
other worker, and two kinds of data-plane traffic travel on it —

* ``stage`` — the put-set shuffle.  While firing step N, a worker
  eagerly ships each fresh put to the put's owner shards, keyed by a
  deterministic ref ``(origin, step, batch idx, rule idx, put idx)``.
  The coordinator's later phase-A insert for that tuple is then just
  the ref (control-plane bytes), resolved from the local staging
  buffer — the shuffle of step N overlaps both the firing of step N
  and, because resolution is lazy, the firing of whatever later step
  finally pops the tuple;
* ``q`` / ``a`` — routed queries and their answers, worker to owner
  directly.  A worker blocked on an answer keeps serving incoming
  queries (and draining stage traffic), which keeps the all-to-all
  exchange deadlock-free exactly like PR 5's serve-while-blocked
  discipline — just without the two extra coordinator hops.

Queries are tagged with their superstep and **ready-gated**: a query
for step N that beats the receiver's own phase-A insert for N into the
mesh is deferred until that insert lands, restoring the barrier the
coordinator's FIFO relay used to provide implicitly.

The coordinator drives supersteps over the control channel:
``bootstrap`` (load the owned slice of the last committed snapshot),
``step`` (phase-A insert refs/values, fire assignments, staging drop
list), ``abort`` (another worker died mid-step: unwind and await the
retry), ``finish`` (report shard sizes + stats and exit).

Determinism: a worker never mutates anything but its own shard, all
effects (puts, output) travel back as records the coordinator merges in
global batch order, and the router merges multi-shard query results
in value order — so the merged run is byte-identical to the
single-node engine.

Idempotency: the reply to each executed step is cached; a retried step
(after another worker's crash) replays the cached records — and re-sends
its cached stage messages, so a re-forked receiver regains the staged
tuples — without re-executing, giving at-most-once rule execution per
worker per step, which is what keeps ``unsafe`` I/O rules safe under
crash recovery.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import traceback
from collections import deque
from typing import Any

from repro.core.errors import EngineError
from repro.core.kernel import StepKernel
from repro.core.program import ExecOptions, Program
from repro.core.query import Query, QueryKind
from repro.core.tuples import JTuple
from repro.dist.network import WireStats
from repro.dist.placement import PlacementMap
from repro.dist.router import RoutedRuleContext
from repro.dist.transport import (
    Channel,
    PeerListener,
    PipeChannel,
    SocketChannel,
    connect_channel,
    wait_readable,
)
from repro.exec.metering import NULL_METER

__all__ = ["ShardWorker", "program_fingerprint", "worker_entry"]


def program_fingerprint(program: Program) -> str:
    """Stable digest of a program's schemas + rule set, used in the
    coordinator/worker handshake: a forked worker must be running the
    very program the coordinator is stepping."""
    h = hashlib.sha1()
    for name in sorted(program.schemas()):
        schema = program.schemas()[name]
        h.update(name.encode())
        for f in schema.fields:
            h.update(f"{f.name}:{f.type}".encode())
    for rule in program.rules:
        h.update(rule.name.encode())
        h.update(rule.trigger.schema.name.encode())
    return h.hexdigest()


class _StepAborted(Exception):
    """Raised out of a firing when the coordinator aborts the step
    (another worker died); the step will be re-broadcast."""


class ShardWorker:
    """One worker process: a shard of Gamma, a mesh endpoint, and the
    firing loop."""

    def __init__(
        self,
        node: int,
        n_nodes: int,
        channel: Channel,
        program: Program,
        placements: PlacementMap,
        conf: dict,
    ):
        self.node = node
        self.n_nodes = n_nodes
        self.channel = channel
        self.program = program
        self.placements = placements
        self.check_mode: str = conf["check_mode"]
        self.traced: bool = conf["traced"]
        self.transport: str = conf.get("transport", "pipe")
        self.incarnation: int = conf.get("incarnation", 0)
        self._fault_serve_die = conf.get("fault_serve_die")
        # the worker's shard rides on the existing step kernel: same
        # registry construction, database, timestamp machinery and query
        # plans as a single-node sequential run
        self.kernel = StepKernel(
            program,
            ExecOptions(
                strategy="sequential",
                causality_check=self.check_mode,
                plan_cache=conf["plan_cache"],
                metering="off",
            ),
        )
        self.db = self.kernel.db
        self.stats = self.kernel.stats
        self.schemas = program.schemas()
        self.wire = WireStats()  # control channel (coordinator)
        self.peer_wire = WireStats()  # mesh (other workers)
        self.queries_served = 0
        self.remote_queries = 0
        self._qid = 0
        self._attempt = 0
        self._step_no = 0
        self._applied = 0  # latest step whose phase A landed in Gamma
        # -- mesh state -------------------------------------------------------
        self.listener = PeerListener(self.transport, tag=f"w{node}")
        self.peers: dict[int, SocketChannel] = {}
        self._peer_of: dict[SocketChannel, int] = {}
        #: queries read off the mesh but not yet served
        self._inbox: deque = deque()
        #: queries for a step whose phase A has not landed yet
        self._deferred: deque = deque()
        #: qid -> [(responder node, rows)] for the in-flight query
        self._answers: dict[str, list] = {}
        # -- shuffle state ----------------------------------------------------
        #: ref -> (table, values): put-sets staged here by their origin
        self._staging: dict[tuple, tuple[str, Any]] = {}
        #: step -> refs resolved by that step's phase A; purged once a
        #: *later* step arrives (the coordinator broadcasting step N+1
        #: is the commit acknowledgement for step N)
        self._consumed: dict[int, list[tuple]] = {}
        #: (step number, cached reply, staged sends) of the last executed
        #: step — the at-most-once replay buffer for crash-recovery retries
        self._cache: tuple[int, dict, list] | None = None

    # -- control framing (real byte counts, not simulated ones) ---------------

    def _send(self, msg: dict) -> None:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        self.channel.send_bytes(data)
        self.wire.on_send(len(data))

    def _recv(self) -> dict:
        data = self.channel.recv_bytes()
        self.wire.on_recv(len(data))
        return pickle.loads(data)

    def make_tuple(self, table: str, values) -> JTuple:
        """Rebuild a wire tuple against this process's schema objects
        (tuple identity/hashing is schema-identity based)."""
        return JTuple(self.schemas[table], tuple(values))

    # -- mesh plumbing ---------------------------------------------------------

    def _register_peer(self, node: int, ch: SocketChannel) -> None:
        old = self.peers.get(node)
        if old is not None and old is not ch:
            self._peer_of.pop(old, None)
            old.close()
        self.peers[node] = ch
        self._peer_of[ch] = node

    def _drop_peer(self, ch: SocketChannel) -> None:
        node = self._peer_of.pop(ch, None)
        if node is not None and self.peers.get(node) is ch:
            del self.peers[node]
        ch.close()

    def _accept_peer(self) -> None:
        ch = self.listener.accept(timeout=30.0)
        if ch is None:
            return
        data = ch.recv_bytes()
        self.peer_wire.on_recv(len(data))
        hello = pickle.loads(data)
        if hello.get("t") != "peer-hello":
            ch.close()
            return
        self._register_peer(hello["node"], ch)

    def _connect_mesh(self, connect: dict, await_nodes: list) -> None:
        """Dial the given peers, then accept until every awaited peer
        has dialled us.  A dial that fails is skipped: the peer is dead
        and the coordinator will orchestrate its replacement (which
        dials *us*)."""
        hello = pickle.dumps(
            {"t": "peer-hello", "node": self.node, "incarnation": self.incarnation},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for j in sorted(connect):
            try:
                ch = connect_channel(connect[j])
                ch.send_bytes(hello)
            except (OSError, EOFError):
                continue
            self.peer_wire.on_send(len(hello))
            self._register_peer(j, ch)
        while any(j not in self.peers for j in await_nodes):
            self._accept_peer()

    def _peer_send(self, node: int, msg: dict) -> bool:
        ch = self.peers.get(node)
        if ch is None:
            return False
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            ch.send_with_drain(data, lambda: self._pump_peers(0.01))
        except (OSError, EOFError):
            # dead peer: drop the channel and let the coordinator's
            # recovery protocol sort the membership out
            self._drop_peer(ch)
            return False
        self.peer_wire.on_send(len(data))
        return True

    def _pump_peers(self, timeout: float = 0.0) -> bool:
        """Read one round of ready mesh traffic.  Stage tuples and
        answers are absorbed immediately; queries go to the inbox (they
        are only *served* from safe points, never mid-send).  Returns
        True when anything was handled."""
        chans: list = [self.listener]
        chans.extend(self.peers.values())
        ready = wait_readable(chans, timeout)
        for ch in ready:
            if ch is self.listener:
                self._accept_peer()
                continue
            try:
                data = ch.recv_bytes()
            except (EOFError, ConnectionResetError, OSError):
                self._drop_peer(ch)
                continue
            self.peer_wire.on_recv(len(data))
            msg = pickle.loads(data)
            t = msg["t"]
            if t == "stage":
                self._staging[tuple(msg["ref"])] = (msg["table"], msg["vals"])
            elif t == "a":
                self._answers.setdefault(msg["qid"], []).append(
                    (msg["node"], msg["rows"])
                )
            elif t == "q":
                self._inbox.append((ch, msg))
        return bool(ready)

    def _service_inbox(self) -> None:
        """Serve every inbox query whose step is ready; queries that
        outran our own phase-A insert stay deferred (ready-gating)."""
        while self._inbox:
            ch, msg = self._inbox.popleft()
            if msg["step"] > self._applied:
                self._deferred.append((ch, msg))
            else:
                self._serve_peer(ch, msg)

    def _flush_deferred(self) -> None:
        while self._deferred:
            ch, msg = self._deferred.popleft()
            if msg["step"] > self._applied:
                self._deferred.appendleft((ch, msg))
                return
            self._serve_peer(ch, msg)

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        self._send(
            {
                "t": "hello",
                "node": self.node,
                "pid": os.getpid(),
                "incarnation": self.incarnation,
                "fingerprint": program_fingerprint(self.program),
                "peer_addr": self.listener.address,
            }
        )
        while True:
            msg = self._next_control()
            t = msg["t"]
            if t == "step":
                self._step(msg)
            elif t == "peers":
                self._connect_mesh(msg["connect"], msg["await"])
                self._send({"t": "mesh", "node": self.node})
            elif t == "bootstrap":
                self.db.load_tables(msg["tables"])
            elif t == "abort":
                pass  # nothing in flight at the main loop
            elif t == "finish":
                self._finish()
                return
            else:
                raise EngineError(f"worker {self.node}: unknown message {t!r}")

    def _next_control(self) -> dict:
        """Block for the next coordinator message, servicing the mesh
        (stage traffic, queries, a replacement peer dialling in) while
        idle."""
        while True:
            self._service_inbox()
            chans: list = [self.channel, self.listener]
            chans.extend(self.peers.values())
            ready = wait_readable(chans, timeout=None)
            # mesh first: a re-forked peer must be re-registered before
            # the retry step that will make us stage to it
            control_ready = False
            for ch in ready:
                if ch is self.channel:
                    control_ready = True
                elif ch is self.listener:
                    self._accept_peer()
                else:
                    self._pump_one(ch)
            if control_ready:
                return self._recv()

    def _pump_one(self, ch: SocketChannel) -> None:
        try:
            data = ch.recv_bytes()
        except (EOFError, ConnectionResetError, OSError):
            self._drop_peer(ch)
            return
        self.peer_wire.on_recv(len(data))
        msg = pickle.loads(data)
        t = msg["t"]
        if t == "stage":
            self._staging[tuple(msg["ref"])] = (msg["table"], msg["vals"])
        elif t == "a":
            self._answers.setdefault(msg["qid"], []).append((msg["node"], msg["rows"]))
        elif t == "q":
            self._inbox.append((ch, msg))

    # -- superstep -----------------------------------------------------------

    def _counters(self) -> dict:
        return {
            "wire": self.wire.to_state(),
            "peer_wire": self.peer_wire.to_state(),
            "queries_served": self.queries_served,
            "remote_queries": self.remote_queries,
        }

    def _step(self, msg: dict) -> None:
        step = msg["step"]
        self._attempt = msg["attempt"]
        self._step_no = step
        self._answers.clear()
        for ref in msg.get("drop", ()):
            self._staging.pop(tuple(ref), None)
        if self._cache is not None and self._cache[0] == step:
            # crash-recovery retry of a step this worker already ran:
            # replay the cached records, do not re-execute (rules with
            # unsafe I/O must run at most once per worker per step).
            # Re-send the cached stage messages first: a re-forked
            # receiver lost its staging buffer and the coordinator will
            # reference by value only for tuples it knows are gone —
            # idempotent for everyone who kept theirs.
            for target, smsg in self._cache[2]:
                self._peer_send(target, smsg)
            payload = dict(self._cache[1])
            payload["attempt"] = self._attempt
            payload["counters"] = self._counters()
            self._send(payload)
            return
        # a step beyond anything consumed so far acknowledges every
        # earlier step's commit: purge the staging refs they resolved
        for s in [s for s in self._consumed if s < step]:
            for ref in self._consumed.pop(s):
                self._staging.pop(ref, None)
        owned, used_refs = self._resolve_inserts(msg["insert"])
        if owned:
            # phase A: land this shard's slice of the minimal class;
            # duplicate outcomes are fine (retried steps re-insert)
            self.db.insert_batch(owned, frozenset())
        self._consumed.setdefault(step, []).extend(used_refs)
        self._applied = max(self._applied, step)
        self._flush_deferred()
        records: list[tuple[int, list[dict]]] = []
        stage_log: list[tuple[int, dict]] = []
        try:
            for idx, pos in msg["fire"]:
                tup = owned[pos]
                entries = self._fire(tup)
                # eagerly shuffle the fresh puts to their owner shards:
                # step N's put-sets travel while step N is still firing,
                # and resolve lazily whenever a later step consumes them
                self._stage_puts(step, idx, entries, stage_log)
                records.append((idx, entries))
        except _StepAborted:
            return  # partial work discarded; the retry re-executes
        payload = {
            "t": "done",
            "step": step,
            "attempt": self._attempt,
            "records": records,
        }
        self._cache = (step, payload, stage_log)
        payload = dict(payload)
        payload["counters"] = self._counters()
        self._send(payload)

    def _resolve_inserts(self, entries: list) -> tuple[list[JTuple], list[tuple]]:
        """Materialise a phase-A insert list.  ``("v", table, values)``
        entries carry the tuple; ``("r", ref)`` entries resolve from the
        staging buffer, blocking on the mesh if the origin's stage
        frame is still in flight (it was sent before the done record
        that made the coordinator reference it, so it *will* arrive)."""
        owned: list[JTuple] = []
        used: list[tuple] = []
        for e in entries:
            if e[0] == "v":
                owned.append(self.make_tuple(e[1], e[2]))
                continue
            ref = tuple(e[1])
            ent = self._staging.get(ref)
            while ent is None:
                self._pump_peers(1.0)
                ent = self._staging.get(ref)
            owned.append(self.make_tuple(ent[0], ent[1]))
            used.append(ref)
        return owned, used

    def _stage_puts(
        self, step: int, idx: int, entries: list[dict], stage_log: list
    ) -> None:
        for eidx, entry in enumerate(entries):
            for j, (tname, vals) in enumerate(entry["puts"]):
                ref = (self.node, step, idx, eidx, j)
                owners = self.placements.owners_of(
                    self.make_tuple(tname, vals), self.n_nodes
                )
                smsg = None
                for o in owners:
                    if o == self.node:
                        self._staging[ref] = (tname, vals)
                        continue
                    if smsg is None:
                        smsg = {"t": "stage", "ref": ref, "table": tname, "vals": vals}
                    stage_log.append((o, smsg))
                    self._peer_send(o, smsg)

    def _fire(self, tup: JTuple) -> list[dict]:
        """Fire every rule the tuple triggers, one record per rule in
        declaration order — the coordinator merges them in global
        (batch index, rule) order, which is the single-node task
        order."""
        entries: list[dict] = []
        ts = self.db.timestamp(tup)
        for rule in self.program.rules_for(tup.schema.name):
            events: list | None = [] if self.traced else None
            ctx = RoutedRuleContext(
                self.placements,
                self.node,
                self.n_nodes,
                self.remote_query,
                self.db,
                self.program.decls,
                NULL_METER,
                rule,
                tup,
                ts,
                self.check_mode,
                self.stats,
                None,
                None,
                events,
                self.kernel._plans,
            )
            rule.body(ctx, tup)
            ctx.finish()
            entries.append(
                {
                    "rule": rule.name,
                    "puts": [(p.schema.name, tuple(p.values)) for p in ctx.puts],
                    "output": list(ctx.output),
                    "events": events or [],
                }
            )
        return entries

    # -- remote queries ------------------------------------------------------

    def remote_query(self, query: Query, homes: list[int]) -> dict[int, list[JTuple]]:
        """Gather a query's rows from the owning shard(s), directly over
        the mesh, as ``{home: rows}``.  Only the shippable parts travel
        (table, eq, ranges) — residual ``where`` lambdas are applied
        requester-side.  While
        blocked on an answer, the worker keeps serving incoming peer
        queries and draining stage traffic, which is what keeps the
        direct all-to-all exchange deadlock-free.  A dead responder is
        waited out: its death also severs its coordinator channel, so an
        abort for this attempt is already on its way."""
        self._qid += 1
        qid = f"{self.node}:{self.incarnation}:{self._qid}"
        self.remote_queries += 1
        msg = {
            "t": "q",
            "qid": qid,
            "node": self.node,
            "step": self._step_no,
            "attempt": self._attempt,
            "table": query.schema.name,
            "eq": dict(query.eq),
            "ranges": {i: tuple(r) for i, r in query.ranges.items()},
        }
        awaiting = set(homes)
        for h in homes:
            self._peer_send(h, msg)
        table = query.schema.name
        rows: dict[int, list[JTuple]] = {}
        while awaiting:
            for node, part in self._answers.pop(qid, ()):
                if node in awaiting:
                    awaiting.discard(node)
                    fetched = (self.make_tuple(table, vals) for vals in part)
                    rows[node] = [t for t in fetched if query.matches(t)]
            if not awaiting:
                break
            self._service_inbox()
            chans: list = [self.channel, self.listener]
            chans.extend(self.peers.values())
            ready = wait_readable(chans, timeout=1.0)
            for ch in ready:
                if ch is self.channel:
                    cmsg = self._recv()
                    if cmsg["t"] == "abort":
                        raise _StepAborted()
                    raise EngineError(
                        f"worker {self.node}: unexpected {cmsg['t']!r} while "
                        f"awaiting query {qid}"
                    )
                if ch is self.listener:
                    self._accept_peer()
                else:
                    self._pump_one(ch)
        return rows

    def _serve_peer(self, ch: SocketChannel, msg: dict) -> None:
        if (
            self._fault_serve_die is not None
            and self.incarnation == 0
            and self.node == self._fault_serve_die[0]
            and msg["step"] >= self._fault_serve_die[1]
        ):
            # injected failure (tests): die with the query in flight,
            # between the peer's request and our reply
            os._exit(1)
        schema = self.schemas[msg["table"]]
        q = Query(schema, dict(msg["eq"]), dict(msg["ranges"]), None, QueryKind.POSITIVE)
        rows = [tuple(t.values) for t in self.db.select(q)]
        self.queries_served += 1
        node = self._peer_of.get(ch)
        if node is None:
            return
        self._peer_send(
            node, {"t": "a", "qid": msg["qid"], "node": self.node, "rows": rows}
        )

    # -- teardown ------------------------------------------------------------

    def _finish(self) -> None:
        # fold the compiled-plan query tallies into the collector, so the
        # coordinator's merged query shapes count planned queries too
        self.kernel.flush_stats()
        self._send(
            {
                "t": "bye",
                "node": self.node,
                "table_sizes": self.db.table_sizes(),
                "stats": self.stats.to_state(),
                "wire": self.wire.to_state(),
                "peer_wire": self.peer_wire.to_state(),
                "queries_served": self.queries_served,
                "remote_queries": self.remote_queries,
            }
        )
        for ch in list(self.peers.values()):
            ch.close()
        self.listener.close()
        self.channel.close()


def _maybe_hang_for_test(node: int) -> None:
    """Spawn-handshake fault injection: ``DIST_HANG_HELLO=node:dir:k``
    makes the first ``k`` incarnations of ``node`` hang before their
    hello frame (each hang drops a marker file in ``dir``), so tests
    can drive the coordinator's bounded hello wait and fork retry."""
    spec = os.environ.get("DIST_HANG_HELLO")
    if not spec:
        return
    target, marker_dir, count = spec.split(":")
    if node != int(target):
        return
    if len(os.listdir(marker_dir)) >= int(count):
        return
    with open(os.path.join(marker_dir, f"hang-{os.getpid()}"), "w"):
        pass
    time.sleep(3600)


def worker_entry(
    node: int,
    n_nodes: int,
    control,
    program: Program,
    placements: PlacementMap,
    conf: dict,
) -> None:
    """Process entry point (fork start method: everything is inherited,
    nothing is pickled).  ``control`` is ``("pipe", Connection)`` or
    ``("tcp", address)`` — under tcp the worker dials the coordinator's
    listener, so it could live on another host.  A failing rule is
    reported to the coordinator as an ``error`` message so deterministic
    failures surface once instead of looping through crash recovery."""
    channel: Channel | None = None
    try:
        _maybe_hang_for_test(node)
        kind, endpoint = control
        if kind == "pipe":
            channel = PipeChannel(endpoint)
        else:
            channel = connect_channel(endpoint)
        ShardWorker(node, n_nodes, channel, program, placements, conf).run()
    except (EOFError, BrokenPipeError, ConnectionResetError, KeyboardInterrupt):
        pass  # coordinator went away; just exit
    except BaseException as exc:  # noqa: BLE001 — must cross the wire
        try:
            if channel is not None:
                channel.send_bytes(
                    pickle.dumps(
                        {
                            "t": "error",
                            "node": node,
                            "error": repr(exc),
                            "traceback": traceback.format_exc(),
                        }
                    )
                )
        except OSError:
            pass
    finally:
        if channel is not None:
            channel.close()
