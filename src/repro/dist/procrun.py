"""Real multiprocess shard execution — ``ExecOptions(strategy="processes")``.

Where :class:`~repro.dist.engine.DistEngine` *simulates* a cluster (N
shard views, one process, modelled network costs), this module runs the
real thing: N OS worker processes (:mod:`repro.dist.worker`), each
owning the Gamma shards its :class:`~repro.dist.placement.PlacementMap`
assigns it, driven in causal supersteps by a coordinator.

The v2 runtime splits the wire into two planes:

* a **control plane** — one coordinator↔worker channel per worker
  (:mod:`~repro.dist.transport`: a duplex pipe, or length-prefixed TCP
  so workers can live on other hosts) carrying step broadcasts, done
  records, membership, and recovery;
* a **data plane** — a direct worker↔worker peer mesh carrying the
  put-set shuffle and routed queries.  PR 5 relayed both through the
  coordinator's single drain loop; v2's coordinator never touches a
  query, and its downstream step frames reference staged put-sets by
  ref instead of re-sending values.

The superstep protocol still mirrors the single-node
:class:`~repro.core.kernel.StepKernel` phase for phase:

* the coordinator owns the global Delta tree and a full **control
  replica** of Gamma; each superstep pops the minimal equivalence
  class, exactly like ``drain()``;
* **phase A**: each worker inserts the slice of the class its placement
  assigns it — resolved from its staging buffer when the tuple was
  shuffled to it directly, from the frame itself otherwise;
* **phase B**: each non-duplicate tuple fires on exactly one node — its
  partition home, or the (adaptively reweighted, see
  :mod:`~repro.dist.rebalance`) stable-hash spread for replicated
  triggers — through the query router both runtimes share
  (:class:`~repro.dist.router.RoutedRuleContext`); remote queries go
  peer-to-peer and are ready-gated against the receiver's phase A;
* **phase C**: the coordinator merges every worker's done records in
  global (batch index, rule declaration) order — the single-node task
  order — and applies the put-set to Delta with the exact
  ``_enqueue_delta_batch`` semantics.  The fire node is always one of
  the put-owners' targets, so the shuffle of step N overlaps step N's
  firing, and its frames resolve lazily whenever a later step consumes
  them — the pipelining never reorders the merge.

Because the merge order is deterministic and Gamma is read-only while
a class fires, output, table sizes, and the semantic trace are
byte-identical to a sequential run (§1.3 across *machines*, not just
strategies).

Crash recovery: the control replica commits each superstep only after
every worker reported it.  When a worker dies mid-step
(:class:`~repro.core.errors.WorkerLostError` names the node and the
step/attempt epoch), the coordinator aborts the step on the survivors,
re-forks the lost node, re-meshes it (the replacement dials every
survivor), bootstraps it from the owned slice of the last committed
superstep, and re-broadcasts the step under a new attempt epoch;
workers replay completed steps from a reply cache — re-sending their
cached stage frames so the replacement regains its staged put-sets —
so rule execution stays at-most-once per completed step.  Every
membership change resets the ref economy: staged references are
forgotten and inserts fall back to values until fresh done records
re-establish them.  A worker's wire counters are snapshotted into every
done record, and the last snapshot of a crashed incarnation is folded
into its replacement's totals, so ``format_nodes`` survives recovery.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from multiprocessing import get_context

from repro.core.database import Database
from repro.core.delta import DeltaTree
from repro.core.errors import EngineError, WorkerLostError
from repro.core.kernel import RunResult
from repro.core.ordering import emit_step_output, output_keys
from repro.core.program import ExecOptions, Program
from repro.core.tuples import JTuple
from repro.dist.engine import surface_exec_knobs
from repro.dist.network import WireStats
from repro.dist.placement import OnNode, PlacementMap, Partitioned, spread_hash
from repro.dist.rebalance import Rebalancer
from repro.dist.transport import (
    PeerListener,
    PipeChannel,
    resolve_transport,
    wait_readable,
)
from repro.dist.worker import program_fingerprint, worker_entry
from repro.exec.metering import CostMeter
from repro.gamma.base import StoreRegistry
from repro.gamma.treeset import TreeSetStore
from repro.stats.collector import StatsCollector
from repro.trace.recorder import TraceRecorder, output_hash

__all__ = ["ProcessShardRuntime", "run_sharded"]

#: ExecOptions knobs the process runtime honours; everything else is
#: surfaced as a stats note / EngineWarning, same convention as the
#: simulated engine
_SUPPORTED_KNOBS = frozenset(
    {"strategy", "threads", "trace", "metering", "plan_cache", "admission"}
)

#: forks attempted per node before the spawn handshake gives up
_SPAWN_TRIES = 3


class _Worker:
    """Coordinator-side handle for one worker process."""

    __slots__ = ("node", "proc", "channel", "wire", "incarnation", "peer_addr")

    def __init__(self, node: int, proc, channel, incarnation: int):
        self.node = node
        self.proc = proc
        self.channel = channel
        self.wire = WireStats()
        self.incarnation = incarnation
        self.peer_addr = None


class ProcessShardRuntime:
    """Coordinator of one multiprocess sharded run."""

    def __init__(
        self,
        program: Program,
        options: ExecOptions | None = None,
        *,
        n_workers: int | None = None,
        placements: dict | PlacementMap | None = None,
        fault_kill: tuple[int, int] | None = None,
        fault_die_on_serve: tuple[int, int] | None = None,
        transport: str | None = None,
        rebalance_every: int = 16,
    ):
        program.freeze()
        self.program = program
        self.options = options if options is not None else ExecOptions()
        self.n_nodes = n_workers if n_workers is not None else self.options.threads
        if self.n_nodes < 1:
            raise EngineError("the process runtime needs at least one worker")
        if self.options.store_overrides:
            raise EngineError(
                "the process runtime cannot shard tables with store_overrides: "
                "native/array stores are whole-table structures accessed "
                "through ctx.native, which has no meaning across processes; "
                "run such programs single-node"
            )
        self.transport = resolve_transport(transport)
        self.placements = (
            placements
            if isinstance(placements, PlacementMap)
            else PlacementMap(program.schemas(), placements, n_nodes=self.n_nodes)
        )
        self.schemas = program.schemas()
        # control replica: the coordinator's authoritative copy of Gamma,
        # committed one superstep behind the workers so a lost node can
        # always be rebuilt from the last *completed* step
        registry = StoreRegistry(lambda schema: TreeSetStore(schema))
        self.db = Database(self.schemas, registry, program.decls)
        self.delta = DeltaTree()
        self.stats = StatsCollector()
        self.tracer = TraceRecorder() if self.options.trace else None
        self.output: list[str] = []
        #: rule name -> position, for canonical per-step output keys
        #: (worker records identify rules by name)
        self._rule_pos = {r.name: i for i, r in enumerate(program.rules)}
        self.steps = 0
        self._check_mode = self.options.causality_check
        surface_exec_knobs(
            self.options,
            self.stats.note,
            strict=self._check_mode == "strict",
            runtime="the multiprocess runtime",
            supported=_SUPPORTED_KNOBS,
        )
        if self.options.metering == "on":
            self.stats.note(
                "the multiprocess runtime measures real wire traffic instead "
                "of virtual time; cost metering is off in the workers"
            )
        self._fingerprint = program_fingerprint(program)
        self._fault_kill = fault_kill
        self._killed = False
        self._epoch = 1
        self._recoveries: dict[int, int] = {}
        self._node_fires: dict[int, int] = {}
        self._node_puts: dict[int, int] = {}
        self.workers: list[_Worker] = []
        self._by_chan: dict = {}
        self._ctx = get_context("fork")
        self._ctl_listener: PeerListener | None = None
        self._rebalancer = Rebalancer(self.n_nodes, every=rebalance_every)
        # -- shuffle bookkeeping ---------------------------------------------
        #: node -> refs known staged at that node's *current* incarnation
        self._staged: dict[int, set] = {n: set() for n in range(self.n_nodes)}
        #: pending tuple -> the ref its owners hold it under
        self._ref_of: dict[JTuple, tuple] = {}
        #: node -> refs whose staged copies will never be referenced
        #: (rejected puts); piggybacked on the next step frame
        self._drops: dict[int, list] = {n: [] for n in range(self.n_nodes)}
        #: node -> counters snapshot from its most recent done record,
        #: the carry-forward source when that incarnation crashes
        self._last_counters: dict[int, dict] = {}
        #: node -> counters carried over from crashed incarnations
        self._carry: dict[int, dict] = {}
        self._conf = {
            "check_mode": self._check_mode,
            "traced": self.tracer is not None,
            "plan_cache": self.options.plan_cache,
            "transport": self.transport,
            "fault_serve_die": fault_die_on_serve,
        }

    # -- worker management ---------------------------------------------------

    def _fork(self, node: int, incarnation: int) -> _Worker:
        conf = dict(self._conf)
        conf["incarnation"] = incarnation
        if self.transport == "tcp":
            if self._ctl_listener is None:
                self._ctl_listener = PeerListener("tcp", tag="ctl")
            control = ("tcp", self._ctl_listener.address)
            proc = self._ctx.Process(
                target=worker_entry,
                args=(node, self.n_nodes, control, self.program, self.placements, conf),
                daemon=True,
            )
            proc.start()
            return _Worker(node, proc, None, incarnation)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_entry,
            args=(
                node,
                self.n_nodes,
                ("pipe", child_conn),
                self.program,
                self.placements,
                conf,
            ),
            daemon=True,
        )
        proc.start()
        # the child's end must live only in the child, or its death
        # would never read as EOF on our side
        child_conn.close()
        return _Worker(node, proc, PipeChannel(parent_conn), incarnation)

    def _reap(self, w: _Worker) -> None:
        if w.channel is not None:
            w.channel.close()
        if w.proc.is_alive():
            w.proc.terminate()
        w.proc.join(timeout=10)

    def _spawn(self, node: int, incarnation: int = 0) -> _Worker:
        """Fork a worker and complete the hello handshake under a
        bounded wait: a worker that hangs before its hello frame is
        terminated and re-forked, and only after ``_SPAWN_TRIES`` forks
        does the runtime give up with a clear error."""
        timeout = float(os.environ.get("DIST_HELLO_TIMEOUT", "30"))
        for attempt in range(_SPAWN_TRIES):
            w = self._fork(node, incarnation)
            hello = self._await_hello(w, timeout)
            if hello is not None:
                if hello.get("t") != "hello" or hello.get("node") != node:
                    raise EngineError(f"worker {node}: bad handshake {hello!r}")
                if hello.get("fingerprint") != self._fingerprint:
                    raise EngineError(
                        f"worker {node} is running a different program "
                        "(fingerprint mismatch in the bootstrap handshake)"
                    )
                w.peer_addr = hello["peer_addr"]
                return w
            self._reap(w)
            self.stats.note(
                f"worker {node} did not complete its hello handshake within "
                f"{timeout:g}s; terminated and re-forked"
            )
        raise EngineError(
            f"worker {node} never completed the spawn handshake: "
            f"{_SPAWN_TRIES} forks hung before their hello frame "
            f"(timeout {timeout:g}s each)"
        )

    def _await_hello(self, w: _Worker, timeout: float) -> dict | None:
        """The worker's first frame, or None when it hung past the
        bounded wait.  Under tcp the worker dials our listener first,
        so the wait covers both the connect-back and the frame."""
        if self.transport == "tcp":
            ch = self._ctl_listener.accept(timeout=timeout)
            if ch is None:
                return None
            w.channel = ch
        if not w.channel.poll(timeout):
            return None
        msg = self._recv(w)
        if msg.get("t") == "error":
            raise EngineError(
                f"worker {w.node} failed during startup: "
                f"{msg['error']}\n{msg['traceback']}"
            )
        return msg

    def _expect_mesh(self, w: _Worker) -> None:
        msg = self._recv(w)
        while msg.get("t") != "mesh":
            if msg.get("t") == "error":
                raise EngineError(
                    f"worker {w.node} failed while meshing: "
                    f"{msg['error']}\n{msg['traceback']}"
                )
            msg = self._recv(w)

    def _start_workers(self) -> None:
        # append as we go: a handshake failure on node k must still let
        # the teardown path reap nodes < k
        for node in range(self.n_nodes):
            self.workers.append(self._spawn(node))
        self._by_chan = {w.channel: w for w in self.workers}
        # mesh: worker i dials every j < i and accepts every j > i
        for w in self.workers:
            self._send(
                w,
                {
                    "t": "peers",
                    "connect": {
                        p.node: p.peer_addr for p in self.workers if p.node < w.node
                    },
                    "await": [p.node for p in self.workers if p.node > w.node],
                },
            )
        for w in self.workers:
            self._expect_mesh(w)

    def _replace_worker(self, node: int) -> None:
        w = self.workers[node]
        # fold the crashed incarnation's last-reported counters into the
        # node's carry so the final report keeps its traffic
        snap = self._last_counters.pop(node, None)
        if snap is not None:
            carry = self._carry.setdefault(
                node,
                {
                    "wire": WireStats(),
                    "peer_wire": WireStats(),
                    "queries_served": 0,
                    "remote_queries": 0,
                },
            )
            carry["wire"].add_state(snap["wire"])
            carry["peer_wire"].add_state(snap["peer_wire"])
            carry["queries_served"] += snap["queries_served"]
            carry["remote_queries"] += snap["remote_queries"]
        self._reap(w)
        fresh = self._spawn(node, incarnation=w.incarnation + 1)
        fresh.wire.merge(w.wire)  # traffic to the node, across incarnations
        self.workers[node] = fresh
        self._by_chan = {v.channel: v for v in self.workers}
        # every membership change resets the ref economy: staged copies
        # at the dead node are gone, and in-flight stage deliveries can
        # no longer be trusted anywhere — fall back to values until
        # fresh done records re-establish the refs
        for refs in self._staged.values():
            refs.clear()
        self._ref_of.clear()
        self._drops = {n: [] for n in range(self.n_nodes)}
        # the replacement dials every survivor; survivors accept it from
        # their poll loops before the retry step reaches them
        self._send(
            fresh,
            {
                "t": "peers",
                "connect": {
                    p.node: p.peer_addr for p in self.workers if p.node != node
                },
                "await": [],
            },
        )
        self._expect_mesh(fresh)
        tables: dict[str, list] = {}
        for name, store in self.db.stores.items():
            rows = []
            for t in store.scan():
                home = self.placements.home_of(t, self.n_nodes)
                if home is None or home == node:
                    rows.append(list(t.values))
            if rows:
                tables[name] = rows
        self._send(fresh, {"t": "bootstrap", "tables": tables})

    def _terminate_all(self) -> None:
        for w in self.workers:
            self._reap(w)
        if self._ctl_listener is not None:
            self._ctl_listener.close()
            self._ctl_listener = None

    # -- framing --------------------------------------------------------------

    def _send(self, w: _Worker, msg: dict) -> None:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            w.channel.send_bytes(data)
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise WorkerLostError(w.node, self.steps or None, self._epoch) from None
        w.wire.on_send(len(data))

    def _recv(self, w: _Worker) -> dict:
        try:
            data = w.channel.recv_bytes()
        except (EOFError, ConnectionResetError, OSError):
            raise WorkerLostError(w.node, self.steps or None, self._epoch) from None
        w.wire.on_recv(len(data))
        return pickle.loads(data)

    def _tuple(self, table: str, values) -> JTuple:
        return JTuple(self.schemas[table], tuple(values))

    # -- the run ---------------------------------------------------------------

    def run(self) -> RunResult:
        t0 = time.perf_counter()
        try:
            self._start_workers()
            self._emit_run_start()
            self._feed_initial()
            self._drain()
            nodes = self._finish()
        except BaseException:
            self._terminate_all()
            raise
        if self._ctl_listener is not None:
            self._ctl_listener.close()
            self._ctl_listener = None
        wall = time.perf_counter() - t0
        self._emit_run_end()
        return RunResult(
            program=self.program.name,
            strategy="processes",
            threads=self.n_nodes,
            output=self.output,
            wall_time=wall,
            report=None,
            stats=self.stats,
            table_sizes=self.db.table_sizes(),
            meter=CostMeter(),
            steps=self.steps,
            options=self.options,
            database=self.db,
            trace=self.tracer,
            nodes=nodes,
        )

    def _feed_initial(self) -> None:
        """Initial puts, exactly like the kernel's ``<init>`` feed (no
        admission boundary exists before the first step)."""
        puts = list(self.program.initial_puts)
        for tup in puts:
            self.stats.on_put("<init>", tup.schema.name)
        if not puts:
            return
        flags = self._enqueue(puts)
        if self.tracer is not None:
            for tup, accepted in zip(puts, flags):
                self.tracer.emit("admit", {"tuple": repr(tup), "accepted": accepted})

    def _enqueue(self, puts: list[JTuple]) -> list[bool]:
        """Phase C against the control replica — per-put semantics are
        exactly ``StepKernel._enqueue_delta_batch`` (Gamma-duplicate
        precheck, then Delta dedup), minus the cost metering."""
        flags = [False] * len(puts)
        items: list[tuple[JTuple, object]] = []
        idx: list[int] = []
        db = self.db
        for i, tup in enumerate(puts):
            if tup in db:
                self.stats.table(tup.schema.name).duplicates += 1
                continue
            items.append((tup, db.timestamp(tup)))
            idx.append(i)
        if not items:
            return flags
        accepted = self.delta.insert_batch(items)
        for k, ok in enumerate(accepted):
            i = idx[k]
            name = puts[i].schema.name
            if ok:
                flags[i] = True
                self.stats.table(name).delta_inserts += 1
            else:
                self.stats.table(name).duplicates += 1
        return flags

    def _drain(self) -> None:
        max_steps = self.options.max_steps
        while self.delta:
            if max_steps is not None and self.steps >= max_steps:
                raise EngineError(
                    f"program exceeded max_steps={max_steps}; "
                    f"{len(self.delta)} tuples still pending"
                )
            self.steps += 1
            batch = self.delta.pop_min_class()
            self._superstep(batch)

    def _fire_home(self, tup: JTuple) -> int:
        """Node that fires this tuple's rules — the partition home, or
        the (adaptively weighted) stable-hash spread for replicated
        triggers.  Always one of the tuple's owners, which is what lets
        the fire assignment reference the phase-A insert."""
        home = self.placements.home_of(tup, self.n_nodes)
        if home is not None:
            return home
        return self._rebalancer.fire_node(spread_hash(tup.values))

    def _superstep(self, batch: list[JTuple]) -> None:
        step = self.steps
        self.stats.on_step(len(batch))
        if self.tracer is not None:
            self.tracer.step = step
            self.tracer.emit(
                "step",
                {"step": step, "width": len(batch), "frontier": [repr(t) for t in batch]},
            )
        if (
            self._fault_kill is not None
            and not self._killed
            and self._fault_kill[1] == step
        ):
            # injected failure (tests): SIGKILL the target at superstep
            # start, reap it so the broadcast hits a closed channel
            self._killed = True
            victim = self.workers[self._fault_kill[0]]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10)
        # plan: duplicate verdicts against the pre-step control Gamma,
        # and one fire node per fresh tuple
        plan: list[tuple[JTuple, bool, int]] = []
        for tup in batch:
            plan.append((tup, tup in self.db, self._fire_home(tup)))
        records = self._execute(step, plan)
        # the step committed: the drop lists rode out with its frames,
        # and the batch's staged copies were consumed
        for n in range(self.n_nodes):
            self._drops[n].clear()
        for tup, _dup, _node in plan:
            ref = self._ref_of.pop(tup, None)
            if ref is not None:
                for o in self.placements.owners_of(tup, self.n_nodes):
                    self._staged[o].discard(ref)
        # commit phase A to the control replica only now: a worker lost
        # mid-step re-bootstraps from the last *completed* superstep
        self.db.insert_batch(batch, frozenset())
        pending: list[tuple[JTuple, int, tuple]] = []
        step_lines: list[tuple[tuple, str]] = []
        for idx, (tup, dup, node) in enumerate(plan):
            name = tup.schema.name
            if dup:
                self.stats.table(name).duplicates += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "task",
                        {
                            "trigger": repr(tup),
                            "duplicate": True,
                            "fired": [],
                            "n_puts": 0,
                            "n_output": 0,
                            "cost": 0.0,
                            "node": node,
                        },
                    )
                continue
            self.stats.table(name).gamma_inserts += 1
            entries = records.get(idx, [])
            fired: list[str] = []
            n_puts = 0
            n_output = 0
            for eidx, entry in enumerate(entries):
                rule = entry["rule"]
                fired.append(rule)
                self.stats.on_fire(name, rule)
                self._node_fires[node] = self._node_fires.get(node, 0) + 1
                if self.tracer is not None:
                    for kind, data in entry["events"]:
                        data = dict(data)
                        data["node"] = node
                        self.tracer.emit(kind, data)
                out = entry["output"]
                if out:
                    keys = output_keys(
                        self.db.timestamp(tup).key, tup, self._rule_pos[rule], len(out)
                    )
                    step_lines.extend(zip(keys, out))
                    self.stats.rule(rule).output_lines += len(out)
                    n_output += len(out)
                for j, (tname, vals) in enumerate(entry["puts"]):
                    self.stats.on_put(rule, tname)
                    self._node_puts[node] = self._node_puts.get(node, 0) + 1
                    # the ref this put was staged under at its owners,
                    # reconstructed exactly as the firing worker built it
                    pending.append(
                        (self._tuple(tname, vals), node, (node, step, idx, eidx, j))
                    )
                    n_puts += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "task",
                    {
                        "trigger": repr(tup),
                        "duplicate": False,
                        "fired": fired,
                        "n_puts": n_puts,
                        "n_output": n_output,
                        "cost": 0.0,
                        "node": node,
                    },
                )
        # output in canonical keyed order, matching the single-node
        # kernel byte-for-byte when several firings of one class print
        emit_step_output(self.output, step_lines)
        staged_now = {n: 0 for n in range(self.n_nodes)}
        dropped_now = 0
        if pending:
            flags = self._enqueue([tup for tup, _node, _ref in pending])
            for (tup, node, ref), accepted in zip(pending, flags):
                owners = self.placements.owners_of(tup, self.n_nodes)
                if accepted:
                    # the owners hold (or will momentarily hold) this
                    # put under its ref: the eventual phase-A insert can
                    # travel as control-plane bytes only
                    self._ref_of[tup] = ref
                    for o in owners:
                        self._staged[o].add(ref)
                        staged_now[o] += 1
                else:
                    # rejected put: the staged copies will never be
                    # referenced — tell the owners to drop them
                    for o in owners:
                        self._drops[o].append(ref)
                    dropped_now += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "effect",
                        {"tuple": repr(tup), "accepted": accepted, "node": node},
                    )
        if self.tracer is not None:
            # node-tagged shuffle accounting (meta: wire behaviour, not
            # semantics — excluded from trace_diff like every meta event)
            meta = getattr(self, "_frame_meta", {})
            for n in range(self.n_nodes):
                fm = meta.get(n, {})
                if not (staged_now[n] or fm.get("ref_inserts") or fm.get("value_inserts")):
                    continue
                self.tracer.emit(
                    "shuffle",
                    {
                        "step": step,
                        "node": n,
                        "staged": staged_now[n],
                        "ref_inserts": fm.get("ref_inserts", 0),
                        "value_inserts": fm.get("value_inserts", 0),
                        "dropped": dropped_now,
                    },
                    meta=True,
                )
        plan_change = self._rebalancer.maybe_rebalance(step, self._node_fires)
        if plan_change is not None:
            self.stats.note(Rebalancer.describe(plan_change))
            if self.tracer is not None:
                self.tracer.emit("rebalance", dict(plan_change), meta=True)

    # -- superstep execution with crash recovery ------------------------------

    def _build_frames(self, step: int, plan: list) -> list[dict]:
        """One step frame per worker: phase-A inserts (by ref where the
        owner already holds the staged put-set, by value otherwise),
        fire assignments referencing insert positions, and the pending
        drop list."""
        inserts: list[list] = [[] for _ in range(self.n_nodes)]
        fires: list[list] = [[] for _ in range(self.n_nodes)]
        self._frame_meta = {
            n: {"ref_inserts": 0, "value_inserts": 0} for n in range(self.n_nodes)
        }
        for idx, (tup, dup, node) in enumerate(plan):
            name = tup.schema.name
            vals = tuple(tup.values)
            ref = self._ref_of.get(tup)
            for o in self.placements.owners_of(tup, self.n_nodes):
                pos = len(inserts[o])
                if ref is not None and ref in self._staged[o]:
                    inserts[o].append(("r", ref))
                    self._frame_meta[o]["ref_inserts"] += 1
                else:
                    inserts[o].append(("v", name, vals))
                    self._frame_meta[o]["value_inserts"] += 1
                if o == node and not dup:
                    fires[o].append((idx, pos))
        return [
            {
                "t": "step",
                "step": step,
                "insert": inserts[n],
                "fire": fires[n],
                "drop": list(self._drops[n]),
            }
            for n in range(self.n_nodes)
        ]

    def _execute(self, step: int, plan: list) -> dict:
        deaths = 0
        while True:
            frames = self._build_frames(step, plan)
            try:
                return self._attempt(step, frames)
            except WorkerLostError as exc:
                deaths += 1
                if deaths > 2 * self.n_nodes:
                    raise EngineError(
                        f"step {step} could not complete: workers kept dying "
                        f"({deaths} deaths); last lost node {exc.node}"
                    ) from exc
                self._recover(exc.node)

    def _attempt(self, step: int, frames: list[dict]) -> dict:
        epoch = self._epoch
        for w in self.workers:
            frame = dict(frames[w.node])
            frame["attempt"] = epoch
            self._send(w, frame)
        records: dict[int, list] = {}
        done: set[int] = set()
        chans = [w.channel for w in self.workers]
        while len(done) < self.n_nodes:
            for ch in wait_readable(chans):
                w = self._by_chan[ch]
                msg = self._recv(w)
                t = msg["t"]
                if t == "done":
                    if msg["attempt"] != epoch:
                        continue  # stale reply from before a recovery
                    done.add(w.node)
                    self._last_counters[w.node] = msg["counters"]
                    for idx, entries in msg["records"]:
                        records[idx] = entries
                elif t == "error":
                    # a deterministic failure inside a rule: re-raise
                    # here instead of looping through crash recovery
                    raise EngineError(
                        f"worker {w.node} failed: {msg['error']}\n{msg['traceback']}"
                    )
        return records

    def _recover(self, node: int) -> None:
        """Bring a lost node back from the last committed superstep and
        abort the in-flight attempt on the survivors."""
        self._epoch += 1
        self._recoveries[node] = self._recoveries.get(node, 0) + 1
        self.stats.note(
            f"worker {node} died during step {self.steps}; restarted from "
            "the last committed superstep snapshot"
        )
        dead = [node]
        aborted: set[int] = set()
        while dead:
            n = dead.pop()
            aborted.discard(n)
            self._replace_worker(n)
            for w in self.workers:
                if w.node == n or w.node in aborted:
                    continue
                try:
                    self._send(
                        w, {"t": "abort", "step": self.steps, "attempt": self._epoch}
                    )
                    aborted.add(w.node)
                except WorkerLostError:
                    self._epoch += 1
                    self._recoveries[w.node] = self._recoveries.get(w.node, 0) + 1
                    dead.append(w.node)

    # -- teardown --------------------------------------------------------------

    def _finish(self) -> list[dict]:
        for w in self.workers:
            self._send(w, {"t": "finish"})
        nodes: list[dict] = []
        control_sizes = self.db.table_sizes()
        shard_sizes: dict[str, list[int]] = {
            name: [0] * self.n_nodes for name in control_sizes
        }
        for w in self.workers:
            msg = self._recv(w)
            while msg.get("t") != "bye":  # drain stragglers (stale dones)
                msg = self._recv(w)
            for name, size in msg["table_sizes"].items():
                shard_sizes[name][w.node] = size
            self._merge_worker_stats(msg["stats"])
            wire = WireStats.from_state(msg["wire"])
            peer = WireStats.from_state(msg["peer_wire"])
            served = msg["queries_served"]
            remote = msg["remote_queries"]
            carry = self._carry.get(w.node)
            if carry is not None:
                wire.merge(carry["wire"])
                peer.merge(carry["peer_wire"])
                served += carry["queries_served"]
                remote += carry["remote_queries"]
            nodes.append(
                {
                    "node": w.node,
                    "fires": self._node_fires.get(w.node, 0),
                    "puts": self._node_puts.get(w.node, 0),
                    "queries_served": served,
                    "remote_queries": remote,
                    "msgs": wire.msgs_sent + wire.msgs_recv,
                    "bytes_sent": wire.bytes_sent,
                    "bytes_recv": wire.bytes_recv,
                    "peer_msgs": peer.msgs_sent + peer.msgs_recv,
                    "peer_bytes_sent": peer.bytes_sent,
                    "peer_bytes_recv": peer.bytes_recv,
                    "recovered": self._recoveries.get(w.node, 0),
                }
            )
            w.proc.join(timeout=10)
            w.channel.close()
        self._check_integrity(control_sizes, shard_sizes)
        return nodes

    def _check_integrity(
        self, control: dict[str, int], shards: dict[str, list[int]]
    ) -> None:
        """The distributed shards must jointly equal the control replica:
        replicated tables everywhere in full, partitioned/pinned tables
        exactly once across the cluster."""
        for name, total in control.items():
            per_node = shards[name]
            placement = self.placements[name]
            if isinstance(placement, Partitioned):
                ok = sum(per_node) == total
                detail = f"shards sum to {sum(per_node)}"
            elif isinstance(placement, OnNode):
                ok = per_node[placement.node] == total and sum(per_node) == total
                detail = f"pinned shard holds {per_node[placement.node]}"
            else:  # replicated
                ok = all(s == total for s in per_node)
                detail = f"replica sizes {per_node}"
            if not ok:
                raise EngineError(
                    f"shard integrity check failed for table {name!r}: "
                    f"control replica has {total} tuples, {detail}"
                )

    def _merge_worker_stats(self, state: dict) -> None:
        """Fold one worker's query-side statistics into the coordinator
        collector (fires/puts/output are counted coordinator-side from
        the merged records; workers only observe queries)."""
        for name, d in state.get("tables", {}).items():
            t = self.stats.table(name)
            for k, v in d.items():
                setattr(t, k, getattr(t, k) + int(v))
        for name, d in state.get("rules", {}).items():
            r = self.stats.rule(name)
            for k, v in d.items():
                setattr(r, k, getattr(r, k) + int(v))
        for a, b, n in state.get("query_edges", []):
            self.stats.query_edges[(a, b)] = self.stats.query_edges.get((a, b), 0) + n
        for t, eq, rng, n in state.get("query_shapes", []):
            shape = (t, tuple(eq), tuple(rng))
            self.stats.query_shapes[shape] = self.stats.query_shapes.get(shape, 0) + n
        for r, t, eq, rng, n in state.get("rule_query_shapes", []):
            rshape = (r, t, tuple(eq), tuple(rng))
            self.stats.rule_query_shapes[rshape] = (
                self.stats.rule_query_shapes.get(rshape, 0) + n
            )

    # -- trace bookends ---------------------------------------------------------

    def _emit_run_start(self) -> None:
        if self.tracer is None:
            return
        self.tracer.emit(
            "run-start",
            {
                "program": self.program.name,
                "strategy": "processes",
                "threads": self.n_nodes,
                "nodes": self.n_nodes,
                "chaos_seed": None,
                "fault_plan": None,
                "task_granularity": "tuple",
            },
            meta=True,
        )

    def _emit_run_end(self) -> None:
        if self.tracer is None:
            return
        self.tracer.step = self.steps
        self.tracer.emit(
            "run-end",
            {
                "steps": self.steps,
                "output": output_hash(self.output),
                "n_output": len(self.output),
                "table_sizes": dict(sorted(self.db.table_sizes().items())),
            },
        )


def run_sharded(
    program: Program,
    options: ExecOptions | None = None,
    *,
    n_workers: int | None = None,
    placements: dict | PlacementMap | None = None,
    fault_kill: tuple[int, int] | None = None,
    fault_die_on_serve: tuple[int, int] | None = None,
    transport: str | None = None,
    rebalance_every: int = 16,
) -> RunResult:
    """Run ``program`` on real worker processes and return the merged
    :class:`~repro.core.kernel.RunResult` (its ``nodes`` field carries
    the per-node compute/traffic summaries, control and peer planes
    separately).

    ``transport`` picks the wire (``pipe`` or ``tcp``; default honours
    the ``DIST_TRANSPORT`` environment variable).  ``fault_kill=(node,
    step)`` SIGKILLs one worker at the start of one superstep;
    ``fault_die_on_serve=(node, step)`` makes a worker die with a peer
    query in flight (between request and reply) — the crash-recovery
    test hooks.  ``rebalance_every`` is the adaptive fire-placement
    window (0 disables it).
    """
    return ProcessShardRuntime(
        program,
        options,
        n_workers=n_workers,
        placements=placements,
        fault_kill=fault_kill,
        fault_die_on_serve=fault_die_on_serve,
        transport=transport,
        rebalance_every=rebalance_every,
    ).run()
