"""Distributed execution of JStar programs (§2 stage 3, the [7] track).

A :class:`DistEngine` runs an *unmodified* program on a simulated
cluster: per-node Gamma shards hold the tuples their placement policy
assigns them, rules fire on their trigger's home node, queries route to
owning shards (local / one remote owner / broadcast-gather), and puts
travel as batched messages.  Execution proceeds in causal supersteps —
the minimal Delta class fires across all nodes, then effects exchange —
so outputs are **identical to the single-node engine** (the same §1.3
determinism guarantee, asserted by the tests).

Virtual time per superstep::

    max_node(compute) + comm(batched sends, remote-query round trips)
    + coordination barrier

Limitations (documented, not hidden): one core per node (compose with
the fork/join machine mentally, not in code), no ``-noDelta`` path, and
the Delta order is coordinated globally — the cost of that coordination
is charged per superstep but its distribution is future work in the
paper's lineage too ([7]).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from repro.core.database import Database, InsertOutcome
from repro.core.delta import DeltaTree
from repro.core.errors import EngineError, EngineWarning
from repro.core.ordering import emit_step_output, output_keys
from repro.core.program import ExecOptions, Program
from repro.core.query import Query
from repro.core.tuples import JTuple
from repro.dist.network import NetModel, StepTraffic
from repro.dist.placement import Placement, PlacementMap, spread_hash
from repro.dist.router import RoutedRuleContext
from repro.exec.metering import CostMeter
from repro.gamma.base import StoreRegistry
from repro.gamma.treeset import TreeSetStore
from repro.stats.collector import StatsCollector

__all__ = [
    "DistOptions",
    "DistRunResult",
    "DistEngine",
    "run_distributed",
    "surface_exec_knobs",
]

#: per-superstep coordination cost (the global minimal-class agreement)
_BARRIER_COST = 6.0


@dataclass(frozen=True)
class DistOptions:
    """Cluster-level hints (all outside the program, §2)."""

    n_nodes: int = 4
    placements: Mapping[str, Placement] = field(default_factory=dict)
    net: NetModel = field(default_factory=NetModel)
    causality_check: str = "warn"
    max_steps: int | None = None
    #: the single-node options this distributed run stands in for; the
    #: engine honours what it can (``causality_check``, ``max_steps``)
    #: and surfaces every other non-default knob as a stats note — an
    #: :class:`EngineWarning` under strict checking — instead of
    #: silently dropping it
    exec_options: ExecOptions | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise EngineError("a cluster needs at least one node")


#: ExecOptions fields a distributed runtime might drop; anything here
#: that deviates from its default and is not in the runtime's
#: ``supported`` set gets surfaced
_MATERIAL_KNOBS = (
    "strategy",
    "threads",
    "no_delta",
    "no_gamma",
    "task_granularity",
    "retention",
    "store_overrides",
    "index_mode",
    "indexes",
    "metering",
    "plan_cache",
    "coalesce_steps",
    "trace",
    "admission",
    "chaos_seed",
    "fault_plan",
)


def surface_exec_knobs(
    exec_options: ExecOptions | None,
    note: Callable[[str], None],
    *,
    strict: bool,
    runtime: str,
    supported: frozenset[str] = frozenset(),
) -> list[str]:
    """Surface single-node knobs a distributed runtime does not honour.

    Same convention as the step kernel's forced-knob overrides (PR 4):
    never silently ignore an option the caller set — every dropped knob
    becomes a stats note, escalated to an :class:`EngineWarning` when
    causality checking is strict.  Returns the messages (for tests)."""
    msgs: list[str] = []
    if exec_options is None:
        return msgs
    defaults = ExecOptions()
    for name in _MATERIAL_KNOBS:
        if name in supported:
            continue
        val = getattr(exec_options, name)
        if val == getattr(defaults, name):
            continue
        if isinstance(val, (frozenset, Mapping)):
            shown = repr(sorted(val))
        else:
            shown = repr(val)
        msg = f"{runtime} does not support ExecOptions {name}={shown}; knob ignored"
        msgs.append(msg)
        note(msg)
        if strict:
            warnings.warn(msg, EngineWarning, stacklevel=3)
    return msgs


@dataclass
class DistRunResult:
    program: str
    n_nodes: int
    output: list[str]
    elapsed: float
    compute_time: float
    comm_time: float
    barrier_time: float
    node_busy: list[float]
    messages: int
    tuples_moved: int
    remote_queries: int
    steps: int
    stats: StatsCollector
    shard_sizes: dict[str, list[int]]
    shards: list[Database] = field(repr=False, default_factory=list)

    @property
    def imbalance(self) -> float:
        """Busiest node's share of compute vs a perfect split."""
        total = sum(self.node_busy)
        if total == 0:
            return 1.0
        return max(self.node_busy) * self.n_nodes / total

    def table_total(self, table: str) -> int:
        return sum(self.shard_sizes[table])


class DistEngine:
    """One distributed execution of one program."""

    def __init__(self, program: Program, options: DistOptions):
        program.freeze()
        self.program = program
        self.options = options
        self.n_nodes = options.n_nodes
        schemas = program.schemas()
        self.placements = PlacementMap(
            schemas, options.placements, n_nodes=self.n_nodes
        )
        self.stats = StatsCollector()
        # honour what we can from the single-node options, surface the rest
        self.causality_check = options.causality_check
        self.max_steps = options.max_steps
        if options.exec_options is not None:
            eo = options.exec_options
            if self.causality_check == "warn" and eo.causality_check != "warn":
                self.causality_check = eo.causality_check
            if self.max_steps is None:
                self.max_steps = eo.max_steps
        surface_exec_knobs(
            options.exec_options,
            self.stats.note,
            strict=self.causality_check == "strict",
            runtime="the simulated DistEngine",
        )
        registry = StoreRegistry(lambda s: TreeSetStore(s))
        self.shards = [
            Database(schemas, registry, program.decls) for _ in range(self.n_nodes)
        ]
        self.delta = DeltaTree()
        self.output: list[str] = []
        #: rule identity -> position, for canonical per-step output keys
        self._rule_index = {id(r): i for i, r in enumerate(program.rules)}
        self.traffic = StepTraffic(options.net)
        self.remote_queries = 0
        self._totals = DistRunResult(
            program=program.name,
            n_nodes=self.n_nodes,
            output=self.output,
            elapsed=0.0,
            compute_time=0.0,
            comm_time=0.0,
            barrier_time=0.0,
            node_busy=[0.0] * self.n_nodes,
            messages=0,
            tuples_moved=0,
            remote_queries=0,
            steps=0,
            stats=self.stats,
            shard_sizes={},
        )
        self._ran = False

    # -- placement helpers ---------------------------------------------------

    def fire_home(self, tup: JTuple) -> int:
        """Node that fires this tuple's rules."""
        home = self.placements.home_of(tup, self.n_nodes)
        if home is not None:
            return home
        # replicated triggers: spread the work with a cross-run-stable
        # fold over the tuple's values (Python's hash is salted)
        return spread_hash(tup.values) % self.n_nodes

    def _fetch(
        self, node: int, query: Query, homes: list[int]
    ) -> dict[int, list[JTuple]]:
        """``node``'s remote read: each home's shard answers directly,
        charged to the modelled network as one round trip per home."""
        out: dict[int, list[JTuple]] = {}
        for home in homes:
            rows = out[home] = self.shards[home].select(query)
            self.traffic.remote_query(node, home, len(rows))
            self.remote_queries += 1
        return out

    def _insert_shards(self, tup: JTuple) -> InsertOutcome:
        """Insert a popped tuple into its owning shard(s)."""
        home = self.placements.home_of(tup, self.n_nodes)
        if home is not None:
            return self.shards[home].insert(tup)
        outcome = InsertOutcome.NEW
        for shard in self.shards:
            outcome = shard.insert(tup)
        return outcome

    # -- put routing ------------------------------------------------------------

    def _route_put(self, tup: JTuple, producer: int, meter: CostMeter) -> None:
        name = tup.schema.name
        home = self.placements.home_of(tup, self.n_nodes)
        if home is not None:
            if tup in self.shards[home]:
                self.stats.table(name).duplicates += 1
                return
            self.traffic.send(producer, home, 1)
        else:
            if tup in self.shards[0]:
                self.stats.table(name).duplicates += 1
                return
            for node in range(self.n_nodes):
                self.traffic.send(producer, node, 1)
        ts = self.shards[0].timestamp(tup)
        if self.delta.insert(tup, ts):
            self.stats.table(name).delta_inserts += 1
            meter.charge("delta_insert")
        else:
            self.stats.table(name).duplicates += 1

    # -- superstep ------------------------------------------------------------

    def _run_step(self, batch: list[JTuple]) -> None:
        self.stats.on_step(len(batch))
        self.traffic = StepTraffic(self.options.net)
        # phase A: land the class on its shards
        fireable: list[tuple[JTuple, int]] = []
        for tup in batch:
            outcome = self._insert_shards(tup)
            if outcome is InsertOutcome.DUPLICATE:
                self.stats.table(tup.schema.name).duplicates += 1
                continue
            self.stats.table(tup.schema.name).gamma_inserts += 1
            fireable.append((tup, self.fire_home(tup)))
        # phase B: fire, in deterministic class order, on the home nodes
        node_cost = [0.0] * self.n_nodes
        pending: list[tuple[int, list[JTuple], CostMeter]] = []
        step_lines: list[tuple[tuple, str]] = []
        for tup, node in fireable:
            meter = CostMeter()
            meter.charge("delta_pop")
            for rule in self.program.rules_for(tup.schema.name):
                self.stats.on_fire(tup.schema.name, rule.name)
                meter.charge("rule_fire")
                trigger_ts = self.shards[node].timestamp(tup)
                ctx = RoutedRuleContext(
                    self.placements,
                    node,
                    self.n_nodes,
                    partial(self._fetch, node),
                    self.shards[node],
                    self.program.decls,
                    meter,
                    rule,
                    tup,
                    trigger_ts,
                    check_mode=self.causality_check,
                    collector=self.stats,
                )
                rule.body(ctx, tup)
                ctx.finish()
                if ctx.output:
                    keys = output_keys(
                        trigger_ts.key, tup, self._rule_index[id(rule)], len(ctx.output)
                    )
                    step_lines.extend(zip(keys, ctx.output))
                    self.stats.rule(rule.name).output_lines += len(ctx.output)
                for put in ctx.puts:
                    self.stats.on_put(rule.name, put.schema.name)
                pending.append((node, list(ctx.puts), meter))
            node_cost[node] += meter.total_cost
        # output in canonical keyed order: same contract as the
        # single-node kernel, so dist runs stay byte-identical when
        # several firings of one class print
        emit_step_output(self.output, step_lines)
        # phase C: route effects (deterministic order)
        for node, puts, meter in pending:
            for put in puts:
                self._route_put(put, node, meter)
        # timing
        compute = max(node_cost) if node_cost else 0.0
        comm = self.traffic.comm_time(self.n_nodes)
        barrier = _BARRIER_COST * math.log2(max(2, self.n_nodes))
        t = self._totals
        t.compute_time += compute
        t.comm_time += comm
        t.barrier_time += barrier
        t.elapsed += compute + comm + barrier
        t.messages += self.traffic.messages()
        t.tuples_moved += self.traffic.tuples_moved()
        for i, c in enumerate(node_cost):
            t.node_busy[i] += c

    # -- run ------------------------------------------------------------

    def run(self) -> DistRunResult:
        if self._ran:
            raise EngineError("a DistEngine instance can only run once")
        self._ran = True
        init_meter = CostMeter()
        for tup in self.program.initial_puts:
            self._route_put(tup, producer=0, meter=init_meter)
        self._totals.elapsed += init_meter.total_cost
        steps = 0
        while self.delta:
            if self.max_steps is not None and steps >= self.max_steps:
                raise EngineError("distributed run exceeded max_steps")
            steps += 1
            self._run_step(self.delta.pop_min_class())
        t = self._totals
        t.steps = steps
        t.remote_queries = self.remote_queries
        t.shard_sizes = {
            name: [shard.size(name) for shard in self.shards]
            for name in self.program.tables
        }
        t.shards = self.shards
        return t


def run_distributed(
    program: Program, options: DistOptions | None = None, **kw
) -> DistRunResult:
    """Run a program on the simulated cluster."""
    opts = options or DistOptions()
    if kw:
        from dataclasses import replace

        opts = replace(opts, **kw)
    return DistEngine(program, opts).run()
