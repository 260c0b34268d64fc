"""The four workloads: seeded inputs, set-up, run and an oracle each.

Every input is generated here from the seed; the program only ever sees
the generated inputs.  Each oracle is independent of the engine: the
heap Dijkstra baseline for both shortest-path workloads, the CSV
generator's own month means for PvWatts, and the alert lines a tenant's
script implies for the service.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import shortestpath
from repro.apps.baselines.shortestpath_base import dijkstra_baseline
from repro.apps.pvwatts import (
    array_of_hashsets_store,
    build_pvwatts_program,
    month_means_from_output,
)
from repro.apps.shortestpath import (
    GraphSpec,
    build_shortestpath_program,
    distances_from_result,
    make_graph,
    recommended_options,
)
from repro.core import ExecOptions, Program
from repro.core.engine import Engine
from repro.csvio import expected_month_means, generate_csv_bytes
from repro.dist.procrun import run_sharded

perf = time.perf_counter


def _seed(seed: int) -> int:
    return seed & 0xFFFFFFFF


# -- batch workloads -----------------------------------------------------------


class Batch:
    """A batch workload: ``setup`` builds, freezes and constructs,
    ``run`` produces the complete result, ``check`` is the oracle."""

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def run(self, handle):
        raise NotImplementedError

    def check(self, inputs, result) -> str | None:
        """None when the result is right, else what is wrong."""
        raise NotImplementedError

    def tuples(self, inputs) -> int:
        """Input tuples the program ingests."""
        raise NotImplementedError

    def reference(self, inputs) -> float | None:
        """Wall of a sequential reference leg (traced runs only)."""
        return None


@dataclass
class _Graph:
    spec: GraphSpec
    edges: list


class _ShortestPath(Batch):
    spec_args: tuple = ()

    def inputs(self, seed: int) -> _Graph:
        spec = GraphSpec(*self.spec_args, seed=_seed(seed))
        return _Graph(spec, make_graph(spec))

    def _program(self, g: _Graph, n_gen_tasks: int) -> Program:
        # the app generates its graph inside build_shortestpath_program;
        # hand it the edges generated (and timed) outside set-up instead
        shortestpath.make_graph = lambda spec: g.edges
        try:
            return build_shortestpath_program(g.spec, n_gen_tasks).program
        finally:
            shortestpath.make_graph = make_graph

    def check(self, g: _Graph, result) -> str | None:
        got = distances_from_result(result)
        want = dijkstra_baseline(g.edges, g.spec.n_vertices)
        if got == want:
            return None
        wrong = sum(1 for v in set(got) | set(want) if got.get(v) != want.get(v))
        return f"{wrong} of {len(want)} vertex distances differ from the heap baseline"

    def tuples(self, g: _Graph) -> int:
        return len(g.edges)


class DijkstraCodegen(_ShortestPath):
    spec_args = (20000, 40000)
    options = recommended_options(ExecOptions(metering="off", execution="codegen"))

    def setup(self, g: _Graph) -> Engine:
        program = self._program(g, 24)
        program.freeze()
        return Engine(program, self.options)

    def run(self, engine: Engine):
        return engine.run()


class ShortestPathMesh(_ShortestPath):
    # on 5000 vertices a run took 6-12 s and its wall wandered by a third
    # from run to run (3 processes on 2 vCPUs), so a run held 3 of them;
    # on 1000 it takes ~1 s and a run's median of ~12 is steady
    spec_args = (1000, 2000, 3)
    options = ExecOptions(strategy="processes", threads=2)

    def setup(self, g: _Graph) -> Program:
        program = self._program(g, 4)
        program.freeze()
        return program

    def run(self, program: Program):
        return run_sharded(program, self.options, transport="pipe")

    def reference(self, g: _Graph) -> float:
        program = self._program(g, 4)
        t0 = perf()
        program.run(self.options.with_(strategy="sequential", threads=1))
        return perf() - t0


@dataclass
class _Csv:
    seed: int
    data: bytes


class PvWattsCodegen(Batch):
    years = 12
    readers = 8
    options = ExecOptions(
        no_delta=frozenset({"PvWatts"}),
        store_overrides={"PvWatts": array_of_hashsets_store(concurrent=False)},
        metering="off",
        execution="codegen",
    )

    def inputs(self, seed: int) -> _Csv:
        return _Csv(_seed(seed), generate_csv_bytes(n_years=self.years, seed=_seed(seed)))

    def setup(self, csv: _Csv) -> Engine:
        program = build_pvwatts_program({"in.csv": csv.data}, "in.csv", self.readers).program
        program.freeze()
        return Engine(program, self.options)

    def run(self, engine: Engine):
        return engine.run()

    def check(self, csv: _Csv, result) -> str | None:
        got = month_means_from_output(result.output)
        want = expected_month_means(self.years, seed=csv.seed)
        # the program prints means to 3 decimals: allow half a unit in
        # the last place, plus float noise
        bad = [k for k in want if k not in got or abs(got[k] - want[k]) > 5e-4 + 1e-9 * want[k]]
        if not bad and len(got) == len(want):
            return None
        return f"{len(bad)} of {len(want)} month means differ from the generator's"

    def tuples(self, csv: _Csv) -> int:
        return csv.data.count(b"\n")


BATCH = {
    "dijkstra-codegen": DijkstraCodegen(),
    "pvwatts-codegen": PvWattsCodegen(),
    "shortestpath-mesh": ShortestPathMesh(),
}


# -- the service ---------------------------------------------------------------

HOT = 900
SENSORS = 8
TICKS_PER_BATCH = 4
TENANTS = 16
CONNECTIONS = 2
BATCHES = 40
SETTLE_EVERY = 2
RETRACT_EVERY = 4
#: flush policy: a fsync'd checkpoint of a tenant on every 8th of its settles
CHECKPOINT_EVERY_SETTLES = 8


def telemetry_factory() -> Program:
    """The telemetry program of ``benchmarks/bench_service.py``."""
    p = Program("telemetry")
    Reading = p.table("Reading", "int tick, int sensor -> int value",
                      orderby=("Int", "seq tick", "Reading", "par sensor"))
    Alert = p.table("Alert", "int tick, int sensor -> int value",
                    orderby=("Int", "seq tick", "Alert", "par sensor"))
    Println = p.table("Println", "int tick, int sensor -> str text",
                      orderby=("Int", "seq tick", "Out", "seq sensor"))
    p.order("Int", "Out")
    p.order("Reading", "Alert", "Out")

    @p.foreach(Reading)
    def threshold(ctx, r):
        if r.value >= HOT:
            ctx.put(Alert.new(r.tick, r.sensor, r.value))

    @p.foreach(Alert)
    def report(ctx, a):
        ctx.put(Println.new(a.tick, a.sensor,
                            f"tick {a.tick}: sensor {a.sensor} hot at {a.value}"))

    @p.foreach(Println, unsafe=True)
    def emit(ctx, line):
        ctx.println(line.text)

    return p


@dataclass
class TenantScript:
    name: str
    retraction: bool
    batches: list[list[list]]
    #: retract triples, keyed by the batch after whose settle they go out
    retracts: dict[int, list[list]] = field(default_factory=dict)

    def expected(self) -> list[str]:
        gone = {tuple(t[2]) for r in self.retracts.values() for t in r}
        rows = [tuple(t[2]) for b in self.batches for t in b]
        return [f"tick {tk}: sensor {s} hot at {v}"
                for tk, s, v in sorted(rows) if v >= HOT and (tk, s, v) not in gone]


def service_inputs(seed: int, run: int = 0) -> list[TenantScript]:
    """One script per tenant; odd tenants open with retraction and
    retract a quarter of a batch's readings after every 4th feed."""
    scripts = []
    for i in range(TENANTS):
        rng = random.Random(f"{_seed(seed)}/{i}")
        batches = []
        for b in range(BATCHES):
            batches.append([
                ["+", "Reading", [tick, s, rng.randrange(1000)]]
                for tick in range(b * TICKS_PER_BATCH, (b + 1) * TICKS_PER_BATCH)
                for s in range(SENSORS)
            ])
        script = TenantScript(f"t{run}-{i:02d}", i % 2 == 1, batches)
        if script.retraction:
            for b in range(RETRACT_EVERY - 1, BATCHES, RETRACT_EVERY):
                offset = rng.randrange(4)
                script.retracts[b] = [["-", "Reading", t[2]]
                                      for k, t in enumerate(batches[b]) if k % 4 == offset]
        scripts.append(script)
    return scripts


@dataclass
class ServicePass:
    setup_s: float = 0.0
    run_s: float = 0.0
    admitted: int = 0
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rejections: int = 0
    firings: int = 0
    client_s: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)


async def service_pass(scripts: list[TenantScript], data_dir: Path) -> ServicePass:
    """One soak pass: start the service, open every tenant (set-up),
    drive the scripts in a closed loop, close every tenant, check each
    tenant's cumulative output, stop."""
    from repro.serve import ProgramRegistry, ServiceClient, ServiceConfig, SessionService
    from repro.serve.client import ServiceCallError

    out = ServicePass(latencies_ms={"feed": [], "retract": [], "settle": []})
    registry = ProgramRegistry()
    registry.register("telemetry", telemetry_factory)
    shutil.rmtree(data_dir, ignore_errors=True)
    config = ServiceConfig(
        data_dir=str(data_dir),
        max_tenants=TENANTS,
        executor_workers=2,
        checkpoint_every_settles=CHECKPOINT_EVERY_SETTLES,
    )
    groups = [scripts[c::CONNECTIONS] for c in range(CONNECTIONS)]

    async def call(kind: str | None, coro):
        out.attempted += 1
        t0 = perf()
        try:
            response = await coro
        except ServiceCallError as exc:
            out.failed += 1
            out.errors.append(f"{exc.code}: {exc}")
            return None
        dt = perf() - t0
        out.client_s += dt
        if kind is not None:
            out.latencies_ms[kind].append(dt * 1e3)
        return response

    async def open_all(client, group):
        for s in group:
            await call(None, client.open(s.name, "telemetry",
                                         {"retraction": True} if s.retraction else None))

    async def drive(client, group):
        for b in range(BATCHES):
            for s in group:
                r = await call("feed", client.feed(s.name, s.batches[b]))
                if r is not None:
                    out.admitted += r["admitted"]
                if (b + 1) % SETTLE_EVERY == 0:
                    await call("settle", client.settle(s.name))
                if b in s.retracts:
                    await call("retract", client.retract(s.name, s.retracts[b]))
        for s in group:
            r = await call(None, client.close(s.name))
            if r is not None and r["output"] != s.expected():
                out.failed += 1
                out.errors.append(f"tenant {s.name}: output differs from its script's alerts")

    t0 = perf()
    service = SessionService(registry, config)
    await service.start()
    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await ServiceClient.connect("127.0.0.1", service.port))
        await asyncio.gather(*(open_all(c, g) for c, g in zip(clients, groups)))
        tenants = list(service.tenants.values())
        t1 = perf()
        out.setup_s = t1 - t0
        await asyncio.gather(*(drive(c, g) for c, g in zip(clients, groups)))
        t2 = perf()
        out.run_s = t2 - t1
        out.window = (t1, t2)
        out.rejections = sum(service.stats.rejections.values())
        out.firings = sum(r.firings for tn in tenants for r in tn.session.stats.rules.values())
    finally:
        for c in clients:
            await c.close_connection()
        await service.stop(checkpoint=False)
        shutil.rmtree(data_dir, ignore_errors=True)
    return out
