"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition starts from the same heap: in one long-lived process the RSS
of back-to-back Dijkstra runs grows from 140 to 215 MB and the run time
drifts with it.  The argument is one JSON object (``workload``,
``seed``, ``trace``, ``setups``, ``setup_budget_s``, ``reference``); the last
line of standard output is one JSON object with what was measured.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

perf = time.perf_counter
WORK = Path(__file__).resolve().parent / ".work"
MAX_SETUPS = 40


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_batch(name: str, seed: int, setups: int, budget: float, reference: bool) -> dict:
    from workloads import BATCH

    w = BATCH[name]
    inputs = w.inputs(seed)
    # set up at least ``setups`` times and, when given a budget, until
    # it is spent, so that cheap set-ups are measured on enough
    # samples; the last one is run
    setup_s: list[float] = []
    handle = None
    while len(setup_s) < setups or (sum(setup_s) < budget and len(setup_s) < MAX_SETUPS):
        handle = None  # free the previous set-up first
        t0 = perf()
        handle = w.setup(inputs)
        setup_s.append(perf() - t0)
    # the discarded set-ups' garbage is the benchmark's, not the run's
    gc.collect()
    t0 = perf()
    result = w.run(handle)
    t1 = perf()
    out = {
        "setup_s": setup_s,
        "run_s": t1 - t0,
        "window": (t0, t1),
        "tuples": w.tuples(inputs),
        "latencies_ms": {"run": [(t1 - t0) * 1e3]},
        "attempted": 1,
        # before the oracle, whose own memory is not the workload's
        "rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "worker_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "error": w.check(inputs, result),
        "notes": list(result.stats.notes),
        "steps": result.steps,
        "nodes": result.nodes or [],
        "firings": sum(r.firings for r in result.stats.rules.values()),
    }
    out["failed"] = 0 if out["error"] is None else 1
    if reference:
        out["sequential_run_s"] = w.reference(inputs)
    return out


def run_service(seed: int, run_id: int) -> dict:
    from workloads import service_inputs, service_pass

    scripts = service_inputs(seed, run_id)
    p = asyncio.run(service_pass(scripts, WORK / f"service-{os.getpid()}"))
    return {
        "setup_s": [p.setup_s],
        "run_s": p.run_s,
        "window": p.window,
        "tuples": p.admitted,
        "latencies_ms": p.latencies_ms,
        "attempted": p.attempted,
        "failed": p.failed,
        "error": "; ".join(p.errors[:5]) or None,
        "rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "rejections": p.rejections,
        "firings": p.firings,
        "client_s": p.client_s,
    }


def layers(tracer, out: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    tot = tracer.totals()
    cnt = tracer.counters()

    def self_s(*names: str) -> float:
        return sum(tot.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names: str) -> float:
        return sum(tot.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return tot.get(name, {}).get("calls", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    tiers = {
        tier: self_s(*(f"executors.{tier}.{m}" for m in ("fire_class", "fire_one", "handle_puts")))
        for tier in ("codegen", "scalar", "columnar")
    }
    notes = out.get("notes", [])
    compiled = sum(int(n.split()[1]) for n in notes if n.startswith("codegen: ") and "rule(s) compiled" in n)
    refused = sum(1 for n in notes if n.startswith("codegen: rule") and "kept scalar" in n)
    nodes = out.get("nodes", [])
    fires = [n["fires"] for n in nodes]
    t0, t1 = out["window"]
    wall = t1 - t0
    gcs = [b - a for a, b in tracer.gc_pauses if t0 <= a and b <= t1]
    unattributed = wall - tracer.covered(t0, t1)
    # client_s covers every request, opens and closes too; the tenant
    # verbs run on executor threads and the frame codec on the loop, so
    # none of these spans nests in another
    codec = ("serve.decode", "serve.encode")
    server = ("serve.tenant_open", "serve.tenant_feed", "serve.tenant_settle",
              "serve.checkpoint", "serve.tenant_close")
    m = {
        "delta.insert_batch_s": self_s("delta.insert_batch"),
        "delta.pop_min_class_s": self_s("delta.pop_min_class"),
        "delta.offered": cnt.get("delta.offered", 0),
        "delta.accept_ratio": ratio(cnt.get("delta.accepted", 0), cnt.get("delta.offered", 0)),
        "database.timestamp_s": self_s("database.timestamp"),
        "database.timestamp_calls": calls("database.timestamp"),
        "database.insert_s": self_s("database.insert", "database.insert_batch"),
        "database.insert_attempts": cnt.get("database.insert_attempts", 0),
        "database.new_ratio": ratio(cnt.get("database.insert_new", 0), cnt.get("database.insert_attempts", 0)),
        "database.select_s": self_s("database.select"),
        "executors.fire_class_s": sum(tiers.values()),
        **{f"executors.fire_class_s.{k}": v for k, v in tiers.items()},
        "executors.firings": out.get("firings", 0),
        "plan.compile_rule_s": self_s("plan.compile_rule", "plan.bind_driver", "plan.query_plan"),
        "plan.compiled_rules": compiled,
        "plan.refused_rules": refused,
        "csvio.read_region_s": self_s("csvio.read_region"),
        "csvio.records": cnt.get("csvio.records", 0),
        "session.feed_s": self_s("session.feed"),
        "session.retract_feed_s": self_s("session.retract_feed"),
        "session.settle_s": self_s("session.settle", "session.close"),
        "session.snapshot_s": self_s("session.snapshot"),
        "serve.decode_s": self_s("serve.decode", "serve.decode_events"),
        "serve.encode_s": self_s("serve.encode"),
        "serve.tenant_feed_s": self_s("serve.tenant_feed"),
        "serve.tenant_settle_s": self_s("serve.tenant_settle"),
        "serve.checkpoint_s": self_s("serve.checkpoint"),
        "serve.checkpoint_bytes": cnt.get("serve.checkpoint_bytes", 0),
        "serve.checkpoints": cnt.get("serve.checkpoints", 0),
        "serve.rejections": out.get("rejections", 0),
        "serve.queue_s": (out["client_s"] - total_s(*server) - total_s(*codec)) if "client_s" in out else 0.0,
        "dist.coordinator_bytes": sum(n["bytes_sent"] + n["bytes_recv"] for n in nodes),
        "dist.peer_bytes": sum(n["peer_bytes_sent"] for n in nodes),
        "dist.peer_msgs": sum(n["peer_msgs"] for n in nodes),
        "dist.remote_queries": sum(n["remote_queries"] for n in nodes),
        "dist.steps": out["steps"] if nodes else 0,
        "dist.fire_skew": ratio(max(fires), statistics.fmean(fires)) if fires else 0.0,
        "dist.coordinator_wait_s": self_s("dist.coordinator_wait"),
        "process.gc_pause_s": sum(gcs),
        "process.gc_collections": len(gcs),
        "trace.traced_run_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": ratio(unattributed, wall),
        "trace.spans": tracer.span_count(),
    }
    return {"run": tracer.run_id, "metrics": m, "spans": tot}


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    tracer = None
    if args.get("trace"):
        from spans import Tracer, install

        tracer = Tracer(run_id=args.get("run_id", 0))
        install(tracer)
    name = args["workload"]
    if name == "telemetry-service":
        out = run_service(args["seed"], args.get("run_id", 0))
    else:
        out = run_batch(name, args["seed"], args.get("setups", 1),
                        args.get("setup_budget_s", 0.0), args.get("reference", False))
    if tracer is not None:
        tracer.enabled = False
        out["layers"] = layers(tracer, out)
    out.pop("nodes", None)
    out.pop("notes", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
