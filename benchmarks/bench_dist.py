"""Machine-readable distributed-runtime benchmark (BENCH_pr10.json).

Measures the v2 multiprocess runtime (worker-to-worker shuffle over the
peer mesh, ref-based step frames, pipelined staging) on the shortest-
path workload across worker counts and both transports, and records

* wall time per (transport, workers) leg,
* **coordinator control-plane bytes** (sum of every worker's
  coordinator-channel send+recv) — the headline number: PR 5 relayed
  the whole shuffle and every routed query through this channel, v2
  moves them to the mesh, so this column collapses to step frames and
  done records,
* peer-mesh bytes and messages (where the shuffle now lives),
* output/table equality against the sequential engine (asserted).

The PR 5 relay runtime was measured on this exact workload before it
was replaced; its numbers are embedded as ``relay_reference`` (raw
bytes/messages are machine-independent; walls are compared through the
sequential wall measured in the same file, which normalises the
machine away).

Methodology matches the other BENCH files: legs run interleaved,
round-robin, minimum wall across rounds after one warmup round, plus
the spin-loop calibration constant for cross-machine gating.

Usage::

    PYTHONPATH=src python benchmarks/bench_dist.py --out BENCH_pr10.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.apps.shortestpath import GraphSpec, build_shortestpath_program
from repro.core import ExecOptions
from repro.dist.procrun import run_sharded

SPEC = GraphSpec(n_vertices=800, extra_edges=1600, max_weight=3)
WORKER_COUNTS = (2, 4, 8, 16)
TRANSPORTS = ("pipe", "tcp")

#: the PR 5 coordinator-relay runtime, measured on this exact workload
#: (GraphSpec(800, 1600, 3), shortestpath, n_gen_tasks=4) immediately
#: before the relay was replaced by the v2 mesh.  Byte and message
#: counts are machine-independent; ``sequential_wall`` anchors the wall
#: ratios to the measuring machine.
RELAY_REFERENCE = {
    "sequential_wall": 0.3851,
    "legs": {
        "2": {"wall": 0.721, "coordinator_bytes": 1121056, "msgs": 9568},
        "4": {"wall": 0.932, "coordinator_bytes": 1512872, "msgs": 14528},
        "8": {"wall": 1.0716, "coordinator_bytes": 1734980, "msgs": 17360},
    },
}


def _run_sequential():
    handles = build_shortestpath_program(SPEC, 4)
    return handles.program.run(ExecOptions())


def _run_dist(transport: str, n_workers: int):
    handles = build_shortestpath_program(SPEC, 4)
    return run_sharded(
        handles.program,
        ExecOptions(strategy="processes", threads=n_workers),
        transport=transport,
    )


def _calibration(n: int = 2_000_000) -> float:
    t0 = time.perf_counter()
    sum(i * i for i in range(n))
    return time.perf_counter() - t0


def run_bench(rounds: int = 2) -> dict:
    legs = [(t, w) for t in TRANSPORTS for w in WORKER_COUNTS]
    walls: dict[tuple[str, int], float] = {leg: float("inf") for leg in legs}
    seq_wall = float("inf")
    results: dict[tuple[str, int], object] = {}
    ref = _run_sequential()  # warmup + reference results
    for leg in legs:
        results[leg] = _run_dist(*leg)
    for _ in range(rounds):
        t0 = time.perf_counter()
        ref = _run_sequential()
        seq_wall = min(seq_wall, time.perf_counter() - t0)
        for leg in legs:
            t0 = time.perf_counter()
            results[leg] = _run_dist(*leg)
            walls[leg] = min(walls[leg], time.perf_counter() - t0)

    entries: dict[str, dict] = {t: {} for t in TRANSPORTS}
    for (transport, w), r in results.items():
        control_bytes = sum(n["bytes_sent"] + n["bytes_recv"] for n in r.nodes)
        control_msgs = sum(n["msgs"] for n in r.nodes)
        peer_bytes = sum(n["peer_bytes_sent"] for n in r.nodes)
        peer_msgs = sum(n["peer_msgs"] for n in r.nodes)
        entries[transport][str(w)] = {
            "wall": round(walls[(transport, w)], 4),
            "wall_vs_sequential": round(walls[(transport, w)] / seq_wall, 3),
            "steps": r.steps,
            "coordinator_bytes": control_bytes,
            "coordinator_msgs": control_msgs,
            "peer_bytes": peer_bytes,
            "peer_msgs": peer_msgs,
            "outputs_equal": ref.output_text() == r.output_text(),
            "table_sizes_equal": ref.table_sizes == r.table_sizes,
        }

    relay = RELAY_REFERENCE
    comparisons = {}
    for w, rleg in relay["legs"].items():
        cur = entries["pipe"].get(w)
        if cur is None:
            continue
        comparisons[w] = {
            "control_bytes_vs_relay": round(
                cur["coordinator_bytes"] / rleg["coordinator_bytes"], 4
            ),
            "control_msgs_vs_relay": round(
                cur["coordinator_msgs"] / rleg["msgs"], 4
            ),
            # both walls anchored to their own machine's sequential wall
            "normalised_makespan_vs_relay": round(
                cur["wall_vs_sequential"]
                / (rleg["wall"] / relay["sequential_wall"]),
                4,
            ),
        }

    return {
        "transports": entries,
        "sequential_wall": round(seq_wall, 4),
        "relay_reference": relay,
        "relay_comparison": comparisons,
        "meta": {
            "bench": "pr10 distributed runtime v2 (mesh shuffle)",
            "calibration_wall": _calibration(),
            "spec": {
                "n_vertices": SPEC.n_vertices,
                "extra_edges": SPEC.extra_edges,
                "max_weight": SPEC.max_weight,
            },
            "worker_counts": list(WORKER_COUNTS),
            "method": "interleaved, min wall across rounds, 1 warmup round",
            "rounds": rounds,
            "target": (
                "coordinator control bytes < 0.5x the relay's at 8 workers "
                "(the shuffle left the control plane) and "
                "normalised_makespan_vs_relay < 1.0 at >= 8 workers"
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_pr10.json")
    ap.add_argument("--rounds", type=int, default=2)
    args = ap.parse_args(argv)
    bench = run_bench(rounds=args.rounds)
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for transport in TRANSPORTS:
        for w, e in sorted(bench["transports"][transport].items(), key=lambda x: int(x[0])):
            print(
                f"{transport} x{w}: wall {e['wall']}s "
                f"({e['wall_vs_sequential']}x sequential), control "
                f"{e['coordinator_bytes']} B / {e['coordinator_msgs']} msgs, "
                f"peer {e['peer_bytes']} B / {e['peer_msgs']} msgs, "
                f"equal={e['outputs_equal']}"
            )
    for w, c in sorted(bench["relay_comparison"].items(), key=lambda x: int(x[0])):
        print(
            f"vs relay x{w}: control bytes {c['control_bytes_vs_relay']}x, "
            f"msgs {c['control_msgs_vs_relay']}x, normalised makespan "
            f"{c['normalised_makespan_vs_relay']}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
