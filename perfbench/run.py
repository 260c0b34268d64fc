"""The repository's benchmark: four seeded workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dijkstra-codegen --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload telemetry-service --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --list              # every metric, then the oracles
    python3 perfbench/run.py --list --seed 7919  # the same on the held-out seed

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is the separate traced run: one untraced repetition for
reference, then traced repetitions that yield the per-layer metrics.
Each repetition runs in a fresh process (``rep.py``) that builds the
program from ``src/`` of this checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details behind the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
CALIBRATE = HERE / "calibrate.py"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

perf = time.perf_counter
#: repetitions per run, whatever --seconds says
MIN_REPS = 3
#: set-ups per repetition: at least SETUPS, more until SETUP_BUDGET_S
#: is spent (cheap set-ups need more samples)
SETUPS = 3
SETUP_BUDGET_S = 0.25
#: a run must end within this many seconds
RUN_LIMIT_S = 170


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Rep:
    """One repetition in a fresh process."""

    def __init__(self, args: dict, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = perf()
        proc = subprocess.Popen(
            [sys.executable, str(REP), json.dumps(args)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - perf()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += "\nrepetition timed out"
        finally:
            try:  # reap anything the repetition left in its group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.wall = perf() - t0
        self.data: dict | None = None
        if proc.returncode == 0 and out.strip():
            self.data = json.loads(out.strip().splitlines()[-1])
        else:
            sys.stderr.write(err[-4000:])
        self.error = None if self.data is None else self.data.get("error")
        if self.data is None:
            self.error = f"repetition exited with code {proc.returncode}"

    @property
    def ok(self) -> bool:
        return self.data is not None


def _calibrate(width: int) -> float:
    """One machine-speed sample: ``width`` fresh processes at once (see
    calibrate.py), the slowest of them."""
    procs = [subprocess.Popen([sys.executable, str(CALIBRATE)], stdout=subprocess.PIPE, text=True)
             for _ in range(width)]
    try:
        return max(float(p.communicate(timeout=30)[0]) for p in procs)
    finally:
        for p in procs:
            p.kill()
            p.wait()


def _reps(args: dict, seconds: float, t_start: float, min_reps: int,
          calibration: list[float] | None = None, width: int = 1) -> list[Rep]:
    """Repeat until ``seconds`` would be exceeded (at least ``min_reps``).
    Given a ``calibration`` list, fill it with one machine-speed sample
    of ``width`` before each repetition and one after the last."""
    reps: list[Rep] = []
    deadline = t_start + RUN_LIMIT_S

    def sample() -> None:
        if calibration is not None:
            calibration.append(_calibrate(width))

    while True:
        sample()
        reps.append(Rep(dict(args, run_id=len(reps)), deadline))
        typical = (perf() - t_start) / len(reps)
        if (len(reps) >= min_reps and perf() - t_start + typical > seconds
                or perf() + 2 * max(r.wall for r in reps) > deadline):
            sample()
            return reps


def _pct(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(len(ordered) * q) - 1))]


def _tail_q(n: int, q: float = 0.99) -> float:
    """``q``, or the highest percentile below it with at least ten of
    ``n`` samples beyond it; the median when no percentile above it has
    ten (the batch workloads' handful of runs)."""
    return max(0.5, min(q, 1.0 - 10.0 / n))


def _tally(reps: list[Rep]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    for r in reps:
        attempted += r.data["attempted"] if r.ok else 1
        failed += r.data["failed"] if r.ok else 1
        if r.error:
            errors.append(r.error)
    return attempted, failed, errors


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[Rep]]:
    t0 = perf()
    samples: list[float] = []
    reps = _reps({"workload": workload, "seed": seed, "setups": SETUPS,
                  "setup_budget_s": SETUP_BUDGET_S}, seconds, t0, MIN_REPS, samples,
                 spec.CALIBRATION_WIDTH.get(workload, 1))
    # each repetition's times at the reference machine speed, from the
    # samples taken just before and just after it: see calibrate.py
    scales = [spec.CALIBRATION_REF_S / statistics.fmean(samples[i:i + 2]) for i in range(len(reps))]
    scaled = [(r.data, k) for r, k in zip(reps, scales) if r.ok]
    if not scaled:
        return {}, {}, reps
    good = [d for d, _ in scaled]
    lat = [x * k for d, k in scaled for xs in d["latencies_ms"].values() for x in xs]
    metrics = {
        "setup_s": statistics.median(x * k for d, k in scaled for x in d["setup_s"]),
        "run_s": statistics.median(d["run_s"] * k for d, k in scaled),
        "ingest_tuples_per_s": statistics.median(d["tuples"] / (d["run_s"] * k) for d, k in scaled),
        "latency_p50_ms": _pct(lat, 0.50),
        "latency_p99_ms": _pct(lat, _tail_q(len(lat))),
    }
    raw = {
        "setup_s": statistics.median(x for d in good for x in d["setup_s"]),
        "run_s": statistics.median(d["run_s"] for d in good),
    }
    metrics["peak_rss_mb"] = statistics.median(d["rss_mb"] for d in good)
    details = {
        "as_measured": raw,
        "calibration_s": samples,
        "repetitions": len(reps),
        "setup_samples": sum(len(d["setup_s"]) for d in good),
        "latency_samples": len(lat),
        "latency_p99_ms_is_percentile": 100 * _tail_q(len(lat)),
        "by_kind_ms": {
            kind: {
                "count": len(xs),
                "p50": _pct(xs, 0.5),
                "p90": _pct(xs, 0.9),
                "p99": _pct(xs, 0.99),
            }
            for kind in good[0]["latencies_ms"]
            for xs in [[x * k for d, k in scaled for x in d["latencies_ms"][kind]]]
        },
        "run_s_each": [d["run_s"] for d in good],
    }
    if workload == "shortestpath-mesh":
        details["worker_peak_rss_mb"] = statistics.median(d["worker_rss_mb"] for d in good)
    return metrics, details, reps


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[Rep]]:
    t0 = perf()
    mesh = workload == "shortestpath-mesh"
    base = {"workload": workload, "seed": seed, "setups": 1}
    untraced = Rep(dict(base, reference=mesh), t0 + RUN_LIMIT_S)
    remaining = seconds - (perf() - t0)
    traced = _reps(dict(base, trace=True), remaining, perf(), 1)
    reps = [untraced] + traced
    good = [r.data["layers"] for r in traced if r.ok]
    if not untraced.ok or not good:
        return {}, {}, reps
    metrics = {name: statistics.fmean(g["metrics"][name] for g in good) for name in good[0]["metrics"]}
    # the rest come from the untraced repetition
    u = untraced.data
    metrics["trace.untraced_run_s"] = u["run_s"]
    metrics["trace.overhead_frac"] = metrics["trace.traced_run_s"] / u["run_s"] - 1.0
    metrics["dist.sequential_run_s"] = u.get("sequential_run_s") or 0.0
    metrics["dist.worker_peak_rss_mb"] = u["worker_rss_mb"] if mesh else 0.0
    spans = {}
    for g in good:
        for name, ent in g["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += ent[k] / len(good)
    details = {"traced_runs": [g["run"] for g in good], "spans": dict(sorted(spans.items()))}
    return {k: metrics[k] for k in spec.PER_LAYER}, details, reps


def measure(args) -> int:
    if args.workload not in spec.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(spec.WORKLOADS)}")
    if args.trace:
        metrics, details, reps = per_layer(args.workload, args.seed, args.seconds)
        units = {k: v["unit"] for k, v in spec.PER_LAYER.items()}
    else:
        metrics, details, reps = end_to_end(args.workload, args.seed, args.seconds)
        units = {k: v["unit"] for k, v in spec.END_TO_END.items()}
    attempted, failed, errors = _tally(reps)
    if not metrics:
        return _fail("no repetition completed: " + "; ".join(errors))
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, errors=errors)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def list_and_check(seed: int) -> int:
    """Every metric with its unit and workloads, then each workload's
    oracle on one repetition."""
    ok = True
    print(f"seed {seed} (default {spec.DEFAULT_SEED}, held out {spec.HELD_OUT_SEED})\n")
    print("workloads:")
    for name, why in spec.WORKLOADS.items():
        print(f"  {name:20} {why}")
    print("\nend-to-end (untraced, --trace 0; every workload):")
    for name, m in spec.END_TO_END.items():
        print(f"  {name:22} {m['unit']:5} {m['better']:6} {spec.MEANING[name]}")
    print("\nper-layer (traced, --trace 1; every workload, 0 where the layer is not reached):")
    for name, m in spec.PER_LAYER.items():
        layer, moves = spec.LAYER_MAP[name]
        target = ", ".join(f"{e}@{w}" for e, w in moves) or "-"
        print(f"  {name:34} {m['unit']:6} {layer:15} moves {target}")
    for name, why in spec.UNREACHABLE.items():
        print(f"  note {name}: {why}")
    print("\noracles:")
    for workload in spec.WORKLOADS:
        rep = Rep({"workload": workload, "seed": seed, "setups": 1}, perf() + RUN_LIMIT_S)
        verdict = "ok" if rep.ok and rep.data["failed"] == 0 else f"FAILED: {rep.error}"
        ok &= verdict == "ok"
        print(f"  {workload:20} {verdict}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="list the metrics and run the oracles")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.list:
        return list_and_check(args.seed)
    if not args.workload:
        return _fail("--workload is required (or --list)")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
