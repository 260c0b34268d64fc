"""Static locality analysis of a placement (§2 stage 3's design aid).

Before committing to a distribution, the programmer wants to know which
queries stay on-node, which route to a single remote owner, and which
degenerate into broadcast gathers — the same way the paper's stage 2/3
tooling surfaces dependency structure before benchmarking.  Rule
metadata (hand-written or extracted from textual rules) makes this
static: for every symbolic query under a placement,

* ``local``      — replicated table, or the bound partition value
  provably equals the trigger's partition value (co-located);
* ``routed``     — partition field bound: exactly one owner answers;
* ``broadcast``  — partition field unbound: every node is asked;
* ``unknown``    — the rule carries no metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.program import Program
from repro.dist.placement import PlacementMap
from repro.solver.obligations import RuleMeta

__all__ = ["QueryLocality", "check_locality", "locality_summary"]


def locality_summary(findings: list["QueryLocality"]) -> dict[str, int]:
    """Verdict → count over a set of findings — the one-line shape of a
    placement's query plan (how much of the workload stays local, how
    much routes, how much degenerates into broadcast gathers).  Used by
    reports and tests to assert a placement's wire behaviour without
    enumerating every finding."""
    out: dict[str, int] = {}
    for f in findings:
        out[f.verdict] = out.get(f.verdict, 0) + 1
    return out


@dataclass(frozen=True)
class QueryLocality:
    rule: str
    table: str
    verdict: str  # local | routed | broadcast | unknown
    detail: str

    def __repr__(self) -> str:
        return f"<{self.rule} -> {self.table}: {self.verdict} ({self.detail})>"


def _classify_observed(
    rule: str, pm: PlacementMap, shapes: list[tuple[str, tuple[str, ...]]]
) -> list[QueryLocality]:
    """Classify a meta-less rule's *observed* query shapes (gathered by
    :class:`~repro.stats.collector.StatsCollector` during a profiling
    run) — one finding per query, with the real table name."""
    findings = []
    for table, eq_fields in shapes:
        verdict, detail = pm.locality(table, dict.fromkeys(eq_fields, True))
        findings.append(
            QueryLocality(rule, table, verdict, f"{detail} (observed query)")
        )
    return findings


def check_locality(
    program: Program,
    placements: PlacementMap | dict | None = None,
    observed=None,
) -> list[QueryLocality]:
    """Classify every statically-known query under a placement.

    Rules without symbolic metadata cannot be classified statically;
    pass ``observed`` (a :class:`~repro.stats.collector.StatsCollector`
    from a profiling run, or its ``rule_query_shapes`` mapping) to
    classify the queries such rules actually performed — one finding
    per observed query shape, with the real table name."""
    program.freeze()
    pm = (
        placements
        if isinstance(placements, PlacementMap)
        else PlacementMap(program.schemas(), placements)
    )
    observed_shapes = getattr(observed, "rule_query_shapes", observed) or {}
    by_rule: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for (rule_name, table, eq_fields, _rng) in observed_shapes:
        by_rule.setdefault(rule_name, []).append((table, eq_fields))
    findings: list[QueryLocality] = []
    for rule in program.rules:
        meta = rule.meta
        if not isinstance(meta, RuleMeta):
            shapes = by_rule.get(rule.name)
            if shapes:
                findings.extend(_classify_observed(rule.name, pm, shapes))
            else:
                findings.append(
                    QueryLocality(
                        rule.name,
                        rule.trigger.schema.name,
                        "unknown",
                        "rule has no metadata; pass observed= run stats "
                        "to classify its queries",
                    )
                )
            continue
        # a partitioned trigger's own partition term (None otherwise)
        trig_field = getattr(pm[meta.trigger_schema.name], "field", None)
        trig_term = meta.trigger.get(trig_field) if trig_field else None
        for branch in meta.branches:
            for q in branch.queries:
                table = q.schema.name
                verdict, detail = pm.locality(table, q.bound, trig_term)
                findings.append(QueryLocality(rule.name, table, verdict, detail))
    return findings
