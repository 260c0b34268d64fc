"""The query router both distributed runtimes share.

A rule body fires on one node and queries Gamma through the unmodified
:class:`~repro.core.rules.RuleContext` API; :class:`RoutedRuleContext`
sends each query to the nodes :meth:`PlacementMap.query_homes
<repro.dist.placement.PlacementMap.query_homes>` names, reading its own
shard locally and every other home through the runtime's remote read:
the simulated :class:`~repro.dist.engine.DistEngine` reads the peer
shard directly (and charges the modelled network), a mesh worker asks
its peers (:meth:`~repro.dist.worker.ShardWorker.remote_query`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from repro.core.query import Query
from repro.core.rules import RuleContext
from repro.core.tuples import JTuple
from repro.dist.placement import PlacementMap

__all__ = ["RoutedRuleContext"]

_values = attrgetter("values")


class RoutedRuleContext(RuleContext):
    """Rule context of one firing on ``node`` of an ``n_nodes`` cluster,
    whose queries route to the shards that own their answers.
    ``fetch(query, homes)`` is the runtime's remote read: ``{home:
    rows}``, each home's matching tuples in its shard's scan order."""

    __slots__ = ("_placements", "_node", "_n_nodes", "_fetch")

    def __init__(
        self,
        placements: PlacementMap,
        node: int,
        n_nodes: int,
        fetch: Callable[[Query, list[int]], dict[int, list[JTuple]]],
        *args,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._placements = placements
        self._node = node
        self._n_nodes = n_nodes
        self._fetch = fetch

    def _run_planned(self, plan, query: Query) -> list[JTuple]:
        # a query this shard answers alone keeps the compiled-plan path
        homes = self._placements.query_homes(query, self._n_nodes)
        if homes is None or homes == [self._node]:
            return super()._run_planned(plan, query)
        return self._route(query, homes)

    def _run_query(self, query: Query) -> list[JTuple]:
        homes = self._placements.query_homes(query, self._n_nodes)
        return self._route(query, [self._node] if homes is None else homes)

    def _route(self, query: Query, homes: list[int]) -> list[JTuple]:
        node = self._node
        remote = [h for h in homes if h != node]
        fetched = self._fetch(query, remote) if remote else {}
        name = query.schema.name
        store = self._db.store(name)
        meter = self._meter
        results: list[JTuple] = []
        for home in homes:
            rows = self._db.select(query) if home == node else fetched[home]
            meter.charge_store_op("lookup", store)
            if rows:
                meter.charge_store_op("result", store, len(rows))
            results.extend(rows)
        if len(homes) > 1:
            # every shard answers in value order (its scan order), so
            # merging by value reproduces the single-node order exactly
            results.sort(key=_values)
        if self._collector is not None:
            names = query.schema.field_names
            self._collector.on_query(
                self._rule.name,
                name,
                len(results),
                eq_fields=tuple(sorted(names[i] for i in query.eq)),
                range_fields=tuple(sorted(names[i] for i in query.ranges)),
            )
        if self._trace is not None:
            self._trace.append(
                (
                    "query",
                    {
                        "rule": self._rule.name,
                        "table": name,
                        "kind": query.kind.value,
                        "n_results": len(results),
                    },
                )
            )
        return results
