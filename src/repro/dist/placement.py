"""Tuple-placement policies for distributed execution (§2 stage 3).

"For each target architecture, the programmer now designs a set of
instructions to the compiler saying which rules should be run in
parallel, whether each set of tuples should be **partitioned,
duplicated or shared** across the different cores or computers (for
distributed implementations), and how the communication should be
implemented.  These instructions are separate from the program."

Policies (all external to the program, like every other hint):

* :class:`Partitioned` — tuples hash-partitioned on one field; each
  shard owns its slice (the paper's *partitioned*);
* :class:`Replicated` — every node holds a full copy (*duplicated*);
  cheap to query anywhere, each insert broadcasts;
* :class:`OnNode` — pinned to one node (*shared* via its owner —
  coordinator-style tables like a controller's state).

``PlacementMap`` resolves a program's tables to policies, defaulting
to ``Partitioned`` on the primary key's first field (or the first int
field) — the natural default for relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import EngineError
from repro.core.query import Query
from repro.core.schema import TableSchema
from repro.core.tuples import JTuple

__all__ = [
    "Partitioned",
    "Replicated",
    "OnNode",
    "Placement",
    "PlacementMap",
    "spread_hash",
]


def _stable_hash(value) -> int:
    """Deterministic cross-run hash for partitioning (Python's str hash
    is salted per process; runs must be reproducible)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return hash(value) & 0x7FFFFFFF
    if isinstance(value, str):
        h = 2166136261
        for ch in value.encode("utf8"):
            h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
        return h
    raise EngineError(f"cannot partition on value {value!r}")


def spread_hash(values) -> int:
    """Order-sensitive stable fold of a tuple's values, in [0, 2^31).

    This is the spread key for firing replicated-trigger tuples: every
    node owns the tuple, so the fire node is free — but it must be the
    *same* free choice on every run and in every process, which rules
    out ``hash()``."""
    acc = 0
    for v in values:
        acc = (acc * 31 + _stable_hash(v)) & 0x7FFFFFFF
    return acc


@dataclass(frozen=True)
class Partitioned:
    """Hash-partition tuples of a table on ``field``."""

    field: str

    def home(self, tup: JTuple, n_nodes: int) -> int:
        return _stable_hash(tup.field(self.field)) % n_nodes

    def home_for_value(self, value, n_nodes: int) -> int:
        return _stable_hash(value) % n_nodes


@dataclass(frozen=True)
class Replicated:
    """Full copy on every node."""


@dataclass(frozen=True)
class OnNode:
    """Pinned to one node."""

    node: int = 0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise EngineError("node ids are non-negative")


Placement = Partitioned | Replicated | OnNode


class PlacementMap:
    """Table name → placement, with a sensible default.

    When the cluster size is known at construction (``n_nodes``), every
    ``OnNode`` pin is validated against it immediately — an
    out-of-range pin is a configuration error, not a hint to be
    silently wrapped onto whichever node ``pin % n_nodes`` happens to
    land on."""

    def __init__(
        self,
        schemas: Mapping[str, TableSchema],
        placements: Mapping[str, Placement] | None = None,
        n_nodes: int | None = None,
    ):
        self._map: dict[str, Placement] = {}
        self.n_nodes = n_nodes
        placements = dict(placements or {})
        for name, schema in schemas.items():
            p = placements.pop(name, None)
            if p is None:
                p = self._default(schema)
            if isinstance(p, Partitioned):
                pos = schema.field_position(p.field)  # validate existence
                ftype = schema.fields[pos].type
                if ftype == "any":
                    raise EngineError(
                        f"table {name!r} cannot be partitioned on field "
                        f"{p.field!r}: its type is 'any', which has no "
                        f"stable cross-process hash — partition on an "
                        f"int/float/str/bool field or replicate the table"
                    )
            if n_nodes is not None and isinstance(p, OnNode) and p.node >= n_nodes:
                raise EngineError(
                    f"table {name!r} is pinned to node {p.node} "
                    f"(OnNode({p.node})) but the cluster has only "
                    f"{n_nodes} node(s) — node ids are 0..{n_nodes - 1}"
                )
            self._map[name] = p
        if placements:
            raise EngineError(
                f"placements given for unknown tables: {sorted(placements)}"
            )

    @staticmethod
    def _default(schema: TableSchema) -> Placement:
        if schema.has_key:
            key = schema.fields[schema.key_indexes[0]]
            if key.type != "any":  # 'any' has no stable hash; fall through
                return Partitioned(key.name)
        for f in schema.fields:
            if f.type == "int":
                return Partitioned(f.name)
        return Replicated()

    def __getitem__(self, table: str) -> Placement:
        return self._map[table]

    def items(self):
        return self._map.items()

    def home_of(self, tup: JTuple, n_nodes: int) -> int | None:
        """Owning node of a tuple; None means every node (replicated)."""
        p = self._map[tup.schema.name]
        if isinstance(p, Partitioned):
            return p.home(tup, n_nodes)
        if isinstance(p, OnNode):
            if p.node >= n_nodes:
                # never wrap: OnNode(5) on a 4-node cluster is a config
                # error, not a request for node 1
                raise EngineError(
                    f"table {tup.schema.name!r} is pinned to node {p.node} "
                    f"(OnNode({p.node})) but the cluster has only "
                    f"{n_nodes} node(s) — node ids are 0..{n_nodes - 1}"
                )
            return p.node
        return None

    def query_homes(self, query: Query, n_nodes: int) -> list[int] | None:
        """Nodes that must answer a query — the one routing decision both
        distributed runtimes share.  None means any node (replicated):
        the asker reads its own copy.  A partitioned table with its
        partition field bound has one home; unbound, every node."""
        p = self._map[query.schema.name]
        if isinstance(p, Partitioned):
            pos = query.schema.field_position(p.field)
            if pos in query.eq:
                return [p.home_for_value(query.eq[pos], n_nodes)]
            return list(range(n_nodes))
        if isinstance(p, OnNode):
            # pins are validated against n_nodes at map construction;
            # never wrap here (that silently re-homed bad pins)
            return [p.node]
        return None

    def locality(
        self, table: str, bound: Mapping[str, object], trigger_term=None
    ) -> tuple[str, str]:
        """Static twin of :meth:`query_homes`: ``(verdict, detail)`` of a
        query on ``table`` binding ``bound`` (field → symbolic term).
        Binding a partitioned trigger's own ``trigger_term`` proves the
        query co-located with the firing."""
        p = self._map[table]
        if isinstance(p, Replicated):
            return "local", "replicated"
        if isinstance(p, OnNode):
            return "routed", f"pinned to node {p.node}"
        term = bound.get(p.field)
        if term is None:
            return "broadcast", f"partition field {p.field!r} unbound"
        if trigger_term is not None and term == trigger_term:
            return "local", f"co-partitioned on {p.field!r} with the trigger"
        return "routed", f"binds partition field {p.field!r}"

    def owners_of(self, tup: JTuple, n_nodes: int) -> list[int]:
        """Every node whose shard stores this tuple: one node for
        partitioned/pinned tables, all nodes for replicated ones.  The
        v2 runtime ships each fresh put to exactly this set (the
        worker-to-worker shuffle targets)."""
        home = self.home_of(tup, n_nodes)
        if home is None:
            return list(range(n_nodes))
        return [home]
