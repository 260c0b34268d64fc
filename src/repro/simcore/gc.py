"""Garbage-collection pressure model.

§6.2: "Given that this program inserts more than 8 million PvWatts
tuples that cannot be garbage collected into the Gamma database and
that we have observed up to 60 % of the elapsed time being spent in
the garbage collector, it is clear that garbage collection is at least
partially responsible" [for the sub-linear PvWatts speedup].

Model: each step pays a mostly-serial GC tax proportional to the
objects *allocated* during the step, amplified by how full the heap
already is (young-generation collections get more expensive and more
frequent as the retained set grows):

``gc_time = alloc_cost · allocations · (1 + amplify · retained / (retained + half_full))``

``retained`` counts *boxed tuples* on the heap — native-array stores
report (near) zero (:meth:`TableStore.heap_tuples`), which is exactly
why the §6.4/§6.6 native-array optimisation and the Disruptor's
object-recycling design (§6.3) help scalability, not just raw speed.

The tax is added to the step makespan as serial time (stop-the-world),
so it hurts *parallel* efficiency far more than sequential runs — a
1-core run is slowed by the same seconds, but an 8-core run loses 8
cores' worth of potential work while the collector runs.

The real engine now limits full-heap rescans by freezing settled state
at each step boundary (:mod:`repro.core.gcquiet`); this virtual-time
model is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GcModel"]


@dataclass(frozen=True)
class GcModel:
    """Tunables for the GC-pressure tax."""

    #: work units of collector time per allocated (retained or transient) object
    alloc_cost: float = 0.35
    #: how strongly a full heap amplifies the per-allocation tax
    amplify: float = 3.0
    #: retained-object count at which amplification reaches half strength
    half_full: float = 200_000.0
    #: fraction of GC work that is stop-the-world (the rest is concurrent)
    serial_share: float = 0.8

    def step_tax(self, allocations: float, retained: float) -> float:
        """Serial GC time (work units) charged to one step."""
        if allocations <= 0:
            return 0.0
        pressure = 1.0 + self.amplify * retained / (retained + self.half_full)
        return self.alloc_cost * allocations * pressure * self.serial_share


#: model with GC effectively disabled (for ablations)
NO_GC = GcModel(alloc_cost=0.0)
