"""Keep settled engine state out of CPython's cyclic collector.

Gamma only grows during a drain, and nothing in it can become garbage
while the session holds it, yet every full (generation-2) collection
rescans all of it.  :func:`drain_scope` wraps :meth:`StepKernel.drain`;
:func:`step_boundary` runs after every step.  Both call
:func:`gc.freeze`, which moves every tracked object into the permanent
generation: young collections inside a step then scan only that step's
allocations and full collections stop rescanning settled Gamma.  The
outermost drain exit calls :func:`gc.unfreeze`, so cyclic garbage a
rule body made during the drain is reclaimed by the next ordinary
collection.

``gc.freeze`` is process-global and service tenants drain concurrently
on executor threads, so a lock-guarded depth counter decides: the first
entry chooses whether to act, only the last exit unfreezes.  Nothing
is done when, at that first entry, the caller has disabled the
collector or holds frozen objects of their own (a pre-fork freeze).
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["drain_scope", "step_boundary"]

# module-level because the state they guard, the collector's permanent
# generation, is itself one per process
_lock = threading.Lock()
_depth = 0
_active = False


@contextmanager
def drain_scope() -> Iterator[None]:
    """One drain: freeze on entry; the outermost exit, however it
    exits, unfreezes."""
    global _depth, _active
    with _lock:
        if _depth == 0:
            _active = gc.isenabled() and gc.get_freeze_count() == 0
        _depth += 1
        if _active:
            gc.freeze()
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _active:
                _active = False
                gc.unfreeze()


def step_boundary() -> None:
    """Freeze everything that survived the step just run."""
    if _active:
        gc.freeze()
