"""The collector policy of a drain (repro.core.gcquiet): what survives a
step is frozen out of the cyclic collector until the drain ends, cyclic
garbage is still reclaimed afterwards, and the caller's collector state
(enabled, thresholds, own frozen objects) is exactly what it was —
whether the drain returned or raised, and with drains on several
threads at once."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.core import EngineError, ExecOptions, KeyInvariantError, Program


def _gc_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def _clean_collector():
    assert gc.isenabled() and gc.get_freeze_count() == 0, "collector state leaked in"
    yield
    assert gc.isenabled() and gc.get_freeze_count() == 0, "collector state leaked out"


class _Node:
    def __init__(self):
        self.me = self


def chain_program(limit: int, hook=None):
    """One T per step for ``limit`` steps; ``hook(t)`` runs in every
    firing."""
    p = Program("chain")
    T = p.table("T", "int t -> int v", orderby=("Int", "seq t"))

    @p.foreach(T)
    def step(ctx, t):
        if hook is not None:
            hook(t.t)
        ctx.println(f"t={t.t} v={t.v}")
        if t.t < limit:
            ctx.put(T.new(t.t + 1, (t.v * 31 + 7) % 1009))

    p.put(T.new(0, 1))
    return p


class TestCyclicGarbage:
    def test_cycles_built_in_rule_bodies_are_reclaimed_after_settle(self):
        refs: list[weakref.ref] = []

        def make_cycle(_t):
            refs.append(weakref.ref(_Node()))

        p = chain_program(50, make_cycle)
        with p.session(ExecOptions()) as s:
            s.feed(p.initial_puts)
            s.settle()
            gc.collect()
            assert len(refs) == 51
            assert all(r() is None for r in refs), "a cycle outlived the drain"

    def test_survivors_of_a_step_are_frozen_during_the_drain(self):
        counts: list[int] = []
        p = chain_program(5, lambda _t: counts.append(gc.get_freeze_count()))
        p.run()
        assert counts and all(c > 0 for c in counts)
        # the state settled by earlier steps is frozen at later ones
        assert counts[-1] >= counts[0]


class TestCallerStateRestored:
    def test_after_max_steps_error(self):
        before = _gc_state()
        with pytest.raises(EngineError, match="max_steps"):
            chain_program(100).run(ExecOptions(max_steps=10))
        assert _gc_state() == before

    def test_after_key_invariant_error(self):
        p = Program("keys")
        K = p.table("K", "int k -> int v", orderby=("A", "par k"))

        @p.foreach(K)
        def clash(ctx, t):
            if t.k == 0:
                ctx.put(K.new(0, 99))  # same key, different value

        p.put(K.new(0, 1))
        before = _gc_state()
        with pytest.raises(KeyInvariantError):
            p.run()
        assert _gc_state() == before

    def test_callers_own_freeze_is_left_in_place(self):
        seen: list[int] = []
        gc.freeze()
        try:
            before = _gc_state()
            chain_program(20, lambda _t: seen.append(gc.get_freeze_count())).run()
            assert _gc_state() == before
            # the drain froze nothing of its own on top
            assert set(seen) == {before[2]}
        finally:
            gc.unfreeze()

    def test_callers_disable_is_left_in_place(self):
        seen: list[int] = []
        gc.disable()
        try:
            before = _gc_state()
            chain_program(20, lambda _t: seen.append(gc.get_freeze_count())).run()
            assert _gc_state() == before
            assert set(seen) == {0}
        finally:
            gc.enable()


class TestConcurrentDrains:
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_threads_finish_unfrozen_with_solo_output(self, n_threads):
        solo = chain_program(200).run().output_text()
        # every run parks at the barrier inside its drain, so the drains
        # overlap for certain; only the last exit may unfreeze
        barrier = threading.Barrier(n_threads, timeout=30)

        def hook(t):
            if t == 10:
                barrier.wait()

        outputs: list[str | None] = [None] * n_threads
        errors: list[BaseException] = []

        def worker(i):
            try:
                outputs[i] = chain_program(200, hook).run().output_text()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert outputs == [solo] * n_threads
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        # a lost update of the drain depth would leave the next drain
        # thinking it is nested, and it would not freeze
        counts: list[int] = []
        chain_program(3, lambda _t: counts.append(gc.get_freeze_count())).run()
        assert all(c > 0 for c in counts)

    def test_only_the_last_exit_unfreezes(self):
        inside = threading.Event()
        other_done = threading.Event()
        seen: list[int] = []
        errors: list[BaseException] = []

        def hook(t):
            if t == 2:
                inside.set()
                other_done.wait(30)
            elif t > 2:
                seen.append(gc.get_freeze_count())

        def worker():
            try:
                chain_program(5, hook).run()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        th = threading.Thread(target=worker)
        th.start()
        try:
            assert inside.wait(30)
            chain_program(5).run()  # enters and exits while the worker drains
        finally:
            other_done.set()
            th.join(60)
        assert not th.is_alive()
        assert not errors, errors
        # the worker's settled state stayed frozen after the other exit
        assert seen and all(c > 0 for c in seen)
