"""The columnar execution tier: whole-class batch firing (PR 8).

Phase B evaluates each rule's predicted queries over the whole popped
class at once (:mod:`repro.plan.batchcompile`) and serves the firings
from the prefetched rows through a slim reused
:class:`~repro.plan.batchcompile.BatchRuleContext`; any firing whose
concrete calls diverge from the prediction falls back to the scalar
planned path, so results are byte-identical either way.  Sequential
strategies only; the registry downgrades everything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.database import InsertOutcome
from repro.core.executors.base import StepExecutor
from repro.core.ordering import Lit, Timestamp, output_keys
from repro.core.rules import Rule
from repro.core.tuples import JTuple
from repro.exec.base import TaskResult
from repro.exec.metering import NULL_METER
from repro.plan.batchcompile import (
    BatchBoundPlan,
    BatchPrefetch,
    BatchRuleContext,
    compile_batch_plan,
    put_always_causal,
    put_fast_compare,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import StepKernel

__all__ = ["ColumnarExecutor"]


class ColumnarExecutor(StepExecutor):
    name = "columnar"
    dedupe_phase_c = True

    def __init__(self, kernel: "StepKernel"):
        super().__init__(kernel)
        options = kernel.options
        program = kernel.program
        if kernel._metered:
            kernel._metered = False
            kernel._note(
                "metering downgraded to 'off' under execution='columnar': "
                "the batch firing path shares one no-op meter across each "
                "class (results are identical; per-task costs are not "
                "collected)"
            )
        #: per--noDelta-table mutation counters — a prefetched result is
        #: only served while its table's epoch is unchanged, because a
        #: -noDelta cascade can insert into Gamma *during* phase B.  The
        #: dict lives on the kernel (the shared ``_immediate`` path bumps
        #: it); this tier populates and consumes it.
        kernel._mut_epoch.update({name: 0 for name in options.no_delta})
        self._batch_plans: dict[int, BatchBoundPlan] = {}
        self._batch_ctxs: dict[int, BatchRuleContext] = {}
        self._rule_batch_fires: dict[str, int] = {}
        self._rule_scalar_fires: dict[str, int] = {}
        self._batch_widths: dict[int, int] = {}
        #: tables whose orderby is all-literal: their tuples share one
        #: timestamp per run, cached by name in ``_const_ts``
        self._const_names: frozenset[str] = frozenset(
            name
            for name, schema in program.schemas().items()
            if all(isinstance(e, Lit) for e in schema.orderby)
        )
        self._const_ts: dict[str, Timestamp] = {}
        #: trigger table -> {id(schema): True | (put_pos, trig_pos)} for
        #: put targets whose causality check is statically decided
        self._put_safe_cache: dict[str, dict[int, object]] = {}
        check_off = options.causality_check == "off"
        for rule in program.rules:
            # rules whose negative/aggregate queries are dynamically
            # adjudicated need a concrete Query per call; they keep the
            # scalar path (and their exact warning behaviour)
            if not (check_off or rule.assume_stratified):
                continue
            compiled = compile_batch_plan(rule)
            if compiled is not None:
                self._batch_plans[id(rule)] = compiled.bind(
                    kernel.db, kernel._plans, kernel._mut_epoch
                )

    def _put_safe_for(self, name: str, schema) -> dict[int, object]:
        """Build (and cache) the per-trigger-table put-check map:
        ``True`` for statically-causal targets (:func:`put_always_causal`),
        a ``(put_pos, trig_pos)`` pair for seq-comparable ones
        (:func:`put_fast_compare`); everything else stays on the full
        dynamic §4 comparison."""
        k = self.kernel
        decls = k.program.decls
        psafe: dict[int, object] = {}
        for s in k.program.schemas().values():
            if put_always_causal(s, schema, decls):
                psafe[id(s)] = True
            else:
                fc = put_fast_compare(s, schema)
                if fc is not None:
                    psafe[id(s)] = fc
        self._put_safe_cache[name] = psafe
        return psafe

    # -- put routing ---------------------------------------------------------

    def handle_puts(
        self, ctx_puts: list[JTuple], result: TaskResult, rule_name: str
    ) -> None:
        """:meth:`StepExecutor.handle_puts` with the store / rule-list /
        tally lookups hoisted per same-table run — -noDelta cascades put
        thousands of same-table tuples per firing, and this loop is
        where they spend phase B."""
        k = self.kernel
        tallies = k._put_tallies
        nd = k._no_delta
        buffered = result.puts
        insert_into = k.db._insert_into
        fire = self.fire_one
        ep = k._mut_epoch
        cur: str | None = None
        tt = rules = ret = store = None
        in_gamma = False
        for tup in ctx_puts:
            name = tup.schema.name
            key = (rule_name, name)
            tallies[key] = tallies.get(key, 0) + 1
            if name not in nd:
                buffered.append(tup)
                continue
            if name != cur:
                cur = name
                tt = k._tt(name)
                in_gamma = name not in k._no_gamma
                store = k.db.store(name) if in_gamma else None
                rules = k.program.rules_for(name)
                ret = k._retention.get(name)
            tt[0] += 1
            if in_gamma:
                if insert_into(store, tup) is InsertOutcome.DUPLICATE:
                    tt[1] += 1
                    continue
                tt[2] += 1
                ep[name] += 1
                if ret is not None:
                    v = tup.values[ret[0]]
                    if ret[2] is None or v > ret[2]:
                        ret[2] = v
            else:
                tt[3] += 1
            for rule in rules:
                fire(rule, tup, result)

    # -- firing --------------------------------------------------------------

    def fire_one(
        self,
        rule: Rule,
        tup: JTuple,
        result: TaskResult,
        pf: BatchPrefetch | None = None,
        pfi: int = 0,
    ) -> None:
        """Fire through the rule's reused :class:`BatchRuleContext`,
        serving predicted queries from the class prefetch (``pf``/
        ``pfi``; cascade firings arrive with no prefetch and run the
        plain planned path).  Everything observable — puts, output keys,
        stats tallies, trace events — is identical to the scalar tier."""
        k = self.kernel
        name = tup.schema.name
        tallies = k._fire_tallies
        key = (name, rule.name)
        tallies[key] = tallies.get(key, 0) + 1
        counts = (
            self._rule_batch_fires if pf is not None else self._rule_scalar_fires
        )
        counts[rule.name] = counts.get(rule.name, 0) + 1
        trace = result.events if k.tracer is not None else None
        # constant-orderby tables share one timestamp object per run;
        # for them the per-trigger memo probe (a whole-tuple hash) is
        # replaced by one name lookup
        ts = self._const_ts.get(name)
        if ts is None:
            ts = k.db.timestamp(tup)
            if name in self._const_names:
                self._const_ts[name] = ts
        psafe = self._put_safe_cache.get(name)
        if psafe is None:
            psafe = self._put_safe_for(name, tup.schema)
        rid = id(rule)
        ctx = self._batch_ctxs.get(rid)
        if ctx is None or ctx.in_use:
            # first firing of the rule, or a -noDelta cascade re-entered
            # it while an outer firing still owns the shared context
            fresh = BatchRuleContext(
                k.db,
                k.program.decls,
                NULL_METER,
                rule,
                tup,
                ts,
                k._check_mode,
                k.stats,
                k._lock,
                k.strategy.yield_point,
                trace,
                k._plans,
                None,
            )
            fresh._pf = pf
            fresh._pfi = pfi
            fresh._put_safe = psafe
            if ctx is None:
                self._batch_ctxs[rid] = fresh
                fresh.in_use = True
            ctx = fresh
        else:
            ctx.in_use = True
            ctx.reset(tup, ts, trace, pf, pfi, psafe)
        rule.body(ctx, tup)
        ctx.finish()
        if k.tracer is not None:
            result.fired_rules.append(rule.name)
        if ctx.output:
            result.output.extend(ctx.output)
            ridx = k._rule_index[id(rule)]
            n = len(ctx.output)
            result.out_keys.extend(output_keys(ctx.trigger_ts.key, tup, ridx, n))
            k.stats.rule(rule.name).output_lines += len(ctx.output)
        puts = ctx.puts
        # release before routing puts: a -noDelta cascade triggered by
        # them may legitimately re-fire this same rule, and ctx.reset
        # rebinds (never mutates) the lists captured above
        ctx.in_use = False
        if puts:
            k._handle_puts(puts, result, rule.name)

    def fire_class(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[TaskResult]:
        """Columnar phase B: prefetch each rule's predicted queries
        over the whole class, then fire every (trigger, rule) pair in
        the scalar submission order through the slim context path.

        Tracing gets one :class:`TaskResult` per trigger (so the task
        events match the scalar trace byte for byte); otherwise the
        whole class shares a single sink result, whose ``puts`` /
        ``output`` accumulate in exactly the order the per-task results
        would concatenate to."""
        k = self.kernel
        by_table: dict[str, list[JTuple]] = {}
        ordinals: list[int] = []
        for tup, outcome in prepared:
            if outcome is InsertOutcome.DUPLICATE:
                ordinals.append(-1)
                continue
            lst = by_table.get(tup.schema.name)
            if lst is None:
                lst = by_table[tup.schema.name] = []
            ordinals.append(len(lst))
            lst.append(tup)
        prefetches: dict[int, BatchPrefetch] = {}
        bplans = self._batch_plans
        if bplans:
            widths = self._batch_widths
            for name, triggers in by_table.items():
                for rule in k.program.rules_for(name):
                    bp = bplans.get(id(rule))
                    if bp is None:
                        continue
                    pf, n_probes = bp.prefetch(triggers)
                    prefetches[id(rule)] = pf
                    if n_probes:
                        k.meter.charge("gamma_batchselect", n=n_probes)
                    w = len(triggers)
                    widths[w] = widths.get(w, 0) + 1
        tracer = k.tracer
        results: list[TaskResult] = []
        sink = None
        if tracer is None:
            sink = TaskResult(trigger=None, meter=NULL_METER)  # type: ignore[arg-type]
            results.append(sink)
        rules_for = k.program.rules_for
        tt = k._tt
        fire = self.fire_one
        get_pf = prefetches.get
        for (tup, outcome), ordinal in zip(prepared, ordinals):
            name = tup.schema.name
            if tracer is not None:
                result = TaskResult(trigger=tup, meter=NULL_METER)
                results.append(result)
            else:
                result = sink  # type: ignore[assignment]
            if outcome is InsertOutcome.DUPLICATE:
                result.duplicate = True
                tt(name)[1] += 1
                continue
            if outcome is None:  # -noGamma table
                tt(name)[3] += 1
            else:
                tt(name)[2] += 1
            for rule in rules_for(name):
                fire(rule, tup, result, get_pf(id(rule)), ordinal)
        return results

    # -- bookkeeping ---------------------------------------------------------

    def flush_stats(self) -> None:
        k = self.kernel
        batch, scalar = self._rule_batch_fires, self._rule_scalar_fires
        for name in sorted(set(batch) | set(scalar)):
            k.stats.note(
                f"columnar: rule {name!r} fired "
                f"{batch.get(name, 0)} batch / {scalar.get(name, 0)} scalar"
            )
        if self._batch_widths:
            hist = ", ".join(
                f"{w}:{c}" for w, c in sorted(self._batch_widths.items())
            )
            k.stats.note(f"columnar: batch widths (width:classes) {hist}")
        batch.clear()
        scalar.clear()
        self._batch_widths.clear()
