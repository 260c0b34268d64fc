"""The scalar execution tier: one task per trigger, fresh contexts.

This is the reference tier — the §5 semantics every other tier must be
byte-identical to — and the only one that works under every strategy:
each popped tuple becomes one :class:`~repro.exec.base.EngineTask`
(or one per triggered rule under ``task_granularity="rule"``), each
firing gets a fresh :class:`~repro.core.rules.RuleContext`, and the
strategy is free to interleave the tasks however it likes.

The retraction repair path also builds its tasks here
(:meth:`ScalarExecutor.make_task` with ``refire``/``dead``): retraction
refuses every other tier, so repair and scalar firing share one code
path by construction.
"""

from __future__ import annotations

from repro.core.database import InsertOutcome
from repro.core.executors.base import StepExecutor
from repro.core.ordering import output_keys
from repro.core.rules import Rule, RuleContext
from repro.core.support import FiringRecord
from repro.core.tuples import JTuple
from repro.exec.base import EngineTask, TaskResult

__all__ = ["ScalarExecutor"]


class ScalarExecutor(StepExecutor):
    name = "scalar"

    # -- firing --------------------------------------------------------------

    def fire_one(self, rule: Rule, tup: JTuple, result: TaskResult) -> None:
        k = self.kernel
        tallies = k._fire_tallies
        key = (tup.schema.name, rule.name)
        tallies[key] = tallies.get(key, 0) + 1
        result.meter.charge("rule_fire")
        rec = (
            FiringRecord(rule.name, k._rule_index[id(rule)], tup)
            if k._support is not None
            else None
        )
        ctx = RuleContext(
            k.db,
            k.program.decls,
            result.meter,
            rule,
            tup,
            k.db.timestamp(tup),
            k._check_mode,
            k.stats,
            k._lock,
            k.strategy.yield_point,
            result.events if k.tracer is not None else None,
            k._plans,
            rec,
        )
        rule.body(ctx, tup)
        ctx.finish()
        result.fired_rules.append(rule.name)
        if ctx.output:
            result.output.extend(ctx.output)
            if rec is None:
                # the keys retraction mode maintains via _insert_output,
                # so the per-step sort in _run_step reproduces its order
                ridx = k._rule_index[id(rule)]
                n = len(ctx.output)
                result.out_keys.extend(output_keys(ctx.trigger_ts.key, tup, ridx, n))
            k.stats.rule(rule.name).output_lines += len(ctx.output)
        if rec is not None:
            rec.puts = tuple(ctx.puts)
            rec.lines = tuple(ctx.output)
            result.firings.append(rec)
        k._handle_puts(ctx.puts, result, rule.name)

    # -- task construction ---------------------------------------------------

    def make_task(
        self,
        tup: JTuple,
        outcome: InsertOutcome | None,
        refire: bool = False,
        dead: bool = False,
    ) -> EngineTask:
        """Task closure for one popped tuple.  ``outcome`` is the Gamma
        insertion result decided in the sequential prepare phase; the
        task charges for it and fires the triggered rules.  Retraction
        mode adds ``refire`` (fire even though the Gamma insert is a
        duplicate — DRed rederivation) and ``dead`` (the tuple was
        killed by a repair cascade after it was popped — behave like a
        duplicate, trace-stable)."""
        k = self.kernel

        def run() -> TaskResult:
            result = k._new_result(tup)
            result.meter.charge("delta_pop")
            name = tup.schema.name
            dead_now = dead or (
                k._dead_step is not None and tup in k._dead_step
            )
            if dead_now:
                result.duplicate = True
                k._tt(name)[1] += 1
                return result
            if outcome is None:  # -noGamma table
                k._tt(name)[3] += 1
            else:
                result.meter.charge_store_op("insert", k.db.store(name))
                if outcome is InsertOutcome.DUPLICATE:
                    k._tt(name)[1] += 1
                    if not refire:
                        result.duplicate = True
                        return result
                else:
                    k._tt(name)[2] += 1
            k._fire_rules(tup, result)
            return result

        return EngineTask(trigger=tup, run=run)

    def _make_rule_task(
        self,
        tup: JTuple,
        rule: Rule,
        outcome: InsertOutcome | None,
        charge_insert: bool,
    ) -> EngineTask:
        """§5.2's first extension: "we could create one task per rule
        that is triggered".  The first rule task of a tuple also pays
        its Delta-pop and Gamma-insert costs."""
        k = self.kernel

        def run() -> TaskResult:
            result = k._new_result(tup)
            name = tup.schema.name
            if charge_insert:
                result.meter.charge("delta_pop")
                if outcome is None:
                    k._tt(name)[3] += 1
                else:
                    result.meter.charge_store_op("insert", k.db.store(name))
                    k._tt(name)[2] += 1
            self.fire_one(rule, tup, result)
            return result

        return EngineTask(trigger=tup, run=run)

    def _build_tasks(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[EngineTask]:
        k = self.kernel
        if not k._per_rule_tasks:
            return [self.make_task(tup, outcome) for tup, outcome in prepared]
        tasks: list[EngineTask] = []
        for tup, outcome in prepared:
            if outcome is InsertOutcome.DUPLICATE:
                tasks.append(self.make_task(tup, outcome))  # dup bookkeeping
                continue
            rules = k.program.rules_for(tup.schema.name)
            if not rules:
                tasks.append(self.make_task(tup, outcome))
                continue
            for i, rule in enumerate(rules):
                tasks.append(
                    self._make_rule_task(tup, rule, outcome, charge_insert=i == 0)
                )
        return tasks

    def fire_class(
        self, prepared: list[tuple[JTuple, InsertOutcome | None]]
    ) -> list[TaskResult]:
        # Phase B: fire (possibly genuinely threaded).
        return self.kernel.strategy.run_batch(self._build_tasks(prepared))
