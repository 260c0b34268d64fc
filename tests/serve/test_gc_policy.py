"""The service leg of the collector policy (repro.core.gcquiet): tenants
settling at once on the executor threads share one process-global
freeze, and once the service stops the collector is back to the state
it was in before — enabled, same thresholds, nothing frozen — while
every tenant's output still equals its single-shot oracle."""

from __future__ import annotations

import asyncio
import gc

from repro.core import ExecOptions
from repro.serve import ServiceClient, ServiceConfig, SessionService
from tests.serve._progs import (
    make_registry,
    oracle_output,
    telemetry_factory,
    telemetry_script,
)

N_TENANTS = 6
SETTLE_EVERY = 2  # batches per settle


def _retracted(batch: list[list]) -> list[list]:
    """Every third reading of ``batch``, as delete triples."""
    return [["-", table, values] for _, table, values in batch[::3]]


async def _drive(port: int, tenant: str, batches: list, retraction: bool) -> list[str]:
    async with await ServiceClient.connect("127.0.0.1", port) as c:
        await c.open(tenant, "telemetry", options={"retraction": retraction})
        for i, batch in enumerate(batches):
            await c.feed(tenant, batch, retries=8)
            if (i + 1) % SETTLE_EVERY == 0:
                await c.settle(tenant)
        if retraction:
            await c.retract(tenant, _retracted(batches[0]), retries=8)
        await c.settle(tenant)
        return (await c.close(tenant))["output"]


def _oracle(batches: list, retraction: bool) -> list[str]:
    if not retraction:
        return oracle_output(telemetry_factory, batches)
    gone = {tuple(values) for _, _, values in _retracted(batches[0])}
    survivors = [[ev for ev in b if tuple(ev[2]) not in gone] for b in batches]
    return oracle_output(telemetry_factory, survivors, options=ExecOptions(retraction=True))


def test_concurrent_settles_leave_the_collector_as_found():
    before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
    scripts = [telemetry_script(seed=i, n_tuples=480) for i in range(N_TENANTS)]
    retraction = [i % 2 == 1 for i in range(N_TENANTS)]

    async def go():
        service = SessionService(
            make_registry(), ServiceConfig(max_tenants=N_TENANTS + 2, executor_workers=2)
        )
        await service.start()
        try:
            return await asyncio.gather(
                *(
                    _drive(service.port, f"t{i}", scripts[i], retraction[i])
                    for i in range(N_TENANTS)
                )
            )
        finally:
            await service.stop(checkpoint=False)

    outputs = asyncio.run(go())
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before
    for i, out in enumerate(outputs):
        assert out == _oracle(scripts[i], retraction[i]), f"t{i} diverged"
