"""Weighted fair queueing admission: fairness, shedding, slot hygiene."""

import asyncio

import pytest

from repro.errors import FleetError, ServiceBusyError
from repro.fleet.tenancy import WeightedFairScheduler
from repro.obs.metrics import MetricsRegistry


def run(coro):
    return asyncio.run(coro)


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(FleetError, match="max_inflight"):
            WeightedFairScheduler(max_inflight=0)
        with pytest.raises(FleetError, match="max_queue_per_tenant"):
            WeightedFairScheduler(max_queue_per_tenant=-1)
        with pytest.raises(FleetError, match="default_weight"):
            WeightedFairScheduler(default_weight=0)
        with pytest.raises(FleetError, match="weight"):
            WeightedFairScheduler(weights={"t": -1.0})

    def test_weight_lookup_defaults(self):
        sched = WeightedFairScheduler(weights={"gold": 3.0})
        assert sched.weight("gold") == 3.0
        assert sched.weight("anybody") == 1.0


class TestAdmission:
    def test_uncontended_acquire_is_immediate(self):
        async def scenario():
            sched = WeightedFairScheduler(max_inflight=2)
            await sched.acquire("a")
            await sched.acquire("b")
            assert sched.inflight_total == 2
            assert sched.queued_total == 0
            sched.release("a")
            sched.release("b")
            assert sched.inflight_total == 0

        run(scenario())

    def test_shed_at_tenant_queue_cap(self):
        async def scenario():
            sched = WeightedFairScheduler(max_inflight=1, max_queue_per_tenant=1)
            await sched.acquire("hog")  # takes the only slot
            waiting = asyncio.create_task(sched.acquire("hog"))
            await asyncio.sleep(0)  # fills hog's 1-deep queue
            with pytest.raises(ServiceBusyError, match="hog"):
                await sched.acquire("hog")
            assert sched.stats()["shed"] == 1
            # Another tenant's queue is unaffected by hog's cap.
            other = asyncio.create_task(sched.acquire("calm"))
            await asyncio.sleep(0)
            assert sched.queue_depths() == {"hog": 1, "calm": 1}
            sched.release("hog")
            await waiting
            sched.release("hog")
            await other
            sched.release("calm")

        run(scenario())

    def test_light_tenant_not_starved_by_saturating_tenant(self):
        """The satellite acceptance check: a hog queues behind itself."""

        async def scenario():
            sched = WeightedFairScheduler(max_inflight=1)
            await sched.acquire("hog")  # slot held; everything below queues
            order = []

            async def waiter(tenant):
                await sched.acquire(tenant)
                order.append(tenant)
                sched.release(tenant)

            tasks = [asyncio.create_task(waiter("hog")) for _ in range(6)]
            await asyncio.sleep(0)  # hog's backlog enqueues first
            tasks.append(asyncio.create_task(waiter("light")))
            await asyncio.sleep(0)
            sched.release("hog")  # start the dispatch cascade
            await asyncio.gather(*tasks)
            # FIFO would serve light last (position 6); WFQ tags place it
            # right after hog's first queued request.
            assert order.index("light") <= 1
            assert sorted(order) == ["hog"] * 6 + ["light"]

        run(scenario())

    def test_weighted_share_under_contention(self):
        async def scenario():
            sched = WeightedFairScheduler(
                max_inflight=1, weights={"heavy": 2.0}
            )
            await sched.acquire("seed")
            order = []

            async def waiter(tenant):
                await sched.acquire(tenant)
                order.append(tenant)
                sched.release(tenant)

            tasks = [asyncio.create_task(waiter("heavy")) for _ in range(4)]
            await asyncio.sleep(0)
            tasks += [asyncio.create_task(waiter("light")) for _ in range(4)]
            await asyncio.sleep(0)
            sched.release("seed")
            await asyncio.gather(*tasks)
            # While both are backlogged, weight 2 earns ~2 dispatches per 1.
            assert order[:3].count("heavy") >= 2

        run(scenario())

    def test_cancelled_waiter_leaks_nothing(self):
        async def scenario():
            sched = WeightedFairScheduler(max_inflight=1)
            await sched.acquire("a")
            doomed = asyncio.create_task(sched.acquire("b"))
            await asyncio.sleep(0)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            sched.release("a")
            # The dead entry is skipped; the slot is free again.
            assert sched.inflight_total == 0
            assert sched.queued_total == 0
            await sched.acquire("c")  # still grantable
            sched.release("c")

        run(scenario())

    def test_cancel_after_dispatch_returns_the_slot(self):
        async def scenario():
            sched = WeightedFairScheduler(max_inflight=1)
            await sched.acquire("a")
            waiter = asyncio.create_task(sched.acquire("b"))
            await asyncio.sleep(0)
            sched.release("a")  # dispatches b's future...
            waiter.cancel()  # ...but b is cancelled before it runs
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert sched.inflight_total == 0
            await sched.acquire("c")
            sched.release("c")

        run(scenario())


class TestIntrospection:
    def test_stats_shape(self):
        async def scenario():
            sched = WeightedFairScheduler(
                max_inflight=2, max_queue_per_tenant=3, weights={"gold": 2.0}
            )
            await sched.acquire("gold")
            stats = sched.stats()
            assert stats["max_inflight"] == 2
            assert stats["inflight"] == 1
            assert stats["admitted"] == 1
            assert stats["weights"] == {"gold": 2.0}
            sched.release("gold")

        run(scenario())

    def test_bind_metrics_mirrors_depths(self):
        async def scenario():
            registry = MetricsRegistry()
            sched = WeightedFairScheduler(
                max_inflight=1, max_queue_per_tenant=0, registry=registry
            )
            await sched.acquire("a")
            with pytest.raises(ServiceBusyError):
                await sched.acquire("a")
            snap = registry.snapshot()
            inflight = {
                tuple(sample["labels"].items()): sample["value"]
                for sample in snap["cast_fleet_tenant_inflight"]["values"]
            }
            assert inflight[(("tenant", "a"),)] == 1
            admission = {
                sample["labels"]["outcome"]: sample["value"]
                for sample in snap["cast_fleet_admission_total"]["values"]
            }
            assert admission == {"admitted": 1, "shed": 1}
            sched.release("a")

        run(scenario())
