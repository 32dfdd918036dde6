"""The fleet router: routing, parity, failover, caching, observability.

Shards here are real in-process :class:`PlannerServer`s on real sockets
(thread-mode pools, so fast and fork-free); only the supervisor tests
(``test_fleet_supervisor.py``) spawn subprocesses.
"""

import asyncio

import pytest

from repro.errors import (
    NoHealthyShardsError,
    ProtocolError,
    ServiceBusyError,
    SessionError,
    WorkloadError,
)
from repro.fleet import FleetRouter
from repro.service import PlannerClient, PlannerServer, SolverPool
from repro.service.fingerprint import request_fingerprint
from repro.service.protocol import _normalize_solve_params
from repro.workloads.io import workload_to_dict
from repro.workloads.swim import synthesize_small_workload

RESTARTS = 2


def small_spec(n_jobs=4):
    return workload_to_dict(synthesize_small_workload(n_jobs=n_jobs))


def run(coro):
    return asyncio.run(coro)


def fingerprint_for(params, default_restarts=RESTARTS, op="plan"):
    """The fingerprint the router will compute for ``params``."""
    normalized = _normalize_solve_params(op, params)
    restarts = normalized["restarts"] or default_restarts
    return request_fingerprint(
        op,
        normalized["spec"],
        provider=normalized["provider"],
        n_vms=normalized["n_vms"],
        iterations=normalized["iterations"],
        seed=normalized["seed"],
        use_castpp=normalized["use_castpp"],
        restarts=restarts,
        backend=normalized["backend"],
        replicas=normalized["replicas"],
    )


def seed_routed_to(router, shard_id, spec, **params):
    """A solve seed whose fingerprint the ring maps onto ``shard_id``."""
    for seed in range(200):
        fp = fingerprint_for(dict(params, spec=spec, seed=seed))
        if router.ring.route(fp) == shard_id:
            return seed
    raise AssertionError(f"no seed routed to {shard_id} in 200 tries")


class Fleet:
    """A router plus N in-process planner shards, all on one loop."""

    def __init__(self, n=2, solver_fns=None, **router_kwargs):
        router_kwargs.setdefault("health_interval_s", 0)  # probe on demand
        router_kwargs.setdefault("default_restarts", RESTARTS)
        self.router = FleetRouter(**router_kwargs)
        self.servers = [
            PlannerServer(
                pool=SolverPool(processes=0, restarts=RESTARTS),
                solver_fn=(solver_fns or {}).get(i),
            )
            for i in range(n)
        ]
        self._tasks = []

    async def __aenter__(self):
        for i, server in enumerate(self.servers):
            await server.start()
            self._tasks.append(asyncio.create_task(server.serve_forever()))
            self.router.add_shard(f"s{i}", *server.address)
        await self.router.start()
        self._tasks.append(asyncio.create_task(self.router.serve_forever()))
        return self

    async def __aexit__(self, *exc):
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        await self.router.stop()
        for server in self.servers:
            await server.stop()

    def client(self, **kwargs):
        return PlannerClient(*self.router.address, **kwargs)


class TestRouting:
    def test_solve_routes_and_stamps_shard(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    result = await client.plan(
                        small_spec(), n_vms=5, iterations=30, seed=7
                    )
                    assert result["kind"] == "plan"
                    assert result["shard"] in ("s0", "s1")
                    routed = fleet.router.stats()["routed"]
                    assert routed == {result["shard"]: 1}

        run(scenario())

    def test_every_shard_reachable_by_some_request(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                spec = small_spec()
                async with fleet.client() as client:
                    for shard in ("s0", "s1"):
                        seed = seed_routed_to(
                            fleet.router, shard, spec, n_vms=5, iterations=20
                        )
                        result = await client.plan(
                            spec, n_vms=5, iterations=20, seed=seed
                        )
                        assert result["shard"] == shard

        run(scenario())

    def test_router_l1_cache_serves_repeats(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    first = await client.plan(small_spec(), iterations=30, seed=3)
                    assert first["cached"] is False
                    second = await client.plan(small_spec(), iterations=30, seed=3)
                    assert second["cached"] is True
                    assert second["plan"] == first["plan"]
                    assert fleet.router.cache.stats()["hits"] == 1
                    # The hit never re-touched a shard.
                    assert sum(fleet.router.stats()["routed"].values()) == 1

        run(scenario())

    def test_whatif_routes_and_caches(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    first = await client.whatif(
                        small_spec(), tier="objStore", n_vms=5
                    )
                    assert first["cached"] is False
                    assert first["fast"] is True
                    assert first["makespan_s"] > 0
                    assert first["shard"] in ("s0", "s1")
                    # Repeat hits the router's L1 cache, bit-equal.
                    second = await client.whatif(
                        small_spec(), tier="objStore", n_vms=5
                    )
                    assert second["cached"] is True
                    assert second["makespan_s"] == first["makespan_s"]
                    assert fleet.router.cache.stats()["hits"] == 1

        run(scenario())

    def test_identical_inflight_requests_collapse(self):
        calls = []

        async def slow_solver(request):
            calls.append(request["seed"])
            await asyncio.sleep(0.05)
            return {"kind": "plan", "utility": 2.5, "plan": {"placements": {}}}

        async def scenario():
            async with Fleet(n=1, solver_fns={0: slow_solver}) as fleet:
                async with fleet.client() as c1, fleet.client() as c2:
                    r1, r2 = await asyncio.gather(
                        c1.plan(small_spec(), iterations=30, seed=9),
                        c2.plan(small_spec(), iterations=30, seed=9),
                    )
                    assert r1["utility"] == r2["utility"] == 2.5
                    assert len(calls) == 1  # one shard solve, fleet-wide
                    assert fleet.router.counters["dedup_joined"] == 1

        run(scenario())

    def test_typed_errors_propagate_without_failover(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    bad = {
                        "version": 1, "kind": "workload", "name": "x",
                        "jobs": [{"job_id": "j", "app": "nosuch", "input_gb": 1}],
                    }
                    with pytest.raises(WorkloadError, match="unknown application"):
                        await client.plan(bad, iterations=10)
                    # Both shards are still in the ring: no failover fired.
                    assert fleet.router.healthy_shards == ["s0", "s1"]
                    assert "failovers" not in fleet.router.counters

        run(scenario())

    def test_no_shards_is_a_typed_error(self):
        async def scenario():
            async with Fleet(n=0) as fleet:
                async with fleet.client() as client:
                    with pytest.raises(NoHealthyShardsError, match="0 registered"):
                        await client.plan(small_spec(), iterations=10)

        run(scenario())


class TestParity:
    def test_fleet_answer_bit_identical_to_single_server(self):
        """The acceptance criterion: routing never perturbs the solve."""

        async def scenario():
            spec = small_spec()
            kwargs = dict(n_vms=5, iterations=40, seed=11, restarts=RESTARTS)

            solo = PlannerServer(pool=SolverPool(processes=0, restarts=RESTARTS))
            await solo.start()
            solo_task = asyncio.create_task(solo.serve_forever())
            try:
                async with PlannerClient(*solo.address) as client:
                    direct = await client.plan(spec, **kwargs)
            finally:
                solo_task.cancel()
                await asyncio.gather(solo_task, return_exceptions=True)
                await solo.stop()

            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    fleet_result = await client.plan(spec, **kwargs)

            assert fleet_result["plan"] == direct["plan"]
            assert fleet_result["utility"] == direct["utility"]
            assert fleet_result["fingerprint"] == direct["fingerprint"]

        run(scenario())

    def test_tenant_label_does_not_change_the_answer(self):
        async def scenario():
            spec = small_spec()
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    a = await client.plan(spec, iterations=30, seed=5, tenant="alice")
                    fleet.router.cache.clear()
                    b = await client.plan(spec, iterations=30, seed=5, tenant="bob")
                    assert a["fingerprint"] == b["fingerprint"]
                    assert a["plan"] == b["plan"]
                    tenants = {
                        labels["tenant"]
                        for labels, _ in fleet.router._tenant_requests.samples()
                    }
                    assert tenants == {"alice", "bob"}

        run(scenario())


class TestFailover:
    def test_shard_death_mid_solve_fails_over_to_survivor(self):
        """Kill the routed shard mid-solve; the client still gets a plan."""
        state = {}

        async def dying_solver(request):
            # Simulate a crash: sever every connection (the router's
            # forward included), so no response line is ever delivered.
            for writer in list(state["server"]._connections):
                writer.close()
            await asyncio.sleep(0.02)
            return {"kind": "plan", "utility": 0.0, "plan": {"placements": {}}}

        async def scenario():
            async with Fleet(n=2, solver_fns={0: dying_solver}) as fleet:
                state["server"] = fleet.servers[0]
                spec = small_spec()
                seed = seed_routed_to(fleet.router, "s0", spec, iterations=30)
                async with fleet.client() as client:
                    result = await client.plan(spec, iterations=30, seed=seed)
                    # Failed over: answered by the healthy shard.
                    assert result["kind"] == "plan"
                    assert result["shard"] == "s1"
                    assert fleet.router.counters["failovers"] == 1
                    assert fleet.router.healthy_shards == ["s1"]

        run(scenario())

    def test_health_sweep_recovers_a_marked_down_shard(self):
        async def scenario():
            async with Fleet(n=2, health_failures=1) as fleet:
                fleet.router._mark_down("s0", "test says so")
                assert fleet.router.healthy_shards == ["s1"]
                await fleet.router.check_health()  # s0 still answers pings
                assert fleet.router.healthy_shards == ["s0", "s1"]

        run(scenario())

    def test_ring_restored_means_same_routing_as_before(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                spec = small_spec()
                fp = fingerprint_for({"spec": spec, "seed": 1, "iterations": 20})
                owner = fleet.router.ring.route(fp)
                fleet.router._mark_down(owner, "blip")
                fleet.router._mark_up(owner)
                assert fleet.router.ring.route(fp) == owner

        run(scenario())


class TestAdmission:
    def test_saturating_tenant_is_shed_not_queued_forever(self):
        async def slow_solver(request):
            await asyncio.sleep(0.2)
            return {"kind": "plan", "utility": 1.0, "plan": {"placements": {}}}

        async def scenario():
            async with Fleet(
                n=1, solver_fns={0: slow_solver},
                max_inflight=1, max_queue_per_tenant=0,
            ) as fleet:
                async with fleet.client() as c1, fleet.client() as c2:
                    spec = small_spec()
                    first = asyncio.create_task(
                        c1.plan(spec, iterations=30, seed=1, tenant="hog")
                    )
                    await asyncio.sleep(0.05)  # first holds the only slot
                    with pytest.raises(ServiceBusyError, match="hog"):
                        await c2.plan(spec, iterations=30, seed=2, tenant="hog")
                    assert (await first)["kind"] == "plan"
                    assert fleet.router.scheduler.stats()["shed"] == 1

        run(scenario())


class TestMembershipOps:
    def test_register_and_deregister_over_the_wire(self):
        async def scenario():
            async with Fleet(n=1) as fleet:
                extra = PlannerServer(pool=SolverPool(processes=0, restarts=1))
                await extra.start()
                extra_task = asyncio.create_task(extra.serve_forever())
                try:
                    async with fleet.client() as client:
                        ack = await client.register("s9", *extra.address)
                        assert ack["shard"]["shard_id"] == "s9"
                        assert sorted(ack["ring"]) == ["s0", "s9"]
                        gone = await client.deregister("s9")
                        assert gone["removed"] is True
                        assert fleet.router.healthy_shards == ["s0"]
                        again = await client.deregister("s9")
                        assert again["removed"] is False
                finally:
                    extra_task.cancel()
                    await asyncio.gather(extra_task, return_exceptions=True)
                    await extra.stop()

        run(scenario())

    def test_register_params_validated(self):
        async def scenario():
            async with Fleet(n=1) as fleet:
                async with fleet.client() as client:
                    with pytest.raises(ProtocolError, match="shard_id"):
                        await client.request("register", {"host": "h"})
                    with pytest.raises(ProtocolError, match="port"):
                        await client.request(
                            "register",
                            {"shard_id": "x", "host": "h", "port": "nope"},
                        )

        run(scenario())

    def test_planner_shard_refuses_register(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            await server.start()
            task = asyncio.create_task(server.serve_forever())
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(ProtocolError, match="fleet router"):
                        await client.register("s0", "h", 1)
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                await server.stop()

        run(scenario())


class TestSessions:
    def test_session_pinned_to_one_shard(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    opened = await client.session_open(
                        small_spec(6), iterations=150, seed=3,
                        include_plan=False,
                    )
                    sid = opened["session_id"]
                    home = opened["shard"]
                    assert opened["mode"] == "full"
                    assert (
                        fleet.router.stats()["sessions"][sid]["home"] == home
                    )
                    # Every delta lands on the pinned shard and is logged.
                    for i in range(3):
                        out = await client.session_delta(
                            sid,
                            add_jobs=[{
                                "job_id": f"n{i}", "app": "grep",
                                "input_gb": 2.0, "n_maps": 4,
                            }],
                        )
                        assert out["shard"] == home
                        assert out["mode"] == "warm"
                    logged = fleet.router.stats()["sessions"][sid]
                    assert logged["deltas_logged"] == 3
                    closed = await client.session_close(sid)
                    assert closed["counters"]["deltas"] == 4
                    assert sid not in fleet.router.stats()["sessions"]

        run(scenario())

    def test_failover_replays_the_session_log(self):
        """Kill the home shard: the next delta replays open + deltas on
        the ring successor and continues from identical state."""

        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    opened = await client.session_open(
                        small_spec(6), iterations=150, seed=3,
                        include_plan=False,
                    )
                    sid = opened["session_id"]
                    home = opened["shard"]
                    await client.session_delta(
                        sid,
                        add_jobs=[{
                            "job_id": "newjob", "app": "sort",
                            "input_gb": 4.0, "n_maps": 8, "n_reduces": 2,
                        }],
                    )
                    await fleet.servers[int(home[1:])].stop()
                    fleet.router._mark_down(home, "stopped by test")

                    out = await client.session_delta(sid, remove=["newjob"])
                    survivor = out["shard"]
                    assert survivor != home
                    assert out["resident_jobs"] == 6
                    assert fleet.router.counters["session_replays"] == 1
                    stats = fleet.router.stats()["sessions"][sid]
                    assert stats["home"] == survivor
                    assert stats["deltas_logged"] == 2
                    closed = await client.session_close(sid)
                    # open + 2 deltas replayed, + the post-failover delta
                    # and nothing else: the survivor saw the same history.
                    assert closed["counters"]["deltas"] == 3

        run(scenario())

    def test_unknown_session_is_a_typed_error(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    with pytest.raises(SessionError, match="no such session"):
                        await client.session_delta("nope", remove=["x"])
                    # Typed errors never trigger failover.
                    assert fleet.router.healthy_shards == ["s0", "s1"]

        run(scenario())


class TestObservability:
    def test_fleet_scrape_equals_sum_of_shard_snapshots(self):
        """The roll-up invariant: sum over the shard label = fleet total."""

        async def scenario():
            async with Fleet(n=2) as fleet:
                spec = small_spec()
                async with fleet.client() as client:
                    for shard in ("s0", "s1"):
                        seed = seed_routed_to(
                            fleet.router, shard, spec, iterations=20
                        )
                        await client.plan(spec, iterations=20, seed=seed)
                    scraped = await client.metrics(format="json", scope="fleet")
                    assert scraped["scope"] == "fleet"
                    metrics = scraped["metrics"]

                entry = metrics["cast_service_requests_total"]
                assert "shard" in entry["labelnames"]
                by_shard = {
                    sample["labels"]["shard"]: sample["value"]
                    for sample in entry["values"]
                }
                for i, server in enumerate(fleet.servers):
                    direct = sum(
                        value
                        for _, value in server.metrics.get(
                            "cast_service_requests_total"
                        ).samples()
                    )
                    assert by_shard[f"s{i}"] == direct
                # Router series carry their own shard label.
                router_entry = metrics["cast_fleet_requests_total"]
                assert {
                    sample["labels"]["shard"] for sample in router_entry["values"]
                } == {"router"}

        run(scenario())

    def test_scrape_survives_a_dead_shard(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    await fleet.servers[0].stop()
                    fleet.router._mark_down("s0", "stopped by test")
                    scraped = await client.metrics(format="json", scope="fleet")
                    shards = set()
                    for entry in scraped["metrics"].values():
                        for sample in entry["values"]:
                            shards.add(sample["labels"].get("shard"))
                    assert "s0" not in shards
                    assert {"router", "s1"} <= shards

        run(scenario())

    def test_router_scope_and_bad_scope(self):
        async def scenario():
            async with Fleet(n=1) as fleet:
                async with fleet.client() as client:
                    own = await client.metrics(format="json", scope="router")
                    assert "cast_fleet_requests_total" in own["metrics"]
                    with pytest.raises(ProtocolError, match="scope"):
                        await client.metrics(format="json", scope="galaxy")

        run(scenario())

    def test_stats_reports_fleet_shape(self):
        async def scenario():
            async with Fleet(n=2) as fleet:
                async with fleet.client() as client:
                    stats = await client.stats()
                    assert stats["role"] == "fleet-router"
                    assert len(stats["shards"]) == 2
                    assert sorted(stats["ring"]) == ["s0", "s1"]
                    assert stats["tenancy"]["max_inflight"] == 16

        run(scenario())


class TestFleetSLO:
    """The fleet `slo` op: per-shard evaluation, worst-shard roll-up."""

    @staticmethod
    def _tight_policy(**overrides):
        from repro.obs.slo import BurnPolicy

        kw = dict(fast_short_s=10.0, fast_long_s=60.0,
                  slow_short_s=30.0, slow_long_s=120.0)
        kw.update(overrides)
        return BurnPolicy(**kw)

    def _slo_fleet(self, clocks, failing=()):
        """A 2-shard fleet with manual SLO clocks and on-demand eval."""
        from repro.errors import WorkloadError as WErr
        from repro.obs.slo import Objective

        async def failing_solver(request):
            raise WErr("synthetic shard failure")

        objectives = [Objective("solve", ("plan",),
                                kind="availability", target=0.99)]
        router = FleetRouter(
            health_interval_s=0,
            default_restarts=RESTARTS,
            slo_objectives=objectives,
            # The router never alerts here: its role in these tests is
            # pure roll-up, so its own engine is muted via min_events.
            slo_policy=self._tight_policy(min_events=10**6),
            slo_eval_interval_s=0,
        )
        servers = [
            PlannerServer(
                pool=SolverPool(processes=0, restarts=RESTARTS),
                solver_fn=failing_solver if i in failing else None,
                slo_objectives=objectives,
                slo_policy=self._tight_policy(),
                slo_clock=(lambda i=i: clocks[i]),
                slo_eval_interval_s=0,
            )
            for i in range(2)
        ]
        return router, servers

    def test_two_shard_rollup_is_worst_shard_state(self):
        clocks = [0.0, 0.0]

        async def scenario():
            router, servers = self._slo_fleet(clocks, failing=(1,))
            tasks = []
            for i, server in enumerate(servers):
                await server.start()
                tasks.append(asyncio.create_task(server.serve_forever()))
                router.add_shard(f"s{i}", *server.address)
            await router.start()
            tasks.append(asyncio.create_task(router.serve_forever()))
            try:
                async with PlannerClient(*router.address) as client:
                    # Baseline observation on every engine, all clocks 0.
                    baseline = await client.slo()
                    assert baseline["scope"] == "fleet"
                    assert baseline["state"] == "ok"
                    assert baseline["ops"]["solve"]["shards"] == {
                        "router": "ok", "s0": "ok", "s1": "ok",
                    }

                    spec = small_spec()
                    seed = seed_routed_to(router, "s1", spec, iterations=10)
                    with pytest.raises(WorkloadError):
                        await client.plan(spec, iterations=10, seed=seed)

                    # Only s1's window slides past its failure.
                    clocks[1] = 61.0
                    report = await client.slo()
                    assert report["state"] == "page"
                    solve = report["ops"]["solve"]
                    assert solve["state"] == "page"
                    assert solve["shards"]["s1"] == "page"
                    assert solve["shards"]["s0"] == "ok"
                    assert report["shards"]["s1"] == "page"
                    assert report["policy"]["fast_burn"] == 14.4

                    # Router scope skips the scrape entirely.
                    own = await client.slo(scope="router")
                    assert own["scope"] == "router"
                    assert "shards" not in own["ops"]["solve"]

                    with pytest.raises(ProtocolError, match="scope"):
                        await client.slo(scope="galaxy")
            finally:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                await router.stop()
                for server in servers:
                    await server.stop()

        run(scenario())

    def test_rollup_skips_a_dead_shard(self):
        clocks = [0.0, 0.0]

        async def scenario():
            router, servers = self._slo_fleet(clocks)
            tasks = []
            for i, server in enumerate(servers):
                await server.start()
                tasks.append(asyncio.create_task(server.serve_forever()))
                router.add_shard(f"s{i}", *server.address)
            await router.start()
            tasks.append(asyncio.create_task(router.serve_forever()))
            try:
                async with PlannerClient(*router.address) as client:
                    await servers[0].stop()
                    router._mark_down("s0", "stopped by test")
                    report = await client.slo()
                    assert "s0" not in report["shards"]
                    assert report["shards"]["s1"] == "ok"
            finally:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                await router.stop()
                for server in servers:
                    await server.stop()

        run(scenario())


class TestFleetRestartScrape:
    def test_delta_across_a_shard_restart_never_goes_negative(self):
        """A shard respawn resets its counters mid-scrape; deltas
        between successive fleet scrapes must clamp, not go negative
        (the snapshot_delta counter-reset contract, fleet-level)."""
        from repro.obs.metrics import snapshot_delta

        async def scenario():
            async with Fleet(n=2) as fleet:
                spec = small_spec()
                async with fleet.client() as client:
                    for shard in ("s0", "s1"):
                        seed = seed_routed_to(
                            fleet.router, shard, spec, iterations=20
                        )
                        await client.plan(spec, iterations=20, seed=seed)
                    before = (await client.metrics(
                        format="json", scope="fleet"))["metrics"]

                    # Restart s0 on its original port: same ring slot,
                    # fresh process, zeroed counters.
                    old = fleet.servers[0]
                    host, port = old.address
                    await old.stop()
                    fresh = PlannerServer(
                        host, port,
                        pool=SolverPool(processes=0, restarts=RESTARTS),
                    )
                    await fresh.start()
                    fleet.servers[0] = fresh
                    fleet._tasks.append(
                        asyncio.create_task(fresh.serve_forever())
                    )

                    after = (await client.metrics(
                        format="json", scope="fleet"))["metrics"]

                delta = snapshot_delta(before, after)
                for name, entry in delta.items():
                    for sample in entry["values"]:
                        value = sample["value"]
                        if entry["kind"] == "counter":
                            assert value >= 0, (name, sample)
                        elif entry["kind"] == "histogram":
                            assert value["count"] >= 0, (name, sample)
                            assert all(c >= 0 for c in value["counts"]), \
                                (name, sample)
                # The restarted shard's scrape did reset below its old
                # totals (otherwise this test proves nothing).
                served = before["cast_service_requests_total"]["values"]
                assert any(s["labels"].get("shard") == "s0" for s in served)

        run(scenario())
