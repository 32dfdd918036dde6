"""Observability threaded through the stack: service, pool, solver.

The acceptance surface of the unified observability layer: all the
ad-hoc counter surfaces report through one registry with the legacy
``stats`` payload intact, a solve's trace nests across every layer
(and across process boundaries), and solver progress callbacks sample
the annealers without disturbing determinism.
"""

import asyncio
import io

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.progress import ProgressPrinter, SolverProgress
from repro.obs.tracing import trace_collector
from repro.service import PlannerClient, PlannerServer, SolverPool
from repro.workloads.io import workload_to_dict
from repro.workloads.swim import synthesize_small_workload


def small_spec(n_jobs=4):
    return workload_to_dict(synthesize_small_workload(n_jobs=n_jobs))


def plan_request(seed=7, iterations=60, **overrides):
    request = {
        "op": "plan",
        "spec": small_spec(),
        "provider": "google",
        "n_vms": 5,
        "iterations": iterations,
        "seed": seed,
    }
    request.update(overrides)
    return request


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_collector():
    trace_collector().clear()
    yield
    trace_collector().clear()


async def one_server_session(fn, **server_kwargs):
    server = PlannerServer(
        pool=SolverPool(processes=0, restarts=2), **server_kwargs
    )
    await server.start()
    host, port = server.address
    try:
        async with PlannerClient(host, port) as client:
            return await fn(server, client)
    finally:
        await server.stop()


class TestServiceMetricsOp:
    def test_prometheus_payload_covers_every_surface(self):
        async def scenario(server, client):
            await client.plan(small_spec(), n_vms=5, iterations=60, seed=1)
            return await client.metrics()

        payload = run(one_server_session(scenario))
        assert payload["format"] == "prometheus"
        body = payload["body"]
        # the five migrated counter surfaces, one registry:
        assert "cast_service_events_total" in body        # server counters
        assert "cast_plan_cache_events_total" in body     # PlanCache
        assert "cast_pool_tasks_total" in body            # SolverPool
        assert "cast_evaluator_events_total" in body      # evaluator totals
        assert "cast_sim_cache_events_total" in body      # simulation cache
        assert "# TYPE cast_service_solve_seconds histogram" in body

    def test_sweep_counters_reach_the_server_scrape(self):
        # A sweep runs on a worker thread; its engine and solver
        # counters must land in this server's registry, not the
        # process-global one.
        async def scenario(server, client):
            await client.sweep(
                small_spec(), providers=("google", "aws"), n_vms=5,
                iterations=60, seed=1,
            )
            return await client.metrics()

        body = run(one_server_session(scenario))["body"]
        assert "cast_sweep_runs_total 1" in body
        assert 'cast_sweep_points_total{mode="cold"} 1' in body
        assert 'cast_solver_solves_total{backend="anneal"} 2' in body

    def test_json_payload_has_latency_quantiles(self):
        async def scenario(server, client):
            await client.plan(small_spec(), n_vms=5, iterations=60, seed=1)
            return await client.metrics(format="json")

        payload = run(one_server_session(scenario))
        entry = payload["metrics"]["cast_service_solve_seconds"]
        ((sample),) = entry["values"]
        assert set(sample["quantiles"]) == {"p50", "p95", "p99"}
        assert sample["value"]["count"] == 1

    def test_unknown_format_is_protocol_error(self):
        from repro.errors import ProtocolError

        async def scenario(server, client):
            with pytest.raises(ProtocolError, match="format"):
                await client.metrics(format="xml")

        run(one_server_session(scenario))


class TestStatsBackwardCompat:
    def test_counter_keys_and_values(self):
        async def scenario(server, client):
            await client.plan(small_spec(), n_vms=5, iterations=60, seed=1)
            await client.plan(small_spec(), n_vms=5, iterations=60, seed=1)
            stats = await client.stats()
            # the local property preserves the legacy key order too
            assert list(server.counters) == [
                "requests", "bad_requests", "dedup_joined", "solves_ok",
                "solve_errors", "timeouts", "rejected",
            ]
            return stats

        stats = run(one_server_session(scenario))
        assert stats["counters"]["solves_ok"] == 1  # second hit the cache
        assert stats["requests"]["plan"] == 2
        assert stats["cache"]["hits"] == 1
        assert set(stats["pool"]) == {
            "processes", "default_restarts", "tasks_started",
            "tasks_completed", "solves_completed",
        }
        assert stats["evaluator"]  # evaluator totals accumulated

    def test_shared_registry_injection(self):
        reg = MetricsRegistry()

        async def scenario(server, client):
            assert server.metrics is reg
            await client.ping()

        run(one_server_session(scenario, registry=reg))
        assert reg.counter("cast_service_requests_total").value() == 1.0

    def test_reset_stats_zeroes_uptime_and_counters(self):
        server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
        server._events.inc(event="solves_ok")
        assert server.counters["solves_ok"] == 1
        server._reset_stats()
        assert server.counters["solves_ok"] == 0
        assert server.uptime_s < 1.0


class TestTracePropagation:
    def test_every_response_carries_a_trace_id(self):
        async def scenario(server, client):
            pong = await client.request("ping")
            solved = await client.plan(
                small_spec(), n_vms=5, iterations=60, seed=2
            )
            cached = await client.plan(
                small_spec(), n_vms=5, iterations=60, seed=2
            )
            return pong, solved, cached

        pong, solved, cached = run(one_server_session(scenario))
        assert pong["trace_id"]
        assert solved["trace_id"] and cached["trace_id"]
        # a cache hit is a new request: it gets its own trace, not the
        # one that originally solved the plan
        assert cached["cached"] and cached["trace_id"] != solved["trace_id"]

    def test_solve_trace_nests_across_layers(self):
        async def scenario(server, client):
            result = await client.plan(
                small_spec(), n_vms=5, iterations=60, seed=3
            )
            return result["trace_id"]

        trace_id = run(one_server_session(scenario))
        spans = trace_collector().records(trace_id=trace_id)
        by_id = {s.span_id: s for s in spans}
        solver = next(s for s in spans if s.name == "solver.solve")
        chain = []
        node = solver
        while node is not None:
            chain.append(node.name)
            node = by_id.get(node.parent_id)
        assert chain == [
            "solver.solve", "pool.restart", "pool.solve",
            "service.solve", "service.request",
        ]

    def test_concurrent_solves_do_not_share_traces(self):
        async def scenario(server, client):
            host, port = server.address

            async def solve(seed):
                async with PlannerClient(host, port) as c:
                    r = await c.plan(
                        small_spec(), n_vms=5, iterations=60, seed=seed
                    )
                    return r["trace_id"]

            return await asyncio.gather(solve(11), solve(12))

        t1, t2 = run(one_server_session(scenario, max_inflight=2))
        assert t1 != t2
        names1 = {s.name for s in trace_collector().records(trace_id=t1)}
        names2 = {s.name for s in trace_collector().records(trace_id=t2)}
        assert "solver.solve" in names1 and "solver.solve" in names2


class TestProcessPoolRollUp:
    def test_worker_metrics_and_spans_come_home(self):
        get_registry().reset()
        trace_collector().clear()
        pool = SolverPool(processes=2, restarts=2)
        try:
            result = pool.solve_sync(plan_request(seed=5, iterations=40))
        finally:
            pool.shutdown()
        assert "obs" not in result  # payload absorbed, not leaked
        solves = get_registry().counter(
            "cast_solver_solves_total", labelnames=("backend",)
        )
        assert solves.value(backend="anneal") == 2.0
        names = [s.name for s in trace_collector().records()]
        assert names.count("pool.restart") == 2
        assert "solver.solve" in names

    def test_thread_pool_records_into_bound_registry(self):
        reg = MetricsRegistry()
        pool = SolverPool(processes=0, restarts=2)
        pool.bind_metrics(reg)
        try:
            pool.solve_sync(plan_request(seed=6, iterations=40))
        finally:
            pool.shutdown()
        solves = reg.counter(
            "cast_solver_solves_total", labelnames=("backend",)
        )
        assert solves.value(backend="anneal") == 2.0
        assert "cast_pool_solves_total 1" in reg.to_prometheus()

    def test_counts_made_before_the_bind_carry_over(self):
        pool = SolverPool(processes=0, restarts=2)
        reg = MetricsRegistry()
        try:
            pool.solve_sync(plan_request(seed=6, iterations=20))
            pool.bind_metrics(reg)
            pool.solve_sync(plan_request(seed=7, iterations=20))
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert (stats["tasks_started"], stats["solves_completed"]) == (4, 2)
        body = reg.to_prometheus()
        assert "cast_pool_solves_total 2" in body
        assert 'cast_pool_tasks_total{stage="completed"} 4' in body


def sim_lookups(metrics):
    """Simulation-cache hits plus misses in a metrics snapshot."""
    entry = metrics.get("cast_sim_cache_events_total", {"values": []})
    return sum(
        s["value"] for s in entry["values"] if s["labels"]["event"] in ("hit", "miss")
    )


class TestWorkerDeltasSurviveScrape:
    """A process worker's shipped counter delta stays in the server's
    registry: scrapes never overwrite it with the parent's own tally."""

    def test_sim_cache_counts_parent_plus_worker_deltas(self, monkeypatch):
        from repro.profiler import profiler as profiler_mod
        from repro.simulator import cache as sim_cache_mod
        from repro.workers import WorkerPool

        # Fresh process-wide state, inherited by the forked workers: they
        # profile the catalog themselves, so their sim-cache lookups
        # come home only as shipped deltas.
        monkeypatch.setattr(profiler_mod, "_MATRIX_CACHE", {})
        cache = sim_cache_mod.SimulationCache()
        monkeypatch.setattr(sim_cache_mod, "_GLOBAL_CACHE", cache)
        shipped = []
        absorb = WorkerPool._absorb

        def spy(self, outcomes):
            for _result, obs in outcomes:
                if obs is not None:
                    shipped.append(sim_lookups(obs["metrics"]))
            return absorb(self, outcomes)

        monkeypatch.setattr(WorkerPool, "_absorb", spy)

        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=2, restarts=2))
            await server.start()
            try:
                async with PlannerClient(*server.address) as client:
                    await client.plan(small_spec(), n_vms=6, iterations=30, seed=3)
                    await client.whatif(small_spec(), tier="persSSD", n_vms=6)
                    first = await client.metrics(format="json")
                    second = await client.metrics(format="json")
                    return first, second
            finally:
                await server.stop()

        first, second = run(scenario())
        parent = cache.hits + cache.misses
        assert sum(shipped) > 0 and parent > 0
        assert sim_lookups(first["metrics"]) == parent + sum(shipped)
        assert sim_lookups(second["metrics"]) == sim_lookups(first["metrics"])


class TestSolverProgress:
    def test_anneal_progress_sampling(self):
        from repro import plan_workload
        from repro.workloads.swim import synthesize_small_workload

        rows = []
        plan_workload(
            synthesize_small_workload(n_jobs=4), n_vms=5, iterations=400,
            seed=9, progress=rows.append, progress_every=100,
        )
        assert len(rows) == 4
        assert all(isinstance(r, SolverProgress) for r in rows)
        assert rows[-1].iteration == 400
        assert rows[-1].iter_max == 400
        assert rows[0].backend == "anneal"
        assert 0.0 <= rows[-1].acceptance_rate <= 1.0

    def test_tempering_progress_reports_swaps(self):
        from repro import plan_workload
        from repro.workloads.swim import synthesize_small_workload

        rows = []
        plan_workload(
            synthesize_small_workload(n_jobs=4), n_vms=5, iterations=300,
            seed=9, backend="tempering", replicas=4,
            progress=rows.append, progress_every=100,
        )
        assert rows
        last = rows[-1]
        assert last.backend == "tempering"
        assert last.replicas == 4
        assert last.iteration >= 300
        assert last.swaps_attempted >= last.swaps_accepted >= 0

    def test_progress_does_not_change_the_plan(self):
        from repro import plan_workload
        from repro.workloads.swim import synthesize_small_workload

        workload = synthesize_small_workload(n_jobs=4)
        silent = plan_workload(workload, n_vms=5, iterations=300, seed=4)
        watched = plan_workload(
            workload, n_vms=5, iterations=300, seed=4,
            progress=lambda p: None, progress_every=50,
        )
        assert silent.plan.to_dict() == watched.plan.to_dict()
        assert silent.evaluation.utility == watched.evaluation.utility

    def test_progress_printer_format(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer(SolverProgress(
            backend="anneal", iteration=500, iter_max=1000,
            temperature=0.5, best_utility=0.0042, accepted=250, proposed=500,
        ))
        out = stream.getvalue()
        assert "[anneal]" in out and "500/1000" in out and "50.0%" in out
        assert printer.last().iteration == 500
