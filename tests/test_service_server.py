"""The planner daemon: protocol, caching, single-flight, failure paths.

Solver-independent behaviour (dedup, backpressure, timeouts) is tested
through the ``solver_fn`` seam with a stub that counts invocations;
the end-to-end paths run the real pool in thread mode (``processes=0``)
so the tests stay fast and fork-free.
"""

import asyncio
import json

import pytest

from repro.errors import (
    CatalogError,
    ProtocolError,
    ServiceBusyError,
    ServiceTimeoutError,
    WorkloadError,
)
from repro.service import PlannerClient, PlannerServer, SolverPool, SyncPlannerClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    exception_from_payload,
    make_request,
    parse_request,
    parse_response,
)
from repro.workloads.io import workflow_to_dict, workload_to_dict
from repro.workloads.swim import synthesize_small_workload
from repro.workloads.workflow import search_engine_workflow


def small_spec(n_jobs=4):
    return workload_to_dict(synthesize_small_workload(n_jobs=n_jobs))


def run(coro):
    return asyncio.run(coro)


async def serving(server):
    """Start ``server`` and return a task running its accept loop."""
    await server.start()
    return asyncio.create_task(server.serve_forever())


async def shutdown(server, serve_task):
    serve_task.cancel()
    try:
        await serve_task
    except asyncio.CancelledError:
        pass
    await server.stop()


def fake_result(**overrides):
    result = {"kind": "plan", "utility": 1.0, "plan": {"placements": {}}}
    result.update(overrides)
    return result


class TestProtocol:
    def test_request_round_trip(self):
        req = make_request("ping", req_id="r1")
        parsed = parse_request(json.dumps(req))
        assert parsed["op"] == "ping"
        assert parsed["id"] == "r1"
        assert parsed["v"] == PROTOCOL_VERSION

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="op"):
            make_request("explode")
        with pytest.raises(ProtocolError, match="op"):
            parse_request('{"v": 1, "op": "explode"}')

    def test_bad_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            parse_request('{"v": 99, "op": "ping"}')

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            parse_request("[1, 2]")

    def test_response_shape_enforced(self):
        with pytest.raises(ProtocolError, match="ok"):
            parse_response('{"v": 1, "id": null}')

    def test_error_payload_round_trips_types(self):
        exc = exception_from_payload({"type": "WorkloadError", "message": "bad"})
        assert isinstance(exc, WorkloadError)
        assert str(exc) == "bad"

    def test_unknown_error_type_degrades_safely(self):
        from repro.errors import ServiceError

        exc = exception_from_payload({"type": "OSError", "message": "x"})
        assert type(exc) is ServiceError  # never instantiates non-CastError names


class TestBasicOps:
    def test_ping_stats_catalog(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    pong = await client.ping()
                    assert pong["pong"] is True
                    stats = await client.stats()
                    assert stats["cache"]["size"] == 0
                    assert stats["limits"]["max_inflight"] == 4
                    catalog = await client.catalog("aws")
                    assert catalog["provider"] == "aws-2015"
                    assert len(catalog["tiers"]) == 4
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_catalog_unknown_provider_is_typed_error(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(CatalogError, match="digitalocean"):
                        await client.catalog("digitalocean")
            finally:
                await shutdown(server, task)

        run(scenario())


class TestSolvePath:
    def test_plan_solves_and_caches(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=2))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    first = await client.plan(small_spec(), n_vms=5, iterations=30)
                    assert first["cached"] is False
                    assert first["restarts"] == 2
                    assert first["solver"] == "CAST++"
                    second = await client.plan(small_spec(), n_vms=5, iterations=30)
                    assert second["cached"] is True
                    assert second["plan"] == first["plan"]
                    stats = await client.stats()
                    assert stats["cache"]["hits"] == 1
                    assert stats["counters"]["solves_ok"] == 1
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_plan_workflow_end_to_end(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    result = await client.plan_workflow(
                        workflow_to_dict(search_engine_workflow()),
                        n_vms=10, iterations=30,
                    )
                    assert result["kind"] == "workflow-plan"
                    assert result["n_jobs"] == 4
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_malformed_workload_is_typed_error_not_crash(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    bad = {"version": 1, "kind": "workload", "name": "x",
                           "jobs": [{"job_id": "j", "app": "nosuch", "input_gb": 1}]}
                    with pytest.raises(WorkloadError, match="unknown application"):
                        await client.plan(bad, iterations=10)
                    # The daemon survives and still answers.
                    assert (await client.ping())["pong"] is True
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_missing_spec_is_protocol_error(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(ProtocolError, match="spec"):
                        await client.request("plan", {"n_vms": 5})
            finally:
                await shutdown(server, task)

        run(scenario())


class TestSingleFlight:
    def test_concurrent_identical_requests_solve_once(self):
        async def scenario():
            calls = 0

            async def counting_solver(request):
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.2)  # hold the solve so followers join
                return fake_result(seed=request["seed"])

            server = PlannerServer(
                pool=SolverPool(processes=0, restarts=1),
                solver_fn=counting_solver,
            )
            task = await serving(server)
            try:
                host, port = server.address
                async with PlannerClient(host, port) as c1, \
                        PlannerClient(host, port) as c2:
                    r1, r2 = await asyncio.gather(
                        c1.plan(small_spec(), seed=9),
                        c2.plan(small_spec(), seed=9),
                    )
                assert calls == 1
                assert r1["fingerprint"] == r2["fingerprint"]
                assert server.counters["dedup_joined"] == 1
                # Exactly one of them led the solve; neither was cached.
                assert r1["cached"] is False and r2["cached"] is False
                assert server.cache.stats()["size"] == 1
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_distinct_requests_do_not_dedup(self):
        async def scenario():
            calls = 0

            async def counting_solver(request):
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.05)
                return fake_result(seed=request["seed"])

            server = PlannerServer(
                pool=SolverPool(processes=0, restarts=1),
                solver_fn=counting_solver,
            )
            task = await serving(server)
            try:
                host, port = server.address
                async with PlannerClient(host, port) as c1, \
                        PlannerClient(host, port) as c2:
                    await asyncio.gather(
                        c1.plan(small_spec(), seed=1),
                        c2.plan(small_spec(), seed=2),
                    )
                assert calls == 2
                assert server.counters["dedup_joined"] == 0
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_failed_solve_not_cached_and_retriable(self):
        async def scenario():
            attempts = 0

            async def flaky_solver(request):
                nonlocal attempts
                attempts += 1
                if attempts == 1:
                    raise WorkloadError("transient")
                return fake_result()

            server = PlannerServer(
                pool=SolverPool(processes=0, restarts=1), solver_fn=flaky_solver
            )
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(WorkloadError, match="transient"):
                        await client.plan(small_spec(), seed=4)
                    # Same fingerprint retried -> fresh solve, not a
                    # poisoned cache entry.
                    result = await client.plan(small_spec(), seed=4)
                    assert result["cached"] is False
                assert attempts == 2
            finally:
                await shutdown(server, task)

        run(scenario())


class TestWhatifOp:
    def test_whatif_measures_and_caches(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    spec = small_spec()
                    r1 = await client.whatif(spec, tier="persSSD", n_vms=5)
                    assert r1["cached"] is False
                    assert r1["fast"] is True
                    assert r1["n_jobs"] == 4
                    assert r1["makespan_s"] > 0
                    assert r1["cost_total_usd"] > 0
                    assert set(r1["per_job"]) == {j["job_id"] for j in spec["jobs"]}
                    # Identical question -> cached, identical answer.
                    r2 = await client.whatif(spec, tier="persSSD", n_vms=5)
                    assert r2["cached"] is True
                    assert r2["makespan_s"] == r1["makespan_s"]
                    # fast is part of the fingerprint: the exact-engine
                    # variant is a distinct entry, agreeing within the gate.
                    r3 = await client.whatif(spec, tier="persSSD", n_vms=5, fast=False)
                    assert r3["cached"] is False
                    assert r3["fast"] is False
                    assert r3["makespan_s"] == pytest.approx(
                        r1["makespan_s"], rel=1e-9
                    )
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_whatif_runs_on_the_providers_vm(self, monkeypatch):
        """An aws what-if measures a cluster of aws's default VM, as an
        aws plan solves on one."""
        from repro.cloud import resolve_provider
        from repro.experiments import measure

        clusters = []
        measure_plan = measure.measure_plan

        def spy(workload, plan, cluster, provider, **kwargs):
            clusters.append(cluster)
            return measure_plan(workload, plan, cluster, provider, **kwargs)

        monkeypatch.setattr(measure, "measure_plan", spy)

        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    await client.whatif(small_spec(), tier="persSSD",
                                        provider="aws", n_vms=5)
            finally:
                await shutdown(server, task)

        run(scenario())
        assert [c.vm.name for c in clusters] == ["c3.4xlarge"]
        assert clusters == [resolve_provider("aws").cluster(5)]

    def test_whatif_with_plan_dict(self):
        async def scenario():
            from repro.cloud.storage import Tier
            from repro.core.plan import TieringPlan
            from repro.workloads.io import workload_from_dict

            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    spec = small_spec()
                    plan = TieringPlan.uniform(
                        workload_from_dict(spec), Tier.OBJ_STORE
                    ).to_dict()
                    result = await client.whatif(spec, plan=plan, n_vms=5)
                    assert result["cached"] is False
                    assert result["makespan_s"] > 0
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_whatif_requires_exactly_one_tiering(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    spec = small_spec()
                    with pytest.raises(ProtocolError, match="plan.*tier|tier.*plan"):
                        await client.request("whatif", {"spec": spec})
                    with pytest.raises(ProtocolError, match="plan.*tier|tier.*plan"):
                        await client.request(
                            "whatif",
                            {"spec": spec, "tier": "objStore",
                             "plan": {"placements": {}}},
                        )
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_whatif_bad_tier_is_typed_error(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(WorkloadError, match="tier"):
                        await client.whatif(small_spec(), tier="floppyDisk")
                    # The daemon survives and still answers.
                    assert (await client.ping())["pong"] is True
            finally:
                await shutdown(server, task)

        run(scenario())


class TestSweepOp:
    def test_sweep_solves_grid_and_caches(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    spec = small_spec()
                    r1 = await client.sweep(
                        spec, providers=["google", "aws"], reps=2,
                        n_vms=5, iterations=120,
                    )
                    assert r1["cached"] is False
                    assert r1["kind"] == "sweep"
                    assert r1["n_points"] == 4
                    assert r1["parity_ok"] is True
                    assert r1["modes"].get("cold", 0) >= 1
                    (block,) = r1["ranking"]
                    assert {e["provider"] for e in block["ranking"]} == {
                        "google", "aws",
                    }
                    # Identical sweep -> answered from the cache.
                    r2 = await client.sweep(
                        spec, providers=["google", "aws"], reps=2,
                        n_vms=5, iterations=120,
                    )
                    assert r2["cached"] is True
                    assert r2["fingerprint"] == r1["fingerprint"]
                    # Axis order is part of the key (donor topology).
                    r3 = await client.sweep(
                        spec, providers=["aws", "google"], reps=2,
                        n_vms=5, iterations=120,
                    )
                    assert r3["cached"] is False
                    assert r3["fingerprint"] != r1["fingerprint"]
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_sweep_bad_params_are_typed_errors(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(ProtocolError, match="specs"):
                        await client.request("sweep", {"providers": ["google"]})
                    with pytest.raises(ProtocolError, match="providers"):
                        await client.request(
                            "sweep", {"spec": small_spec(), "providers": []}
                        )
                    with pytest.raises(WorkloadError, match="reps"):
                        await client.sweep(small_spec(), reps=0)
                    # The daemon survives and still answers.
                    assert (await client.ping())["pong"] is True
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_pooled_sweep_workers_inherit_profiled_catalogs(self, monkeypatch):
        """A ``workers=2`` sweep profiles its catalogs in the server
        before forking, one ``profiler.build`` span each, so a later
        pooled sweep's fresh workers profile nothing."""
        from repro.obs.tracing import trace_collector
        from repro.profiler import profiler as profiler_mod

        monkeypatch.setattr(profiler_mod, "_MATRIX_CACHE", {})

        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    traces = []
                    for seed in (1, 2):
                        r = await client.sweep(
                            small_spec(), providers=["google", "aws", "azure"],
                            reps=1, n_vms=7, iterations=40, seed=seed,
                            workers=2,
                        )
                        assert r["cached"] is False and r["parity_ok"] is True
                        traces.append(r["trace_id"])
                    return traces
            finally:
                await shutdown(server, task)

        first, second = run(scenario())
        names = [s.name for s in trace_collector().records(trace_id=first)]
        assert names.count("profiler.build") == 3
        assert "simulator.job" not in names
        names = [s.name for s in trace_collector().records(trace_id=second)]
        assert names.count("solver.solve") == 3
        assert "profiler.build" not in names


class TestBackpressureAndTimeouts:
    def test_requests_beyond_queue_are_shed(self):
        async def scenario():
            release = asyncio.Event()

            async def stalled_solver(request):
                await release.wait()
                return fake_result()

            server = PlannerServer(
                pool=SolverPool(processes=0, restarts=1),
                solver_fn=stalled_solver,
                max_inflight=1,
                max_queue=0,
            )
            task = await serving(server)
            try:
                host, port = server.address
                async with PlannerClient(host, port) as c1, \
                        PlannerClient(host, port) as c2:
                    first = asyncio.create_task(c1.plan(small_spec(), seed=1))
                    await asyncio.sleep(0.1)  # let it occupy the only slot
                    with pytest.raises(ServiceBusyError, match="capacity"):
                        await c2.plan(small_spec(), seed=2)
                    release.set()
                    assert (await first)["utility"] == 1.0
                assert server.counters["rejected"] == 1
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_slow_solve_times_out_typed(self):
        async def scenario():
            async def sleepy_solver(request):
                await asyncio.sleep(5.0)
                return fake_result()

            server = PlannerServer(
                pool=SolverPool(processes=0, restarts=1),
                solver_fn=sleepy_solver,
                request_timeout_s=0.1,
            )
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    with pytest.raises(ServiceTimeoutError, match="deadline"):
                        await client.plan(small_spec())
                assert server.counters["timeouts"] == 1
            finally:
                await shutdown(server, task)

        run(scenario())


class TestWireRobustness:
    def test_malformed_json_gets_error_response_and_connection_survives(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"{this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"
                # Same connection keeps working after the bad line.
                writer.write(
                    (json.dumps(make_request("ping", req_id="p1")) + "\n").encode()
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is True
                assert response["result"]["pong"] is True
                writer.close()
                await writer.wait_closed()
                assert server.counters["bad_requests"] == 1
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_blank_lines_ignored(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
            task = await serving(server)
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"\n\n")
                writer.write(
                    (json.dumps(make_request("ping", req_id="p1")) + "\n").encode()
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                await shutdown(server, task)

        run(scenario())


class TestSyncClient:
    def test_sync_client_round_trip(self):
        # The sync facade drives its own event loops, so the server must
        # live in a different thread here.
        import threading

        started = threading.Event()
        box = {}

        def serve():
            async def body():
                server = PlannerServer(pool=SolverPool(processes=0, restarts=1))
                await server.start()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                box["stopped"] = asyncio.Event()
                started.set()
                await box["stopped"].wait()
                await server.stop()

            asyncio.run(body())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        client = SyncPlannerClient(*box["server"].address)
        try:
            assert client.ping()["pong"] is True
            result = client.plan(small_spec(), n_vms=5, iterations=20, restarts=1)
            assert result["cached"] is False
            assert client.plan(small_spec(), n_vms=5, iterations=20,
                               restarts=1)["cached"] is True
            assert client.stats()["cache"]["hits"] == 1
        finally:
            box["loop"].call_soon_threadsafe(box["stopped"].set)
            thread.join(timeout=10)


class TestEvaluatorStats:
    def test_stats_expose_summed_evaluator_counters(self):
        async def scenario():
            server = PlannerServer(pool=SolverPool(processes=0, restarts=2))
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    before = await client.stats()
                    assert before["evaluator"] == {}
                    result = await client.plan(small_spec(), n_vms=5, iterations=30)
                    after = await client.stats()
                    # Two restarts of 30 iterations each, summed.
                    ev = after["evaluator"]
                    assert ev["incremental_evaluations"] == 60
                    assert ev == result["evaluator"]
                    # A cache hit adds nothing: no solver ran.
                    await client.plan(small_spec(), n_vms=5, iterations=30)
                    again = await client.stats()
                    assert again["evaluator"] == ev
            finally:
                await shutdown(server, task)

        run(scenario())


class TestOperationalOps:
    """The observability surface: slo / profile / debug_dump, the
    flight-recorder ring, and trace ids on error responses."""

    TIGHT_POLICY_KW = dict(
        fast_short_s=10.0, fast_long_s=60.0,
        slow_short_s=30.0, slow_long_s=120.0,
    )

    def _server(self, tmp_path=None, solver_fn=None, clock=None):
        from repro.obs.slo import BurnPolicy, Objective

        return PlannerServer(
            pool=SolverPool(processes=0, restarts=1),
            solver_fn=solver_fn,
            slo_objectives=[Objective("solve", ("plan",),
                                      kind="availability", target=0.99)],
            slo_policy=BurnPolicy(**self.TIGHT_POLICY_KW),
            slo_clock=clock,
            slo_eval_interval_s=0,  # evaluate on demand only
            dump_dir=str(tmp_path) if tmp_path is not None else None,
        )

    def test_slo_op_reports_ok_on_a_healthy_server(self):
        async def scenario():
            server = self._server()
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    await client.plan(small_spec(), n_vms=5, iterations=20)
                    report = await client.slo()
                    assert report["scope"] == "server"
                    assert report["state"] == "ok"
                    assert report["ops"]["solve"]["state"] == "ok"
                    stats = await client.stats()
                    assert stats["slo"] == {"solve": "ok"}
                    assert stats["flight_recorder"]["recorded"] >= 1
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_error_flood_pages_and_auto_writes_a_dump(self, tmp_path):
        """ok -> page on a unit clock, with the page transition
        dropping a postmortem bundle into dump_dir."""
        import os

        from repro.obs.flightrec import load_bundle

        async def failing_solver(request):
            raise WorkloadError("synthetic failure")

        clock = [0.0]

        async def scenario():
            server = self._server(tmp_path=tmp_path,
                                  solver_fn=failing_solver,
                                  clock=lambda: clock[0])
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    baseline = await client.slo()
                    assert baseline["ops"]["solve"]["state"] == "ok"
                    for seed in range(5):
                        with pytest.raises(WorkloadError) as err:
                            await client.plan(small_spec(), seed=seed,
                                              iterations=10)
                        # Error responses carry the request's trace id.
                        assert err.value.trace_id
                        assert len(err.value.trace_id) == 32
                    clock[0] = 61.0
                    report = await client.slo()
                    assert report["ops"]["solve"]["state"] == "page"
                    assert (await client.stats())["slo"]["solve"] == "page"

                    dumps = os.listdir(tmp_path)
                    assert len(dumps) == 1
                    assert "page-solve" in dumps[0]
                    bundle = load_bundle(str(tmp_path / dumps[0]))
                    assert bundle["meta"]["reason"] == "page-solve"
                    assert bundle["slo"]["ops"]["solve"]["state"] == "page"
                    # The ring in the bundle shows the failing requests.
                    assert any(r["ok"] is False and r["op"] == "plan"
                               for r in bundle["records"])
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_monitoring_ops_stay_out_of_the_flight_ring(self):
        async def scenario():
            server = self._server()
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    await client.ping()
                    await client.stats()
                    await client.metrics(format="json")
                    await client.slo()
                    await client.plan(small_spec(), n_vms=5, iterations=20)
                    ops = [r.op for r in server.recorder.records()]
                    assert ops == ["plan"]
                    # ...but they are still metered.
                    snap = server.metrics.snapshot()
                    metered = {
                        s["labels"]["op"]
                        for s in snap["cast_op_requests_total"]["values"]
                    }
                    assert {"ping", "stats", "metrics", "slo",
                            "plan"} <= metered
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_metrics_json_carries_exemplars(self):
        async def scenario():
            server = self._server()
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    await client.plan(small_spec(), n_vms=5, iterations=20)
                    payload = await client.metrics(format="json")
                    series = [
                        s for s in payload["metrics"]
                        ["cast_op_latency_seconds"]["values"]
                        if s["labels"]["op"] == "plan"
                    ]
                    assert series and series[0]["exemplars"]
                    assert series[0]["exemplars"][0]["trace_id"]
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_profile_op_round_trip_and_validation(self):
        async def scenario():
            server = self._server()
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    report = await client.profile(duration_s=0.05,
                                                  interval_s=0.005)
                    assert report["interval_s"] == 0.005
                    assert "by_subsystem" in report
                    with pytest.raises(ProtocolError, match="duration"):
                        await client.profile(duration_s=0.0)
                    with pytest.raises(ProtocolError, match="duration"):
                        await client.profile(duration_s=31.0)
                    with pytest.raises(ProtocolError, match="interval"):
                        await client.profile(duration_s=0.1,
                                             interval_s=0.0)
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_debug_dump_op_returns_a_loadable_bundle(self, tmp_path):
        from repro.obs.flightrec import dump_bundle, load_bundle

        async def scenario():
            server = self._server()
            task = await serving(server)
            try:
                async with PlannerClient(*server.address) as client:
                    await client.plan(small_spec(), n_vms=5, iterations=20)
                    bundle = await client.debug_dump(reason="unit")
                    assert bundle["meta"]["reason"] == "unit"
                    assert bundle["config"]["role"] == "server"
                    path = str(tmp_path / "bundle.jsonl")
                    dump_bundle(path, bundle)
                    loaded = load_bundle(path)
                    assert loaded["metrics"] == bundle["metrics"]
                    assert [r["trace_id"] for r in loaded["records"]] == \
                        [r["trace_id"] for r in bundle["records"]]
            finally:
                await shutdown(server, task)

        run(scenario())

    def test_sync_client_operational_facades(self):
        import threading

        async def host():
            server = self._server()
            task = await serving(server)
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            box["stopped"] = asyncio.Event()
            started.set()
            await box["stopped"].wait()
            await shutdown(server, task)

        box = {}
        started = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(host()), daemon=True
        )
        thread.start()
        assert started.wait(timeout=10)
        client = SyncPlannerClient(*box["server"].address)
        try:
            assert client.slo()["scope"] == "server"
            assert client.profile(duration_s=0.02)["samples"] >= 0
            assert client.debug_dump()["meta"]["reason"] == "request"
        finally:
            box["loop"].call_soon_threadsafe(box["stopped"].set)
            thread.join(timeout=10)
