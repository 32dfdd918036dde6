"""Wire compatibility of the counter exposition and the ``stats`` op.

Every counter lives in the metrics registry and is counted where its
event happens.  These tests pin what a fresh daemon and a fresh fleet
router expose after one ``plan`` request: each counter series of
``to_prometheus()`` with its value, and the ``stats`` payload without
``uptime_s``.  That keeps family names, label sets, the zero-valued
series (``cast_plan_cache_events_total{event="eviction"} 0``) and the
``int`` types of ``stats`` fixed.

The expected values were recorded from the design this replaced, where
seven components kept plain ints and mirrored them into the registry
at scrape time.  Process-wide state that would make the values depend
on test order (the simulation cache, the profiled model matrices, the
fast-path tallies) starts fresh for each scenario.
"""

import asyncio
import json

import pytest

from repro.fleet import FleetRouter
from repro.profiler import profiler as profiler_mod
from repro.service import PlannerClient, PlannerServer, SolverPool
from repro.simulator import cache as sim_cache_mod
from repro.simulator.vectorized import reset_fastpath_stats
from repro.workloads.io import workload_to_dict
from repro.workloads.swim import synthesize_small_workload

PLAN = dict(provider="google", n_vms=5, iterations=60, seed=1)


def counter_series(body):
    """Sorted ``(name, labels, value)`` of every counter sample."""
    counters = {
        line.split()[2]
        for line in body.splitlines()
        if line.startswith("# TYPE ") and line.split()[3] == "counter"
    }
    out = []
    for line in body.splitlines():
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name, _, labels = series.partition("{")
        if name in counters:
            out.append((name, labels.rstrip("}"), float(value)))
    return sorted(out)


def stats_payload(stats):
    """``stats`` without the wall-clock field and the ephemeral ports."""
    stats = {k: v for k, v in stats.items() if k != "uptime_s"}
    if "shards" in stats:
        stats["shards"] = [
            {k: v for k, v in s.items() if k != "port"} for s in stats["shards"]
        ]
    return stats


async def one_plan(servers, router=None):
    """Serve one ``plan`` through ``router`` (with ``servers`` as its
    shards) or through the one daemon in ``servers``; return the
    serving role's counters and stats."""
    outer = router if router is not None else servers[0]
    tasks = []
    try:
        for i, server in enumerate(servers):
            await server.start()
            tasks.append(asyncio.create_task(server.serve_forever()))
            if router is not None:
                router.add_shard(f"s{i}", *server.address)
        if router is not None:
            await router.start()
            tasks.append(asyncio.create_task(router.serve_forever()))
        async with PlannerClient(*outer.address) as client:
            await client.plan(workload_to_dict(synthesize_small_workload(n_jobs=4)), **PLAN)
        return counter_series(outer.metrics.to_prometheus()), stats_payload(outer.stats())
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if router is not None:
            await router.stop()
        for server in servers:
            await server.stop()


def planner():
    return PlannerServer(pool=SolverPool(processes=0, restarts=1), slo_eval_interval_s=0)


@pytest.fixture(autouse=True)
def fresh_process_state(monkeypatch):
    monkeypatch.setattr(sim_cache_mod, "_GLOBAL_CACHE", sim_cache_mod.SimulationCache())
    monkeypatch.setattr(profiler_mod, "_MATRIX_CACHE", {})
    reset_fastpath_stats()


def same_json(a, b):
    # JSON text keeps ``1`` and ``1.0`` apart, so int types are checked too.
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_daemon_counters_and_stats_unchanged():
    series, stats = asyncio.run(one_plan([planner()]))
    assert series == DAEMON_SERIES
    assert same_json(stats, DAEMON_STATS)


def test_router_counters_and_stats_unchanged():
    router = FleetRouter(health_interval_s=0, default_restarts=1, slo_eval_interval_s=0)
    series, stats = asyncio.run(one_plan([planner(), planner()], router))
    assert series == ROUTER_SERIES
    assert same_json(stats, ROUTER_STATS)


DAEMON_SERIES = [('cast_evaluator_events_total', 'counter="cache_entries"', 30.0),
 ('cast_evaluator_events_total', 'counter="cache_hits"', 25.0),
 ('cast_evaluator_events_total', 'counter="cache_misses"', 30.0),
 ('cast_evaluator_events_total', 'counter="delta_rebases"', 0.0),
 ('cast_evaluator_events_total', 'counter="full_evaluations"', 1.0),
 ('cast_evaluator_events_total', 'counter="incremental_evaluations"', 60.0),
 ('cast_evaluator_events_total', 'counter="jobs_reestimated"', 51.0),
 ('cast_evaluator_events_total', 'counter="jobs_skipped"', 189.0),
 ('cast_flightrec_records_total', '', 1.0),
 ('cast_op_requests_total', 'op="plan",outcome="ok"', 1.0),
 ('cast_plan_cache_events_total', 'event="eviction"', 0.0),
 ('cast_plan_cache_events_total', 'event="hit"', 0.0),
 ('cast_plan_cache_events_total', 'event="miss"', 1.0),
 ('cast_pool_solves_total', '', 1.0),
 ('cast_pool_tasks_total', 'stage="completed"', 1.0),
 ('cast_pool_tasks_total', 'stage="started"', 1.0),
 ('cast_service_events_total', 'event="solves_ok"', 1.0),
 ('cast_service_ops_total', 'op="plan"', 1.0),
 ('cast_service_requests_total', '', 1.0),
 ('cast_service_tenant_requests_total', 'tenant="default"', 1.0),
 ('cast_sim_cache_events_total', 'event="eviction"', 0.0),
 ('cast_sim_cache_events_total', 'event="hit"', 0.0),
 ('cast_sim_cache_events_total', 'event="miss"', 70.0),
 ('cast_sim_fastpath_batches_total', '', 0.0),
 ('cast_sim_fastpath_total', 'path="analytic"', 0.0),
 ('cast_sim_fastpath_total', 'path="cache_hit"', 0.0),
 ('cast_sim_fastpath_total', 'path="deduped"', 0.0),
 ('cast_sim_fastpath_total', 'path="fallback"', 0.0),
 ('cast_solver_iterations_total', 'backend="anneal"', 60.0),
 ('cast_solver_moves_accepted_total', 'backend="anneal"', 42.0),
 ('cast_solver_solves_total', 'backend="anneal"', 1.0)]

DAEMON_STATS = {'cache': {'capacity': 128, 'evictions': 0, 'hits': 0, 'misses': 1, 'size': 1},
 'counters': {'bad_requests': 0,
              'dedup_joined': 0,
              'rejected': 0,
              'requests': 1,
              'solve_errors': 0,
              'solves_ok': 1,
              'timeouts': 0},
 'evaluator': {'cache_entries': 30,
               'cache_hits': 25,
               'cache_misses': 30,
               'delta_rebases': 0,
               'full_evaluations': 1,
               'incremental_evaluations': 60,
               'jobs_reestimated': 51,
               'jobs_skipped': 189},
 'flight_recorder': {'capacity': 512, 'exemplar_k': 8, 'recorded': 1, 'size': 1},
 'inflight': 0,
 'limits': {'max_inflight': 4, 'max_queue': 64, 'request_timeout_s': 600.0},
 'pool': {'default_restarts': 1,
          'processes': 0,
          'solves_completed': 1,
          'tasks_completed': 1,
          'tasks_started': 1},
 'requests': {'plan': 1},
 'sessions': {'open': 0, 'sessions': {}},
 'slo': {'session_delta': 'ok', 'solve': 'ok', 'sweep': 'ok', 'whatif': 'ok'}}

ROUTER_SERIES = [('cast_fleet_admission_total', 'outcome="admitted"', 1.0),
 ('cast_fleet_admission_total', 'outcome="shed"', 0.0),
 ('cast_fleet_events_total', 'event="shard_registered"', 2.0),
 ('cast_fleet_events_total', 'event="solves_ok"', 1.0),
 ('cast_fleet_ops_total', 'op="plan"', 1.0),
 ('cast_fleet_requests_total', '', 1.0),
 ('cast_fleet_routed_total', 'shard="s0"', 1.0),
 ('cast_fleet_tenant_requests_total', 'tenant="default"', 1.0),
 ('cast_flightrec_records_total', '', 1.0),
 ('cast_op_requests_total', 'op="plan",outcome="ok"', 1.0),
 ('cast_plan_cache_events_total', 'event="eviction"', 0.0),
 ('cast_plan_cache_events_total', 'event="hit"', 0.0),
 ('cast_plan_cache_events_total', 'event="miss"', 1.0)]

ROUTER_STATS = {'cache': {'capacity': 256, 'evictions': 0, 'hits': 0, 'misses': 1, 'size': 1},
 'counters': {'shard_registered': 2, 'solves_ok': 1},
 'flight_recorder': {'capacity': 512, 'exemplar_k': 8, 'recorded': 1, 'size': 1},
 'inflight': 0,
 'limits': {'forward_timeout_s': 660.0, 'health_failures': 2, 'health_interval_s': 0.0},
 'requests': {'plan': 1},
 'ring': {'s0': 64, 's1': 64},
 'role': 'fleet-router',
 'routed': {'s0': 1},
 'sessions': {},
 'shards': [{'consecutive_failures': 0,
             'healthy': True,
             'host': '127.0.0.1',
             'shard_id': 's0'},
            {'consecutive_failures': 0,
             'healthy': True,
             'host': '127.0.0.1',
             'shard_id': 's1'}],
 'slo': {'session_delta': 'ok', 'solve': 'ok', 'sweep': 'ok', 'whatif': 'ok'},
 'tenancy': {'admitted': 1,
             'inflight': 0,
             'max_inflight': 16,
             'max_queue_per_tenant': 64,
             'queue_depths': {},
             'queued': 0,
             'shed': 0,
             'weights': {}}}
