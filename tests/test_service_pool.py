"""Multi-start solver pool: determinism, quality, parallel dispatch."""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.service.pool import SolverPool, restart_seeds, solve_restart
from repro.workloads.io import workflow_to_dict, workload_to_dict
from repro.workloads.swim import synthesize_small_workload
from repro.workloads.workflow import search_engine_workflow


def _plan_request(seed=7, iterations=40, **overrides):
    request = {
        "op": "plan",
        "spec": workload_to_dict(synthesize_small_workload(n_jobs=4)),
        "provider": "google",
        "n_vms": 5,
        "iterations": iterations,
        "seed": seed,
        "use_castpp": True,
    }
    request.update(overrides)
    return request


class TestRestartSeeds:
    """restart_seeds, the service's public name for spawn_seeds."""

    def test_restart_zero_is_the_request_seed(self):
        assert restart_seeds(42, 4)[0] == 42

    def test_deterministic_and_distinct(self):
        a = restart_seeds(42, 4)
        assert a == restart_seeds(42, 4)
        assert len(set(a)) == 4

    def test_single_restart(self):
        assert restart_seeds(9, 1) == [9]


class TestSolveRestart:
    def test_plan_op(self):
        result = solve_restart(_plan_request())
        assert result["kind"] == "plan"
        assert result["n_jobs"] == 4
        assert result["utility"] > 0
        assert set(result["plan"]["placements"]) == {
            "sjob-00", "sjob-01", "sjob-02", "sjob-03"
        }

    def test_workflow_op(self):
        result = solve_restart(
            {
                "op": "plan_workflow",
                "spec": workflow_to_dict(search_engine_workflow()),
                "n_vms": 10,
                "iterations": 40,
                "seed": 3,
            }
        )
        assert result["kind"] == "workflow-plan"
        assert "meets_deadline" in result

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError, match="op"):
            solve_restart({"op": "teleport"})


class TestMultiStart:
    def test_same_seed_twice_is_identical(self):
        pool = SolverPool(processes=0, restarts=3)
        try:
            a = pool.solve_sync(_plan_request(seed=11))
            b = pool.solve_sync(_plan_request(seed=11))
        finally:
            pool.shutdown()
        assert a["plan"] == b["plan"]
        assert a["restart_utilities"] == b["restart_utilities"]
        assert a["best_restart"] == b["best_restart"]

    def test_multistart_never_below_single_start(self):
        # Restart 0 *is* the single-start run for the request seed, so
        # best-of-N selection can only match or beat it.
        single = solve_restart(_plan_request(seed=5))
        pool = SolverPool(processes=0, restarts=4)
        try:
            multi = pool.solve_sync(_plan_request(seed=5))
        finally:
            pool.shutdown()
        assert multi["utility"] >= single["utility"]
        assert multi["restart_utilities"][0] == pytest.approx(single["utility"])
        assert multi["restarts"] == 4
        assert multi["seed"] == 5

    def test_async_and_sync_agree(self):
        pool = SolverPool(processes=0, restarts=2)
        try:
            sync_result = pool.solve_sync(_plan_request(seed=2))
            async_result = asyncio.run(pool.solve(_plan_request(seed=2)))
        finally:
            pool.shutdown()
        assert sync_result["plan"] == async_result["plan"]
        assert sync_result["restart_utilities"] == async_result["restart_utilities"]

    def test_process_pool_matches_thread_pool(self):
        # The executor flavour must not leak into results: fork two
        # real worker processes and compare against the thread pool.
        threads = SolverPool(processes=0, restarts=2)
        procs = SolverPool(processes=2, restarts=2)
        try:
            a = threads.solve_sync(_plan_request(seed=13, iterations=30))
            b = procs.solve_sync(_plan_request(seed=13, iterations=30))
        finally:
            threads.shutdown()
            procs.shutdown()
        assert a["plan"] == b["plan"]
        assert a["restart_utilities"] == b["restart_utilities"]

    def test_counters(self):
        pool = SolverPool(processes=0, restarts=3)
        try:
            pool.solve_sync(_plan_request())
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert stats["tasks_started"] == 3
        assert stats["tasks_completed"] == 3
        assert stats["solves_completed"] == 1

    def test_facebook_multistart_beats_or_matches_single_start(self):
        # Acceptance check on the paper's headline workload: restarts=4
        # must return utility >= the single-start plan for the same seed.
        from repro.workloads.swim import synthesize_facebook_workload

        request = {
            "op": "plan",
            "spec": workload_to_dict(synthesize_facebook_workload()),
            "provider": "google",
            "n_vms": 25,
            "iterations": 200,
            "seed": 42,
            "use_castpp": True,
        }
        single = solve_restart(request)
        pool = SolverPool(processes=0, restarts=4)
        try:
            multi = pool.solve_sync(request)
        finally:
            pool.shutdown()
        assert multi["utility"] >= single["utility"]
        assert multi["restart_utilities"][0] == pytest.approx(single["utility"])
        assert len(multi["restart_seeds"]) == 4

    def test_restart_override_per_call(self):
        pool = SolverPool(processes=0, restarts=4)
        try:
            result = pool.solve_sync(_plan_request(), restarts=1)
        finally:
            pool.shutdown()
        assert result["restarts"] == 1

    def test_bad_restarts_rejected(self):
        with pytest.raises(ServiceError, match="restarts"):
            SolverPool(restarts=0)

    def test_zero_restarts_rejected_by_solve(self):
        pool = SolverPool(processes=0, restarts=2)
        try:
            with pytest.raises(ServiceError, match="restarts"):
                pool.solve_sync(_plan_request(), restarts=0)
        finally:
            pool.shutdown()
        assert pool.stats()["tasks_started"] == 0


class TestEvaluatorCounters:
    def test_single_restart_carries_evaluator_stats(self):
        result = solve_restart(_plan_request())
        ev = result["evaluator"]
        assert ev["full_evaluations"] >= 1
        assert ev["incremental_evaluations"] == 40  # one per iteration
        assert ev["cache_hits"] + ev["cache_misses"] > 0

    def test_multistart_sums_counters_across_restarts(self):
        singles = [
            solve_restart(dict(_plan_request(), seed=s))
            for s in restart_seeds(7, 3)
        ]
        pool = SolverPool(processes=0, restarts=3)
        try:
            multi = pool.solve_sync(_plan_request(seed=7))
        finally:
            pool.shutdown()
        for key in ("incremental_evaluations", "cache_hits", "jobs_skipped"):
            assert multi["evaluator"][key] == sum(r["evaluator"][key] for r in singles)
