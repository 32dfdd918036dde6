"""The basic CAST solver (Algorithm 2 over tiering plans)."""

import numpy as np
import pytest

from repro.cloud.storage import Tier
from repro.core.annealing import AnnealingSchedule
from repro.core.solver import CAPACITY_MULTIPLIERS, CastSolver
from repro.core.utility import evaluate_plan
from repro.workloads.apps import GREP, KMEANS, SORT
from repro.workloads.spec import JobSpec, WorkloadSpec

from reference.solver import bare_neighbor


@pytest.fixture()
def workload():
    return WorkloadSpec(
        jobs=tuple(
            JobSpec(job_id=f"{app.name}-{i}", app=app, input_gb=150.0, n_maps=150)
            for app in (SORT, GREP, KMEANS)
            for i in range(2)
        )
    )


@pytest.fixture()
def solver(char_cluster, matrix, provider):
    return CastSolver(
        cluster_spec=char_cluster,
        matrix=matrix,
        provider=provider,
        schedule=AnnealingSchedule(iter_max=400),
        seed=7,
    )


class TestSolve:
    def test_result_is_valid_plan(self, solver, workload, provider):
        result = solver.solve(workload)
        result.best_state.validate(workload, provider)

    def test_never_worse_than_seed(self, solver, workload, provider):
        init = solver.initial_plan(workload)
        init_u = solver.objective(workload)(init)
        result = solver.solve(workload, initial=init)
        assert result.best_utility >= init_u

    def test_beats_worst_uniform_plan(self, solver, workload, char_cluster, matrix, provider):
        from repro.core.plan import TieringPlan

        worst = min(
            evaluate_plan(
                workload, TieringPlan.uniform(workload, t), char_cluster, matrix, provider
            ).utility
            for t in Tier
        )
        assert solver.solve(workload).best_utility > worst

    def test_deterministic_given_seed(self, char_cluster, matrix, provider, workload):
        def run():
            return CastSolver(
                cluster_spec=char_cluster, matrix=matrix, provider=provider,
                schedule=AnnealingSchedule(iter_max=200), seed=5,
            ).solve(workload)

        assert run().best_state.placements == run().best_state.placements

    def test_objective_is_reuse_oblivious(self, solver, workload, char_cluster, matrix, provider):
        from repro.core.plan import TieringPlan

        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        assert solver.objective(workload)(plan) == pytest.approx(
            evaluate_plan(workload, plan, char_cluster, matrix, provider,
                          reuse_aware=False).utility
        )


class TestNeighborhood:
    def test_moves_preserve_eq3_feasibility(self, solver, workload, provider, rng):
        move = bare_neighbor(solver, workload)
        plan = solver.initial_plan(workload)
        for _ in range(100):
            plan = move(plan, rng)
        plan.validate(workload, provider)

    def test_moves_change_something(self, solver, workload, rng):
        move = bare_neighbor(solver, workload)
        plan = solver.initial_plan(workload)
        changed = False
        for _ in range(10):
            new = move(plan, rng)
            if new.placements != plan.placements:
                changed = True
                break
        assert changed

    def test_capacity_multipliers_start_at_exact_fit(self):
        assert CAPACITY_MULTIPLIERS[0] == 1.0
        assert all(m >= 1.0 for m in CAPACITY_MULTIPLIERS)

    def test_bulk_move_retiers_whole_app(self, solver, workload):
        move = bare_neighbor(solver, workload)
        # Force kind==3 (bulk) by scanning seeds until one occurs.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            if rng.integers(4) == 3:
                rng2 = np.random.default_rng(seed)
                plan = solver.initial_plan(workload)
                new = move(plan, rng2)
                by_app = {}
                for job in workload.jobs:
                    by_app.setdefault(job.app.name, set()).add(new.tier_of(job.job_id))
                # At least one app is now uniformly placed.
                assert any(len(tiers) == 1 for tiers in by_app.values())
                return
        pytest.fail("no bulk move drawn in 100 seeds")


class TestSeeds:
    def test_table2_seed_uses_characteristics(self, solver, workload):
        plan = solver._table2_seed(workload)
        for job in workload.jobs:
            tier = plan.tier_of(job.job_id)
            if job.app.cpu_intensive:
                assert tier is Tier.PERS_HDD
            elif job.app.io_intensive_shuffle:
                assert tier is Tier.PERS_SSD
            elif job.app.io_intensive_map:
                assert tier is Tier.OBJ_STORE

    def test_initial_plan_picks_stronger_seed(self, solver, workload):
        init = solver.initial_plan(workload)
        objective = solver.objective(workload)
        greedy_u = objective(
            __import__("repro.core.greedy", fromlist=["greedy_exact_fit"]).greedy_exact_fit(
                workload, solver.cluster_spec, solver.matrix, solver.provider
            )
        )
        heur_u = objective(solver._table2_seed(workload))
        assert objective(init) == pytest.approx(max(greedy_u, heur_u))
