"""Tenant goals and the goal dispatcher."""

import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import evaluate_workflow_plan
from repro.core.goals import GoalOutcome, TenantGoal, solve_for_goal
from repro.errors import SolverError
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec, WorkloadSpec
from repro.workloads.workflow import search_engine_workflow


@pytest.fixture()
def workload():
    return WorkloadSpec(
        jobs=tuple(
            JobSpec(job_id=f"g{i}", app=GREP if i % 2 else SORT,
                    input_gb=120.0, n_maps=120)
            for i in range(4)
        ),
        name="goal-wl",
    )


@pytest.fixture()
def fast_schedule():
    return AnnealingSchedule(iter_max=300)


class TestDispatch:
    def test_max_utility_returns_one_plan(self, workload, char_cluster,
                                          matrix, provider, fast_schedule):
        outcome = solve_for_goal(
            TenantGoal.MAX_UTILITY,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workload=workload, schedule=fast_schedule,
        )
        assert isinstance(outcome, GoalOutcome)
        assert set(outcome.plans) == {"goal-wl"}
        assert outcome.objective_value > 0

    def test_reuse_goal_uses_castpp(self, workload, char_cluster,
                                    matrix, provider, fast_schedule):
        outcome = solve_for_goal(
            TenantGoal.MAX_UTILITY_REUSE,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workload=workload, schedule=fast_schedule,
        )
        assert outcome.goal is TenantGoal.MAX_UTILITY_REUSE
        assert outcome.objective_value > 0

    def test_deadline_goal_plans_per_workflow(self, char_cluster, matrix,
                                              provider, fast_schedule):
        wfs = [search_engine_workflow(deadline_s=2000.0)]
        outcome = solve_for_goal(
            TenantGoal.MIN_COST_UNDER_DEADLINES,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workflows=wfs, schedule=fast_schedule,
        )
        assert set(outcome.plans) == {wfs[0].name}
        ev = evaluate_workflow_plan(
            wfs[0], outcome.plans[wfs[0].name], char_cluster, matrix, provider
        )
        assert ev.meets_deadline
        assert outcome.objective_value == pytest.approx(ev.cost.total_usd)

    def test_missing_inputs_rejected(self, char_cluster, matrix, provider):
        with pytest.raises(SolverError, match="workload"):
            solve_for_goal(
                TenantGoal.MAX_UTILITY,
                cluster_spec=char_cluster, matrix=matrix, provider=provider,
            )
        with pytest.raises(SolverError, match="workflows"):
            solve_for_goal(
                TenantGoal.MIN_COST_UNDER_DEADLINES,
                cluster_spec=char_cluster, matrix=matrix, provider=provider,
            )


class TestMinMissRate:
    def test_feasible_deadlines_all_met(self, char_cluster, matrix,
                                        provider, fast_schedule):
        wfs = [search_engine_workflow(deadline_s=3000.0)]
        outcome = solve_for_goal(
            TenantGoal.MIN_MISS_RATE,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workflows=wfs, schedule=fast_schedule,
        )
        assert outcome.objective_value == 0.0

    def test_impossible_deadline_degrades_gracefully(self, char_cluster,
                                                     matrix, provider,
                                                     fast_schedule):
        """A 1-second deadline is infeasible on every tier; the planner
        must still return a plan (smallest overshoot) and report 1 miss
        instead of failing."""
        wfs = [search_engine_workflow(deadline_s=1.0)]
        outcome = solve_for_goal(
            TenantGoal.MIN_MISS_RATE,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workflows=wfs, schedule=fast_schedule,
        )
        assert outcome.objective_value == 1.0
        assert wfs[0].name in outcome.plans

    def test_mixed_suite_counts_only_infeasible(self, char_cluster, matrix,
                                                provider, fast_schedule):
        wfs = [
            search_engine_workflow(deadline_s=3000.0),
            search_engine_workflow(deadline_s=1.0),
        ]
        # Plans are keyed by workflow name, so the twin needs its own.
        from repro.workloads.workflow import Workflow

        wf2 = Workflow(
            name="impossible-twin",
            jobs=wfs[1].jobs,
            edges=wfs[1].edges,
            deadline_s=1.0,
        )
        outcome = solve_for_goal(
            TenantGoal.MIN_MISS_RATE,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workflows=[wfs[0], wf2], schedule=fast_schedule,
        )
        assert outcome.objective_value == 1.0


@pytest.mark.parametrize(
    "goal", [TenantGoal.MIN_MISS_RATE, TenantGoal.MIN_COST_UNDER_DEADLINES]
)
def test_duplicate_workflow_names_rejected(goal, char_cluster, matrix,
                                           provider, fast_schedule):
    """Two workflows under one name would leave one plan in the outcome
    while the objective still counted both."""
    wfs = [
        search_engine_workflow(deadline_s=3000.0),
        search_engine_workflow(deadline_s=1.0),
    ]
    with pytest.raises(SolverError, match="duplicate workflow name"):
        solve_for_goal(
            goal,
            cluster_spec=char_cluster, matrix=matrix, provider=provider,
            workflows=wfs, schedule=fast_schedule,
        )
