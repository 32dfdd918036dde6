"""CAST++: reuse pinning (Constraint 7) and workflow mode (Eq. 8-10)."""

import pytest

from repro.cloud.storage import Tier
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import CastPlusPlus, evaluate_workflow_plan
from repro.core.plan import TieringPlan
from repro.errors import SolverError
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec
from repro.workloads.workflow import search_engine_workflow

from reference.solver import bare_neighbor


@pytest.fixture()
def castpp(char_cluster, matrix, provider):
    return CastPlusPlus(
        cluster_spec=char_cluster,
        matrix=matrix,
        provider=provider,
        schedule=AnnealingSchedule(iter_max=400),
        seed=11,
    )


@pytest.fixture()
def reuse_workload():
    jobs = tuple(
        JobSpec(job_id=f"j{i}", app=SORT if i < 3 else GREP, input_gb=150.0, n_maps=150)
        for i in range(5)
    )
    return WorkloadSpec(
        jobs=jobs,
        reuse_sets=(
            ReuseSet(job_ids=frozenset({"j0", "j1"}), lifetime=ReuseLifetime.SHORT),
        ),
    )


class TestConstraint7:
    def test_initial_plan_coplaces_reuse_sets(self, castpp, reuse_workload):
        plan = castpp.initial_plan(reuse_workload)
        assert plan.tier_of("j0") is plan.tier_of("j1")

    def test_neighbor_moves_keep_sets_together(self, castpp, reuse_workload, rng):
        move = bare_neighbor(castpp, reuse_workload)
        plan = castpp.initial_plan(reuse_workload)
        for _ in range(200):
            plan = move(plan, rng)
            assert plan.tier_of("j0") is plan.tier_of("j1")

    def test_solution_respects_constraint7(self, castpp, reuse_workload):
        result = castpp.solve(reuse_workload)
        assert result.best_state.tier_of("j0") is result.best_state.tier_of("j1")

    def test_objective_is_reuse_aware(self, castpp, reuse_workload,
                                      char_cluster, matrix, provider):
        from repro.core.utility import evaluate_plan

        plan = TieringPlan.uniform(reuse_workload, Tier.EPH_SSD)
        assert castpp.objective(reuse_workload)(plan) == pytest.approx(
            evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                          reuse_aware=True).utility
        )


class TestWorkflowEvaluation:
    def test_uniform_plan_has_no_transfers(self, char_cluster, matrix, provider):
        wf = search_engine_workflow(deadline_s=10_000.0)
        plan = TieringPlan.uniform(wf.as_workload(), Tier.PERS_SSD)
        ev = evaluate_workflow_plan(wf, plan, char_cluster, matrix, provider)
        assert ev.transfer_s == 0.0
        assert ev.makespan_s > 0
        assert ev.meets_deadline

    def test_cross_tier_plan_charges_transfers(self, char_cluster, matrix, provider):
        wf = search_engine_workflow(deadline_s=10_000.0)
        tiers = {j.job_id: Tier.PERS_SSD for j in wf.jobs}
        tiers["join-120g"] = Tier.PERS_HDD
        plan = TieringPlan.exact_fit(wf.as_workload(), tiers)
        ev = evaluate_workflow_plan(wf, plan, char_cluster, matrix, provider)
        assert ev.transfer_s > 0

    def test_tight_deadline_flags_miss(self, char_cluster, matrix, provider):
        wf = search_engine_workflow(deadline_s=1.0)
        plan = TieringPlan.uniform(wf.as_workload(), Tier.PERS_HDD)
        ev = evaluate_workflow_plan(wf, plan, char_cluster, matrix, provider)
        assert not ev.meets_deadline

    def test_eph_stages_only_at_dag_boundary(self, char_cluster, matrix, provider):
        wf = search_engine_workflow(deadline_s=10_000.0)
        eph = TieringPlan.uniform(wf.as_workload(), Tier.EPH_SSD)
        ssd = TieringPlan.uniform(wf.as_workload(), Tier.PERS_SSD)
        ev_eph = evaluate_workflow_plan(wf, eph, char_cluster, matrix, provider)
        ev_ssd = evaluate_workflow_plan(wf, ssd, char_cluster, matrix, provider)
        # ephSSD pays root download + leaf upload but no mid-DAG staging;
        # its processing advantage keeps it within 2x of persSSD.
        assert ev_eph.makespan_s < 2 * ev_ssd.makespan_s


class TestWorkflowSolver:
    def test_feasible_deadline_is_met(self, castpp):
        wf = search_engine_workflow(deadline_s=2000.0)
        result = castpp.solve_workflow(wf)
        ev = evaluate_workflow_plan(
            wf, result.best_state, castpp.cluster_spec, castpp.matrix, castpp.provider
        )
        assert ev.meets_deadline

    def test_objective_prefers_cheap_feasible_plans(self, castpp):
        wf = search_engine_workflow(deadline_s=2000.0)
        objective = castpp.workflow_objective(wf)
        cheap_feasible = TieringPlan.uniform(wf.as_workload(), Tier.PERS_SSD)
        infeasible = TieringPlan.uniform(wf.as_workload(), Tier.PERS_HDD)
        ev = evaluate_workflow_plan(wf, infeasible, castpp.cluster_spec,
                                    castpp.matrix, castpp.provider)
        if not ev.meets_deadline:
            assert objective(cheap_feasible) > objective(infeasible)

    def test_looser_deadline_never_costs_more(self, castpp):
        tight = castpp.solve_workflow(search_engine_workflow(deadline_s=900.0))
        loose = castpp.solve_workflow(search_engine_workflow(deadline_s=5000.0))
        # Objective is -cost for feasible plans.
        assert loose.best_utility >= tight.best_utility - 1e-9

    def test_solve_workflows_returns_per_workflow_results(self, castpp):
        from repro.workloads.workflow import evaluation_workflow_suite

        suite = evaluation_workflow_suite()[:2]
        results = castpp.solve_workflows(suite)
        assert set(results) == {wf.name for wf in suite}

    def test_solve_workflows_rejects_duplicate_names(self, castpp):
        # Results are keyed by name: a twin would silently replace the
        # first workflow's plan.
        twins = [
            search_engine_workflow(deadline_s=3000.0),
            search_engine_workflow(deadline_s=1.0),
        ]
        with pytest.raises(SolverError, match="duplicate workflow name"):
            castpp.solve_workflows(twins)

    def test_dfs_neighbor_walks_the_dag(self, castpp, rng):
        wf = search_engine_workflow(deadline_s=2000.0)
        move = castpp.workflow_neighbor(wf)
        plan = TieringPlan.uniform(wf.as_workload(), Tier.PERS_SSD)
        touched = set()
        for _ in range(8):
            new = move(plan, rng)
            for jid in plan.job_ids:
                if new.placement(jid) != plan.placement(jid):
                    touched.add(jid)
            plan = new
        # The DFS cursor cycles through every job.
        assert touched == set(plan.job_ids)
