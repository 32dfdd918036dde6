"""Greedy baselines (Algorithm 1)."""

import pytest

from repro.cloud.storage import Tier
from repro.core.greedy import greedy_exact_fit, greedy_over_provisioned, greedy_plan
from repro.workloads.apps import GREP, KMEANS, SORT
from repro.workloads.spec import JobSpec, WorkloadSpec


@pytest.fixture()
def workload():
    return WorkloadSpec(
        jobs=(
            JobSpec(job_id="sort", app=SORT, input_gb=200.0, n_maps=200),
            JobSpec(job_id="grep", app=GREP, input_gb=300.0, n_maps=300),
            JobSpec(job_id="kmeans", app=KMEANS, input_gb=100.0, n_maps=100),
        )
    )


class TestGreedyExactFit:
    def test_capacities_are_footprints(self, workload, char_cluster, matrix, provider):
        plan = greedy_exact_fit(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            assert plan.placement(job.job_id).capacity_gb == pytest.approx(
                job.footprint_gb
            )

    def test_plan_is_valid(self, workload, char_cluster, matrix, provider):
        plan = greedy_exact_fit(workload, char_cluster, matrix, provider)
        plan.validate(workload, provider)

    def test_each_job_gets_its_solo_best_tier(self, workload, char_cluster, matrix, provider):
        from repro.core.greedy import _single_job_utility
        from repro.core.plan import Placement

        plan = greedy_exact_fit(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            chosen_u = _single_job_utility(
                job, plan.placement(job.job_id), char_cluster, matrix, provider
            )
            for tier in provider.tiers:
                u = _single_job_utility(
                    job, Placement(tier=tier, capacity_gb=job.footprint_gb),
                    char_cluster, matrix, provider,
                )
                assert chosen_u >= u - 1e-12, (job.job_id, tier)

    def test_deterministic(self, workload, char_cluster, matrix, provider):
        a = greedy_exact_fit(workload, char_cluster, matrix, provider)
        b = greedy_exact_fit(workload, char_cluster, matrix, provider)
        assert a.placements == b.placements


class TestGreedyOverProvisioned:
    def test_block_tiers_get_extra_capacity(self, workload, char_cluster, matrix, provider):
        plan = greedy_over_provisioned(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            p = plan.placement(job.job_id)
            if p.tier in (Tier.PERS_SSD, Tier.PERS_HDD):
                assert p.capacity_gb > job.footprint_gb

    def test_over_provisioning_never_shrinks_capacity(
        self, workload, char_cluster, matrix, provider
    ):
        exact = greedy_exact_fit(workload, char_cluster, matrix, provider)
        over = greedy_over_provisioned(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            assert (
                over.placement(job.job_id).capacity_gb
                >= exact.placement(job.job_id).capacity_gb
            )


class TestTierRestriction:
    def test_candidate_tiers_can_be_restricted(self, workload, char_cluster, matrix, provider):
        plan = greedy_plan(
            workload, char_cluster, matrix, provider,
            tiers=[Tier.PERS_HDD, Tier.OBJ_STORE],
        )
        for job in workload.jobs:
            assert plan.tier_of(job.job_id) in (Tier.PERS_HDD, Tier.OBJ_STORE)


def test_solo_score_is_the_one_job_evaluate_plan(char_cluster, matrix, provider):
    """Algorithm 1's score skips building a one-job workload and plan,
    but must stay bit-identical to evaluating exactly that."""
    from repro.core.greedy import _over_provisioned_capacity, _single_job_utility
    from repro.core.plan import Placement, TieringPlan
    from repro.core.utility import evaluate_plan
    from repro.workloads.apps import JOIN

    jobs = (
        JobSpec(job_id="sort", app=SORT, input_gb=200.0, n_maps=200),
        JobSpec(job_id="grep", app=GREP, input_gb=3.3),
        JobSpec(job_id="join", app=JOIN, input_gb=1700.0),
        JobSpec(job_id="kmeans", app=KMEANS, input_gb=11.9),
    )
    for job in jobs:
        for tier in provider.tiers:
            for cap in (
                job.footprint_gb,
                _over_provisioned_capacity(job, tier, char_cluster, provider),
            ):
                placement = Placement(tier=tier, capacity_gb=cap)
                solo = WorkloadSpec(jobs=(job,))
                plan = TieringPlan(placements={job.job_id: placement})
                ref = evaluate_plan(solo, plan, char_cluster, matrix, provider)
                got = _single_job_utility(job, placement, char_cluster, matrix, provider)
                assert got == ref.utility
