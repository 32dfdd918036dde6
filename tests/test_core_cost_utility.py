"""Cost model (Eq. 5/6), tenant utility (Eq. 2), plan evaluation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cloud.storage import Tier
from repro.core.cost import CostBreakdown, deployment_cost, holding_cost
from repro.core.plan import Placement, TieringPlan
from repro.core.utility import evaluate_plan, per_vm_capacity, seq_sum, tenant_utility
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec


class TestCostBreakdown:
    def test_total_is_sum(self):
        cost = CostBreakdown(vm_usd=2.0, storage_usd=3.0)
        assert cost.total_usd == 5.0

    def test_addition(self):
        a = CostBreakdown(1.0, 2.0)
        b = CostBreakdown(3.0, 4.0)
        assert (a + b).vm_usd == 4.0
        assert (a + b).storage_usd == 6.0


class TestDeploymentCost:
    def test_combines_eq5_and_eq6(self, provider, char_cluster):
        cost = deployment_cost(
            provider, char_cluster, 3600.0, {Tier.PERS_SSD: 1000.0}
        )
        assert cost.vm_usd == pytest.approx(10 * 0.832)
        assert cost.storage_usd == pytest.approx(1000.0 * 0.17 / 730.0)

    def test_empty_capacity_bills_vm_only(self, provider, char_cluster):
        cost = deployment_cost(provider, char_cluster, 60.0, {})
        assert cost.storage_usd == 0.0
        assert cost.vm_usd > 0


class TestHoldingCost:
    def test_eph_holding_includes_backing(self, provider):
        eph = holding_cost(provider, Tier.EPH_SSD, 100.0, 3600.0)
        raw = provider.prices.storage_holding_cost(Tier.EPH_SSD, 100.0, 3600.0)
        backing = provider.prices.storage_holding_cost(Tier.OBJ_STORE, 100.0, 3600.0)
        assert eph == pytest.approx(raw + backing)

    def test_persistent_holding_is_plain(self, provider):
        ssd = holding_cost(provider, Tier.PERS_SSD, 100.0, 3600.0)
        assert ssd == pytest.approx(
            provider.prices.storage_holding_cost(Tier.PERS_SSD, 100.0, 3600.0)
        )

    def test_zero_duration_free(self, provider):
        assert holding_cost(provider, Tier.PERS_SSD, 100.0, 0.0) == 0.0

    def test_negative_size_rejected(self, provider):
        with pytest.raises(ValueError):
            holding_cost(provider, Tier.PERS_SSD, -1.0, 10.0)


class TestTenantUtility:
    def test_eq2_definition(self):
        # 30-minute workload at $2: U = (1/30)/2.
        assert tenant_utility(1800.0, 2.0) == pytest.approx((1 / 30) / 2)

    def test_faster_is_better(self):
        assert tenant_utility(600.0, 1.0) > tenant_utility(1200.0, 1.0)

    def test_cheaper_is_better(self):
        assert tenant_utility(600.0, 1.0) > tenant_utility(600.0, 2.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            tenant_utility(0.0, 1.0)
        with pytest.raises(ValueError):
            tenant_utility(1.0, 0.0)


@pytest.fixture()
def reuse_workload():
    jobs = (
        JobSpec(job_id="a", app=SORT, input_gb=200.0),
        JobSpec(job_id="b", app=SORT, input_gb=200.0),
        JobSpec(job_id="c", app=GREP, input_gb=100.0),
    )
    return WorkloadSpec(
        jobs=jobs,
        reuse_sets=(ReuseSet(job_ids=frozenset({"a", "b"}), lifetime=ReuseLifetime.SHORT),),
    )


class TestPerVMCapacity:
    def test_spreads_aggregate_across_vms(self, provider, char_cluster, reuse_workload):
        plan = TieringPlan.uniform(reuse_workload, Tier.PERS_SSD)
        pvc = per_vm_capacity(plan, char_cluster, provider)
        agg = sum(p.capacity_gb for p in plan.placements.values())
        assert pvc[Tier.PERS_SSD] == pytest.approx(agg / 10)

    def test_clamps_to_per_vm_limit(self, provider, char_cluster):
        plan = TieringPlan(
            placements={"x": Placement(tier=Tier.EPH_SSD, capacity_gb=100_000.0)}
        )
        pvc = per_vm_capacity(plan, char_cluster, provider)
        assert pvc[Tier.EPH_SSD] == 1500.0

    def test_floors_tiny_aggregates(self, provider, char_cluster):
        wl = WorkloadSpec(jobs=(JobSpec(job_id="x", app=GREP, input_gb=1.0),))
        plan = TieringPlan.exact_fit(wl, {"x": Tier.PERS_HDD})
        pvc = per_vm_capacity(plan, char_cluster, provider)
        assert pvc[Tier.PERS_HDD] >= 10.0


class TestEvaluatePlan:
    def test_returns_consistent_utility(self, provider, char_cluster, matrix, reuse_workload):
        plan = TieringPlan.uniform(reuse_workload, Tier.PERS_SSD)
        ev = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider)
        assert ev.utility == pytest.approx(
            tenant_utility(ev.makespan_s, ev.cost.total_usd)
        )
        assert set(ev.per_job) == {"a", "b", "c"}

    def test_reuse_aware_eph_amortizes_downloads(
        self, provider, char_cluster, matrix, reuse_workload
    ):
        plan = TieringPlan.uniform(reuse_workload, Tier.EPH_SSD)
        oblivious = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                                  reuse_aware=False)
        aware = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                              reuse_aware=True)
        # One of the two shared downloads disappears.
        saved = oblivious.makespan_s - aware.makespan_s
        assert saved == pytest.approx(aware.per_job["a"].download_s, rel=0.01)

    def test_reuse_aware_dedups_shared_capacity(
        self, provider, char_cluster, matrix, reuse_workload
    ):
        plan = TieringPlan.uniform(reuse_workload, Tier.PERS_SSD)
        oblivious = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                                  reuse_aware=False)
        aware = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                              reuse_aware=True)
        assert (
            oblivious.capacity_gb[Tier.PERS_SSD]
            - aware.capacity_gb[Tier.PERS_SSD]
        ) == pytest.approx(200.0)

    def test_split_reuse_set_gets_no_discount_but_pays_holding(
        self, provider, char_cluster, matrix, reuse_workload
    ):
        plan = TieringPlan.exact_fit(
            reuse_workload,
            {"a": Tier.PERS_SSD, "b": Tier.PERS_HDD, "c": Tier.OBJ_STORE},
        )
        oblivious = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                                  reuse_aware=False)
        aware = evaluate_plan(reuse_workload, plan, char_cluster, matrix, provider,
                              reuse_aware=True)
        assert aware.makespan_s == pytest.approx(oblivious.makespan_s)
        assert aware.cost.storage_usd >= oblivious.cost.storage_usd

    def test_invalid_plan_rejected(self, provider, char_cluster, matrix, reuse_workload):
        from repro.errors import PlanError

        bad = TieringPlan(
            placements={
                "a": Placement(tier=Tier.PERS_SSD, capacity_gb=1.0),
                "b": Placement(tier=Tier.PERS_SSD, capacity_gb=1.0),
                "c": Placement(tier=Tier.PERS_SSD, capacity_gb=1.0),
            }
        )
        with pytest.raises(PlanError):
            evaluate_plan(reuse_workload, bad, char_cluster, matrix, provider)


class TestSeqSum:
    """The canonical left-to-right sum every bit-exact path shares."""

    def test_is_the_plus_equals_loop_not_compensated_sum(self):
        # A compensated sum (``sum()`` since Python 3.12, ``math.fsum``)
        # gives 1.0 here; the += loop evaluate_plan runs does not.
        assert seq_sum([0.1] * 10) == 0.9999999999999999

    def test_matches_a_plus_equals_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 16, 17, 100, 401, 5000):
            values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
            total = 0.0
            for v in values.tolist():
                total += v
            assert seq_sum(values) == total
            assert seq_sum(values.tolist()) == total

    def test_empty_and_zero_columns(self):
        assert seq_sum([]) == 0.0
        assert seq_sum(np.zeros(8)) == 0.0
        assert math.copysign(1.0, seq_sum([-0.0, -0.0])) == 1.0


_HOLDING_ORDER_SCRIPT = """
from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core.plan import Placement, TieringPlan
from repro.core.utility import evaluate_plan
from repro.profiler.profiler import build_model_matrix
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec

provider = google_cloud_2015()
cluster = ClusterSpec(n_vms=25)
jobs = tuple(
    JobSpec.make(f"j{i}", app, gb)
    for i, (app, gb) in enumerate(
        [("sort", 1370.0), ("grep", 330.0), ("join", 170.0), ("kmeans", 1190.0)]
    )
)
workload = WorkloadSpec(
    jobs=jobs,
    reuse_sets=(ReuseSet(frozenset(j.job_id for j in jobs), ReuseLifetime.LONG),),
)
tiers = (Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE, Tier.EPH_SSD)
plan = TieringPlan({
    j.job_id: Placement(t, j.footprint_gb * 1.37) for j, t in zip(jobs, tiers)
})
matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
print(evaluate_plan(workload, plan, cluster, matrix, provider,
                    reuse_aware=True).utility.hex())
"""


def test_reuse_aware_utility_is_independent_of_hash_seed():
    # A reuse set split over all four tiers pays holding on each of
    # them; summing those in set-iteration order of str-enum tiers made
    # the last bit depend on PYTHONHASHSEED (three values over twelve
    # seeds for this plan).
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    values = set()
    for seed in ("0", "1", "2", "3", "5", "8"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _HOLDING_ORDER_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        values.add(out.stdout.strip())
    assert len(values) == 1, values
