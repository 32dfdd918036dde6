"""Ground-truth plan measurement on the simulated cluster.

The solvers *predict* with Eq. 1/REG; the evaluation *measures* by
actually running every job on the simulator under the plan's
provisioning — the reproduction's analogue of deploying the generated
plan on the 400-core testbed (§5).  Reuse economics apply to the
measurement exactly as they would on a real cluster:

* jobs of a reuse set co-placed on ephSSD find the dataset already
  staged — only the first pays the objStore download;
* a co-placed shared dataset occupies (and bills) capacity once;
* shared datasets are held on their tier for the reuse lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..core.cost import CostBreakdown, deployment_cost, holding_cost
from ..core.plan import TieringPlan
from ..core.utility import per_vm_capacity, tenant_utility
from ..simulator.engine import HELPER_INTERMEDIATE_GB_PER_VM, simulate_job
from ..simulator.metrics import JobSimResult
from ..workloads.spec import WorkloadSpec
from .runner import ExperimentRunner, JobSim

__all__ = ["PlanMeasurement", "measure_plan"]


@dataclass(frozen=True)
class PlanMeasurement:
    """Observed (simulated) outcome of deploying a plan."""

    makespan_s: float
    cost: CostBreakdown
    utility: float
    per_job: Mapping[str, JobSimResult]
    capacity_gb: Mapping[Tier, float]

    @property
    def makespan_min(self) -> float:
        """Completion time in minutes (the paper's Fig. 7(b) unit)."""
        return self.makespan_s / 60.0


def measure_plan(
    workload: WorkloadSpec,
    plan: TieringPlan,
    cluster_spec: ClusterSpec,
    prov: CloudProvider,
    reuse_engineered: bool = False,
    runner: Optional[ExperimentRunner] = None,
) -> PlanMeasurement:
    """Deploy a plan on the simulator and price the observed execution.

    Parameters
    ----------
    runner:
        Optional :class:`~repro.experiments.runner.ExperimentRunner`
        to fan the per-job simulations out over worker processes.  The
        makespan is still accumulated in workload order, so the
        reported numbers are identical to a serial run.
    reuse_engineered:
        ``True`` when the plan was produced by a reuse-aware planner
        (CAST++): shared datasets are provisioned once and staged once,
        so co-placed reuse sets skip repeat downloads and duplicate
        capacity.  Plans that merely co-place by luck still provision
        and stage per job (their Eq. 3 capacities are per-job), so they
        do not earn the discount.  Holding costs for reuse lifetimes
        apply to every plan — the data must survive between accesses
        regardless of who planned it.
    """
    plan.validate(workload, prov)
    pvc = per_vm_capacity(plan, cluster_spec, prov)

    sims: List[JobSim] = []
    for job in workload.jobs:
        tier = plan.tier_of(job.job_id)
        caps = dict(pvc)
        # objStore jobs shuffle through the helper persSSD volume; the
        # deployment provisions it even when no job *lives* on persSSD.
        helper = prov.service(tier).requires_intermediate
        if helper is not None:
            caps[helper] = max(caps.get(helper, 0.0), HELPER_INTERMEDIATE_GB_PER_VM)
        sims.append((job, tier, caps))

    if runner is not None:
        sim_results = runner.simulate_jobs(sims, cluster_spec, prov)
    else:
        sim_results = [
            simulate_job(job, tier, cluster_spec, prov, per_vm_capacity_gb=caps)
            for job, tier, caps in sims
        ]

    results: Dict[str, JobSimResult] = {}
    makespan = 0.0
    for job, res in zip(workload.jobs, sim_results):
        results[job.job_id] = res
        makespan += res.total_s

    billed = plan.billed_capacity_gb(workload, prov)
    extra_holding = 0.0
    for members, shared_gb, window_s in workload.reuse_table:
        # First-member tier order keeps the holding sum reproducible
        # (see finalize_plan_metrics).
        tiers = list(dict.fromkeys(plan.tier_of(j) for j in members))
        if reuse_engineered and len(tiers) == 1:
            tier = tiers[0]
            if tier is Tier.EPH_SSD:
                # Data staged once; later accesses find it warm.
                by_dl = sorted(members, key=lambda j: results[j].download_s)
                for j in by_dl[:-1]:
                    makespan -= results[j].download_s
            dup = (len(members) - 1) * shared_gb
            billed[tier] = max(0.0, billed.get(tier, 0.0) - dup)
            backing = prov.service(tier).requires_backing
            if backing is not None:
                billed[backing] = max(0.0, billed.get(backing, 0.0) - dup)
        extra_s = max(0.0, window_s - makespan)
        if extra_s > 0:
            for tier in tiers:
                extra_holding += holding_cost(prov, tier, shared_gb, extra_s)

    cost = deployment_cost(prov, cluster_spec, makespan, billed)
    cost = CostBreakdown(vm_usd=cost.vm_usd, storage_usd=cost.storage_usd + extra_holding)
    return PlanMeasurement(
        makespan_s=makespan,
        cost=cost,
        utility=tenant_utility(makespan, cost.total_usd),
        per_job=results,
        capacity_gb=billed,
    )
