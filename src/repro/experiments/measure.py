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
from ..core.cost import CostBreakdown
from ..core.plan import TieringPlan
from ..core.utility import PlanTail, finalize_plan_metrics, per_vm_capacity
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

    # The reuse economics and pricing tail of evaluate_plan, on the
    # simulated download times.
    billed = plan.billed_capacity_gb(workload, prov)
    tail = PlanTail(
        workload, cluster_spec, prov, lambda j: results[j].download_s,
        reuse_aware=True, staged_once=reuse_engineered,
    )
    makespan, cost, utility = finalize_plan_metrics(
        tail, plan.placements, makespan, billed
    )
    return PlanMeasurement(
        makespan_s=makespan,
        cost=cost,
        utility=utility,
        per_job=results,
        capacity_gb=billed,
    )
