"""Greedy static tiering (paper Algorithm 1 and its §5.1.2 variants).

The greedy baseline walks the jobs once and gives each the tier that
maximizes that job's *stand-alone* utility.  Its blind spot is the
coupling the paper calls out: placing a job changes the service's
aggregate provisioned capacity, which (through the scaling curves)
changes the performance — and hence the best tier — of every job
already placed.  The evaluation compares two capacity policies:

* **exact-fit** — provision exactly each job's Eq. 3 footprint (cheap,
  but leaves scaling services at low-capacity/low-throughput points);
* **over-provisioned** — provision enough extra capacity to push the
  scaling services toward their throughput saturation point (fast, but
  pays for unused space).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..profiler.models import ModelMatrix, derived
from ..workloads.spec import JobSpec, WorkloadSpec
from .perf_model import estimate_job
from .plan import Placement, TieringPlan, job_billed_contributions
from .utility import per_vm_gb, price_plan

__all__ = ["greedy_plan", "greedy_exact_fit", "greedy_over_provisioned"]

#: Bound on :func:`solo_memo`: wire-submitted shapes are unbounded.
_SOLO_CACHE_MAX = 65536


@derived
def solo_memo(matrix: ModelMatrix) -> Dict[Tuple[Any, ...], float]:
    """``matrix``'s memo of Algorithm 1's ``Utility(j, f)``.

    The stand-alone score is a pure function of (job shape, placement,
    cluster, matrix, provider) — the job id plays no part — so the memo
    keys by (provider, cluster, :func:`_shape`, placement) and holds
    shapes × placements rather than every job ever seen.  The exact-fit /
    over-provisioned passes share most (shape, tier, capacity)
    combinations — every non-scaling tier provisions the footprint in
    both modes — so experiments running both baselines (Table 1, the
    sim throughput bench) pay for each solo evaluation once.
    """
    return {}


def _shape(job: JobSpec) -> Tuple[Any, ...]:
    """Every :class:`JobSpec` field except ``job_id``.

    Two jobs of one shape have the same footprint and the same
    stand-alone score on every placement.
    """
    return (job.app, job.input_gb, job.n_maps, job.n_reduces)


def _single_job_utility(
    job: JobSpec,
    placement: Placement,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
) -> float:
    """Algorithm 1's ``Utility(j, f)``: the job alone on the tier.

    :func:`~repro.core.utility.evaluate_plan` of the one-job workload,
    run through the same helpers in the same order (the one-member
    aggregate, the Eq. 1 estimate, the job's billed pairs, the pricing
    tail) without building a workload and plan per candidate, so the
    score is bit-identical.  Callers pass capacities at or above the
    Eq. 3 footprint, so the plan would validate.
    """
    memo = solo_memo(matrix)
    key = (provider, cluster_spec, _shape(job), placement)
    hit = memo.get(key)
    if hit is None:
        if len(memo) >= _SOLO_CACHE_MAX:
            memo.clear()
        tier = placement.tier
        pvc = per_vm_gb(
            0.0 + placement.capacity_gb, cluster_spec.n_vms,
            provider.service(tier).max_capacity_per_vm_gb(),
        )
        est = estimate_job(
            job, tier, pvc, cluster_spec, matrix, provider, include_staging=True
        )
        billed: Dict[Tier, float] = {}
        for t, gb in job_billed_contributions(job, placement, provider):
            billed[t] = billed.get(t, 0.0) + gb
        hit = price_plan(0.0 + est.total_s, billed, cluster_spec, provider)[1]
        memo[key] = hit
    return hit


def _over_provisioned_capacity(
    job: JobSpec, tier: Tier, cluster_spec: ClusterSpec, provider: CloudProvider
) -> float:
    """Capacity pushing the tier toward its throughput saturation point.

    Block-storage tiers are provisioned to the smaller of their
    saturation capacity and 1 TB per VM; non-scaling tiers keep the
    footprint (over-provisioning buys them nothing).
    """
    svc = provider.service(tier)
    if tier in (Tier.EPH_SSD, Tier.OBJ_STORE):
        return job.footprint_gb
    sat_per_vm = min(svc.throughput.saturation_capacity_gb, 1000.0)
    return max(job.footprint_gb, sat_per_vm * cluster_spec.n_vms)


def greedy_plan(
    workload: WorkloadSpec,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
    over_provision: bool = False,
    tiers: Optional[Sequence[Tier]] = None,
) -> TieringPlan:
    """Algorithm 1: per-job best stand-alone tier.

    Jobs are scored per *shape* — every :class:`JobSpec` field except
    ``job_id`` (app, ``input_gb``, ``n_maps``, ``n_reduces``).  Each
    shape is scored once per candidate tier, and every job of the
    shape gets the shape's best tier, at a capacity computed from the
    job's own footprint.  Jobs of one shape have equal scores on every
    tier, so the plan is the per-job loop's, at a cost that grows with
    the number of distinct shapes (at most apps × size bins on a
    SWIM workload) instead of jobs × tiers.

    Parameters
    ----------
    over_provision:
        ``False`` → exact-fit capacities; ``True`` → capacity pushed to
        the scaling services' saturation point.
    tiers:
        Candidate services (defaults to the whole catalog, ``F``).
    """
    candidates = list(tiers) if tiers is not None else list(provider.tiers)

    def capacity(job: JobSpec, tier: Tier) -> float:
        if over_provision:
            return _over_provisioned_capacity(job, tier, cluster_spec, provider)
        return job.footprint_gb

    best_tier: Dict[Tuple[Any, ...], Tier] = {}
    placements: Dict[str, Placement] = {}
    for job in workload.jobs:
        shape = _shape(job)
        tier = best_tier.get(shape)
        if tier is None:
            best_utility = float("-inf")
            for cand in candidates:
                placement = Placement(tier=cand, capacity_gb=capacity(job, cand))
                utility = _single_job_utility(
                    job, placement, cluster_spec, matrix, provider
                )
                if utility > best_utility:
                    best_utility, tier = utility, cand
            assert tier is not None
            best_tier[shape] = tier
        placements[job.job_id] = Placement(tier=tier, capacity_gb=capacity(job, tier))
    return TieringPlan(placements=placements)


def greedy_exact_fit(
    workload: WorkloadSpec,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
) -> TieringPlan:
    """The §5.1.2 ``Greedy exact-fit`` baseline."""
    return greedy_plan(workload, cluster_spec, matrix, provider, over_provision=False)


def greedy_over_provisioned(
    workload: WorkloadSpec,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
) -> TieringPlan:
    """The §5.1.2 ``Greedy over-provisioned`` baseline."""
    return greedy_plan(workload, cluster_spec, matrix, provider, over_provision=True)
