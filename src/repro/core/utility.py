"""Tenant utility and whole-plan evaluation (paper Eq. 2–6).

The tenant utility of a deployment is

.. math::

    U = \\frac{1/T}{\\$_{vm} + \\$_{store}}

with ``T`` the workload completion time in minutes (Eq. 2).
:func:`evaluate_plan` computes ``T`` by summing per-job Eq. 1/REG
estimates at the plan's aggregate capacities (Eq. 4), prices the
deployment through the Eq. 5/6 cost model, and — when asked to be
reuse-aware — applies the §3.1.3 data-reuse economics:

* jobs in a reuse set co-placed on ephSSD pay the objStore download
  only once (the data is already staged for later accesses);
* a co-placed shared dataset occupies capacity once, not once per job;
* shared datasets are held on their tier for the reuse lifetime, billed
  beyond the workload makespan.

The reuse-oblivious mode (``reuse_aware=False``) is exactly the basic
CAST solver's world view; CAST++ optimizes — and all final reporting
happens — in the reuse-aware mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import PlanError
from ..profiler.models import ModelMatrix
from ..units import seconds_to_minutes
from ..workloads.spec import WorkloadSpec
from .cost import CostBreakdown, holding_cost
from .perf_model import JobEstimate, estimate_job
from .plan import Placement, TieringPlan

__all__ = [
    "tenant_utility",
    "PlanEvaluation",
    "evaluate_plan",
    "PlanTail",
    "finalize_plan_metrics",
    "per_vm_capacity",
    "per_vm_gb",
    "price_plan",
    "seq_sum",
]


def tenant_utility(makespan_s: float, cost_usd: float) -> float:
    """Eq. 2: ``(1/T_minutes) / $total``."""
    if makespan_s <= 0:
        raise ValueError(f"non-positive makespan: {makespan_s}")
    if cost_usd <= 0:
        raise ValueError(f"non-positive cost: {cost_usd}")
    return (1.0 / seconds_to_minutes(makespan_s)) / cost_usd


@dataclass(frozen=True)
class PlanEvaluation:
    """Everything the solver and the reports need about one plan."""

    makespan_s: float
    cost: CostBreakdown
    utility: float
    per_job: Mapping[str, JobEstimate]
    capacity_gb: Mapping[Tier, float]

    @property
    def makespan_min(self) -> float:
        """Completion time in minutes (the paper's reporting unit)."""
        return seconds_to_minutes(self.makespan_s)


_accumulate = np.add.accumulate


def seq_sum(values) -> float:
    """Left-to-right float sum ``((0.0 + v0) + v1) + ...``.

    The summation order :func:`evaluate_plan` uses for its ``+=``
    loops, and the one every bit-exact sum elsewhere in the planner
    must reproduce.  Not ``sum()`` (compensated since Python 3.12),
    ``math.fsum`` (exactly rounded) or ``np.sum`` (pairwise): each can
    round differently in the last place.  ``np.add.accumulate`` is a
    strictly sequential C loop, so this runs at C speed on the
    evaluator's float64 columns.
    """
    if type(values) is not np.ndarray or values.dtype != np.float64:
        values = np.asarray(values, dtype=np.float64)
    if not len(values):
        return 0.0
    # ``+ 0.0`` turns an all-``-0.0`` sum into ``0.0``, as the loop does.
    return _accumulate(values).item(-1) + 0.0


def per_vm_gb(aggregate_gb: float, n_vms: int, max_per_vm_gb: float) -> float:
    """One service's per-VM capacity from its aggregate (Eq. 4 input).

    The aggregate spreads across the cluster, is clamped to the
    service's per-VM stacking limit, and floored at the smallest
    billable volume so the REG lookup stays in-domain.
    """
    per_vm = min(aggregate_gb / n_vms, max_per_vm_gb)
    return max(per_vm, 10.0)


def per_vm_capacity(
    plan: TieringPlan,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
) -> Dict[Tier, float]:
    """Per-VM provisioned capacity per service under a plan."""
    return {
        tier: per_vm_gb(
            agg, cluster_spec.n_vms, provider.service(tier).max_capacity_per_vm_gb()
        )
        for tier, agg in plan.aggregate_capacity_gb().items()
    }


def price_plan(
    makespan_s: float,
    billed: Mapping[Tier, float],
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    extra_holding_usd: float = 0.0,
) -> Tuple[CostBreakdown, float]:
    """Eq. 5/6 cost plus reuse holding, and the Eq. 2 utility."""
    if makespan_s <= 0:
        raise PlanError("plan evaluates to a non-positive makespan")
    # deployment_cost's two terms, with the holding added to storage.
    prices = provider.prices
    cost = CostBreakdown(
        vm_usd=prices.vm_cost(cluster_spec.n_vms, makespan_s),
        storage_usd=prices.storage_cost(billed, makespan_s) + extra_holding_usd,
    )
    return cost, tenant_utility(makespan_s, cost.total_usd)


class PlanTail:
    """The reuse/price tail of plan evaluation, built once per workload.

    Holds what :func:`finalize_plan_metrics` needs besides the plan:
    the cluster and provider it prices with, each tier's backing tier,
    and — for a reuse-aware tail — per reuse set, in declaration order:
    its first (sorted) member, the other members, the duplicate GB a
    co-placed set stops billing, the shared GB, the lifetime window and
    the ephSSD download discounts in the order they are taken.
    """

    __slots__ = ("cluster_spec", "provider", "backing", "sets")

    def __init__(
        self,
        workload: WorkloadSpec,
        cluster_spec: ClusterSpec,
        provider: CloudProvider,
        download_of: Callable[[str], float],
        reuse_aware: bool = False,
        staged_once: bool = True,
    ) -> None:
        """``download_of(job_id)`` is a job's objStore download time on
        ephSSD.  Only sets placed wholly on ephSSD read their discounts,
        so it must be exact for a member whenever every member of its
        set is on ephSSD (static download times always are).

        ``staged_once=False`` keeps every set's holding but takes no
        dedup and no discount (zero duplicate GB, no downloads skipped):
        a plan that was not reuse-engineered provisions and stages each
        member on its own, yet its shared data must still be held."""
        self.cluster_spec = cluster_spec
        self.provider = provider
        self.backing = {
            tier: provider.service(tier).requires_backing for tier in provider.tiers
        }
        sets = []
        if reuse_aware:
            for members, shared_gb, window_s in workload.reuse_table:
                dup, discounts = 0.0, ()
                if staged_once:
                    # One staged copy serves every member: all but the
                    # largest download are skipped, smallest first.
                    by_dl = sorted(members, key=download_of)
                    dup = (len(members) - 1) * shared_gb
                    discounts = tuple(download_of(j) for j in by_dl[:-1])
                sets.append(
                    (members[0], members[1:], dup, shared_gb, window_s, discounts)
                )
        self.sets = tuple(sets)


def finalize_plan_metrics(
    tail: PlanTail,
    placements: Mapping[str, Placement],
    makespan_s: float,
    billed: Dict[Tier, float],
) -> Tuple[float, CostBreakdown, float]:
    """The shared tail of plan evaluation: reuse economics, Eq. 5/6, Eq. 2.

    Both :func:`evaluate_plan` and the incremental
    :class:`~repro.core.evaluator.PlanEvaluator` run this exact code on
    their (identical) raw makespan and billed capacities, which is what
    guarantees the two paths return bit-identical utilities.
    ``billed`` is adjusted in place (reuse dedup); callers pass a dict
    they own.  The reuse economics run only for a reuse-aware ``tail``.
    Returns ``(makespan_s, cost, utility)``.
    """
    extra_holding_usd = 0.0
    for first, rest, dup, shared_gb, window_s, eph_discounts in tail.sets:
        tier = placements[first].tier
        uniform = True
        for j in rest:
            if placements[j].tier is not tier:
                uniform = False
                break
        if uniform:
            # One staged copy serves every member: later ephSSD
            # accesses skip the objStore download...
            if tier is Tier.EPH_SSD:
                for download_s in eph_discounts:
                    makespan_s -= download_s
            # ...and the shared input occupies capacity once.
            billed[tier] = max(0.0, billed.get(tier, 0.0) - dup)
            backing = tail.backing[tier]
            if backing is not None:
                billed[backing] = max(0.0, billed.get(backing, 0.0) - dup)
        # Holding beyond the workload run, on every tier hosting a copy.
        extra_s = max(0.0, window_s - makespan_s)
        if extra_s > 0:
            # Tiers in the order of their first (sorted) member.  A set
            # of str-enum tiers would iterate in hash order, which
            # changes per process and so would the holding-cost sum.
            tiers = (tier,) if uniform else dict.fromkeys(
                placements[j].tier for j in (first, *rest)
            )
            for t in tiers:
                extra_holding_usd += holding_cost(tail.provider, t, shared_gb, extra_s)

    cost, utility = price_plan(
        makespan_s, billed, tail.cluster_spec, tail.provider, extra_holding_usd
    )
    return makespan_s, cost, utility


def evaluate_plan(
    workload: WorkloadSpec,
    plan: TieringPlan,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
    reuse_aware: bool = False,
) -> PlanEvaluation:
    """Estimate utility, makespan and cost of a plan (Eq. 2–6).

    This is the reference (naive) implementation: it re-validates the
    plan and re-estimates every job from scratch.  The solvers' hot
    loop uses :class:`~repro.core.evaluator.PlanEvaluator`, which is
    proven bit-identical to this function by the parity test suite.

    Parameters
    ----------
    reuse_aware:
        Apply the §3.1.3 reuse economics (CAST++'s world view and the
        fair final-reporting mode).  When ``False``, every job is
        priced independently — basic CAST's objective.
    """
    plan.validate(workload, provider)
    pvc = per_vm_capacity(plan, cluster_spec, provider)

    estimates: Dict[str, JobEstimate] = {}
    makespan_s = 0.0
    for job in workload.jobs:
        tier = plan.tier_of(job.job_id)
        est = estimate_job(
            job, tier, pvc[tier], cluster_spec, matrix, provider,
            include_staging=True,
        )
        estimates[job.job_id] = est
        makespan_s += est.total_s

    billed = plan.billed_capacity_gb(workload, provider)
    tail = PlanTail(
        workload, cluster_spec, provider, lambda j: estimates[j].download_s,
        reuse_aware=reuse_aware,
    )
    makespan_s, cost, utility = finalize_plan_metrics(
        tail, plan.placements, makespan_s, billed
    )
    return PlanEvaluation(
        makespan_s=makespan_s,
        cost=cost,
        utility=utility,
        per_job=estimates,
        capacity_gb=billed,
    )
