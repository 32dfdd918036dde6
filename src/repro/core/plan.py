"""Tiering plans: per-job (storage service, capacity) assignments.

A plan (``P-hat`` in Table 3) is the solver's decision variable: for
every job ``i``, the service ``s_i`` it runs on and the capacity
``c_i`` provisioned for it.  Eq. 3 requires
``c_i >= input_i + inter_i + output_i``; the aggregate capacity per
service (``capacity[f] = sum of c_i with s_i == f``) feeds both the
Eq. 6 storage bill and the REG capacity-scaling lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..errors import PlanError
from ..workloads.spec import JobSpec, WorkloadSpec

__all__ = [
    "CAPACITY_MULTIPLIERS",
    "Placement",
    "TieringPlan",
    "job_billed_contributions",
]

#: Capacity over-provisioning levels the solvers may try per job, as
#: multiples of its Eq. 3 footprint.
CAPACITY_MULTIPLIERS: Tuple[float, ...] = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)


def job_billed_contributions(
    job: JobSpec, placement: Placement, provider: CloudProvider
) -> Tuple[Tuple[Tier, float], ...]:
    """One job's billed-capacity contributions as ordered ``(tier, GB)`` pairs.

    The single source of truth for how a placement turns into Eq. 6
    billable capacity — :meth:`TieringPlan.billed_capacity_gb` and the
    incremental :class:`~repro.core.evaluator.PlanEvaluator` both
    accumulate these pairs in workload-job order, so the two paths add
    the same floats in the same sequence and agree bit for bit.

    * objStore jobs shuffle through the ``requires_intermediate``
      service — that capacity is billed at the helper's rate;
    * ephSSD jobs keep persistent copies of input and output on the
      ``requires_backing`` service (objStore), billed there.
    """
    svc = provider.service(placement.tier)
    pairs: list = []
    if svc.requires_intermediate is not None:
        # Shuffle data cannot live on the service itself.
        inter = job.intermediate_gb
        pairs.append((svc.requires_intermediate, inter))
        pairs.append(
            (
                placement.tier,
                max(placement.capacity_gb - inter, job.input_gb + job.output_gb),
            )
        )
    else:
        pairs.append((placement.tier, placement.capacity_gb))
    if svc.requires_backing is not None:
        pairs.append((svc.requires_backing, job.input_gb + job.output_gb))
    return tuple(pairs)


@dataclass(frozen=True)
class Placement:
    """One job's assignment: service ``s_i`` and capacity ``c_i`` (GB)."""

    tier: Tier
    capacity_gb: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.capacity_gb):
            raise PlanError(f"non-finite capacity: {self.capacity_gb}")
        if self.capacity_gb < 0:
            raise PlanError(f"negative capacity: {self.capacity_gb}")


@dataclass(frozen=True)
class TieringPlan:
    """A complete data placement + provisioning plan for a workload.

    Immutable; solver moves produce new plans via :meth:`with_placement`.
    """

    placements: Mapping[str, Placement]

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", dict(self.placements))

    # -- construction -------------------------------------------------------

    @staticmethod
    def exact_fit(
        workload: WorkloadSpec, tier_of: Mapping[str, Tier]
    ) -> "TieringPlan":
        """Build a plan provisioning exactly each job's Eq. 3 footprint.

        Intermediate data hosted on a helper tier (objStore jobs
        shuffle through persSSD) is still counted in ``c_i`` — the
        paper's Eq. 3 aggregates all phases' needs into one capacity.
        """
        placements = {}
        for job in workload.jobs:
            tier = tier_of[job.job_id]
            placements[job.job_id] = Placement(tier=tier, capacity_gb=job.footprint_gb)
        return TieringPlan(placements=placements)

    @staticmethod
    def uniform(workload: WorkloadSpec, tier: Tier) -> "TieringPlan":
        """All jobs on one tier, exact-fit capacities (the paper's
        ``<tier> 100%`` baseline configurations)."""
        return TieringPlan.exact_fit(
            workload, {j.job_id: tier for j in workload.jobs}
        )

    def with_placement(self, job_id: str, placement: Placement) -> "TieringPlan":
        """A copy of this plan with one job reassigned."""
        return self.with_placements(((job_id, placement),))

    def with_placements(
        self, changes: Iterable[Tuple[str, Placement]]
    ) -> "TieringPlan":
        """A copy of this plan with a batch of jobs reassigned.

        One dict copy regardless of batch size — the solver's app-level
        bulk moves reassign many jobs per neighbor draw, and copying the
        whole placement map once per job made bulk moves O(N²).
        Updating an existing key preserves its position, so plan
        iteration order is invariant across any move sequence.
        """
        new = dict(self.placements)
        for job_id, placement in changes:
            if job_id not in new:
                raise PlanError(f"job {job_id!r} not in plan")
            new[job_id] = placement
        # ``new`` is private to the copy, so skip __post_init__'s copy.
        plan = object.__new__(TieringPlan)
        object.__setattr__(plan, "placements", new)
        return plan

    # -- lookups -----------------------------------------------------------

    def placement(self, job_id: str) -> Placement:
        """This job's assignment."""
        try:
            return self.placements[job_id]
        except KeyError:
            raise PlanError(f"job {job_id!r} not in plan") from None

    def tier_of(self, job_id: str) -> Tier:
        """This job's service (``s_i``)."""
        return self.placement(job_id).tier

    @property
    def job_ids(self) -> Tuple[str, ...]:
        """All planned jobs."""
        return tuple(self.placements.keys())

    # -- aggregates -----------------------------------------------------------

    def aggregate_capacity_gb(self) -> Dict[Tier, float]:
        """``capacity[f]`` per service (Eq. 6's per-service sums).

        Helper-tier intermediate capacity for objStore jobs is
        attributed to the helper (it is billed at the helper's rate),
        ephSSD jobs' backing capacity to objStore.
        """
        out: Dict[Tier, float] = {}
        for placement in self.placements.values():
            out[placement.tier] = out.get(placement.tier, 0.0) + placement.capacity_gb
        return out

    def billed_capacity_gb(
        self, workload: WorkloadSpec, provider: CloudProvider
    ) -> Dict[Tier, float]:
        """Aggregate capacity including helper/backing side allocations.

        * objStore jobs shuffle through the ``requires_intermediate``
          service — that capacity is billed at the helper's rate;
        * ephSSD jobs keep persistent copies of input and output on the
          ``requires_backing`` service (objStore), billed there.
        """
        out: Dict[Tier, float] = {}
        for job in workload.jobs:
            for tier, gb in job_billed_contributions(
                job, self.placement(job.job_id), provider
            ):
                out[tier] = out.get(tier, 0.0) + gb
        return out

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Schema-v1 dict: the deployable artifact a tenant hands ops."""
        return {
            "version": 1,
            "kind": "tiering-plan",
            "placements": {
                job_id: {"tier": p.tier.value, "capacity_gb": p.capacity_gb}
                for job_id, p in sorted(self.placements.items())
            },
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "TieringPlan":
        """Inverse of :meth:`to_dict` (validating tiers and shapes)."""
        if data.get("version") != 1 or data.get("kind") != "tiering-plan":
            raise PlanError(
                f"not a v1 tiering-plan record: "
                f"version={data.get('version')!r} kind={data.get('kind')!r}"
            )
        placements = {}
        for job_id, rec in dict(data.get("placements", {})).items():
            try:
                tier = Tier(rec["tier"])
            except (KeyError, ValueError):
                raise PlanError(
                    f"{job_id}: bad tier {rec.get('tier')!r}"
                ) from None
            try:
                cap = float(rec["capacity_gb"])
            except (KeyError, TypeError, ValueError):
                raise PlanError(f"{job_id}: bad capacity") from None
            placements[str(job_id)] = Placement(tier=tier, capacity_gb=cap)
        return TieringPlan(placements=placements)

    # -- validation -----------------------------------------------------------

    def validate(self, workload: WorkloadSpec, provider: CloudProvider) -> None:
        """Check plan structure and the Eq. 3 capacity constraint.

        Raises :class:`PlanError` on missing/extra jobs or unknown
        tiers, :class:`~repro.errors.CapacityError` indirectly through
        provider lookups for impossible volumes.
        """
        plan_ids = set(self.placements)
        wl_ids = {j.job_id for j in workload.jobs}
        if plan_ids != wl_ids:
            missing = sorted(wl_ids - plan_ids)
            extra = sorted(plan_ids - wl_ids)
            raise PlanError(f"plan/workload mismatch: missing={missing} extra={extra}")
        for job in workload.jobs:
            p = self.placement(job.job_id)
            provider.service(p.tier)  # raises CatalogError when unknown
            if p.capacity_gb + 1e-9 < job.footprint_gb:
                raise PlanError(
                    f"{job.job_id}: Eq. 3 violated — provisioned "
                    f"{p.capacity_gb:.1f} GB < footprint {job.footprint_gb:.1f} GB"
                )
