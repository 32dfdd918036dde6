"""Elastic cluster sizing: co-optimizing VM count with the tiering plan.

The paper fixes the cluster and plans storage only, noting that
"extending the model to incorporate heterogeneous VM types is part of
our future work" (§4.2).  This module implements the natural first step
of that extension: sweep candidate cluster sizes of the provider's
default VM, run the tiering solver at each, and pick the size whose *best
plan* maximizes tenant utility — VM-hours and storage dollars trade off
against each other through the same Eq. 2 objective.

Each candidate size gets its own profiled model matrix (wave structure
changes with slot counts) and its own annealing run, so the sweep is
embarrassingly parallel in principle and deterministic in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..cloud.provider import CloudProvider
from ..cloud.vm import VMType
from ..errors import SolverError
from ..profiler.profiler import build_model_matrix
from ..workloads.spec import WorkloadSpec
from .annealing import AnnealingSchedule
from .castpp import CastPlusPlus
from .plan import TieringPlan
from .utility import PlanEvaluation

__all__ = ["SizingPoint", "sweep_cluster_sizes", "best_cluster_size"]


@dataclass(frozen=True)
class SizingPoint:
    """One candidate cluster size and its best plan."""

    n_vms: int
    vm: VMType
    plan: TieringPlan
    evaluation: PlanEvaluation

    @property
    def utility(self) -> float:
        """Eq. 2 utility of the best plan at this size."""
        return self.evaluation.utility


def sweep_cluster_sizes(
    workload: WorkloadSpec,
    sizes: Sequence[int],
    provider: CloudProvider,
    iterations: int = 1500,
    seed: int = 42,
) -> List[SizingPoint]:
    """Solve the tiering problem at each candidate cluster size.

    Parameters
    ----------
    sizes:
        Candidate VM counts (e.g. ``(5, 10, 25, 50)``), each a cluster
        of the provider's default VM.

    Returns
    -------
    list of SizingPoint
        One entry per size, in the given order.
    """
    if not sizes:
        raise SolverError("need at least one candidate cluster size")
    if any(n <= 0 for n in sizes):
        raise SolverError(f"cluster sizes must be positive: {list(sizes)}")
    points: List[SizingPoint] = []
    for n_vms in sizes:
        cluster = provider.cluster(n_vms)
        matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
        solver = CastPlusPlus(
            cluster_spec=cluster,
            matrix=matrix,
            provider=provider,
            schedule=AnnealingSchedule(iter_max=iterations),
            seed=seed,
        )
        plan = solver.solve(workload).best_state
        evaluation = solver.evaluate(workload, plan, reuse_aware=True)
        points.append(
            SizingPoint(n_vms=n_vms, vm=cluster.vm, plan=plan, evaluation=evaluation)
        )
    return points


def best_cluster_size(points: Sequence[SizingPoint]) -> SizingPoint:
    """The utility-maximizing candidate (deterministic tie-break: fewer VMs)."""
    if not points:
        raise SolverError("no sizing points to choose from")
    return max(points, key=lambda p: (p.utility, -p.n_vms))
