"""Tenant goals (paper §1/§4: "high-level tenant goals").

CAST "lets tenants specify high-level objectives such as maximizing
tenant utility, or minimizing deadline miss rate".  This module is that
front door: a :class:`TenantGoal` picks the objective, and
:func:`solve_for_goal` dispatches to the right solver configuration:

* ``MAX_UTILITY`` — basic CAST (Algorithm 2, Eq. 2 objective);
* ``MAX_UTILITY_REUSE`` — CAST++'s reuse-aware utility (§4.3 E1);
* ``MIN_COST_UNDER_DEADLINES`` — CAST++'s per-workflow Eq. 8–10 mode;
* ``MIN_MISS_RATE`` — a joint objective over a workflow suite: fewest
  missed deadlines first, dollars as the tiebreaker.  Useful when some
  deadlines are simply infeasible and the tenant wants graceful
  degradation instead of Eq. 9's hard constraint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..cloud.provider import CloudProvider
from ..cloud.vm import ClusterSpec
from ..errors import SolverError
from ..profiler.models import ModelMatrix
from ..workloads.spec import WorkloadSpec
from ..workloads.workflow import Workflow
from .annealing import AnnealingSchedule
from .castpp import CastPlusPlus, _require_unique_names, evaluate_workflow_plan
from .plan import TieringPlan
from .solver import CastSolver

__all__ = ["TenantGoal", "GoalOutcome", "solve_for_goal"]


class TenantGoal(str, enum.Enum):
    """The high-level objectives a tenant can hand the planner."""

    MAX_UTILITY = "max-utility"
    MAX_UTILITY_REUSE = "max-utility-reuse"
    MIN_COST_UNDER_DEADLINES = "min-cost-deadlines"
    MIN_MISS_RATE = "min-miss-rate"


@dataclass(frozen=True)
class GoalOutcome:
    """What the planner returns for a tenant goal.

    ``plans`` maps a scope name (the workload name, or each workflow's
    name) to its tiering plan; ``objective_value`` is goal-specific
    (utility, dollars, or miss count).
    """

    goal: TenantGoal
    plans: Mapping[str, TieringPlan]
    objective_value: float


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SolverError(message)


def solve_for_goal(
    goal: TenantGoal,
    *,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
    workload: Optional[WorkloadSpec] = None,
    workflows: Optional[Sequence[Workflow]] = None,
    schedule: Optional[AnnealingSchedule] = None,
    seed: int = 42,
) -> GoalOutcome:
    """Plan for a tenant goal (the framework's single entry point).

    Utility goals need a ``workload``; deadline goals need
    ``workflows``.
    """
    schedule = schedule or AnnealingSchedule()

    if goal is TenantGoal.MAX_UTILITY:
        _require(workload is not None, "MAX_UTILITY needs a workload")
        solver = CastSolver(cluster_spec=cluster_spec, matrix=matrix,
                            provider=provider, schedule=schedule, seed=seed)
        result = solver.solve(workload)
        return GoalOutcome(
            goal=goal,
            plans={workload.name: result.best_state},
            objective_value=result.best_utility,
        )

    if goal is TenantGoal.MAX_UTILITY_REUSE:
        _require(workload is not None, "MAX_UTILITY_REUSE needs a workload")
        solver = CastPlusPlus(cluster_spec=cluster_spec, matrix=matrix,
                              provider=provider, schedule=schedule, seed=seed)
        result = solver.solve(workload)
        return GoalOutcome(
            goal=goal,
            plans={workload.name: result.best_state},
            objective_value=result.best_utility,
        )

    if goal in (TenantGoal.MIN_COST_UNDER_DEADLINES, TenantGoal.MIN_MISS_RATE):
        _require(bool(workflows), f"{goal.name} needs workflows")
        _require_unique_names(workflows)
        return _solve_deadline_goal(
            goal, workflows, cluster_spec, matrix, provider, schedule, seed
        )

    raise SolverError(f"unknown tenant goal: {goal!r}")  # pragma: no cover


def _solve_deadline_goal(
    goal: TenantGoal,
    workflows: Sequence[Workflow],
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
    schedule: AnnealingSchedule,
    seed: int,
) -> GoalOutcome:
    """Plan each workflow with CAST++'s Eq. 8–10 search, then score.

    Misses and dollars are per-workflow, so both deadline goals
    decompose: each workflow anneals independently under
    :meth:`~repro.core.castpp.CastPlusPlus.workflow_objective`, whose
    penalty pushes every deadline miss below any feasible plan and
    slopes toward feasibility, so an infeasible deadline still yields
    its smallest-overshoot plan.  ``MIN_COST_UNDER_DEADLINES`` reports
    the suite's total dollars, ``MIN_MISS_RATE`` its missed deadlines.
    """
    solver = CastPlusPlus(cluster_spec=cluster_spec, matrix=matrix,
                          provider=provider, schedule=schedule, seed=seed)
    plans: Dict[str, TieringPlan] = {}
    total_cost = 0.0
    misses = 0
    for wf in workflows:
        plan = solver.solve_workflow(wf).best_state
        plans[wf.name] = plan
        ev = evaluate_workflow_plan(wf, plan, cluster_spec, matrix, provider)
        total_cost += ev.cost.total_usd
        misses += not ev.meets_deadline
    value = total_cost if goal is TenantGoal.MIN_COST_UNDER_DEADLINES else float(misses)
    return GoalOutcome(goal=goal, plans=plans, objective_value=value)
