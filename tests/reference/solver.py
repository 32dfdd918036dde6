"""The plain solves the product's search engines are checked against.

* :func:`reference_solve` — Algorithm 2 with a full
  :func:`~repro.core.utility.evaluate_plan` call per iteration
  (``solver.objective``) over bare-plan moves.  The product annealer
  scores the same moves through the delta-aware
  :class:`~repro.core.evaluator.PlanEvaluator`; for one seed both must
  return the same best utility, best plan and acceptance count.
* :func:`reference_greedy` — Algorithm 1's exact-fit greedy scored job
  by job on every tier, where the product scores each job shape once.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core import greedy
from repro.core.annealing import AnnealingResult, simulated_annealing
from repro.core.plan import Placement, TieringPlan

__all__ = ["bare_neighbor", "reference_greedy", "reference_solve"]


def bare_neighbor(solver, workload) -> Callable[[TieringPlan, np.random.Generator], TieringPlan]:
    """``solver.neighbor_moves`` returning the moved plan only."""
    moves = solver.neighbor_moves(workload)

    def move(plan: TieringPlan, rng: np.random.Generator) -> TieringPlan:
        return moves(plan, rng).state

    return move


def reference_solve(
    solver, workload, initial: Optional[TieringPlan] = None
) -> AnnealingResult[TieringPlan]:
    """``solver``'s single-chain solve with the full objective.

    Uses the solver's schedule, seed and Algorithm 2 seed plan (unless
    ``initial`` is given), like ``solver.solve`` on the ``anneal``
    backend.
    """
    init = initial if initial is not None else solver.initial_plan(workload)
    return simulated_annealing(
        initial_state=init,
        utility_fn=solver.objective(workload),
        neighbor_fn=bare_neighbor(solver, workload),
        schedule=solver.schedule,
        rng=np.random.default_rng(solver.seed),
    )


def reference_greedy(workload, cluster, matrix, provider) -> Dict[str, Placement]:
    """Exact-fit Algorithm 1 scored job by job on every tier."""
    placements = {}
    for job in workload.jobs:
        best, best_u = None, float("-inf")
        for tier in provider.tiers:
            placement = Placement(tier=tier, capacity_gb=job.footprint_gb)
            u = greedy._single_job_utility(job, placement, cluster, matrix, provider)
            if u > best_u:
                best, best_u = placement, u
        placements[job.job_id] = best
    return placements
