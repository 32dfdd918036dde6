"""CAST: Tiering Storage for Data Analytics in the Cloud — reproduction.

A full Python reproduction of Cheng, Iqbal, Gupta & Butt, *CAST:
Tiering Storage for Data Analytics in the Cloud*, HPDC 2015.

The package provides:

* :mod:`repro.cloud` — Google Cloud's Jan-2015 storage catalog and
  pricing (Table 1), capacity-scaling curves, VM shapes;
* :mod:`repro.workloads` — application profiles (Table 2), SWIM-style
  Facebook workload synthesis (Table 4), workflow DAGs (Fig. 4);
* :mod:`repro.simulator` — a discrete-event MapReduce + storage
  cluster simulator standing in for the paper's 400-core testbed;
* :mod:`repro.profiler` — offline job profiling into performance-model
  matrices (§4.1);
* :mod:`repro.core` — the CAST contribution: Eq. 1 estimator, PCHIP
  capacity regression, Eq. 2–6 utility/cost models, the simulated
  annealing solver, greedy baselines, and CAST++ (§4.2–4.3);
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import plan_workload
    from repro.workloads import synthesize_facebook_workload

    outcome = plan_workload(synthesize_facebook_workload())
    print(outcome.evaluation.utility, outcome.evaluation.cost.total_usd)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Optional

from .cloud import CloudProvider, Tier, google_cloud_2015
from .core import (
    AnnealingSchedule,
    CastPlusPlus,
    CastSolver,
    PlanEvaluation,
    TieringPlan,
)
from .profiler import build_model_matrix
from .workloads import WorkloadSpec

# Library etiquette: no handler, no output, unless the application (or
# the cast-plan CLI via repro.obs.configure_logging) attaches one.
logging.getLogger("repro").addHandler(logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "plan_workload",
    "PlanningOutcome",
    "CastSolver",
    "CastPlusPlus",
    "TieringPlan",
    "WorkloadSpec",
    "Tier",
    "google_cloud_2015",
]


@dataclass(frozen=True)
class PlanningOutcome:
    """Result of the one-call planning pipeline."""

    plan: TieringPlan
    evaluation: PlanEvaluation
    solver: CastSolver


def plan_workload(
    workload: WorkloadSpec,
    n_vms: int = 25,
    provider: Optional[CloudProvider] = None,
    use_castpp: bool = True,
    iterations: int = 3000,
    seed: int = 42,
    backend: str = "anneal",
    replicas: int = 8,
    progress: Optional[Any] = None,
    progress_every: int = 500,
) -> PlanningOutcome:
    """Profile, solve and evaluate a workload in one call.

    This is the whole paper pipeline: offline profiling on the cluster
    substrate (§4.1), simulated-annealing tiering search (§4.2, with
    the §4.3 reuse enhancement when ``use_castpp``), and a reuse-aware
    Eq. 2 evaluation of the winning plan.  ``backend="tempering"``
    swaps the single Metropolis chain for the parallel-tempering
    annealer (``replicas`` coupled chains on the tensorized objective —
    see :mod:`repro.core.tempering`), the recommended setting beyond a
    few hundred jobs.  ``progress`` receives sampled
    :class:`repro.obs.SolverProgress` snapshots every
    ``progress_every`` iterations (``cast-plan plan --trace-solver``).
    """
    provider = provider or google_cloud_2015()
    cluster = provider.cluster(n_vms)
    matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
    solver_cls = CastPlusPlus if use_castpp else CastSolver
    solver = solver_cls(
        cluster_spec=cluster,
        matrix=matrix,
        provider=provider,
        schedule=AnnealingSchedule(iter_max=iterations),
        seed=seed,
        backend=backend,
        replicas=replicas,
    )
    result = solver.solve(
        workload, progress=progress, progress_every=progress_every
    )
    evaluation = solver.evaluate(workload, result.best_state, reuse_aware=True)
    return PlanningOutcome(plan=result.best_state, evaluation=evaluation, solver=solver)
