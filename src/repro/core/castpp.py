"""CAST++: reuse-pattern and workflow awareness (paper §4.3).

Two enhancements over the basic solver:

**Enhancement 1 — data-reuse awareness.**  Constraint 7 pins every job
in a reuse set to one storage service; the objective becomes the
reuse-aware utility (shared datasets staged once, held for their
lifetime).  Neighbor moves relocate whole reuse sets atomically so the
constraint holds throughout the search.

**Enhancement 2 — workflow awareness.**  For each workflow, the
objective flips from utility maximization to *cost minimization under
the tenant deadline* (Eq. 8–9).  The Eq. 10 capacity constraint only
charges a job's input capacity when its producer sits on a different
service, and its output capacity when the consumer shares the service;
cross-tier output→input transfers join both the predicted makespan and
the bill.  Neighbor generation follows a depth-first traversal of the
DAG (§4.3), mutating jobs in DFS order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import SolverError
from ..obs.tracing import span as _span
from ..profiler.models import ModelMatrix
from ..simulator.engine import cross_tier_transfer_seconds, intermediate_tier_for
from ..workloads.spec import WorkloadSpec
from ..workloads.workflow import Workflow
from .annealing import AnnealingResult, AnnealingSchedule, Neighbor, simulated_annealing
from .cost import CostBreakdown, deployment_cost
from .evaluator import PlanMove
from .perf_model import estimate_job, staging_seconds
from .plan import Placement, TieringPlan
from .solver import CAPACITY_MULTIPLIERS, CastSolver, coplace_reuse_sets
from .utility import evaluate_plan, per_vm_capacity

__all__ = [
    "WorkflowEvaluation",
    "evaluate_workflow_plan",
    "CastPlusPlus",
    "solve_workflow_request",
]


# ---------------------------------------------------------------------------
# Workflow plan evaluation (Eq. 8-10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkflowEvaluation:
    """Predicted makespan, cost and deadline verdict for one workflow."""

    workflow_name: str
    makespan_s: float
    transfer_s: float
    cost: CostBreakdown
    deadline_s: float

    @property
    def meets_deadline(self) -> bool:
        """Eq. 9: predicted completion within the tenant SLO."""
        return self.makespan_s <= self.deadline_s


def _workflow_billed_capacity(
    workflow: Workflow,
    plan: TieringPlan,
    provider: CloudProvider,
) -> Dict[Tier, float]:
    """Eq. 10 capacities with helper/backing attribution."""
    g = workflow.graph()
    billed: Dict[Tier, float] = {}

    def add(tier: Tier, gb: float) -> None:
        if gb > 0:
            billed[tier] = billed.get(tier, 0.0) + gb

    for job in workflow.jobs:
        tier = plan.tier_of(job.job_id)
        svc = provider.service(tier)
        preds = list(g.predecessors(job.job_id))
        succs = list(g.successors(job.job_id))

        # Input capacity only when the data is not already resident
        # (root jobs, or any producer on a different service).
        needs_input = not preds or any(
            plan.tier_of(p) is not tier for p in preds
        )
        if needs_input:
            add(tier, job.input_gb)

        inter_tier = intermediate_tier_for(provider, tier)
        add(inter_tier, job.intermediate_gb)

        # Output stays on this service when a consumer shares it, or
        # when the job is terminal (its output is the deliverable).
        keeps_output = not succs or any(plan.tier_of(s) is tier for s in succs)
        if keeps_output:
            add(tier, job.output_gb)

        if svc.requires_backing is not None:
            backing_gb = (job.input_gb if (not preds) else 0.0) + (
                job.output_gb if not succs else 0.0
            )
            add(svc.requires_backing, backing_gb)
    return billed


def evaluate_workflow_plan(
    workflow: Workflow,
    plan: TieringPlan,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
) -> WorkflowEvaluation:
    """Predict one workflow's makespan and cost under a plan.

    Jobs execute in topological order on the shared cluster (Eq. 9's
    sum), with objStore staging only at the DAG boundary (roots read
    external data; leaves persist results) and cross-tier transfers on
    every tier-changing edge — the costs the workflow-oblivious basic
    CAST mis-predicts (§5.2.1).
    """
    pvc = per_vm_capacity(plan, cluster_spec, provider)
    g = workflow.graph()
    makespan = 0.0
    transfer_total = 0.0

    for job_id in workflow.topological_order():
        job = workflow.job(job_id)
        tier = plan.tier_of(job_id)
        est = estimate_job(
            job, tier, pvc.get(tier, 10.0), cluster_spec, matrix, provider,
            include_staging=False,
        )
        makespan += est.processing_s

        preds = list(g.predecessors(job_id))
        succs = list(g.successors(job_id))
        if tier is Tier.EPH_SSD and not preds:
            makespan += staging_seconds(job.input_gb, job.map_tasks, cluster_spec, provider)
        if tier is Tier.EPH_SSD and not succs:
            makespan += staging_seconds(
                job.output_gb,
                job.reduce_tasks * job.app.files_per_reduce_task,
                cluster_spec,
                provider,
            )
        for succ in succs:
            dst = plan.tier_of(succ)
            t = cross_tier_transfer_seconds(
                job.output_gb, tier, dst, cluster_spec, provider,
                per_vm_capacity_gb=pvc,
            )
            transfer_total += t

    makespan += transfer_total
    billed = _workflow_billed_capacity(workflow, plan, provider)
    cost = deployment_cost(provider, cluster_spec, makespan, billed)
    return WorkflowEvaluation(
        workflow_name=workflow.name,
        makespan_s=makespan,
        transfer_s=transfer_total,
        cost=cost,
        deadline_s=workflow.deadline_s,
    )


# ---------------------------------------------------------------------------
# The CAST++ solver
# ---------------------------------------------------------------------------


@dataclass
class CastPlusPlus(CastSolver):
    """CAST++ solver: Constraint 7 + Eq. 8-10 on top of basic CAST."""

    # The delta evaluator built by CastSolver.make_evaluator applies
    # the §3.1.3 reuse economics, matching the objective below.
    _reuse_aware: bool = field(default=True, init=False, repr=False)

    # -- Enhancement 1: reuse awareness ------------------------------------

    def objective(self, workload: WorkloadSpec) -> Callable[[TieringPlan], float]:
        """Reuse-aware Eq. 2 utility (overrides the oblivious base)."""

        def utility(plan: TieringPlan) -> float:
            return evaluate_plan(
                workload, plan, self.cluster_spec, self.matrix, self.provider,
                reuse_aware=True,
            ).utility

        return utility

    def neighbor_moves(
        self,
        workload: WorkloadSpec,
        *,
        fp: Optional[Dict[str, float]] = None,
        groups: Optional[Dict[str, Any]] = None,
    ) -> Callable[[TieringPlan, np.random.Generator], Neighbor[TieringPlan]]:
        """Single-job move that relocates whole reuse sets atomically.

        ``fp`` (job id → footprint GB) and ``groups`` (job id → sorted
        ids of its reuse group, singleton for loners) can be supplied
        pre-built — the streaming session layer maintains both
        incrementally so closure setup stays O(1) per re-plan.
        """
        tiers = list(self.provider.tiers)
        jobs = list(workload.jobs)
        # Footprints and reuse groups are per-workload constants —
        # hoist their property/lookup chains out of the hot closure.
        if fp is None:
            fp = {j.job_id: j.footprint_gb for j in jobs}
        if groups is None:
            groups = {}
            for j in jobs:
                rs = workload.reuse_set_of(j.job_id)
                groups[j.job_id] = sorted(rs.job_ids) if rs is not None else [j.job_id]

        # Move tables: the tiers a move can go to from each tier, and
        # one shared immutable Placement per (job, tier, capacity).
        others_of = {t: [o for o in tiers if o is not t] for t in tiers}
        placed: Dict[Any, Placement] = {}

        def placement(jid: str, tier: Any, capacity_gb: float) -> Placement:
            key = (jid, tier, capacity_gb)
            p = placed.get(key)
            if p is None:
                p = placed[key] = Placement(tier=tier, capacity_gb=capacity_gb)
            return p

        def move(plan: TieringPlan, rng: np.random.Generator) -> Neighbor[TieringPlan]:
            job = jobs[rng.integers(len(jobs))]
            group = groups[job.job_id]
            placements = plan.placements
            kind = rng.integers(3)
            tier = placements[job.job_id].tier
            mult_choice = None
            if kind in (0, 2):
                others = others_of[tier]
                tier = others[rng.integers(len(others))]
            if kind in (1, 2):
                mult_choice = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
            changes = []
            for jid in group:
                mult = (
                    mult_choice
                    if mult_choice is not None
                    else max(1.0, placements[jid].capacity_gb / fp[jid])
                )
                changes.append((jid, placement(jid, tier, fp[jid] * mult)))
            changes = tuple(changes)
            return Neighbor(plan.with_placements(changes), PlanMove(changes))

        return move

    def initial_plan(self, workload: WorkloadSpec) -> TieringPlan:
        """Greedy seed with Constraint 7 repaired (sets co-placed)."""
        return coplace_reuse_sets(super().initial_plan(workload), workload)

    # -- Enhancement 2: workflow awareness ----------------------------------

    def workflow_objective(
        self, workflow: Workflow
    ) -> Callable[[TieringPlan], float]:
        """Eq. 8 under Eq. 9: maximize ``-cost``; deadline violations
        are pushed below every feasible value with a slope toward
        feasibility so the annealer can climb back in."""

        def objective(plan: TieringPlan) -> float:
            ev = evaluate_workflow_plan(
                workflow, plan, self.cluster_spec, self.matrix, self.provider
            )
            if ev.meets_deadline:
                return -ev.cost.total_usd
            overshoot = ev.makespan_s / workflow.deadline_s
            return -1e6 * overshoot - ev.cost.total_usd

        return objective

    def workflow_neighbor(
        self, workflow: Workflow
    ) -> Callable[[TieringPlan, np.random.Generator], TieringPlan]:
        """DFS-order traversal of the DAG (§4.3's neighbor search)."""
        import networkx as nx

        g = workflow.graph()
        dfs_order: List[str] = []
        for root in workflow.roots():
            dfs_order.extend(
                n for n in nx.dfs_preorder_nodes(g, source=root) if n not in dfs_order
            )
        tiers = list(self.provider.tiers)
        cursor = [0]

        def move(plan: TieringPlan, rng: np.random.Generator) -> TieringPlan:
            job_id = dfs_order[cursor[0] % len(dfs_order)]
            cursor[0] += 1
            job = workflow.job(job_id)
            current = plan.placement(job_id)
            others = [t for t in tiers if t is not current.tier]
            tier = others[rng.integers(len(others))]
            mult = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
            return plan.with_placement(
                job_id, Placement(tier=tier, capacity_gb=job.footprint_gb * mult)
            )

        return move

    def solve_workflow(
        self,
        workflow: Workflow,
        initial: Optional[TieringPlan] = None,
        progress: Optional[Callable[[Any], None]] = None,
        progress_every: int = 500,
    ) -> AnnealingResult[TieringPlan]:
        """Optimize one workflow separately (the §4.3 procedure)."""
        if initial is None:
            initial = TieringPlan.uniform(workflow.as_workload(), Tier.PERS_SSD)
        with _span(
            "solver.solve_workflow",
            attrs={"workflow": workflow.name, "jobs": workflow.n_jobs,
                   "seed": self.seed},
        ):
            started = time.perf_counter()
            result = simulated_annealing(
                initial_state=initial,
                utility_fn=self.workflow_objective(workflow),
                neighbor_fn=self.workflow_neighbor(workflow),
                schedule=self.schedule,
                rng=np.random.default_rng(self.seed),
                progress=progress,
                progress_every=progress_every,
            )
            self._record_solve_metrics(result, time.perf_counter() - started)
        return result

    def solve_workflows(
        self, workflows: Sequence[Workflow]
    ) -> Dict[str, AnnealingResult[TieringPlan]]:
        """Optimize every workflow in a suite independently."""
        _require_unique_names(workflows)
        return {wf.name: self.solve_workflow(wf) for wf in workflows}


def _require_unique_names(workflows: Sequence[Workflow]) -> None:
    """Reject a suite in which two workflows share a name.

    Suite answers key plans by workflow name, so a repeated name would
    silently drop a plan the suite's objective still counts.
    """
    seen = set()
    for wf in workflows:
        if wf.name in seen:
            raise SolverError(f"duplicate workflow name {wf.name!r} in suite")
        seen.add(wf.name)


# ---------------------------------------------------------------------------
# Pure solve entry point (planner-service workers)
# ---------------------------------------------------------------------------


def solve_workflow_request(
    workflow: Mapping[str, object],
    provider: str = "google",
    n_vms: int = 25,
    iterations: int = 3000,
    seed: int = 42,
) -> Dict[str, object]:
    """Deadline-optimize one workflow request, primitives in/out.

    The workflow-shaped twin of
    :func:`~repro.core.solver.solve_workload_request`: module-level and
    JSON-typed at both ends so it pickles into process-pool workers.
    ``utility`` is the Eq. 8 objective value (``-cost`` when the
    deadline is met, the penalty-shaped value otherwise) so multi-start
    selection can compare restarts uniformly across request kinds.
    """
    from ..cloud import resolve_provider
    from ..profiler import build_model_matrix
    from ..workloads.io import workflow_from_dict

    wf = workflow_from_dict(dict(workflow))
    prov = resolve_provider(provider)
    cluster = prov.cluster(int(n_vms))
    matrix = build_model_matrix(provider=prov, cluster_spec=cluster)
    solver = CastPlusPlus(
        cluster_spec=cluster,
        matrix=matrix,
        provider=prov,
        schedule=AnnealingSchedule(iter_max=int(iterations)),
        seed=int(seed),
    )
    result = solver.solve_workflow(wf)
    ev = evaluate_workflow_plan(wf, result.best_state, cluster, matrix, prov)
    return {
        "kind": "workflow-plan",
        "workflow_name": wf.name,
        "n_jobs": wf.n_jobs,
        "n_vms": int(n_vms),
        "provider": provider,
        "solver": "CAST++",
        "seed": int(seed),
        "iterations": int(iterations),
        "utility": result.best_utility,
        "makespan_s": ev.makespan_s,
        "transfer_s": ev.transfer_s,
        "deadline_s": ev.deadline_s,
        "meets_deadline": ev.meets_deadline,
        "cost_total_usd": ev.cost.total_usd,
        "cost_vm_usd": ev.cost.vm_usd,
        "cost_storage_usd": ev.cost.storage_usd,
        "plan": result.best_state.to_dict(),
    }
