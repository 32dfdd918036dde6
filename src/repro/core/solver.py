"""The basic CAST tiering solver (paper §4.2).

Searches the space of per-job (service, capacity) assignments with
simulated annealing, maximizing the Eq. 2 tenant utility of the whole
workload under the Eq. 3 capacity constraint.  Capacities are explored
as multipliers of each job's footprint — the floor Eq. 3 imposes —
which keeps every visited plan feasible by construction while still
letting the solver over-provision scaling tiers where the throughput
payoff justifies the bill (§3.1.2's "careful over-provisioning").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import is_
from typing import AbstractSet, Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import SolverError
from ..obs.metrics import get_registry
from ..obs.progress import SolverProgress
from ..obs.tracing import span as _span
from ..profiler.models import ModelMatrix
from ..workloads.spec import JobSpec, WorkloadSpec
from .annealing import AnnealingResult, AnnealingSchedule, Neighbor, simulated_annealing
from .evaluator import PlanEvaluator, PlanMove
from .greedy import greedy_exact_fit
from .plan import CAPACITY_MULTIPLIERS, Placement, TieringPlan
from .utility import PlanEvaluation, evaluate_plan

__all__ = [
    "CastSolver",
    "CAPACITY_MULTIPLIERS",
    "coplace_reuse_sets",
    "rebase_plan",
    "solve_workload_request",
    "table2_tier",
]


def table2_tier(job: JobSpec, available: AbstractSet[Tier]) -> Tier:
    """Table 2 placement for one job: CPU-bound → persHDD, shuffle-heavy
    → persSSD, map-I/O-bound → objStore, else the first catalog tier."""
    app = job.app
    if app.cpu_intensive and Tier.PERS_HDD in available:
        return Tier.PERS_HDD
    if app.io_intensive_shuffle and Tier.PERS_SSD in available:
        return Tier.PERS_SSD
    if app.io_intensive_map and Tier.OBJ_STORE in available:
        return Tier.OBJ_STORE
    return next(iter(sorted(available, key=lambda t: t.value)))


def coplace_reuse_sets(plan: TieringPlan, workload: WorkloadSpec) -> TieringPlan:
    """Constraint 7 repair: move every reuse-set member that sits off
    its set's tier (the first sorted member's) onto it, keeping its
    capacity.  Returns ``plan`` itself when every set is co-placed."""
    placements = plan.placements
    changes = []
    for entry in workload.reuse_table:
        tier = placements[entry.members[0]].tier
        for jid in entry.members[1:]:
            p = placements[jid]
            if p.tier is not tier:
                changes.append((jid, Placement(tier=tier, capacity_gb=p.capacity_gb)))
    return plan.with_placements(changes) if changes else plan


def rebase_plan(
    incumbent: TieringPlan,
    workload: WorkloadSpec,
    provider: CloudProvider,
    reuse_aware: bool,
) -> TieringPlan:
    """An incumbent plan carried onto ``workload`` and ``provider``.

    The warm-start seed of sessions and sweeps.  Per job, in workload
    order: the incumbent's ``Placement`` object is kept when its tier
    is in the catalog (a catalog lacking it falls through to the next
    rule); otherwise the job joins an already-placed reuse mate's tier,
    else its Table 2 tier.  Capacities are floored at the Eq. 3
    footprint.  Reuse-aware solvers then get :func:`coplace_reuse_sets`,
    a no-op on plans that already satisfy Constraint 7.

    Keeping the ``Placement`` objects is what lets
    :meth:`~repro.core.evaluator.PlanEvaluator.apply_workload_delta`
    and :meth:`~repro.core.evaluator.PlanEvaluator.promote` find the
    changed jobs by identity.
    """
    available = set(provider.tiers)
    kept = incumbent.placements.get
    placements: Dict[str, Placement] = {}
    for job in workload.jobs:
        jid = job.job_id
        p = kept(jid)
        if p is None or p.tier not in available:
            tier: Optional[Tier] = None
            rs = workload.reuse_set_of(jid)
            if rs is not None:
                for mate in sorted(rs.job_ids):
                    q = placements.get(mate)
                    if q is not None:
                        tier = q.tier
                        break
            if tier is None:
                tier = table2_tier(job, available)
            p = Placement(tier=tier, capacity_gb=job.footprint_gb)
        elif p.capacity_gb + 1e-9 < job.footprint_gb:
            p = Placement(tier=p.tier, capacity_gb=job.footprint_gb)
        placements[jid] = p
    plan = TieringPlan(placements=placements)
    return coplace_reuse_sets(plan, workload) if reuse_aware else plan


def _hand_off(
    evaluator: PlanEvaluator, workload: WorkloadSpec, plan: TieringPlan
) -> float:
    """Move ``evaluator``'s base onto ``plan`` over ``workload``.

    The same workload is a plain ``reset``.  A plan that only dropped
    jobs from the base and appended arrivals at the workload's end,
    every survivor keeping its ``Placement`` object, takes the
    delta-scoped ``apply_workload_delta``; any other change is
    ``update_workload`` + ``reset``.  Returns the utility of ``plan``.
    """
    if evaluator.workload is workload:
        return evaluator.reset(plan)
    base = evaluator.base_plan
    if base is not None:
        old = base.placements
        new = plan.placements
        arriving = new.keys() - old.keys()
        added = workload.jobs[len(workload.jobs) - len(arriving):]
        # Survivors compare their Placement with the base's; arrivals
        # compare with themselves through the ``get`` default.
        if all(map(is_, map(old.get, new, new.values()), new.values())) and all(
            job.job_id in arriving for job in added
        ):
            removed = sorted(old.keys() - new.keys())
            return evaluator.apply_workload_delta(workload, plan, added, removed)
    evaluator.update_workload(workload)
    return evaluator.reset(plan)


@dataclass
class CastSolver:
    """Basic CAST: SA over tiering plans, reuse/workflow oblivious.

    Parameters
    ----------
    cluster_spec / matrix / provider:
        The deployment being planned for (``R-hat``, ``M-hat``, ``F``).
    schedule:
        Annealing hyperparameters.
    seed:
        RNG seed — identical seeds reproduce identical plans.
    incremental:
        Use the delta-aware :class:`~repro.core.evaluator.PlanEvaluator`
        in the annealing loop (bit-identical to the naive objective,
        several times faster).  ``False`` falls back to full
        :func:`evaluate_plan` calls — the reference path benchmarks and
        parity tests compare against.
    backend:
        ``"anneal"`` (default) runs Algorithm 2's single Metropolis
        chain; ``"tempering"`` runs the parallel-tempering annealer on
        the tensorized objective (:mod:`repro.core.tempering`) — the
        scale backend for large workloads.  Either way the returned
        best plan's metrics are bit-identical to re-scoring that plan
        with :func:`evaluate_plan`.
    replicas:
        Tempering replica count (ignored by the ``"anneal"`` backend).
    """

    cluster_spec: ClusterSpec
    matrix: ModelMatrix
    provider: CloudProvider
    schedule: AnnealingSchedule = AnnealingSchedule()
    seed: int = 42
    incremental: bool = True
    backend: str = "anneal"
    replicas: int = 8
    #: The evaluator used by the most recent :meth:`solve` (None when
    #: the naive or tempering path ran) — exposes cache hit/miss
    #: counters.
    last_evaluator: Optional[PlanEvaluator] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Run statistics of the most recent tempering :meth:`solve`
    #: (None when another backend ran).
    last_tempering: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: The last :meth:`evaluate` report with the workload, plan and
    #: ``reuse_aware`` it was made for (see :meth:`evaluate`).
    _last_report: Optional[
        Tuple[WorkloadSpec, TieringPlan, bool, PlanEvaluation]
    ] = field(default=None, init=False, repr=False, compare=False)

    # -- objective ------------------------------------------------------------

    _reuse_aware: bool = field(default=False, init=False, repr=False)

    def objective(self, workload: WorkloadSpec) -> Callable[[TieringPlan], float]:
        """Eq. 2 utility of a plan (reuse-oblivious, basic CAST)."""

        def utility(plan: TieringPlan) -> float:
            return evaluate_plan(
                workload, plan, self.cluster_spec, self.matrix, self.provider,
                reuse_aware=False,
            ).utility

        return utility

    def make_evaluator(self, workload: WorkloadSpec) -> PlanEvaluator:
        """A delta-aware objective matching this solver's world view."""
        return PlanEvaluator(
            workload, self.cluster_spec, self.matrix, self.provider,
            reuse_aware=self._reuse_aware,
        )

    # -- neighborhood ---------------------------------------------------------

    def neighbor_moves(
        self,
        workload: WorkloadSpec,
        *,
        fp: Optional[Dict[str, float]] = None,
        groups: Optional[Dict[str, Any]] = None,
    ) -> Callable[[TieringPlan, np.random.Generator], Neighbor[TieringPlan]]:
        """Random move: retier/resize one job, or bulk-retier one app.

        Single-job moves alone cannot cross the capacity-coupling
        valley — the first job moved onto an empty scaling service sees
        a starved volume and is always rejected, even when moving the
        whole application class would win.  Since analytics workloads
        consist of a handful of application types (§6), the
        neighborhood also includes *application-level* bulk moves.

        Returns :class:`~repro.core.annealing.Neighbor` values carrying
        the move, enabling the annealer's delta-evaluation fast path.

        ``fp`` optionally supplies the job-id → footprint-GB map (its
        property chains dominate closure setup at 1,000 jobs); the
        streaming session layer maintains it incrementally across
        deltas.  ``groups`` is accepted for signature compatibility
        with :meth:`CastPlusPlus.neighbor_moves` and ignored here.
        """
        del groups  # reuse groups only matter to the CAST++ neighborhood
        tiers = list(self.provider.tiers)
        jobs = list(workload.jobs)
        by_app = workload.jobs_by_app()
        app_names = sorted(by_app)
        # Footprints resolve through a property chain — hoist them out
        # of the per-iteration closure.
        if fp is None:
            fp = {j.job_id: j.footprint_gb for j in jobs}
        app_ids = {app: [j.job_id for j in members] for app, members in by_app.items()}

        def move(plan: TieringPlan, rng: np.random.Generator) -> Neighbor[TieringPlan]:
            kind = rng.integers(4)
            if kind == 3:
                # Bulk move: all jobs of one application to one tier.
                app = app_names[rng.integers(len(app_names))]
                tier = tiers[rng.integers(len(tiers))]
                mult = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
                changes = tuple(
                    (jid, Placement(tier=tier, capacity_gb=fp[jid] * mult))
                    for jid in app_ids[app]
                )
                return Neighbor(plan.with_placements(changes), PlanMove(changes))
            job = jobs[rng.integers(len(jobs))]
            jid = job.job_id
            current = plan.placements[jid]
            tier = current.tier
            mult = max(1.0, current.capacity_gb / fp[jid])
            if kind in (0, 2):
                others = [t for t in tiers if t is not tier]
                tier = others[rng.integers(len(others))]
            if kind in (1, 2):
                mult = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
            changes = ((jid, Placement(tier=tier, capacity_gb=fp[jid] * mult)),)
            return Neighbor(plan.with_placements(changes), PlanMove(changes))

        return move

    def neighbor(
        self, workload: WorkloadSpec
    ) -> Callable[[TieringPlan, np.random.Generator], TieringPlan]:
        """Bare-plan view of :meth:`neighbor_moves`, for the plain
        objective of the ``incremental=False`` reference path."""
        moves = self.neighbor_moves(workload)

        def move(plan: TieringPlan, rng: np.random.Generator) -> TieringPlan:
            return moves(plan, rng).state

        return move

    # -- entry points ------------------------------------------------------------

    def initial_plan(self, workload: WorkloadSpec) -> TieringPlan:
        """``P-hat_init``: the better of Algorithm 2's two seed choices.

        The paper seeds the annealer with either the greedy plan or a
        placement derived from the Table 2 application characteristics
        (CPU-bound → persHDD, map-I/O-bound → objStore, shuffle-heavy
        → persSSD); we evaluate both and start from the stronger one.
        """
        greedy = greedy_exact_fit(
            workload, self.cluster_spec, self.matrix, self.provider
        )
        heuristic = self._table2_seed(workload)
        objective = self.objective(workload)
        return max((greedy, heuristic), key=objective)

    def _table2_seed(self, workload: WorkloadSpec) -> TieringPlan:
        """Per-app placement from the Table 2 phase characteristics."""
        available = set(self.provider.tiers)
        return TieringPlan.exact_fit(
            workload, {j.job_id: table2_tier(j, available) for j in workload.jobs}
        )

    def warm_solve(
        self,
        workload: WorkloadSpec,
        incumbent: TieringPlan,
        evaluator: PlanEvaluator,
        schedule: AnnealingSchedule,
        *,
        neighbor_fn: Optional[Callable[..., Neighbor[TieringPlan]]] = None,
        bar: Optional[float] = None,
    ) -> Tuple[float, Optional[AnnealingResult[TieringPlan]]]:
        """Algorithm 2 seeded with an incumbent instead of ``P-hat_init``.

        The one warm start of streaming sessions and sweeps: rebase
        ``incumbent`` onto ``workload`` (:func:`rebase_plan`), move the
        persistent ``evaluator``'s base onto that plan, run the short
        ``schedule`` from it, and promote the best plan found into the
        evaluator's base.  When the rebased plan scores below ``bar``
        the search is skipped and the result is ``None`` — the caller
        then runs its full-budget solve.

        Returns ``(rebased plan's utility, result)``.
        """
        start = rebase_plan(incumbent, workload, self.provider, self._reuse_aware)
        utility = _hand_off(evaluator, workload, start)
        if bar is not None and utility < bar:
            return utility, None
        result = self.solve(
            workload, initial=start, schedule=schedule,
            evaluator=evaluator, neighbor_fn=neighbor_fn,
        )
        evaluator.promote(result.best_state)
        return utility, result

    def solve(
        self,
        workload: WorkloadSpec,
        initial: Optional[TieringPlan] = None,
        progress: Optional[Callable[[SolverProgress], None]] = None,
        progress_every: int = 500,
        schedule: Optional[AnnealingSchedule] = None,
        evaluator: Optional[PlanEvaluator] = None,
        neighbor_fn: Optional[Callable[..., Neighbor[TieringPlan]]] = None,
    ) -> AnnealingResult[TieringPlan]:
        """Run Algorithm 2 and return the best plan found.

        With ``incremental`` (the default) the annealer evaluates
        neighbors through the delta-aware
        :class:`~repro.core.evaluator.PlanEvaluator` — same utilities,
        same plans, a fraction of the work per iteration.  ``progress``
        receives sampled :class:`~repro.obs.progress.SolverProgress`
        snapshots every ``progress_every`` iterations (disabled, the
        default, costs one pointer check per iteration).

        ``schedule`` overrides the solver's annealing schedule for this
        run only, and ``evaluator`` supplies a pre-built
        :class:`PlanEvaluator` whose memo caches carry over (its
        workload/reuse-awareness must match; the annealer ``reset``\\ s
        it on the initial plan unless its base already *is* that plan,
        so a stale base is harmless).  Both are the seams
        :meth:`warm_solve` uses; the evaluator and ``neighbor_fn`` (a
        pre-built :meth:`neighbor_moves` closure) overrides apply to
        the incremental ``anneal`` path only.
        """
        with _span(
            "solver.solve",
            attrs={"backend": self.backend, "jobs": workload.n_jobs,
                   "seed": self.seed},
        ):
            started = time.perf_counter()
            result = self._solve_inner(
                workload, initial, progress, progress_every,
                schedule, evaluator, neighbor_fn,
            )
            self._record_solve_metrics(result, time.perf_counter() - started)
        return result

    def _solve_inner(
        self,
        workload: WorkloadSpec,
        initial: Optional[TieringPlan],
        progress: Optional[Callable[[SolverProgress], None]],
        progress_every: int,
        schedule: Optional[AnnealingSchedule] = None,
        evaluator: Optional[PlanEvaluator] = None,
        neighbor_fn: Optional[Callable[..., Neighbor[TieringPlan]]] = None,
    ) -> AnnealingResult[TieringPlan]:
        sched = schedule if schedule is not None else self.schedule
        if self.backend == "tempering":
            from .tempering import solve_tempering  # late: avoids cycle

            self.last_tempering = None
            return solve_tempering(
                self, workload, sched, initial=initial,
                progress=progress, progress_every=progress_every,
            )
        if self.backend != "anneal":
            raise SolverError(f"unknown solver backend: {self.backend!r}")
        self.last_tempering = None
        init = initial if initial is not None else self.initial_plan(workload)
        if self.incremental:
            objective: Any = (
                evaluator if evaluator is not None
                else self.make_evaluator(workload)
            )
            moves: Any = (
                neighbor_fn if neighbor_fn is not None
                else self.neighbor_moves(workload)
            )
            self.last_evaluator = objective
        else:
            objective = self.objective(workload)
            moves = self.neighbor(workload)
            self.last_evaluator = None
        return simulated_annealing(
            initial_state=init,
            utility_fn=objective,
            neighbor_fn=moves,
            schedule=sched,
            rng=np.random.default_rng(self.seed),
            progress=progress,
            progress_every=progress_every,
        )

    def _record_solve_metrics(
        self, result: AnnealingResult[TieringPlan], elapsed_s: float
    ) -> None:
        """Publish one solve's totals into the ambient metrics registry.

        Once per solve, never per iteration: inside a thread-mode pool
        worker the ambient registry is the server's
        (:func:`repro.obs.metrics.use_registry`); in a process worker
        it is the process-global one whose delta ships home with the
        restart result.
        """
        reg = get_registry()
        backend = str(self.backend)
        reg.counter(
            "cast_solver_solves_total", "Solver runs completed",
            labelnames=("backend",),
        ).inc(backend=backend)
        reg.counter(
            "cast_solver_iterations_total", "Annealer iterations executed",
            labelnames=("backend",),
        ).inc(result.iterations, backend=backend)
        reg.counter(
            "cast_solver_moves_accepted_total", "Moves accepted by the annealer",
            labelnames=("backend",),
        ).inc(result.accepted, backend=backend)
        reg.histogram(
            "cast_solver_solve_seconds", "Wall time of one solver run",
            labelnames=("backend",),
        ).observe(elapsed_s, backend=backend)

    def evaluate(
        self, workload: WorkloadSpec, plan: TieringPlan, reuse_aware: bool = True
    ) -> PlanEvaluation:
        """Report-grade evaluation of a plan (reuse-aware by default).

        Asking again for the same workload and plan objects with the
        same ``reuse_aware`` returns the last report instead of
        re-scoring: a tempering solve's canonical re-score of its best
        plan is then also the report the caller asks for next.
        """
        last = self._last_report
        if (
            last is not None and last[0] is workload and last[1] is plan
            and last[2] == reuse_aware
        ):
            return last[3]
        evaluation = evaluate_plan(
            workload, plan, self.cluster_spec, self.matrix, self.provider,
            reuse_aware=reuse_aware,
        )
        self._last_report = (workload, plan, reuse_aware, evaluation)
        return evaluation


# ---------------------------------------------------------------------------
# Pure solve entry point (planner-service workers)
# ---------------------------------------------------------------------------


def solve_workload_request(
    workload: Mapping[str, Any],
    provider: str = "google",
    n_vms: int = 25,
    iterations: int = 3000,
    seed: int = 42,
    use_castpp: bool = True,
    backend: str = "anneal",
    replicas: int = 8,
) -> Dict[str, Any]:
    """Solve one workload request end to end, primitives in, primitives out.

    Every argument and the whole return value are plain JSON-compatible
    types, and the function is module-level, so it pickles cleanly into
    a ``ProcessPoolExecutor`` worker (the planner service's multi-start
    pool) and needs no shared state with the parent process.

    Raises :class:`~repro.errors.CastError` subclasses for malformed
    workloads, unknown providers, or infeasible solves — callers map
    these to typed error payloads.
    """
    from .. import plan_workload  # late: repro/__init__ imports this module
    from ..cloud import resolve_provider
    from ..workloads.io import workload_from_dict

    spec = workload_from_dict(dict(workload))
    outcome = plan_workload(
        spec,
        n_vms=int(n_vms),
        provider=resolve_provider(provider),
        use_castpp=bool(use_castpp),
        iterations=int(iterations),
        seed=int(seed),
        backend=str(backend),
        replicas=int(replicas),
    )
    ev = outcome.evaluation
    evaluator = outcome.solver.last_evaluator
    return {
        "kind": "plan",
        "workload_name": spec.name,
        "n_jobs": spec.n_jobs,
        "n_vms": int(n_vms),
        "provider": provider,
        "solver": "CAST++" if use_castpp else "CAST",
        "backend": str(backend),
        "seed": int(seed),
        "iterations": int(iterations),
        "utility": ev.utility,
        "makespan_min": ev.makespan_min,
        "cost_total_usd": ev.cost.total_usd,
        "cost_vm_usd": ev.cost.vm_usd,
        "cost_storage_usd": ev.cost.storage_usd,
        "evaluator": dict(evaluator.stats()) if evaluator is not None else None,
        "tempering": (
            dict(outcome.solver.last_tempering)
            if outcome.solver.last_tempering is not None
            else None
        ),
        "plan": outcome.plan.to_dict(),
    }
