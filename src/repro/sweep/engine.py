"""The cross-catalog sweep engine: amortized multi-catalog solving.

Solving a (catalog × workload × knob) grid point-by-point repeats an
enormous amount of work: every independent solve re-profiles nothing
(the model matrix is already memoized) but rebuilds the evaluator's
Eq. 1 term caches, re-derives the Algorithm 2 seed plan, and — most
expensively — runs a full annealing budget from scratch on a problem
whose optimum is a near-neighbor of one the sweep already solved.
:class:`SweepEngine` removes all three redundancies:

* **Shared per-catalog structure.**  One :class:`_Context` per
  (catalog, workload, cluster size) holds the provider, profiled
  matrix, solver, a persistent delta-aware
  :class:`~repro.core.evaluator.PlanEvaluator` (its bandwidth-identity
  memo and per-job Eq. 1 term caches stay hot across every point of
  the cell), and the Algorithm 2 seed plan with its utility — computed
  once, reused by every knob point as both cold seed and the
  warm-transfer acceptance bar.  On the tensor path the
  dense PCHIP bandwidth tensors and Eq. 1 static terms are shared
  process-wide via :func:`~repro.core.tensor_eval.bandwidth_tensor` /
  :func:`~repro.core.tensor_eval.job_statics`.
* **Warm-start transfer.**  Each non-anchor point seeds its search
  from its grid donor's incumbent through the warm start streaming
  sessions use (:meth:`~repro.core.solver.CastSolver.warm_solve`, which
  remaps the plan with :func:`~repro.core.solver.rebase_plan`), runs a
  short low-temperature schedule, and *falls back to the full budget*
  whenever the transferred plan scores worse than the Algorithm 2
  seed — so a bad transfer can cost at most one extra plan
  evaluation, never quality.
* **Fan-out with fingerprint dedup.**  Waves of the donor DAG fan out
  over the process-pool :class:`~repro.experiments.runner.ExperimentRunner`
  (the program's one :class:`~repro.workers.WorkerPool`, so worker
  spans and counters come home as if the sweep ran serially); literal
  duplicate points (same canonical fingerprint) are solved once and
  copied.

Exactness contract: every reported utility — cold, warm, fallback or
dedup — is the canonical :func:`~repro.core.utility.evaluate_plan`
re-score of the returned plan, and ``parity_ok`` records that the
search-side utility matched it bit-for-bit.  Serial and pooled runs
produce identical results (solves are seeded per point, and evaluator
cache state never changes values — only speed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cloud import resolve_provider
from ..core import AnnealingSchedule, CastPlusPlus, CastSolver, TieringPlan
from ..errors import SolverError
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..profiler import build_model_matrix
from ..workloads.spec import WorkloadSpec
from .grid import SweepPoint, plan_grid

__all__ = [
    "SweepConfig",
    "SweepPointResult",
    "SweepResult",
    "SweepEngine",
]

#: Warm transfers run cool and short: a fraction of the point's full
#: budget (transfers that cross catalogs land farther from the optimum
#: and get more), at least ``WARM_ITERATIONS_MIN`` iterations.
WARM_FRAC = 0.08
WARM_FRAC_CROSS = 0.25
WARM_ITERATIONS_MIN = 96
WARM_TEMP_INIT = 0.05
WARM_COOLING_RATE = 0.95


@dataclass(frozen=True)
class SweepConfig:
    """Solver knobs shared by the whole sweep."""

    n_vms: int = 25
    iterations: int = 3000
    seed: int = 42
    use_castpp: bool = True
    backend: str = "anneal"
    replicas: int = 8
    #: ``False`` solves every point cold at full budget — the engine
    #: then only amortizes shared structure (the benchmark's ablation).
    warm: bool = True


@dataclass(frozen=True)
class SweepPointResult:
    """Outcome of one grid point."""

    point: SweepPoint
    #: ``cold`` (anchor, full budget), ``warm`` (transfer + short
    #: schedule), ``fallback`` (transfer rejected, full budget), or
    #: ``dedup`` (copied from an identical point).
    mode: str
    utility: float
    makespan_min: float
    cost_total_usd: float
    plan: TieringPlan
    solve_s: float
    iterations_run: int
    parity_ok: bool
    #: Canonical utility of the transferred donor plan (warm/fallback).
    transfer_utility: Optional[float] = None

    def to_dict(self, include_plan: bool = False) -> Dict[str, Any]:
        p = self.point
        out: Dict[str, Any] = {
            "index": p.index,
            "provider": p.provider,
            "workload": p.workload_name,
            "knob": p.knob_idx,
            "n_vms": p.n_vms,
            "iterations": p.iterations,
            "seed": p.seed,
            "donor": p.donor,
            "mode": self.mode,
            "utility": self.utility,
            "makespan_min": self.makespan_min,
            "cost_total_usd": self.cost_total_usd,
            "solve_s": self.solve_s,
            "iterations_run": self.iterations_run,
            "parity_ok": self.parity_ok,
            "transfer_utility": self.transfer_utility,
            "fingerprint": p.fingerprint,
        }
        if include_plan:
            out["plan"] = self.plan.to_dict()
        return out


@dataclass
class SweepResult:
    """All point results plus sweep-level accounting."""

    points: List[SweepPointResult]
    providers: Tuple[str, ...]
    workload_names: Tuple[str, ...]
    n_knobs: int
    elapsed_s: float
    modes: Dict[str, int] = field(default_factory=dict)

    def ranking(self) -> List[Dict[str, Any]]:
        """Per-workload catalog ranking by mean utility across knobs.

        Knob cells are CRN-paired across catalogs, so the mean over
        knobs compares catalogs on identical seed draws.
        """
        rows: List[Dict[str, Any]] = []
        for w, name in enumerate(self.workload_names):
            entries = []
            for prov in self.providers:
                pts = [
                    r for r in self.points
                    if r.point.workload_idx == w and r.point.provider == prov
                ]
                if not pts:
                    continue
                n = len(pts)
                entries.append({
                    "provider": prov,
                    "mean_utility": sum(r.utility for r in pts) / n,
                    "best_utility": max(r.utility for r in pts),
                    "mean_cost_usd": sum(r.cost_total_usd for r in pts) / n,
                    "mean_makespan_min": sum(r.makespan_min for r in pts) / n,
                })
            entries.sort(key=lambda e: e["mean_utility"], reverse=True)
            best = entries[0]["mean_utility"] if entries else float("nan")
            for e in entries:
                e["relative"] = e["mean_utility"] / best if best else float("nan")
            rows.append({"workload": name, "ranking": entries})
        return rows

    def to_dict(self, include_plans: bool = False) -> Dict[str, Any]:
        return {
            "kind": "sweep",
            "providers": list(self.providers),
            "workloads": list(self.workload_names),
            "n_knobs": self.n_knobs,
            "n_points": len(self.points),
            "elapsed_s": self.elapsed_s,
            "modes": dict(self.modes),
            "parity_ok": all(r.parity_ok for r in self.points),
            "points": [r.to_dict(include_plan=include_plans) for r in self.points],
            "ranking": self.ranking(),
        }


class _Context:
    """Shared per-(catalog, workload, cluster) solve infrastructure."""

    __slots__ = (
        "provider", "cluster", "matrix", "solver", "evaluator",
        "neighbor_fn", "seed_plan", "seed_utility", "workload",
    )

    def __init__(
        self, provider_name: str, workload: WorkloadSpec, n_vms: int,
        config: SweepConfig,
    ) -> None:
        self.workload = workload
        self.provider = resolve_provider(provider_name)
        self.cluster = self.provider.cluster(n_vms)
        self.matrix = build_model_matrix(
            provider=self.provider, cluster_spec=self.cluster
        )
        solver_cls = CastPlusPlus if config.use_castpp else CastSolver
        self.solver = solver_cls(
            cluster_spec=self.cluster,
            matrix=self.matrix,
            provider=self.provider,
            schedule=AnnealingSchedule(iter_max=config.iterations),
            seed=config.seed,
            backend=config.backend,
            replicas=config.replicas,
        )
        # Algorithm 2 seed (greedy vs Table 2, whichever scores
        # higher) and its canonical utility: computed once per cell,
        # reused as every knob point's cold seed and as the
        # warm-transfer acceptance bar.
        self.seed_plan = self.solver.initial_plan(workload)
        self.seed_utility = self.solver.evaluate(
            workload, self.seed_plan, reuse_aware=self.solver._reuse_aware
        ).utility
        self.neighbor_fn = self.solver.neighbor_moves(workload)
        self.evaluator = self.solver.make_evaluator(workload)
        self.evaluator.validate_resets = False

    def solve_point(
        self,
        point: SweepPoint,
        config: SweepConfig,
        donor_plan: Optional[TieringPlan],
    ) -> SweepPointResult:
        """Solve one grid point, warm when the transfer clears the bar."""
        solver = self.solver
        solver.seed = point.seed
        started = time.perf_counter()
        mode = "cold"
        transfer_utility: Optional[float] = None
        result = None
        if config.warm and donor_plan is not None:
            frac = WARM_FRAC_CROSS if point.cross_catalog else WARM_FRAC
            budget = max(WARM_ITERATIONS_MIN, int(round(point.iterations * frac)))
            sched = AnnealingSchedule(
                temp_init=WARM_TEMP_INIT, cooling_rate=WARM_COOLING_RATE,
                iter_max=min(budget, point.iterations),
            )
            transfer_utility, result = solver.warm_solve(
                self.workload, donor_plan, self.evaluator, sched,
                neighbor_fn=self.neighbor_fn, bar=self.seed_utility,
            )
            mode = "fallback" if result is None else "warm"
        if result is None:
            result = solver.solve(
                self.workload,
                initial=self.seed_plan,
                schedule=AnnealingSchedule(iter_max=point.iterations),
                evaluator=self.evaluator,
                neighbor_fn=self.neighbor_fn,
            )
        best = result.best_state
        reference = solver.evaluate(
            self.workload, best, reuse_aware=solver._reuse_aware
        )
        elapsed = time.perf_counter() - started
        return SweepPointResult(
            point=point,
            mode=mode,
            utility=reference.utility,
            makespan_min=reference.makespan_min,
            cost_total_usd=reference.cost.total_usd,
            plan=best,
            solve_s=elapsed,
            iterations_run=result.iterations,
            parity_ok=(result.best_utility == reference.utility),
            transfer_utility=transfer_utility,
        )


def _solve_chunk(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Solve one wave-chunk of grid points (picklable worker body).

    All points of a chunk share one (catalog, workload, cluster)
    context, so the worker builds the shared structure once.  The
    profiled matrix and the tensor-path shared structures are memoized
    per process, so a pool worker re-solving later waves of the same
    cell pays for them once.
    """
    config: SweepConfig = payload["config"]
    ctx = _Context(
        payload["provider"], payload["workload"], payload["n_vms"], config
    )
    out: List[Dict[str, Any]] = []
    for entry in payload["points"]:
        point: SweepPoint = entry["point"]
        donor_plan = (
            TieringPlan.from_dict(entry["donor_plan"])
            if entry["donor_plan"] is not None else None
        )
        r = ctx.solve_point(point, config, donor_plan)
        d = r.to_dict(include_plan=True)
        out.append(d)
    return out


class SweepEngine:
    """Plan and execute one (catalog × workload × knob) sweep.

    ``workers`` > 1 fans each wave's chunks over the process-pool
    :class:`~repro.experiments.runner.ExperimentRunner`; results are
    identical to a serial run.
    """

    def __init__(
        self,
        providers: Sequence[str],
        workloads: Sequence[WorkloadSpec],
        knobs: Optional[Sequence[Mapping[str, Any]]] = None,
        config: Optional[SweepConfig] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.config = config or SweepConfig()
        self.providers = tuple(str(p) for p in providers)
        self.workloads = list(workloads)
        self.knobs = [dict(k) for k in (knobs or [{}])]
        self.workers = workers
        names = set()
        for w in self.workloads:
            if w.name in names:
                raise SolverError(
                    f"duplicate workload name {w.name!r} in sweep"
                )
            names.add(w.name)
        cfg = self.config
        self.grid: List[SweepPoint] = plan_grid(
            self.providers, self.workloads, self.knobs,
            n_vms=cfg.n_vms, iterations=cfg.iterations, seed=cfg.seed,
            use_castpp=cfg.use_castpp, backend=cfg.backend,
            replicas=cfg.replicas,
        )

    # -- execution ---------------------------------------------------------

    def run(self) -> SweepResult:
        started = time.perf_counter()
        with span(
            "sweep.run",
            attrs={"points": len(self.grid),
                   "catalogs": len(self.providers),
                   "workers": self.workers or 1},
        ):
            results = self._run_waves()
        elapsed = time.perf_counter() - started
        ordered = [results[p.index] for p in self.grid]
        modes: Dict[str, int] = {}
        for r in ordered:
            modes[r.mode] = modes.get(r.mode, 0) + 1
        sweep = SweepResult(
            points=ordered,
            providers=self.providers,
            workload_names=tuple(w.name for w in self.workloads),
            n_knobs=len(self.knobs),
            elapsed_s=elapsed,
            modes=modes,
        )
        self._record_metrics(sweep)
        return sweep

    def _run_waves(self) -> Dict[int, SweepPointResult]:
        results: Dict[int, SweepPointResult] = {}
        solved_fp: Dict[str, int] = {}
        waves: Dict[int, List[SweepPoint]] = {}
        for p in self.grid:
            waves.setdefault(p.wave, []).append(p)

        contexts: Dict[Tuple[int, int, int], _Context] = {}

        def context_for(p: SweepPoint) -> _Context:
            key = (p.catalog_idx, p.workload_idx, p.n_vms)
            ctx = contexts.get(key)
            if ctx is None:
                ctx = _Context(
                    p.provider, self.workloads[p.workload_idx], p.n_vms,
                    self.config,
                )
                contexts[key] = ctx
            return ctx

        runner = None
        if self.workers is not None and self.workers > 1:
            # Deferred: repro.experiments imports this package (and a
            # serial sweep needs none of it).
            from ..experiments.runner import ExperimentRunner

            runner = ExperimentRunner(self.workers)
        try:
            for wave in sorted(waves):
                pending: List[SweepPoint] = []
                dedup: List[SweepPoint] = []
                for p in waves[wave]:
                    if p.fingerprint in solved_fp:
                        dedup.append(p)
                    else:
                        solved_fp[p.fingerprint] = p.index
                        pending.append(p)
                if pending and runner is not None:
                    self._solve_wave_pooled(runner, pending, results)
                else:
                    for p in pending:
                        donor_plan = (
                            results[p.donor].plan if p.donor is not None else None
                        )
                        results[p.index] = context_for(p).solve_point(
                            p, self.config, donor_plan
                        )
                for p in dedup:
                    src = results[solved_fp[p.fingerprint]]
                    results[p.index] = replace(
                        src, point=p, mode="dedup", solve_s=0.0
                    )
        finally:
            if runner is not None:
                runner.close()
        return results

    def _solve_wave_pooled(
        self,
        runner: Any,
        pending: List[SweepPoint],
        results: Dict[int, SweepPointResult],
    ) -> None:
        """Fan one wave's cell-chunks over the process pool.

        Worker spans and metric deltas come home through the runner's
        worker pool, into this thread's trace and ambient registry."""
        chunks: Dict[Tuple[int, int, int], List[SweepPoint]] = {}
        for p in pending:
            chunks.setdefault(
                (p.catalog_idx, p.workload_idx, p.n_vms), []
            ).append(p)
        payloads = []
        for (c, w, vms), pts in sorted(chunks.items()):
            payloads.append({
                "provider": pts[0].provider,
                "workload": self.workloads[w],
                "n_vms": vms,
                "config": self.config,
                "points": [
                    {
                        "point": p,
                        "donor_plan": (
                            results[p.donor].plan.to_dict()
                            if p.donor is not None else None
                        ),
                    }
                    for p in pts
                ],
            })
        for chunk_result in runner.map(_solve_chunk, payloads):
            for d in chunk_result:
                point = self.grid[d["index"]]
                results[point.index] = SweepPointResult(
                    point=point,
                    mode=d["mode"],
                    utility=d["utility"],
                    makespan_min=d["makespan_min"],
                    cost_total_usd=d["cost_total_usd"],
                    plan=TieringPlan.from_dict(d["plan"]),
                    solve_s=d["solve_s"],
                    iterations_run=d["iterations_run"],
                    parity_ok=d["parity_ok"],
                    transfer_utility=d["transfer_utility"],
                )

    def _record_metrics(self, sweep: SweepResult) -> None:
        reg = get_registry()
        reg.counter("cast_sweep_runs_total", "Sweep grids executed").inc()
        points = reg.counter(
            "cast_sweep_points_total",
            "Sweep grid points solved, by solve mode",
            labelnames=("mode",),
        )
        for mode, n in sweep.modes.items():
            points.inc(n, mode=mode)
        reg.counter(
            "cast_sweep_transfer_wins_total",
            "Warm transfers that cleared the Algorithm 2 seed bar",
        ).inc(sweep.modes.get("warm", 0))
        reg.counter(
            "cast_sweep_transfer_fallbacks_total",
            "Warm transfers rejected in favor of a full-budget solve",
        ).inc(sweep.modes.get("fallback", 0))
        reg.histogram(
            "cast_sweep_seconds", "Wall time of one whole sweep"
        ).observe(sweep.elapsed_s)
        solve_hist = reg.histogram(
            "cast_sweep_point_seconds",
            "Wall time of one sweep point solve",
            labelnames=("mode",),
        )
        for r in sweep.points:
            if r.mode != "dedup":
                solve_hist.observe(r.solve_s, mode=r.mode)
