#!/usr/bin/env python
"""Solver scale benchmark: naive vs incremental vs parallel tempering.

Where :mod:`bench_solver_throughput` measures the incremental
evaluator on paper-sized workloads (tens of jobs), this benchmark
pushes the solver to 1,000 jobs and adds the tensorized
parallel-tempering backend (:mod:`repro.core.tempering`) to the
comparison.  At each size the incremental single chain and the
tempering ensemble get the *same* iteration budget; the naive
full-``evaluate_plan`` path gets a reduced budget at the larger sizes
(it would otherwise dominate the run) and its throughput is reported
as measured, never extrapolated into a speedup claim.

Three gates are asserted, not just measured — any failure exits
non-zero while timing noise never does:

* **batch parity** — tensor batch utilities for random plans match the
  canonical :func:`~repro.core.utility.evaluate_plan` score to within
  1e-9 relative;
* **re-score identity** — the tempering result's ``best_utility`` is
  bit-identical to an independent canonical re-score of the returned
  plan;
* **quality** — tempering's best utility is >= the incremental single
  chain's at the same budget, on every benchmarked workload.

A CAST++ row (both modes) runs the reuse-aware solvers on the
canonical 100-job Facebook workload, whose reuse sets make tempering
use atomic group moves and the batched reuse terms.  It gates batch
parity on group-uniform random plans (Constraint 7 holds, as the group
moves keep it) and re-score identity against the reuse-aware
``evaluate_plan``; its quality ratio is reported but not gated
(tempering vs the single chain measured 0.97–1.03 at this size).

Usage::

    PYTHONPATH=src python benchmarks/bench_solver_scale.py
    PYTHONPATH=src python benchmarks/bench_solver_scale.py --quick

Writes ``BENCH_scale.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, _HERE)

import numpy as np

from conftest import write_bench_report
from repro.cloud.provider import google_cloud_2015
from repro.cloud.vm import ClusterSpec
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import CastPlusPlus
from repro.core.solver import CastSolver
from repro.core.tensor_eval import TensorWorkloadModel
from repro.core.utility import evaluate_plan
from repro.profiler.profiler import build_model_matrix
from repro.workloads.swim import (
    synthesize_facebook_workload,
    synthesize_small_workload,
)

#: (n_jobs, total_dataset_gb, naive_iter_max).  Incremental and
#: tempering always run the full ITER_MAX budget; the naive path runs
#: ``naive_iter_max`` so the benchmark finishes in minutes, and the
#: reduced budget is recorded in the output.
SIZES = ((50, 6000.0, 3000), (200, 25000.0, 1000), (1000, 125000.0, 200))
ITER_MAX = 3000
REPLICAS = 8
WORKLOAD_SEED = 11
SOLVER_SEED = 7
PARITY_RTOL = 1e-9
#: Random plans per workload for the batch-parity gate.
PARITY_PLANS = 8


def check_batch_parity(
    workload, cluster, matrix, provider, reuse_aware: bool = False
) -> Dict[str, Any]:
    """Tensor batch utilities vs canonical evaluate_plan on random plans.

    Reuse-aware plans are drawn group-uniform: every reuse set on one
    tier, the invariant the batched reuse terms assume.
    """
    model = TensorWorkloadModel(
        workload, cluster, matrix, provider, reuse_aware=reuse_aware
    )
    rng = np.random.default_rng(SOLVER_SEED)
    N, T, L = model.n_jobs, model.n_tiers, model.n_levels
    tier = rng.integers(T, size=(PARITY_PLANS, N))
    lvl = rng.integers(1, L, size=(PARITY_PLANS, N))
    if reuse_aware:
        for ns in model.groups:
            tier[:, ns] = tier[:, ns[:1]]
    state = model.make_state(tier[0], lvl[0], PARITY_PLANS)
    state.tier[:] = tier
    state.lvl[:] = lvl
    model.refresh(state)
    batch = model.utilities(state)
    worst = 0.0
    for r in range(PARITY_PLANS):
        plan = model.decode_plan(tier[r], lvl[r])
        canonical = evaluate_plan(
            workload, plan, cluster, matrix, provider, reuse_aware=reuse_aware
        )
        rel = abs(float(batch[r]) - canonical.utility) / abs(canonical.utility)
        worst = max(worst, rel)
    return {"plans": PARITY_PLANS, "worst_rel_err": worst,
            "ok": worst <= PARITY_RTOL}


def bench_one(n_jobs: int, dataset_gb: float, naive_iters: int,
              iter_max: int) -> Dict[str, Any]:
    """Three-way comparison at one workload size; assert all gates."""
    provider = google_cloud_2015()
    cluster = ClusterSpec(n_vms=25)
    workload = synthesize_small_workload(
        n_jobs=n_jobs, total_dataset_gb=dataset_gb,
        rng=np.random.default_rng(WORKLOAD_SEED), name=f"scale-{n_jobs}",
    )
    matrix = build_model_matrix(provider=provider, cluster_spec=cluster)

    def make(backend: str, iters: int, incremental: bool = True) -> CastSolver:
        return CastSolver(
            cluster_spec=cluster, matrix=matrix, provider=provider,
            schedule=AnnealingSchedule(iter_max=iters), seed=SOLVER_SEED,
            incremental=incremental, backend=backend, replicas=REPLICAS,
        )

    naive = make("anneal", naive_iters, incremental=False)
    incremental = make("anneal", iter_max)
    tempering = make("tempering", iter_max)
    initial = naive.initial_plan(workload)

    parity = check_batch_parity(workload, cluster, matrix, provider)

    t0 = time.perf_counter()
    r_naive = naive.solve(workload, initial=initial)
    t1 = time.perf_counter()
    r_inc = incremental.solve(workload, initial=initial)
    t2 = time.perf_counter()
    r_temp = tempering.solve(workload, initial=initial)
    t3 = time.perf_counter()
    naive_s, inc_s, temp_s = t1 - t0, t2 - t1, t3 - t2

    rescore = evaluate_plan(
        workload, r_temp.best_state, cluster, matrix, provider
    )
    rescore_identical = rescore.utility == r_temp.best_utility
    quality_ok = r_temp.best_utility >= r_inc.best_utility

    return {
        "solver": "CAST",
        "n_jobs": n_jobs,
        "dataset_gb": dataset_gb,
        "iterations": iter_max,
        "naive_iterations": naive_iters,
        "naive_budget_reduced": naive_iters < iter_max,
        "replicas": REPLICAS,
        "batch_parity": parity,
        "rescore_identical": rescore_identical,
        "quality_ok": quality_ok,
        "parity": parity["ok"] and rescore_identical and quality_ok,
        "naive_seconds": naive_s,
        "incremental_seconds": inc_s,
        "tempering_seconds": temp_s,
        "naive_iters_per_s": naive_iters / naive_s,
        "incremental_iters_per_s": iter_max / inc_s,
        "tempering_steps_per_s": iter_max / temp_s,
        "tempering_moves_per_s": iter_max * REPLICAS / temp_s,
        "speedup_vs_incremental": inc_s / temp_s,
        "naive_best_utility": r_naive.best_utility,
        "incremental_best_utility": r_inc.best_utility,
        "tempering_best_utility": r_temp.best_utility,
        "quality_ratio": r_temp.best_utility / r_inc.best_utility,
        "tempering": dict(tempering.last_tempering),
    }


def bench_castpp(iter_max: int) -> Dict[str, Any]:
    """CAST++ row: single chain vs tempering with reuse-set group moves.

    Gates batch parity (group-uniform plans) and re-score identity;
    the quality ratio is reported only.
    """
    provider = google_cloud_2015()
    cluster = ClusterSpec(n_vms=25)
    workload = synthesize_facebook_workload()
    matrix = build_model_matrix(provider=provider, cluster_spec=cluster)

    def make(backend: str) -> CastPlusPlus:
        return CastPlusPlus(
            cluster_spec=cluster, matrix=matrix, provider=provider,
            schedule=AnnealingSchedule(iter_max=iter_max), seed=SOLVER_SEED,
            backend=backend, replicas=REPLICAS,
        )

    incremental = make("anneal")
    tempering = make("tempering")
    initial = incremental.initial_plan(workload)
    parity = check_batch_parity(
        workload, cluster, matrix, provider, reuse_aware=True
    )

    t0 = time.perf_counter()
    r_inc = incremental.solve(workload, initial=initial)
    t1 = time.perf_counter()
    r_temp = tempering.solve(workload, initial=initial)
    t2 = time.perf_counter()
    inc_s, temp_s = t1 - t0, t2 - t1

    rescore = evaluate_plan(
        workload, r_temp.best_state, cluster, matrix, provider,
        reuse_aware=True,
    )
    rescore_identical = rescore.utility == r_temp.best_utility
    return {
        "solver": "CAST++",
        "workload": workload.name,
        "n_jobs": workload.n_jobs,
        "reuse_sets": len(workload.reuse_sets),
        "iterations": iter_max,
        "replicas": REPLICAS,
        "batch_parity": parity,
        "rescore_identical": rescore_identical,
        "parity": parity["ok"] and rescore_identical,
        "incremental_seconds": inc_s,
        "tempering_seconds": temp_s,
        "incremental_iters_per_s": iter_max / inc_s,
        "tempering_steps_per_s": iter_max / temp_s,
        "tempering_moves_per_s": iter_max * REPLICAS / temp_s,
        "speedup_vs_incremental": inc_s / temp_s,
        "incremental_best_utility": r_inc.best_utility,
        "tempering_best_utility": r_temp.best_utility,
        "quality_ratio": r_temp.best_utility / r_inc.best_utility,
        "tempering": dict(tempering.last_tempering),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest workload with a tiny budget (the CI smoke mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_scale.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    sizes = ((50, 6000.0, 300),) if args.quick else SIZES
    iter_max = 300 if args.quick else ITER_MAX

    runs: List[Dict[str, Any]] = []
    failures = 0
    for n_jobs, dataset_gb, naive_iters in sizes:
        run = bench_one(n_jobs, dataset_gb, min(naive_iters, iter_max), iter_max)
        runs.append(run)
        if not run["parity"]:
            failures += 1
        mark = "ok " if run["parity"] else "FAIL"
        note = " (naive budget reduced)" if run["naive_budget_reduced"] else ""
        print(
            f"[{mark}] jobs={n_jobs:<5} iters={iter_max:<5} "
            f"naive={run['naive_seconds']:.3f}s/{run['naive_iterations']}it "
            f"inc={run['incremental_seconds']:.3f}s "
            f"temp={run['tempering_seconds']:.3f}s "
            f"speedup={run['speedup_vs_incremental']:.2f}x "
            f"quality={run['quality_ratio']:.4f}{note}"
        )
    run = bench_castpp(iter_max)
    runs.append(run)
    if not run["parity"]:
        failures += 1
    mark = "ok " if run["parity"] else "FAIL"
    print(
        f"[{mark}] CAST++ jobs={run['n_jobs']:<5} sets={run['reuse_sets']} "
        f"iters={iter_max:<5} inc={run['incremental_seconds']:.3f}s "
        f"temp={run['tempering_seconds']:.3f}s "
        f"speedup={run['speedup_vs_incremental']:.2f}x "
        f"quality={run['quality_ratio']:.4f} (reported, not gated)"
    )

    report = {
        "benchmark": "solver_scale",
        "quick": bool(args.quick),
        "workload_seed": WORKLOAD_SEED,
        "solver_seed": SOLVER_SEED,
        "iter_max": iter_max,
        "replicas": REPLICAS,
        "parity_rtol": PARITY_RTOL,
        "parity_failures": failures,
        "runs": runs,
    }
    write_bench_report(args.out, report)
    print(f"wrote {args.out} ({len(runs)} runs)")

    if failures:
        print(f"GATE FAILURE in {failures} run(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
