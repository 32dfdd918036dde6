#!/usr/bin/env python
"""Cross-catalog sweep benchmark: amortized grid solving vs cold solves.

A :class:`~repro.sweep.SweepEngine` solves a (3 catalogs × 3 workload
mixes × N replications) grid — shared per-catalog structure, warm-start
transfer between neighboring points, CRN-paired seeds — and is compared
against the same grid solved by independent full-budget
:func:`repro.plan_workload` calls (one fresh solver per point, the
pre-sweep workflow).  Model matrices are pre-profiled outside both
timers, so the comparison isolates the engine's amortization.

Three gates are asserted, not just measured — any failure exits
non-zero while ordinary timing noise never does:

* **parity** — every point's search-side utility re-scores
  bit-identically through the canonical
  :func:`~repro.core.utility.evaluate_plan` path, checked by the
  engine per point and re-checked here against a fresh evaluation of
  every returned plan (always armed);
* **quality** — every point's utility is within 1% of its
  independently cold-solved counterpart at the same CRN seed
  (always armed);
* **speedup** — the sweep finishes the grid >= 5x faster than the
  independent cold solves (full mode only; ``--quick`` reports it
  without gating, small CI runners are too noisy).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick

Writes ``BENCH_sweep.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import sys
import os
import time
from typing import Any, Dict

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, _HERE)

import numpy as np

from conftest import write_bench_report
from repro import plan_workload
from repro.cloud import resolve_provider
from repro.core.utility import evaluate_plan
from repro.profiler import build_model_matrix
from repro.sweep import SweepConfig, SweepEngine
from repro.workloads.apps import GREP, JOIN, KMEANS, SORT
from repro.workloads.swim import synthesize_small_workload

PROVIDERS = ("google", "aws", "azure")
MIXES = {
    "balanced": (SORT, JOIN, GREP, KMEANS),
    "shuffle-heavy": (SORT, JOIN, SORT, JOIN),
    "map-io-heavy": (GREP, GREP, SORT, GREP),
}
SOLVER_SEED = 42
WORKLOAD_SEED = 5

SPEEDUP_LIMIT = 5.0
QUALITY_LIMIT = 0.99


def run(quick: bool) -> Dict[str, Any]:
    n_jobs = 8 if quick else 16
    n_vms = 8 if quick else 20
    iterations = 400 if quick else 3000
    reps = 3 if quick else 8

    workloads = [
        synthesize_small_workload(
            n_jobs=n_jobs,
            total_dataset_gb=125.0 * n_jobs,
            rng=np.random.default_rng(WORKLOAD_SEED),
            apps=apps,
            name=f"mix-{name}",
        )
        for name, apps in MIXES.items()
    ]

    # Profile every catalog outside both timers: the matrix memo is
    # process-wide, so neither side pays for profiling and the timing
    # isolates solve-path amortization.
    print(f"profiling {len(PROVIDERS)} catalogs at {n_vms} VMs...")
    for name in PROVIDERS:
        prov = resolve_provider(name)
        build_model_matrix(provider=prov, cluster_spec=prov.cluster(n_vms))

    engine = SweepEngine(
        PROVIDERS,
        workloads,
        knobs=[{"rep": r} for r in range(reps)],
        config=SweepConfig(n_vms=n_vms, iterations=iterations, seed=SOLVER_SEED),
    )
    n_points = len(engine.grid)
    print(
        f"sweep: {len(PROVIDERS)} catalogs x {len(workloads)} mixes x "
        f"{reps} reps = {n_points} points at {iterations} iterations..."
    )
    started = time.perf_counter()
    sweep = engine.run()
    sweep_s = time.perf_counter() - started
    print(
        f"sweep: {sweep_s:.2f}s  modes="
        + " ".join(f"{k}={v}" for k, v in sorted(sweep.modes.items()))
    )

    # Independent re-check of the engine's per-point parity claim:
    # every returned plan must re-score bit-identically through the
    # canonical reference evaluator.
    parity_engine = all(r.parity_ok for r in sweep.points)
    parity_recheck = True
    for r in sweep.points:
        prov = resolve_provider(r.point.provider)
        cluster = prov.cluster(r.point.n_vms)
        matrix = build_model_matrix(provider=prov, cluster_spec=cluster)
        wl = workloads[r.point.workload_idx]
        ref = evaluate_plan(wl, r.plan, cluster, matrix, prov, reuse_aware=True)
        if ref.utility != r.utility:
            parity_recheck = False
    parity_ok = parity_engine and parity_recheck

    print(f"cold baseline: {n_points} independent full-budget solves...")
    started = time.perf_counter()
    cold_utilities = []
    for p in engine.grid:
        outcome = plan_workload(
            workloads[p.workload_idx],
            n_vms=p.n_vms,
            provider=resolve_provider(p.provider),
            iterations=p.iterations,
            seed=p.seed,
        )
        cold_utilities.append(outcome.evaluation.utility)
    cold_s = time.perf_counter() - started

    ratios = [
        r.utility / cold if cold else float("nan")
        for r, cold in zip(sweep.points, cold_utilities)
    ]
    quality_min = min(ratios)
    speedup = cold_s / sweep_s if sweep_s else float("inf")

    gates = {
        "parity": {
            "value": parity_ok, "limit": True, "armed": True,
            "ok": parity_ok,
        },
        "quality_vs_cold": {
            "value": quality_min, "limit": QUALITY_LIMIT, "armed": True,
            "ok": quality_min >= QUALITY_LIMIT,
        },
        "speedup_vs_cold": {
            "value": speedup, "limit": SPEEDUP_LIMIT, "armed": not quick,
            "ok": speedup >= SPEEDUP_LIMIT,
        },
    }

    report = {
        "benchmark": "sweep",
        "quick": quick,
        "params": {
            "providers": list(PROVIDERS),
            "mixes": list(MIXES),
            "n_jobs": n_jobs,
            "n_vms": n_vms,
            "iterations": iterations,
            "reps": reps,
            "n_points": n_points,
            "seed": SOLVER_SEED,
        },
        "sweep": {
            "wall_s": sweep_s,
            "modes": dict(sweep.modes),
            "points_per_s": n_points / sweep_s if sweep_s else float("inf"),
        },
        "cold": {
            "wall_s": cold_s,
            "points_per_s": n_points / cold_s if cold_s else float("inf"),
        },
        "speedup": speedup,
        "quality": {
            "min_ratio": quality_min,
            "mean_ratio": float(np.mean(ratios)),
        },
        "parity": {
            "engine": parity_engine,
            "recheck": parity_recheck,
        },
        "ranking": sweep.ranking(),
        "gates": gates,
    }

    print(
        f"cold: {cold_s:.2f}s -> {speedup:.2f}x sweep throughput; "
        f"quality min={quality_min:.4f} mean={np.mean(ratios):.4f}; "
        f"parity={'ok' if parity_ok else 'FAIL'}"
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid; timing gates report-only")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="report path")
    args = parser.parse_args()

    report = run(quick=args.quick)
    write_bench_report(args.out, report)
    print(f"wrote {args.out}")

    failed = [
        name for name, gate in report["gates"].items()
        if gate["armed"] and not gate["ok"]
    ]
    if failed:
        print(f"GATE FAILURES: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
