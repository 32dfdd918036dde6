#!/usr/bin/env python
"""Simulator throughput benchmark: virtual-time channels + cache + runner.

Times the Fig. 7 ground-truth measurement path — ``measure_plan`` over
the 100-job Facebook workload for a set of deployment plans — through
four configurations:

1. **reference serial** — the seed simulator of ``tests/reference/``
   (O(k)-per-event channels, full-rescan dispatcher) under its
   ``reference_simulator`` harness, cache off: every job simulated from
   scratch;
2. **virtual serial** — virtual-time channels, cache off;
3. **virtual + cache** — content-addressed memoization dedupes the
   workload's shape-duplicate jobs (cold), then a fully warm pass;
4. **virtual + cache + runner** — the same with per-job simulations
   fanned out over an ``ExperimentRunner`` process pool.

Parity is asserted, not just measured: step 2 must agree with step 1
on every per-job phase timing within 1e-9 relative, and steps 3–4 must
be *bit-exact* against step 2, or the script exits non-zero.  Timing
never fails the run (CI boxes are noisy); parity always does.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --quick

Writes ``BENCH_sim.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, "..", "tests"))  # the reference oracles
sys.path.insert(0, _HERE)

import numpy as np

from conftest import write_bench_report
from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core.greedy import greedy_exact_fit, greedy_over_provisioned
from repro.core.plan import TieringPlan
from repro.experiments.measure import measure_plan
from repro.experiments.runner import ExperimentRunner, sim_report
from repro.profiler.profiler import build_model_matrix
from repro.simulator.cache import CACHE_ENV, simulation_cache
from repro.workloads.swim import synthesize_facebook_workload

from reference.simulator import reference_simulator

WORKLOAD_SEED = 7
#: Phase-timing agreement required between the seed and product simulators.
PARITY_RTOL = 1e-9

PHASES = ("download_s", "map_s", "reduce_s", "upload_s")


def _set_cache(on: bool) -> None:
    os.environ[CACHE_ENV] = "1" if on else "0"


def _measure_all(workload, plans, cluster, prov, runner=None) -> Tuple[List, float]:
    """Time one pass of ``measure_plan`` over every plan."""
    t0 = time.perf_counter()
    measured = [
        measure_plan(workload, plan, cluster, prov, runner=runner)
        for plan in plans
    ]
    return measured, time.perf_counter() - t0


def _phase_rel_diff(a, b) -> float:
    """Largest relative per-job phase-timing difference between passes."""
    worst = 0.0
    for ma, mb in zip(a, b):
        for job_id, ra in ma.per_job.items():
            rb = mb.per_job[job_id]
            for phase in PHASES:
                va, vb = getattr(ra, phase), getattr(rb, phase)
                denom = max(abs(va), abs(vb))
                if denom > 0:
                    worst = max(worst, abs(va - vb) / denom)
    return worst


def _bit_exact(a, b) -> bool:
    """Whether two measurement passes are float-for-float identical."""
    for ma, mb in zip(a, b):
        if ma.makespan_s != mb.makespan_s or ma.utility != mb.utility:
            return False
        for job_id, ra in ma.per_job.items():
            rb = mb.per_job[job_id]
            if any(getattr(ra, p) != getattr(rb, p) for p in PHASES):
                return False
    return True


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="uniform plans only, no greedy baselines (the CI smoke mode)",
    )
    parser.add_argument(
        "--workers", type=int,
        default=min(4, os.cpu_count() or 1),
        help="process count for the runner step",
    )
    parser.add_argument("--out", default="BENCH_sim.json", help="output JSON path")
    args = parser.parse_args(argv)

    prov = google_cloud_2015()
    cluster = ClusterSpec(n_vms=25)
    workload = synthesize_facebook_workload(rng=np.random.default_rng(WORKLOAD_SEED))

    plans: Dict[str, TieringPlan] = {
        f"{tier.value} 100%": TieringPlan.uniform(workload, tier)
        for tier in (Tier.EPH_SSD, Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE)
    }
    if not args.quick:
        matrix = build_model_matrix(provider=prov, cluster_spec=cluster)
        plans["greedy exact-fit"] = greedy_exact_fit(workload, cluster, matrix, prov)
        plans["greedy over-prov"] = greedy_over_provisioned(workload, cluster, matrix, prov)
    plan_list = list(plans.values())
    n_sims = len(plan_list) * workload.n_jobs

    failures: List[str] = []

    # 1. the seed simulator, serial, no cache — the baseline.
    with reference_simulator():
        ref, ref_s = _measure_all(workload, plan_list, cluster, prov)

    # 2. virtual-time channels, serial, no cache — simulator parity gate.
    _set_cache(False)
    virt, virt_s = _measure_all(workload, plan_list, cluster, prov)
    rel = _phase_rel_diff(ref, virt)
    if rel > PARITY_RTOL:
        failures.append(f"virtual-channel phase timings diverge: rel={rel:.3e}")

    # 3. + simulation cache (cold, then fully warm) — must be bit-exact.
    _set_cache(True)
    simulation_cache().clear()
    cached, cached_cold_s = _measure_all(workload, plan_list, cluster, prov)
    _, cached_warm_s = _measure_all(workload, plan_list, cluster, prov)
    if not _bit_exact(virt, cached):
        failures.append("cache path is not bit-exact vs uncached virtual run")

    # 4. + parallel runner (cold cache) — must also be bit-exact.
    simulation_cache().clear()
    with ExperimentRunner(args.workers) as runner:
        par, par_cold_s = _measure_all(workload, plan_list, cluster, prov, runner=runner)
        _, par_warm_s = _measure_all(workload, plan_list, cluster, prov, runner=runner)
        report_counters = sim_report(runner).to_dict()
    if not _bit_exact(virt, par):
        failures.append("runner path is not bit-exact vs uncached virtual run")

    speedup = ref_s / par_cold_s
    report = {
        "benchmark": "sim_throughput",
        "quick": bool(args.quick),
        "workload_seed": WORKLOAD_SEED,
        "n_jobs": workload.n_jobs,
        "plans": list(plans),
        "simulations_per_pass": n_sims,
        "parity_failures": len(failures),
        "parity_errors": failures,
        "channel_parity_rel": rel,
        "parity_rtol": PARITY_RTOL,
        "steps": {
            "reference_serial": {"seconds": ref_s, "sims_per_s": n_sims / ref_s},
            "virtual_serial": {"seconds": virt_s, "sims_per_s": n_sims / virt_s},
            "virtual_cached": {
                "cold_seconds": cached_cold_s,
                "warm_seconds": cached_warm_s,
            },
            "virtual_cached_parallel": {
                "workers": args.workers,
                "cold_seconds": par_cold_s,
                "warm_seconds": par_warm_s,
            },
        },
        "throughput_speedup": speedup,
        "warm_speedup": ref_s / par_warm_s,
        "sim": report_counters,
    }
    write_bench_report(args.out, report)

    print(
        f"[{'ok ' if not failures else 'FAIL'}] {len(plan_list)} plans x "
        f"{workload.n_jobs} jobs  ref={ref_s:.3f}s  virt={virt_s:.3f}s  "
        f"cache={cached_cold_s:.3f}s/{cached_warm_s:.3f}s  "
        f"runner(x{args.workers})={par_cold_s:.3f}s/{par_warm_s:.3f}s  "
        f"speedup={speedup:.1f}x (warm {ref_s / par_warm_s:.0f}x)  "
        f"channel_rel={rel:.1e}"
    )
    print(f"wrote {args.out}")

    if failures:
        for f in failures:
            print(f"PARITY FAILURE: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
