#!/usr/bin/env python
"""Vectorized wave-model fast-path benchmark, parity-gated.

Times ``simulate_batch`` over the same 100-job seed-7 Facebook workload
``bench_sim_throughput.py`` uses, across four uniform tiering plans
(400 simulation requests), through four steps:

1. **virtual serial** — the exact event engine, one ``simulate_job``
   per request, cache off: the in-run baseline (the ``virtual_serial``
   step BENCH_sim.json records at ~324 sims/s);
2. **analytic batch (cold)** — ``simulate_batch`` with the vectorized
   fast path, cache off.  Every per-job phase timing must agree with
   step 1 within ``ANALYTIC_RTOL`` (1e-9 relative) or the script exits
   non-zero;
3. **analytic batch + cache** — cold, then fully warm.  The warm pass
   must be bit-exact against the cold one (cache hits restamp stored
   results, fast path or not);
4. **reference fallback** — under ``REPRO_SIM_REFERENCE=1`` the batch
   API must fall back to the event engine wholesale and be *bit-exact*
   against a serial reference run;
5. **fresh workloads, warm cache** — the planning service's ``whatif``
   traffic: ``measure_plan`` on the fast path over fresh 100-job SWIM
   workloads (16; 8 with ``--quick``) under uniform plans, with the
   cache already warm from 4 earlier workloads.  Reports ms per
   measurement, and every measurement must be bit-exact against a
   cache-off pass over the same workloads.

The acceptance target is a >=10x cold-throughput speedup over the
serial engine baseline; ``meets_target`` lands in the report.  As in
the throughput bench, timing never fails the run — parity always does.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_vectorized.py
    PYTHONPATH=src python benchmarks/bench_sim_vectorized.py --quick

Writes ``BENCH_sim_vectorized.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, _HERE)

import numpy as np

from conftest import write_bench_report
from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core.plan import TieringPlan
from repro.experiments.measure import measure_plan
from repro.experiments.runner import ExperimentRunner
from repro.simulator import simulate_batch, simulate_job
from repro.simulator.cache import CACHE_ENV, simulation_cache
from repro.simulator.storage_backend import REFERENCE_ENV
from repro.simulator.vectorized import (
    ANALYTIC_RTOL,
    batch_results_match,
    fastpath_stats,
    reset_fastpath_stats,
)
from repro.workloads.swim import synthesize_facebook_workload

WORKLOAD_SEED = 7
#: The acceptance bar: cold batch throughput vs the serial engine.
TARGET_SPEEDUP = 10.0

PHASES = ("download_s", "map_s", "reduce_s", "upload_s")

#: Step 5: workloads that warm the cache, then fresh ones to time.
WARM_WORKLOADS = 4
FRESH_WORKLOADS = 16
FRESH_WORKLOADS_QUICK = 8


def _set_env(reference: bool, cache: bool) -> None:
    os.environ[REFERENCE_ENV] = "1" if reference else "0"
    os.environ[CACHE_ENV] = "1" if cache else "0"


def _serial_pass(items, cluster, prov) -> Tuple[List, float]:
    """One exact-engine pass, one ``simulate_job`` per request."""
    t0 = time.perf_counter()
    results = [
        simulate_job(job, tier, cluster, prov, per_vm_capacity_gb=caps)
        for job, tier, caps in items
    ]
    return results, time.perf_counter() - t0


def _batch_pass(items, cluster, prov, fast: bool = True) -> Tuple[List, float]:
    """One ``simulate_batch`` pass."""
    t0 = time.perf_counter()
    results = simulate_batch(items, cluster, prov, fast_path=fast)
    return results, time.perf_counter() - t0


def _bit_exact(a, b) -> Optional[str]:
    """First float-level mismatch between two result lists, if any."""
    for ra, rb in zip(a, b):
        for phase in PHASES:
            if getattr(ra, phase) != getattr(rb, phase):
                return (
                    f"{ra.job_id} {phase}: "
                    f"{getattr(ra, phase)!r} != {getattr(rb, phase)!r}"
                )
    return None


def _measure_pass(cases, cluster, prov) -> Tuple[List, float]:
    """``measure_plan`` on the fast path, one runner per measurement
    (as the service's ``whatif`` op runs it); seconds in total."""
    out = []
    t0 = time.perf_counter()
    for workload, plan in cases:
        with ExperimentRunner(0, fast_path=True) as runner:
            out.append(measure_plan(workload, plan, cluster, prov, runner=runner))
    return out, time.perf_counter() - t0


def _measurement_mismatch(a, b) -> Optional[str]:
    """First float-level difference between two measurement lists."""
    for ma, mb in zip(a, b):
        if (ma.makespan_s, ma.cost, ma.utility) != (mb.makespan_s, mb.cost, mb.utility):
            return f"makespan/cost/utility: {ma.makespan_s!r} != {mb.makespan_s!r}"
        mismatch = _bit_exact(list(ma.per_job.values()), list(mb.per_job.values()))
        if mismatch is not None:
            return mismatch
    return None


def _fresh_workloads_step(n_fresh, cluster, prov, failures) -> dict:
    """Step 5: time fresh-workload measurements against a warm cache."""
    rng = np.random.default_rng(WORKLOAD_SEED + 1)
    tiers = (Tier.EPH_SSD, Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE)
    cases = []
    for i in range(WARM_WORKLOADS + n_fresh):
        workload = synthesize_facebook_workload(rng=rng, name=f"fresh-{i}")
        cases.append((workload, TieringPlan.uniform(workload, tiers[i % len(tiers)])))
    warm_cases, fresh_cases = cases[:WARM_WORKLOADS], cases[WARM_WORKLOADS:]

    _set_env(reference=False, cache=False)
    uncached, uncached_s = _measure_pass(fresh_cases, cluster, prov)

    _set_env(reference=False, cache=True)
    cache = simulation_cache()
    cache.clear()
    _measure_pass(warm_cases, cluster, prov)
    before = cache.stats()
    cached, cached_s = _measure_pass(fresh_cases, cluster, prov)
    after = cache.stats()
    mismatch = _measurement_mismatch(cached, uncached)
    if mismatch is not None:
        failures.append(f"warm-cache measurement is not bit-exact vs cache off: {mismatch}")
    return {
        "warm_workloads": WARM_WORKLOADS,
        "fresh_workloads": n_fresh,
        "ms_per_measurement": cached_s / n_fresh * 1e3,
        "ms_per_measurement_cache_off": uncached_s / n_fresh * 1e3,
        "cache_hits": after["hits"] - before["hits"],
        "cache_misses": after["misses"] - before["misses"],
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="one uniform plan instead of four (the CI smoke mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_sim_vectorized.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    prov = google_cloud_2015()
    cluster = ClusterSpec(n_vms=25)
    workload = synthesize_facebook_workload(rng=np.random.default_rng(WORKLOAD_SEED))

    tiers = (
        (Tier.OBJ_STORE,)
        if args.quick
        else (Tier.EPH_SSD, Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE)
    )
    items = [(job, tier, None) for tier in tiers for job in workload.jobs]
    n_sims = len(items)

    failures: List[str] = []

    # 1. exact engine, serial, cache off — the baseline.
    _set_env(reference=False, cache=False)
    serial, serial_s = _serial_pass(items, cluster, prov)

    # 2. vectorized batch, cache off — the parity gate.
    reset_fastpath_stats()
    batch, batch_s = _batch_pass(items, cluster, prov)
    stats = fastpath_stats()
    mismatches = batch_results_match(batch, serial, rtol=ANALYTIC_RTOL)
    if mismatches:
        failures.append(
            f"analytic batch diverges from the engine beyond "
            f"rtol={ANALYTIC_RTOL:g}: {mismatches[0]} "
            f"(+{len(mismatches) - 1} more)"
        )
    if stats["analytic"] == 0:
        failures.append("fast path never engaged (all requests fell back)")

    # 3. + simulation cache: cold, then warm — warm must be bit-exact.
    _set_env(reference=False, cache=True)
    simulation_cache().clear()
    cold, cold_s = _batch_pass(items, cluster, prov)
    warm, warm_s = _batch_pass(items, cluster, prov)
    mismatch = _bit_exact(cold, warm)
    if mismatch is not None:
        failures.append(f"warm cache pass is not bit-exact vs cold: {mismatch}")

    # 4. REPRO_SIM_REFERENCE=1 — batch must fall back, bit-exactly.
    _set_env(reference=True, cache=False)
    ref_serial, ref_serial_s = _serial_pass(items, cluster, prov)
    ref_batch, _ = _batch_pass(items, cluster, prov)
    mismatch = _bit_exact(ref_batch, ref_serial)
    if mismatch is not None:
        failures.append(
            f"reference-mode batch is not bit-exact vs the serial "
            f"reference engine: {mismatch}"
        )

    # 5. fresh workloads against a warm cache — the whatif traffic.
    fresh = _fresh_workloads_step(
        FRESH_WORKLOADS_QUICK if args.quick else FRESH_WORKLOADS,
        cluster, prov, failures,
    )
    _set_env(reference=False, cache=True)

    baseline_per_s = n_sims / serial_s
    batch_per_s = n_sims / batch_s
    speedup = batch_per_s / baseline_per_s
    report = {
        "benchmark": "sim_vectorized",
        "quick": bool(args.quick),
        "workload_seed": WORKLOAD_SEED,
        "n_jobs": workload.n_jobs,
        "tiers": [t.value for t in tiers],
        "simulations_per_pass": n_sims,
        "parity_failures": len(failures),
        "parity_errors": failures,
        "parity_rtol": ANALYTIC_RTOL,
        "steps": {
            "virtual_serial": {
                "seconds": serial_s,
                "sims_per_s": baseline_per_s,
            },
            "analytic_batch": {
                "seconds": batch_s,
                "sims_per_s": batch_per_s,
            },
            "analytic_batch_cached": {
                "cold_seconds": cold_s,
                "warm_seconds": warm_s,
            },
            "reference_serial": {
                "seconds": ref_serial_s,
                "sims_per_s": n_sims / ref_serial_s,
            },
            "fresh_workloads_warm_cache": fresh,
        },
        "fastpath": stats,
        "speedup_vs_serial": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": speedup >= TARGET_SPEEDUP,
    }
    write_bench_report(args.out, report)

    print(
        f"[{'ok ' if not failures else 'FAIL'}] {n_sims} sims  "
        f"serial={serial_s:.3f}s ({baseline_per_s:.0f}/s)  "
        f"batch={batch_s:.4f}s ({batch_per_s:.0f}/s)  "
        f"cache={cold_s:.4f}s/{warm_s:.4f}s  "
        f"whatif={fresh['ms_per_measurement']:.2f}ms "
        f"(cache off {fresh['ms_per_measurement_cache_off']:.2f}ms)  "
        f"speedup={speedup:.0f}x (target {TARGET_SPEEDUP:.0f}x: "
        f"{'met' if speedup >= TARGET_SPEEDUP else 'MISSED'})"
    )
    print(f"wrote {args.out}")

    if failures:
        for f in failures:
            print(f"PARITY FAILURE: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
