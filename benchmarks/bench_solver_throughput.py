#!/usr/bin/env python
"""Solver throughput benchmark: incremental evaluator vs naive objective.

Runs the CAST and CAST++ annealers twice on identical seeded inputs —
once through full :func:`~repro.core.utility.evaluate_plan` calls per
iteration (the reference solve of ``tests/reference/``), once through
the delta-aware :class:`~repro.core.evaluator.PlanEvaluator` — and
reports
iterations/second, the speedup, and the evaluator's cache counters
(evaluations avoided, hit rate).

Parity is asserted, not just measured: for every configuration the two
paths must produce the *same* best utility, the *same* best plan and
the *same* acceptance count, or the script exits non-zero.  Each row
also times the solve set-up — the Algorithm 2 seed
(``initial_plan``), evaluator construction and its baseline
``reset`` — with the greedy memo cleared, so a row shows what a new
request pays; the greedy seed inside it must equal a job-by-job
Algorithm 1 loop, and a mismatch fails the row like any other parity
break.  Timing
never fails the run (CI boxes are noisy); parity always does — with
one deliberate exception: the observability overhead gate.

``--baseline PATH`` compares this run's times against a previous
``BENCH_solver.json`` and fails when any matching configuration got
more than ``--gate-pct`` (default 2%) slower.  The gate only arms when
the baseline was recorded on a matching environment (same python,
platform, machine, CPU count) — on any other box it prints a skip
notice and passes, preserving the timing-never-fails-CI rule across
machines.  Run it with ``REPRO_OBS_TRACE=0`` and ``--repeat 3`` to
check that *disabled* instrumentation stays within noise of the
pre-instrumentation solver.

The **operational layer stays armed while the gate runs**: every timed
solve is recorded into a live :class:`FlightRecorder`, and a
background thread mimics the serving daemon's SLO loop — evaluating
burn rates against the registry and attaching slowest-K exemplars to
the metrics exposition every 100 ms (50× the daemon's default
cadence).  The ≤2% gate therefore certifies that the flight recorder,
exemplars and SLO evaluation together cost the solver nothing
measurable.

Usage::

    PYTHONPATH=src python benchmarks/bench_solver_throughput.py
    PYTHONPATH=src python benchmarks/bench_solver_throughput.py --quick
    REPRO_OBS_TRACE=0 PYTHONPATH=src python \
        benchmarks/bench_solver_throughput.py --quick --repeat 3 \
        --baseline BENCH_solver.json --out /tmp/bench_gate.json

Writes ``BENCH_solver.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, "..", "tests"))  # the reference oracles
sys.path.insert(0, _HERE)

import numpy as np

from conftest import bench_environment, write_bench_report
from repro.cloud.aws import aws_2015
from repro.cloud.provider import google_cloud_2015
from repro.cloud.vm import ClusterSpec
from repro.core.annealing import AnnealingSchedule
from repro.core import greedy
from repro.core.castpp import CastPlusPlus
from repro.core.solver import CastSolver
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import LATENCY_METRIC, REQUESTS_METRIC, SLOEngine
from repro.profiler.profiler import build_model_matrix
from repro.workloads.swim import synthesize_small_workload

from reference.solver import reference_greedy, reference_solve

#: (n_jobs, iter_max) per workload size; --quick keeps only the first.
#: The last is the streaming session's full re-solve (400 resident
#: jobs, 500 iterations), where per-step cost independent of N shows.
SIZES = ((10, 1500), (25, 2000), (50, 3000), (400, 500))
WORKLOAD_SEED = 11
SOLVER_SEED = 7


class OperationalLayer:
    """The daemon's observability stack, armed for the bench.

    A metrics registry carrying the wire-op instruments, a bound
    :class:`FlightRecorder` and :class:`SLOEngine`, and a background
    thread doing the daemon's SLO-loop work — ``evaluate`` against the
    registry plus slowest-K exemplar attachment onto the JSON
    exposition — every ``interval_s``.  Timed solves report through
    :meth:`record`, so the per-request hot path (histogram observe,
    counter inc, ring append) runs *inside* the measured window,
    exactly as it does in the serving dispatch loop.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = float(interval_s)
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder()
        self.recorder.bind_metrics(self.registry)
        self.engine = SLOEngine()
        self.engine.bind_metrics(self.registry)
        self._latency = self.registry.histogram(
            LATENCY_METRIC, "Request latency by op", labelnames=("op",)
        )
        self._requests = self.registry.counter(
            REQUESTS_METRIC, "Requests by op and outcome",
            labelnames=("op", "outcome"),
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.evaluations = 0

    def record(self, op: str, latency_s: float) -> None:
        """One request through the dispatch-loop hot path."""
        self._latency.observe(latency_s, op=op)
        self._requests.inc(op=op, outcome="ok")
        self.recorder.record(op=op, latency_s=latency_s)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.engine.evaluate(registry=self.registry)
            self.recorder.attach_exemplars(self.registry.to_json())
            self.evaluations += 1

    def __enter__(self) -> "OperationalLayer":
        # Baseline observation so burn windows have a base to delta from.
        self.engine.observe(self.registry.snapshot())
        self._thread = threading.Thread(
            target=self._loop, name="bench-slo-loop", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def summary(self) -> Dict[str, Any]:
        report = self.engine.evaluate(registry=self.registry)
        return {
            "interval_s": self.interval_s,
            "evaluations": self.evaluations,
            "requests_recorded": self.recorder.recorded,
            "slo_states": {
                op: entry["state"]
                for op, entry in report.get("ops", {}).items()
            },
        }


def bench_one(
    solver_cls, provider, n_jobs: int, iter_max: int,
    obs: Optional[OperationalLayer] = None,
) -> Dict[str, Any]:
    """Time naive vs incremental on one configuration; assert parity."""
    cluster = ClusterSpec(n_vms=25)
    workload = synthesize_small_workload(
        n_jobs=n_jobs, rng=np.random.default_rng(WORKLOAD_SEED)
    )
    matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
    schedule = AnnealingSchedule(iter_max=iter_max)

    solver = solver_cls(
        cluster_spec=cluster, matrix=matrix, provider=provider,
        schedule=schedule, seed=SOLVER_SEED,
    )
    greedy._SOLO_CACHE.clear()
    t0 = time.perf_counter()
    initial = solver.initial_plan(workload)
    t1 = time.perf_counter()
    evaluator = solver.make_evaluator(workload)
    t2 = time.perf_counter()
    evaluator.reset(initial)
    t3 = time.perf_counter()
    setup = {
        "seed_seconds": t1 - t0,
        "evaluator_seconds": t2 - t1,
        "reset_seconds": t3 - t2,
    }
    seed_parity = greedy.greedy_exact_fit(
        workload, cluster, matrix, provider
    ).placements == reference_greedy(workload, cluster, matrix, provider)

    t0 = time.perf_counter()
    r_naive = reference_solve(solver, workload, initial=initial)
    t1 = time.perf_counter()
    r_fast = solver.solve(workload, initial=initial)
    t2 = time.perf_counter()

    naive_s, fast_s = t1 - t0, t2 - t1
    if obs is not None:
        obs.record("plan", naive_s)
        obs.record("plan", fast_s)
    parity = (
        seed_parity
        and r_naive.best_utility == r_fast.best_utility
        and r_naive.best_state.to_dict() == r_fast.best_state.to_dict()
        and r_naive.accepted == r_fast.accepted
    )

    stats = dict(solver.last_evaluator.stats())
    lookups = stats["cache_hits"] + stats["cache_misses"]
    considered = stats["jobs_reestimated"] + stats["jobs_skipped"]
    return {
        "solver": solver_cls.__name__,
        "provider": provider.name,
        "n_jobs": n_jobs,
        "iterations": iter_max,
        "parity": parity,
        "best_utility": r_fast.best_utility,
        "naive_seconds": naive_s,
        "incremental_seconds": fast_s,
        "setup_seconds": sum(setup.values()),
        "setup": setup,
        "naive_iters_per_s": iter_max / naive_s,
        "incremental_iters_per_s": iter_max / fast_s,
        "speedup": naive_s / fast_s,
        "evaluations_avoided": stats["jobs_skipped"],
        "jobs_considered": considered,
        "cache_hit_rate": (stats["cache_hits"] / lookups) if lookups else 0.0,
        "evaluator": stats,
    }


#: Environment fields that must match before timing comparisons mean
#: anything (git_rev and argv legitimately differ between runs).
_ENV_MATCH_KEYS = ("python", "implementation", "machine", "cpu_count")

#: Absolute slack added on top of the percentage gate so sub-100ms
#: configurations aren't failed by scheduler jitter.
_GATE_ABS_SLACK_S = 0.05


def check_overhead_gate(
    report: Dict[str, Any], baseline: Dict[str, Any], gate_pct: float
) -> int:
    """Compare ``report`` against a baseline ``BENCH_solver.json`` dict.

    Returns the number of gate violations.  The gate disarms (returns
    0 with a notice) when the baseline has no environment stamp or was
    recorded on a different machine — cross-machine timing comparisons
    would only produce noise failures.
    """
    base_env = baseline.get("environment")
    if not base_env:
        print("overhead gate skipped: baseline has no environment stamp")
        return 0
    env = report["environment"]
    mismatched = [
        k for k in _ENV_MATCH_KEYS if base_env.get(k) != env.get(k)
    ]
    if mismatched:
        print(
            "overhead gate skipped: environment mismatch on "
            + ", ".join(mismatched)
        )
        return 0

    def key(run: Dict[str, Any]) -> tuple:
        return (run["solver"], run["provider"], run["n_jobs"], run["iterations"])

    base_runs = {key(r): r for r in baseline.get("runs", [])}
    violations = 0
    for run in report["runs"]:
        base = base_runs.get(key(run))
        if base is None:
            continue
        for field in ("naive_seconds", "incremental_seconds"):
            limit = base[field] * (1.0 + gate_pct / 100.0) + _GATE_ABS_SLACK_S
            ok = run[field] <= limit
            print(
                f"[{'ok ' if ok else 'SLOW'}] gate {run['solver']:<12} "
                f"{field}: {run[field]:.3f}s vs baseline "
                f"{base[field]:.3f}s (limit {limit:.3f}s)"
            )
            if not ok:
                violations += 1
    return violations


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest workload and google-only (the CI smoke mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_solver.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="time each configuration N times and keep the best "
             "(use >=3 when gating against a baseline)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="previous BENCH_solver.json to gate against "
             "(same-environment runs only)",
    )
    parser.add_argument(
        "--gate-pct", type=float, default=2.0,
        help="allowed slowdown vs --baseline, percent (default 2)",
    )
    args = parser.parse_args(argv)

    # Read the baseline up front: --baseline and --out may legitimately
    # name the same file (gate against the committed report, then
    # refresh it), so it must be in memory before the report is written.
    baseline: Dict[str, Any] | None = None
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"overhead gate skipped: cannot read {args.baseline}: {exc}")

    sizes = SIZES[:1] if args.quick else SIZES
    providers = [google_cloud_2015()] if args.quick else [
        google_cloud_2015(), aws_2015()
    ]

    runs: List[Dict[str, Any]] = []
    failures = 0
    with OperationalLayer() as obs:
        for provider in providers:
            for n_jobs, iter_max in sizes:
                for solver_cls in (CastSolver, CastPlusPlus):
                    run = bench_one(
                        solver_cls, provider, n_jobs, iter_max, obs=obs
                    )
                    for _ in range(max(1, args.repeat) - 1):
                        again = bench_one(
                            solver_cls, provider, n_jobs, iter_max, obs=obs
                        )
                        run["parity"] = run["parity"] and again["parity"]
                        for field in ("naive_seconds", "incremental_seconds"):
                            if again[field] < run[field]:
                                run[field] = again[field]
                        if again["setup_seconds"] < run["setup_seconds"]:
                            run["setup_seconds"] = again["setup_seconds"]
                            run["setup"] = again["setup"]
                        run["naive_iters_per_s"] = (
                            iter_max / run["naive_seconds"]
                        )
                        run["incremental_iters_per_s"] = (
                            iter_max / run["incremental_seconds"]
                        )
                        run["speedup"] = (
                            run["naive_seconds"] / run["incremental_seconds"]
                        )
                    runs.append(run)
                    mark = "ok " if run["parity"] else "FAIL"
                    if not run["parity"]:
                        failures += 1
                    print(
                        f"[{mark}] {run['provider']:>6} {run['solver']:<12} "
                        f"jobs={n_jobs:<3} iters={iter_max:<5} "
                        f"naive={run['naive_seconds']:.3f}s "
                        f"inc={run['incremental_seconds']:.3f}s "
                        f"setup={run['setup_seconds'] * 1e3:.1f}ms "
                        f"speedup={run['speedup']:.1f}x "
                        f"hit_rate={run['cache_hit_rate']:.2f} "
                        f"avoided={run['evaluations_avoided']}"
                    )
        operational = obs.summary()
    print(
        f"operational layer: {operational['requests_recorded']} solves "
        f"recorded, {operational['evaluations']} SLO evaluations at "
        f"{operational['interval_s']*1000:.0f}ms cadence, states "
        f"{operational['slo_states']}"
    )

    report = {
        "benchmark": "solver_throughput",
        "quick": bool(args.quick),
        "workload_seed": WORKLOAD_SEED,
        "solver_seed": SOLVER_SEED,
        "repeat": max(1, args.repeat),
        "parity_failures": failures,
        "operational_layer": operational,
        "runs": runs,
        # Stamp here (not only in the written file): the gate compares
        # this dict's environment against the baseline's.
        "environment": bench_environment(),
    }
    write_bench_report(args.out, report)
    print(f"wrote {args.out} ({len(runs)} runs)")

    gate_failures = 0
    if baseline is not None:
        gate_failures = check_overhead_gate(report, baseline, args.gate_pct)

    if failures:
        print(f"PARITY FAILURE in {failures} run(s)", file=sys.stderr)
        return 1
    if gate_failures:
        print(
            f"OVERHEAD GATE FAILURE in {gate_failures} measurement(s): "
            f"the armed operational layer must stay within "
            f"{args.gate_pct:.1f}% of the baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
