"""Command-line interface: ``cast-plan`` / ``python -m repro``.

Subcommands
-----------

``plan``
    Synthesize (or read) a workload, run CAST/CAST++ and print the
    tiering plan with its predicted utility/cost.
``serve``
    Run the planner daemon: an asyncio TCP service with a plan cache,
    single-flight dedup and a multi-start solver pool
    (:mod:`repro.service`).  Stop with Ctrl-C (or SIGTERM — both drain
    inflight solves and exit cleanly).
``fleet``
    Run a sharded planner fleet: a consistent-hashing router plus N
    shard subprocesses with health-checked failover and per-tenant
    fair queueing (:mod:`repro.fleet`).  Speaks the same protocol as
    ``serve``, so ``submit`` works against either.
``submit``
    Send a workload to a running daemon (or fleet router) and print
    the plan exactly as ``plan`` would; repeated submissions of the
    same workload are answered from the server's cache.
``top``
    Live ANSI dashboard over a running daemon or fleet router: per-op
    latency quantiles, SLO burn-rate states, cache hit rates, shard
    health and WFQ queue depths, repainted every ``--interval``
    seconds (``--once`` prints a single frame for scripts).
``profile``
    Run the sampling profiler inside a running daemon for
    ``--duration`` seconds and print self-time by subsystem
    (``--out`` writes folded stacks for any flamegraph tool).
``debug-dump``
    Fetch a flight-recorder postmortem bundle (metrics + exemplars +
    recent requests + spans + SLO report) from a running daemon into
    one JSONL file.  Servers also write these automatically on SLO
    ``page`` transitions when started with ``--dump-dir``.
``simulate``
    Deploy a fixed tiering (a uniform ``--tier`` or a ``--plan-file``
    from ``plan --out``) on the simulated cluster and print the
    measured makespan/cost/utility — no solver involved.  ``--batch``
    routes eligible jobs through the vectorized wave-model fast path;
    ``--check`` re-measures on the exact event engine and exits 1 if
    any phase disagrees beyond the documented tolerance.
``session``
    Replay a recorded churn trace (``--replay trace.json``) through a
    streaming :class:`~repro.session.PlanningSession`: every add/remove
    event triggers a warm-start re-plan, with per-event latency lines
    and a p50/p95/p99 summary at the end.  ``--parity-every N``
    bit-checks every Nth re-plan against the canonical evaluator and
    exits 1 on any mismatch.
``sweep``
    Solve a (catalog × workload × knob) grid through the amortized
    :class:`~repro.sweep.SweepEngine` — warm-start transfer between
    neighboring points, CRN-paired seeds across catalogs, per-point
    bit parity — and print the per-workload catalog ranking.
``experiment``
    Regenerate one of the paper's tables/figures or an ablation
    (``table1 table2 table4 fig1 fig2 fig3 fig4 fig5 fig7 fig8 fig9
    ablation-sa ablation-reg ablation-heat ablation-dynamic
    sensitivity crosscloud``, or ``all``).
``size``
    Sweep candidate cluster sizes for a workload and report the
    utility-maximizing VM count (the paper's future-work extension).
``report``
    Regenerate every artifact into one markdown reproduction report.
``catalog``
    Print one provider's storage catalog and prices.
``catalogs``
    List every registered provider with tier price/bandwidth
    summaries (``--json`` for machine-readable output).

All workload-consuming commands accept ``--provider
{google,aws,azure}`` and ``--workload-file path.json`` (see
:mod:`repro.workloads.io` for the schema) in place of the built-in
synthetic workloads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from . import plan_workload
from .cloud import PROVIDER_FACTORIES as _PROVIDERS
from .cloud import resolve_provider as _resolve_provider
from .errors import CastError
from .obs.logs import LOG_LEVELS, configure_logging
from .workloads.io import load_json
from .workloads.spec import WorkloadSpec
from .workloads.swim import synthesize_facebook_workload, synthesize_small_workload

#: Default TCP port of the planner daemon (``serve``/``submit``).
DEFAULT_SERVICE_PORT = 4815


def _resolve_workload(args: argparse.Namespace):
    """Workload from --workload-file, else the named synthetic one."""
    if getattr(args, "workload_file", None):
        loaded = load_json(args.workload_file)
        if not isinstance(loaded, WorkloadSpec):
            raise CastError(
                f"{args.workload_file} contains a workflow, not a workload"
            )
        return loaded
    if args.workload == "facebook":
        return synthesize_facebook_workload()
    if args.workload == "small":
        return synthesize_small_workload()
    raise CastError(f"unknown workload: {args.workload!r}")

__all__ = ["main", "build_parser"]


def _cmd_catalog(args: argparse.Namespace) -> int:
    prov = _resolve_provider(args.provider)
    print(f"provider: {prov.name}")
    print(f"{'tier':10s} {'persistent':>10s} {'$/GB/month':>11s} {'$/GB/hr':>10s}")
    for tier in prov.tiers:
        svc = prov.service(tier)
        print(
            f"{tier.value:10s} {str(svc.persistent):>10s} "
            f"{svc.price_gb_month:11.3f} {prov.storage_price_gb_hr(tier):10.6f}"
        )
    print(f"VM ({prov.default_vm.name}): ${prov.prices.vm_price_per_min * 60:.4f}/hour")
    return 0


def _catalogs_summary() -> List[Dict]:
    """Every registered provider with tier price/bandwidth summaries."""
    out: List[Dict] = []
    for key in sorted(_PROVIDERS):
        prov = _resolve_provider(key)
        tiers = []
        for tier in prov.tiers:
            svc = prov.service(tier)
            tiers.append(
                {
                    "tier": tier.value,
                    "persistent": svc.persistent,
                    "price_gb_month": svc.price_gb_month,
                    "price_gb_hr": prov.storage_price_gb_hr(tier),
                    "mb_s_at_500gb": svc.throughput_mb_s(500.0),
                    "mb_s_cap": svc.throughput.cap,
                    "iops_cap": svc.iops.cap,
                }
            )
        out.append(
            {
                "key": key,
                "name": prov.name,
                "vm": prov.default_vm.name,
                "vm_usd_hr": prov.prices.vm_price_per_min * 60,
                "tiers": tiers,
            }
        )
    return out


def _cmd_catalogs(args: argparse.Namespace) -> int:
    summary = _catalogs_summary()
    if getattr(args, "json", False):
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    for entry in summary:
        print(
            f"{entry['key']}: {entry['name']} "
            f"(VM {entry['vm']} ${entry['vm_usd_hr']:.3f}/hr)"
        )
        print(
            f"  {'tier':10s} {'persistent':>10s} {'$/GB/month':>11s} "
            f"{'MB/s@500GB':>11s} {'MB/s cap':>9s} {'IOPS cap':>9s}"
        )
        for t in entry["tiers"]:
            print(
                f"  {t['tier']:10s} {str(t['persistent']):>10s} "
                f"{t['price_gb_month']:11.3f} {t['mb_s_at_500gb']:11.0f} "
                f"{t['mb_s_cap']:9.0f} {t['iops_cap']:9.0f}"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import SweepConfig, SweepEngine

    try:
        workload = _resolve_workload(args)
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    providers = [p.strip() for p in args.providers.split(",") if p.strip()]
    knobs = [{"rep": r} for r in range(max(1, args.reps))]
    config = SweepConfig(
        n_vms=args.vms,
        iterations=args.iterations,
        seed=args.seed,
        use_castpp=not args.basic,
        backend=args.backend,
        replicas=args.replicas,
        warm=not args.cold,
    )
    try:
        engine = SweepEngine(
            providers, [workload], knobs=knobs, config=config,
            workers=args.workers,
        )
        result = engine.run()
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if all(p.parity_ok for p in result.points) else 1
    modes = result.modes
    print(
        f"sweep: {len(result.points)} points "
        f"({len(providers)} catalogs x 1 workload x {len(knobs)} knobs) "
        f"in {result.elapsed_s:.2f}s"
    )
    print(
        "modes: "
        + ", ".join(f"{k}={v}" for k, v in sorted(modes.items()) if v)
    )
    for block in result.ranking():
        print(f"\nworkload {block['workload']}:")
        print(
            f"  {'rank':>4s} {'catalog':>8s} {'utility':>12s} "
            f"{'vs best':>8s} {'cost $':>9s} {'makespan':>9s}"
        )
        for rank, e in enumerate(block["ranking"], start=1):
            print(
                f"  {rank:4d} {e['provider']:>8s} {e['mean_utility']:12.6f} "
                f"{e['relative'] * 100:7.1f}% {e['mean_cost_usd']:9.2f} "
                f"{e['mean_makespan_min']:7.1f}m"
            )
    bad = [p for p in result.points if not p.parity_ok]
    if bad:
        print(f"PARITY FAILURES: {len(bad)} points", file=sys.stderr)
        return 1
    return 0


def _render_plan(
    solver_name: str,
    workload: WorkloadSpec,
    n_vms: int,
    plan,
    *,
    utility: float,
    makespan_min: float,
    cost_total: float,
    cost_vm: float,
    cost_storage: float,
    verbose: bool,
    out: Optional[str],
) -> None:
    """The shared plan rendering used by both ``plan`` and ``submit``."""
    print(f"{solver_name} plan for {workload.name} ({workload.n_jobs} jobs, {n_vms} VMs)")
    print(
        f"predicted: T={makespan_min:.1f} min  cost=${cost_total:.2f} "
        f"(vm ${cost_vm:.2f} + storage ${cost_storage:.2f})  "
        f"utility={utility:.3e}"
    )
    if verbose:
        print(f"{'job':12s} {'app':8s} {'input(GB)':>10s} {'tier':>9s} {'cap(GB)':>9s}")
        for job in workload.jobs:
            p = plan.placement(job.job_id)
            print(
                f"{job.job_id:12s} {job.app.name:8s} {job.input_gb:10.1f} "
                f"{p.tier.value:>9s} {p.capacity_gb:9.1f}"
            )
    else:
        mix: Dict[str, float] = {}
        for tier, gb in plan.aggregate_capacity_gb().items():
            mix[tier.value] = gb
        total = sum(mix.values())
        shares = ", ".join(f"{k}: {v / total:.0%}" for k, v in sorted(mix.items()))
        print(f"capacity mix: {shares}  (use --verbose for per-job placements)")
    if out:
        import json
        from pathlib import Path

        Path(out).write_text(
            json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote plan to {out}")


def _cmd_plan(args: argparse.Namespace) -> int:
    from .obs.progress import ProgressPrinter
    from .obs.tracing import span, trace_collector

    try:
        workload = _resolve_workload(args)
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    progress = ProgressPrinter() if args.trace_solver else None
    with span("cli.plan", attrs={"workload": workload.name}) as sp:
        outcome = plan_workload(
            workload,
            n_vms=args.vms,
            provider=_resolve_provider(args.provider),
            use_castpp=not args.basic,
            iterations=args.iterations,
            seed=args.seed,
            backend=args.backend,
            replicas=args.replicas,
            progress=progress,
        )
    if args.trace_export:
        written = trace_collector().dump_jsonl(
            args.trace_export, trace_id=sp.trace_id
        )
        print(
            f"wrote {written} spans (trace {sp.trace_id[:12]}) "
            f"to {args.trace_export}",
            file=sys.stderr,
        )
    ev = outcome.evaluation
    _render_plan(
        "CAST" if args.basic else "CAST++",
        workload,
        args.vms,
        outcome.plan,
        utility=ev.utility,
        makespan_min=ev.makespan_min,
        cost_total=ev.cost.total_usd,
        cost_vm=ev.cost.vm_usd,
        cost_storage=ev.cost.storage_usd,
        verbose=args.verbose,
        out=args.out,
    )
    return 0


async def _serve_until_stopped(server) -> None:
    """Serve until Ctrl-C or SIGTERM; the caller then stops ``server``.

    Ctrl-C cancels this wait (asyncio.run's SIGINT handler); the
    cancellation must propagate after the drain so asyncio.run
    re-raises KeyboardInterrupt and main() can exit 130.  SIGTERM
    resolves the event instead: drain and return 0.  Supervised daemons
    (the fleet supervisor, systemd, containers) stop children with
    SIGTERM; without a handler Python dies mid-solve with a traceback
    and a non-zero exit.
    """
    import asyncio
    import signal

    sigterm = asyncio.Event()
    try:
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, sigterm.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - win/nested
        pass
    serve_task = asyncio.create_task(server.serve_forever())
    sigterm_task = asyncio.create_task(sigterm.wait())
    try:
        await asyncio.wait(
            {serve_task, sigterm_task}, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        for task in (serve_task, sigterm_task):
            task.cancel()
        await asyncio.gather(serve_task, sigterm_task, return_exceptions=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import PlannerServer, SolverPool

    if args.trace_export:
        from .obs.tracing import add_jsonl_sink

        add_jsonl_sink(args.trace_export)
        print(f"streaming spans to {args.trace_export}", file=sys.stderr)

    async def run() -> None:
        server = PlannerServer(
            host=args.host,
            port=args.port,
            pool=SolverPool(processes=args.pool_processes, restarts=args.restarts),
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            request_timeout_s=args.request_timeout,
            dump_dir=args.dump_dir,
        )
        await server.start()
        host, port = server.address
        print(
            f"cast-plan planner listening on {host}:{port} "
            f"(pool={server.pool.processes} procs, restarts={server.pool.restarts}, "
            f"cache={server.cache.capacity}) — Ctrl-C to stop",
            flush=True,
        )
        try:
            await _serve_until_stopped(server)
        finally:
            await server.stop()

    asyncio.run(run())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import asyncio

    from .fleet import FleetRouter, FleetSupervisor

    if args.trace_export:
        from .obs.tracing import add_jsonl_sink

        add_jsonl_sink(args.trace_export)
        print(f"streaming spans to {args.trace_export}", file=sys.stderr)

    weights = {}
    for item in args.tenant_weight or []:
        name, _, value = item.partition("=")
        try:
            weights[name] = float(value)
        except ValueError:
            raise CastError(
                f"--tenant-weight wants NAME=FLOAT, got {item!r}"
            ) from None

    async def run() -> None:
        router = FleetRouter(
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            max_queue_per_tenant=args.max_queue_per_tenant,
            tenant_weights=weights or None,
            default_restarts=args.restarts,
            health_interval_s=args.health_interval,
            dump_dir=args.dump_dir,
        )
        supervisor = FleetSupervisor(
            router,
            shards=args.shards,
            host=args.host,
            pool_processes=args.pool_processes,
            restarts=args.restarts,
            max_inflight=args.shard_max_inflight,
            request_timeout_s=args.request_timeout,
            auto_restart=not args.no_restart,
            dump_dir=args.dump_dir,
        )
        await router.start()
        host, port = router.address
        print(f"starting {args.shards} planner shard(s)...", flush=True)
        try:
            await supervisor.start()
        except BaseException:
            await router.stop()
            raise
        print(
            f"cast-plan fleet: router on {host}:{port} over "
            + ", ".join(
                f"{s.shard_id}@{s.host}:{s.port}" for s in supervisor.shards
            )
            + f" (pool={args.pool_processes} procs/shard, "
            f"restarts={args.restarts}) — Ctrl-C to stop",
            flush=True,
        )
        try:
            await _serve_until_stopped(router)
        finally:
            await supervisor.stop()
            await router.stop()

    asyncio.run(run())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .core.plan import TieringPlan
    from .service.client import SyncPlannerClient
    from .workloads.io import workload_to_dict

    try:
        workload = _resolve_workload(args)
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    client = SyncPlannerClient(host=args.host, port=args.port,
                               retries=args.retries)
    result = client.plan(
        workload_to_dict(workload),
        provider=args.provider,
        n_vms=args.vms,
        iterations=args.iterations,
        seed=args.seed,
        use_castpp=not args.basic,
        restarts=args.restarts,
        backend=args.backend,
        replicas=args.replicas,
        tenant=args.tenant,
    )
    _render_plan(
        result.get("solver", "CAST++"),
        workload,
        args.vms,
        TieringPlan.from_dict(result["plan"]),
        utility=result["utility"],
        makespan_min=result["makespan_min"],
        cost_total=result["cost_total_usd"],
        cost_vm=result["cost_vm_usd"],
        cost_storage=result["cost_storage_usd"],
        verbose=args.verbose,
        out=args.out,
    )
    origin = "cache" if result.get("cached") else (
        f"solved in {result.get('solve_seconds', 0.0):.2f}s, "
        f"{result.get('restarts', 1)} restarts (best: #{result.get('best_restart', 0)})"
    )
    if result.get("shard"):
        origin += f" [shard {result['shard']}]"
    trace = result.get("trace_id") or ""
    trace_part = f"  trace {trace[:12]}" if trace else ""
    print(f"served from {origin}  [{result.get('fingerprint', '')[:12]}]{trace_part}")
    if args.show_stats:
        stats = client.stats()
        cache = stats["cache"]
        # "counters" keys differ between a single server and the fleet
        # router, but both expose these three.
        counters = stats.get("counters", {})
        print(
            f"server stats: cache hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']} size={cache['size']}/{cache['capacity']}  "
            f"singleflight joins={counters.get('dedup_joined', 0)}  "
            f"solves={counters.get('solves_ok', 0)}"
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard: poll metrics/slo/stats, repaint one frame."""
    import time

    from .obs.top import CLEAR, render_dashboard
    from .service.client import SyncPlannerClient

    client = SyncPlannerClient(host=args.host, port=args.port)
    color = (not args.no_color) and sys.stdout.isatty()

    def one_frame() -> str:
        stats = client.stats()
        fleet = args.fleet or stats.get("role") == "fleet-router"
        metrics = client.metrics(format="json")["metrics"]
        slo = client.slo()
        return render_dashboard(
            metrics=metrics, slo=slo, stats=stats, fleet=fleet, color=color,
            title=f"cast-plan top — {args.host}:{args.port}",
        )

    if args.once:
        print(one_frame(), end="")
        return 0
    while True:
        frame = one_frame()
        print(CLEAR + frame, end="", flush=True)
        time.sleep(args.interval)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the server's sampling profiler and print the subsystem table."""
    from pathlib import Path

    from .service.client import SyncPlannerClient

    client = SyncPlannerClient(host=args.host, port=args.port)
    report = client.profile(duration_s=args.duration, interval_s=args.interval)
    print(
        f"sampled {report['samples']} frames over {report['duration_s']:.2f}s "
        f"(every {report['interval_s'] * 1000:.1f} ms)"
    )
    print(f"{'subsystem':14s} {'samples':>8s} {'share':>7s} {'self(s)':>8s}")
    for name, row in report["by_subsystem"].items():
        print(
            f"{name:14s} {row['samples']:8d} {row['share'] * 100:6.1f}% "
            f"{row['self_s']:8.3f}"
        )
    if args.out:
        Path(args.out).write_text(
            "\n".join(report["folded"]) + ("\n" if report["folded"] else "")
        )
        print(f"wrote {len(report['folded'])} folded stacks to {args.out}")
    return 0


def _cmd_debug_dump(args: argparse.Namespace) -> int:
    """Fetch a postmortem bundle from a live daemon and write it."""
    import time

    from .obs.flightrec import dump_bundle
    from .service.client import SyncPlannerClient

    client = SyncPlannerClient(host=args.host, port=args.port)
    bundle = client.debug_dump(reason="cli")
    path = args.out or f"castdump-{int(time.time() * 1000)}-cli.jsonl"
    dump_bundle(path, bundle)
    slo = bundle.get("slo") or {}
    print(
        f"wrote {path}: {len(bundle.get('metrics', {}))} metrics, "
        f"{len(bundle.get('records', []))} flight records, "
        f"{len(bundle.get('spans', []))} spans, "
        f"slo state {slo.get('state', 'n/a')}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from .cloud.storage import Tier
    from .core.plan import TieringPlan
    from .experiments.measure import measure_plan
    from .experiments.runner import ExperimentRunner
    from .simulator import ANALYTIC_RTOL, batch_results_match, fastpath_stats, \
        reset_fastpath_stats

    try:
        workload = _resolve_workload(args)
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    prov = _resolve_provider(args.provider)
    cluster = prov.cluster(args.vms)
    if args.plan_file:
        plan = TieringPlan.from_dict(json.loads(Path(args.plan_file).read_text()))
    else:
        plan = TieringPlan.uniform(workload, Tier(args.tier))

    reset_fastpath_stats()
    t0 = time.perf_counter()
    with ExperimentRunner(args.workers, fast_path=args.batch) as runner:
        measured = measure_plan(
            workload, plan, cluster, prov,
            runner=runner if (runner.parallel or args.batch) else None,
        )
    elapsed = time.perf_counter() - t0
    source = "plan " + args.plan_file if args.plan_file else f"uniform {args.tier}"
    print(
        f"simulated {workload.n_jobs} jobs on {cluster.n_vms} VMs "
        f"({prov.name}, {source}) in {elapsed:.2f}s"
    )
    print(
        f"measured: T={measured.makespan_min:.1f} min  "
        f"cost=${measured.cost.total_usd:.2f}  utility={measured.utility:.3e}"
    )
    if args.batch:
        if runner.parallel:
            # Fast-path counters accumulate inside the worker
            # processes; report the parent-side dispatch instead.
            rs = runner.stats()
            print(
                f"fast path: dispatched={rs['tasks_run']} "
                f"deduped={rs['tasks_deduped']} over {rs['workers']} workers"
            )
        else:
            st = fastpath_stats()
            print(
                f"fast path: analytic={st['analytic']} "
                f"fallback={st['fallback']} cache_hits={st['cache_hits']} "
                f"deduped={st['deduped']}"
            )
    if args.check:
        # Re-measure on the exact event engine (serial, no fast path).
        # Any phase off by more than ANALYTIC_RTOL relative fails the
        # gate and the command exits 1 — same contract as the
        # parity-gated benchmarks.
        exact = measure_plan(workload, plan, cluster, prov)
        got = [measured.per_job[j.job_id] for j in workload.jobs]
        want = [exact.per_job[j.job_id] for j in workload.jobs]
        failures = batch_results_match(got, want, rtol=ANALYTIC_RTOL)
        if failures:
            print(
                f"parity check FAILED ({len(failures)} phases beyond "
                f"rtol={ANALYTIC_RTOL:g}):",
                file=sys.stderr,
            )
            for line in failures[:10]:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"parity check passed: {len(got)} jobs within "
            f"rtol={ANALYTIC_RTOL:g} of the exact engine"
        )
    return 0


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _fmt_replan(r) -> str:
    parity = ""
    if r.parity_ok is not None:
        parity = f"  parity={'ok' if r.parity_ok else 'FAIL'}"
    return (
        f"[{r.seq:4d}] {r.kind:6s} {r.mode:5s} {r.replan_s * 1e3:9.2f} ms  "
        f"jobs={r.resident_jobs:5d}  utility={r.utility:.4e}{parity}"
    )


def _cmd_session(args: argparse.Namespace) -> int:
    """Replay a recorded churn trace through an in-process session."""
    import json
    from pathlib import Path

    from .service.sessions import normalize_open_params
    from .session import PlanningSession, SessionConfig, load_trace
    from .workloads.io import (
        job_from_dict,
        reuse_set_from_dict,
        workload_from_dict,
    )

    try:
        trace = load_trace(args.replay)
        open_params = dict(trace["open"])
        for knob in ("provider", "iterations", "seed", "backend", "replicas"):
            value = getattr(args, knob)
            if value is not None:
                open_params[knob] = value
        if args.vms is not None:
            open_params["n_vms"] = args.vms
        if args.parity_every is not None:
            config = dict(open_params.get("config") or {})
            config["parity_check_every"] = args.parity_every
            open_params["config"] = config
        p = normalize_open_params(open_params)
        workload = (
            workload_from_dict(p["spec"]) if p["spec"] is not None else None
        )
        session = PlanningSession(
            workload,
            provider=_resolve_provider(p["provider"]),
            n_vms=p["n_vms"],
            iterations=p["iterations"],
            seed=p["seed"],
            use_castpp=p["use_castpp"],
            backend=p["backend"],
            replicas=p["replicas"],
            config=(
                SessionConfig(**p["config"]) if p["config"] is not None else None
            ),
        )
    except (CastError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    results = []
    if session.last_result is not None:
        results.append(session.last_result)
        print(_fmt_replan(session.last_result))
    try:
        for event in trace["events"]:
            if event["kind"] == "add":
                jobs = [job_from_dict(j) for j in event.get("jobs", [])]
                sets = [
                    reuse_set_from_dict(rs)
                    for rs in event.get("reuse_sets", [])
                ]
                result = session.add_jobs(jobs, sets)
            else:
                result = session.remove_jobs(event["job_ids"])
            results.append(result)
            print(_fmt_replan(result))
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary = session.close()
    warm_ms = sorted(
        r.replan_s * 1e3 for r in results if r.mode == "warm"
    )
    modes: Dict[str, int] = {}
    for r in results:
        modes[r.mode] = modes.get(r.mode, 0) + 1
    mode_str = ", ".join(f"{k}: {v}" for k, v in sorted(modes.items()))
    print(
        f"replayed {len(trace['events'])} events "
        f"({mode_str}); {summary['resident_jobs']} jobs resident"
    )
    if warm_ms:
        print(
            f"warm re-plan latency: p50={_percentile(warm_ms, 0.50):.2f} "
            f"p95={_percentile(warm_ms, 0.95):.2f} "
            f"p99={_percentile(warm_ms, 0.99):.2f} "
            f"max={warm_ms[-1]:.2f} ms"
        )
    parity_failures = sum(1 for r in results if r.parity_ok is False)
    if parity_failures:
        print(f"{parity_failures} parity checks FAILED", file=sys.stderr)
    if args.out:
        payload = {
            "trace": args.replay,
            "replans": [r.to_dict() for r in results],
            "modes": modes,
            "warm_ms": {
                "p50": _percentile(warm_ms, 0.50),
                "p95": _percentile(warm_ms, 0.95),
                "p99": _percentile(warm_ms, 0.99),
            },
            "summary": {k: v for k, v in summary.items() if k != "plan"},
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote replay results to {args.out}")
    return 1 if parity_failures else 0


_EXPERIMENTS: Dict[str, Callable[[], str]] = {}


def _register_experiments() -> None:
    """Lazily bind experiment names to run+format pairs."""
    if _EXPERIMENTS:
        return
    from . import experiments as ex

    _EXPERIMENTS.update(
        {
            "table1": lambda: ex.format_table1(ex.run_table1()),
            "table2": lambda: ex.format_table2(ex.run_table2()),
            "table4": lambda: ex.format_table4(ex.run_table4()),
            "fig1": lambda: ex.format_fig1(ex.run_fig1()),
            "fig2": lambda: ex.format_fig2(ex.run_fig2()),
            "fig3": lambda: ex.format_fig3(ex.run_fig3()),
            "fig4": lambda: ex.format_fig4(ex.run_fig4()),
            "fig5": lambda: ex.format_fig5(ex.run_fig5()),
            "fig7": lambda workers=None, fast_sim=False: ex.format_fig7(
                ex.run_fig7(workers=workers, fast_sim=fast_sim)
            ),
            "fig8": lambda: ex.format_fig8(ex.run_fig8()),
            "fig9": lambda workers=None, fast_sim=False: ex.format_fig9(
                ex.run_fig9(workers=workers, fast_sim=fast_sim)
            ),
            "ablation-sa": lambda: ex.format_sa_ablation(ex.run_sa_ablation()),
            "ablation-reg": lambda: ex.format_regression_ablation(
                ex.run_regression_ablation()
            ),
            "ablation-heat": lambda: ex.format_heat_ablation(
                ex.run_heat_ablation()
            ),
            "ablation-dynamic": lambda: ex.format_dynamic_ablation(
                ex.run_dynamic_ablation()
            ),
            "sensitivity": lambda workers=None, fast_sim=False: (
                ex.format_price_sensitivity(
                    ex.run_price_sensitivity(workers=workers, fast_sim=fast_sim)
                )
            ),
            "crosscloud": lambda workers=None: ex.format_crosscloud(
                ex.run_crosscloud(workers=workers)
            ),
        }
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    _register_experiments()
    names: Sequence[str]
    if args.name == "all":
        names = list(_EXPERIMENTS)
    elif args.name in _EXPERIMENTS:
        names = [args.name]
    else:
        print(
            f"unknown experiment {args.name!r}; "
            f"known: all {' '.join(sorted(_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    import inspect

    workers = getattr(args, "workers", None)
    fast_sim = bool(getattr(args, "fast_sim", False))
    for name in names:
        print(f"=== {name} ===")
        fn = _EXPERIMENTS[name]
        # Simulation-heavy experiments accept a worker count (and
        # fig7 the vectorized fast path); the rest are solver-bound
        # and run as before.
        params = inspect.signature(fn).parameters
        kwargs = {}
        if "workers" in params:
            kwargs["workers"] = workers
        if "fast_sim" in params:
            kwargs["fast_sim"] = fast_sim
        print(fn(**kwargs))
        print()
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from .core.sizing import best_cluster_size, sweep_cluster_sizes

    try:
        workload = _resolve_workload(args)
    except CastError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    prov = _resolve_provider(args.provider)
    sizes = [int(x) for x in args.sizes.split(",")]
    points = sweep_cluster_sizes(
        workload, sizes, prov, iterations=args.iterations, seed=args.seed
    )
    print(f"{'VMs':>5s} {'utility':>12s} {'cost($)':>9s} {'runtime(min)':>13s}")
    for p in points:
        print(
            f"{p.n_vms:5d} {p.utility:12.3e} "
            f"{p.evaluation.cost.total_usd:9.2f} {p.evaluation.makespan_min:13.1f}"
        )
    best = best_cluster_size(points)
    print(f"best size: {best.n_vms} VMs ({best.vm.name})")
    return 0


def _add_logging_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log-level", default="warning", choices=LOG_LEVELS,
                   help="stderr logging threshold for the repro package")
    p.add_argument("--log-json", action="store_true",
                   help="emit log records as JSON lines (with trace ids)")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="facebook",
                   choices=("facebook", "small"),
                   help="which built-in workload to plan")
    p.add_argument("--workload-file", default=None,
                   help="JSON workload file (overrides --workload)")
    p.add_argument("--provider", default="google",
                   choices=sorted(_PROVIDERS),
                   help="cloud catalog to plan against")
    p.add_argument("--iterations", type=int, default=3000,
                   help="annealer iteration budget")
    p.add_argument("--seed", type=int, default=42, help="solver RNG seed")
    p.add_argument("--backend", default="anneal",
                   choices=("anneal", "tempering"),
                   help="single Metropolis chain, or parallel tempering "
                        "(the scale backend for large workloads)")
    p.add_argument("--replicas", type=int, default=8,
                   help="tempering replica count (tempering backend only)")


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    text = generate_report(quick=args.quick)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(text)} chars)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``cast-plan`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="cast-plan",
        description="CAST cloud storage tiering planner (HPDC'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="print the storage catalog")
    p_catalog.add_argument("--provider", default="google",
                           choices=sorted(_PROVIDERS))
    _add_logging_args(p_catalog)
    p_catalog.set_defaults(func=_cmd_catalog)

    p_catalogs = sub.add_parser(
        "catalogs",
        help="list every registered cloud catalog with tier summaries",
    )
    p_catalogs.add_argument("--json", action="store_true",
                            help="machine-readable output")
    _add_logging_args(p_catalogs)
    p_catalogs.set_defaults(func=_cmd_catalogs)

    p_sweep = sub.add_parser(
        "sweep",
        help="solve a multi-catalog grid with warm-start transfer",
    )
    _add_workload_args(p_sweep)
    _add_logging_args(p_sweep)
    p_sweep.add_argument("--providers", default="google,aws,azure",
                         help="comma-separated catalog list (sweep axis)")
    p_sweep.add_argument("--vms", type=int, default=25, help="cluster size")
    p_sweep.add_argument("--reps", type=int, default=2,
                         help="CRN-paired replications per catalog")
    p_sweep.add_argument("--basic", action="store_true",
                         help="use basic CAST instead of CAST++")
    p_sweep.add_argument("--cold", action="store_true",
                         help="disable warm-start transfer (every point "
                              "solves at full budget)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process-pool workers; default serial")
    p_sweep.add_argument("--json", action="store_true",
                         help="dump the full sweep result as JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plan = sub.add_parser("plan", help="plan a workload")
    _add_workload_args(p_plan)
    _add_logging_args(p_plan)
    p_plan.add_argument("--vms", type=int, default=25, help="cluster size")
    p_plan.add_argument("--basic", action="store_true",
                        help="use basic CAST instead of CAST++")
    p_plan.add_argument("--verbose", action="store_true",
                        help="print per-job placements")
    p_plan.add_argument("--out", default=None,
                        help="write the plan as JSON to this file")
    p_plan.add_argument("--trace-solver", action="store_true",
                        help="print sampled annealer progress to stderr")
    p_plan.add_argument("--trace-export", default=None, metavar="PATH",
                        help="write this run's spans as JSON lines")
    p_plan.set_defaults(func=_cmd_plan)

    p_serve = sub.add_parser("serve", help="run the planner daemon")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument("--pool-processes", type=int, default=None,
                         help="solver worker processes (0 = threads)")
    p_serve.add_argument("--restarts", type=int, default=4,
                         help="annealing restarts per solve")
    p_serve.add_argument("--cache-size", type=int, default=128,
                         help="plan-cache capacity (entries)")
    p_serve.add_argument("--max-inflight", type=int, default=4,
                         help="concurrent solves before queueing")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="queued solves before shedding requests")
    p_serve.add_argument("--request-timeout", type=float, default=600.0,
                         help="per-solve deadline in seconds")
    p_serve.add_argument("--trace-export", default=None, metavar="PATH",
                         help="stream every finished span to this JSONL file")
    p_serve.add_argument("--dump-dir", default=None, metavar="DIR",
                         help="auto-write a flight-recorder debug bundle "
                              "here on every SLO page transition")
    _add_logging_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded planner fleet (router + N shard processes)",
    )
    p_fleet.add_argument("--shards", type=int, default=2,
                         help="planner shard processes to spawn")
    p_fleet.add_argument("--host", default="127.0.0.1", help="bind address")
    p_fleet.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                         help="router TCP port (0 picks a free one); "
                              "shards always take free ports")
    p_fleet.add_argument("--pool-processes", type=int, default=1,
                         help="solver worker processes per shard "
                              "(0 = threads)")
    p_fleet.add_argument("--restarts", type=int, default=4,
                         help="annealing restarts per solve (all shards)")
    p_fleet.add_argument("--cache-size", type=int, default=256,
                         help="router L1 plan-cache capacity (entries)")
    p_fleet.add_argument("--max-inflight", type=int, default=16,
                         help="concurrent forwards at the router")
    p_fleet.add_argument("--max-queue-per-tenant", type=int, default=64,
                         help="queued requests per tenant before shedding")
    p_fleet.add_argument("--shard-max-inflight", type=int, default=4,
                         help="concurrent solves per shard")
    p_fleet.add_argument("--tenant-weight", action="append", metavar="NAME=W",
                         help="fair-queueing weight for a tenant "
                              "(repeatable; default 1.0)")
    p_fleet.add_argument("--health-interval", type=float, default=1.0,
                         help="seconds between shard health sweeps")
    p_fleet.add_argument("--request-timeout", type=float, default=600.0,
                         help="per-solve deadline on each shard (seconds)")
    p_fleet.add_argument("--no-restart", action="store_true",
                         help="do not respawn crashed shards")
    p_fleet.add_argument("--trace-export", default=None, metavar="PATH",
                         help="stream router spans to this JSONL file")
    p_fleet.add_argument("--dump-dir", default=None, metavar="DIR",
                         help="auto-write debug bundles here on SLO pages "
                              "(router at the top level, one subdir per "
                              "shard)")
    _add_logging_args(p_fleet)
    p_fleet.set_defaults(func=_cmd_fleet)

    p_submit = sub.add_parser("submit",
                              help="submit a workload to a running daemon")
    _add_workload_args(p_submit)
    _add_logging_args(p_submit)
    p_submit.add_argument("--vms", type=int, default=25, help="cluster size")
    p_submit.add_argument("--basic", action="store_true",
                          help="use basic CAST instead of CAST++")
    p_submit.add_argument("--verbose", action="store_true",
                          help="print per-job placements")
    p_submit.add_argument("--out", default=None,
                          help="write the plan as JSON to this file")
    p_submit.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_submit.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                          help="daemon TCP port")
    p_submit.add_argument("--restarts", type=int, default=None,
                          help="annealing restarts (default: server's)")
    p_submit.add_argument("--tenant", default=None,
                          help="tenant label for fleet fair queueing "
                               "and per-tenant metrics")
    p_submit.add_argument("--retries", type=int, default=0,
                          help="reconnect attempts (exponential backoff) "
                               "after a lost connection; 0 = fail fast")
    p_submit.add_argument("--show-stats", action="store_true",
                          help="also print server cache/dedup counters")
    p_submit.set_defaults(func=_cmd_submit)

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a running daemon or fleet router",
    )
    p_top.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_top.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                       help="daemon TCP port")
    p_top.add_argument("--fleet", action="store_true",
                       help="force the fleet view (auto-detected from the "
                            "stats payload otherwise)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between repaints")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit (for scripts/CI)")
    p_top.add_argument("--no-color", action="store_true",
                       help="disable ANSI colors even on a TTY")
    _add_logging_args(p_top)
    p_top.set_defaults(func=_cmd_top)

    p_prof = sub.add_parser(
        "profile",
        help="run the sampling profiler inside a running daemon",
    )
    p_prof.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_prof.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                        help="daemon TCP port")
    p_prof.add_argument("--duration", type=float, default=1.0,
                        help="seconds to sample (server caps at 30)")
    p_prof.add_argument("--interval", type=float, default=0.005,
                        help="seconds between samples")
    p_prof.add_argument("--out", default=None, metavar="PATH",
                        help="write folded stacks (flamegraph input) here")
    _add_logging_args(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_dump = sub.add_parser(
        "debug-dump",
        help="fetch a flight-recorder postmortem bundle from a daemon",
    )
    p_dump.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_dump.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                        help="daemon TCP port")
    p_dump.add_argument("--out", default=None, metavar="PATH",
                        help="bundle path (default castdump-<ms>-cli.jsonl)")
    _add_logging_args(p_dump)
    p_dump.set_defaults(func=_cmd_debug_dump)

    p_size = sub.add_parser("size", help="sweep cluster sizes for a workload")
    _add_workload_args(p_size)
    _add_logging_args(p_size)
    p_size.add_argument("--sizes", default="5,10,25",
                        help="comma-separated candidate VM counts")
    p_size.set_defaults(func=_cmd_size)

    p_sim = sub.add_parser(
        "simulate",
        help="measure a fixed tiering on the simulated cluster",
    )
    p_sim.add_argument("--workload", default="facebook",
                       choices=("facebook", "small"),
                       help="which built-in workload to simulate")
    p_sim.add_argument("--workload-file", default=None,
                       help="JSON workload file (overrides --workload)")
    p_sim.add_argument("--provider", default="google",
                       choices=sorted(_PROVIDERS),
                       help="cloud catalog to simulate against")
    p_sim.add_argument("--vms", type=int, default=25, help="cluster size")
    p_sim.add_argument("--tier", default="objStore",
                       choices=("ephSSD", "persSSD", "persHDD", "objStore"),
                       help="uniform tier for every job (default objStore)")
    p_sim.add_argument("--plan-file", default=None, metavar="PATH",
                       help="tiering-plan JSON (from 'plan --out'); "
                            "overrides --tier")
    p_sim.add_argument("--batch", action="store_true",
                       help="route eligible jobs through the vectorized "
                            "wave-model fast path (phase times agree with "
                            "the event engine within 1e-9 relative)")
    p_sim.add_argument("--workers", type=int, default=None,
                       help="parallel simulation workers; default serial")
    p_sim.add_argument("--check", action="store_true",
                       help="re-measure on the exact event engine and "
                            "exit 1 if any phase disagrees beyond the "
                            "tolerance (the parity gate)")
    _add_logging_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sess = sub.add_parser(
        "session",
        help="replay a churn trace through a streaming planning session",
    )
    p_sess.add_argument("--replay", required=True, metavar="PATH",
                        help="session-trace JSON file (schema v1: open "
                             "params plus add/remove events)")
    p_sess.add_argument("--vms", type=int, default=None,
                        help="cluster size (overrides the trace)")
    p_sess.add_argument("--provider", default=None,
                        choices=sorted(_PROVIDERS),
                        help="cloud catalog (overrides the trace)")
    p_sess.add_argument("--iterations", type=int, default=None,
                        help="full-solve iteration budget (overrides "
                             "the trace)")
    p_sess.add_argument("--seed", type=int, default=None,
                        help="solver RNG seed (overrides the trace)")
    p_sess.add_argument("--backend", default=None,
                        choices=("anneal", "tempering"),
                        help="full-solve backend (overrides the trace)")
    p_sess.add_argument("--replicas", type=int, default=None,
                        help="tempering replica count (overrides the trace)")
    p_sess.add_argument("--parity-every", type=int, default=None,
                        metavar="N",
                        help="bit-parity re-score every Nth re-plan; any "
                             "failure exits 1")
    p_sess.add_argument("--out", default=None, metavar="PATH",
                        help="write per-event results as JSON")
    _add_logging_args(p_sess)
    p_sess.set_defaults(func=_cmd_session)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", help="experiment id (or 'all')")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="parallel simulation workers for the "
                            "measurement-heavy experiments (fig7, fig9, "
                            "sensitivity); default serial")
    p_exp.add_argument("--fast-sim", action="store_true",
                       help="vectorized wave-model fast path for the "
                            "measurement simulations (fig7, fig9, "
                            "sensitivity); eligibility is per job, so "
                            "ineligible jobs still run on the exact "
                            "event engine")
    _add_logging_args(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser("report", help="generate the full reproduction report")
    p_rep.add_argument("--out", default=None, help="write markdown to this file")
    p_rep.add_argument("--quick", action="store_true",
                       help="reduced solver budgets (fast smoke run)")
    _add_logging_args(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Ctrl-C is the normal way to stop ``serve``, so ``KeyboardInterrupt``
    exits cleanly with the conventional 130 instead of a traceback, and
    any :class:`CastError` (unknown provider, malformed workload file,
    service-side failures relayed by ``submit``) prints one line and
    exits 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        getattr(args, "log_level", "warning"),
        json_format=getattr(args, "log_json", False),
    )
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ConnectionRefusedError:
        # Only the client subcommands (submit, top, profile, debug-dump)
        # connect anywhere.
        print(
            f"no planner at {args.host}:{args.port} — start one with "
            f"'cast-plan serve' (or 'cast-plan fleet')",
            file=sys.stderr,
        )
        return 2
    except CastError as exc:
        # Service-relayed errors carry the server-side trace id (the
        # client stamps it from the error envelope) — print it so the
        # failure can be grepped out of a debug dump or span export.
        trace = getattr(exc, "trace_id", None)
        suffix = f"  [trace {str(trace)[:12]}]" if trace else ""
        print(f"{exc}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
