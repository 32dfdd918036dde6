#!/usr/bin/env python3
"""End-to-end planner benchmark: one workload, one seed, one window.

    python3 benchmarks/e2e/run.py --workload NAME --seed N [--seconds S]
                                  [--trace 0|1] [--smoke] [--out DIR]

Run from the root of a checkout.  It starts the unmodified program
(``cast-plan serve`` or ``cast-plan fleet``) as subprocesses, sets it up
(spawn, readiness, warm-up) several times and reports the median set-up
time, drives the workload's seeded request stream from one asyncio loop
over at most two connections, then checks every answer (``check.py``).
``--seconds`` sizes the stream: a fixed number of requests that takes
about that long, so every run of a seed serves the same requests.
``--trace 1`` instead runs the stream once untraced as a reference,
then once with spans recorded in every process (``traced_entry.py``),
scrapes the program's ``metrics`` op at the traced window's edges, and
reports the per-layer metrics.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every check passed, 1 when one failed, 2 on a usage
or environment error.  Results land in ``benchmarks/e2e/runs/<utc>-<rev>/``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import procs
import streams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-ups per untraced run; the median is ``setup_s``.
SETUPS = 3
REQUEST_TIMEOUT_S = 60.0
#: Warm-up is set-up, not load: it may use more connections than the window.
WARMUP_CONNECTIONS = 4
WARMUP_TIMEOUT_S = 120.0
#: An open-loop generator later than this when a connection was free
#: invalidates the run's latencies.
MAX_SEND_LAG_MS = 5.0

TOPOLOGY_ARGS = {"solo": ("--pool-processes", "1"), "fleet": ("--shards", "2")}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(streams.SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="window the stream is sized for (default: run_seconds of "
                        "BENCHMARK.json); compare.py only compares equal windows")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = traced run reporting the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="1/20 of the stream and one set-up, every check armed")
    p.add_argument("--out", default=None, help="result directory")
    p.add_argument("--topology", choices=sorted(TOPOLOGY_ARGS), default=None,
                   help="override the workload's topology (ad-hoc comparisons)")
    return p.parse_args(argv)


@dataclass
class Deployment:
    """A running server tree plus the load generator's connections."""

    server: procs.Server
    clients: List[Any]
    setup_s: float
    shards: List[Dict[str, Any]]
    opened: Dict[str, Dict[str, Any]]


@dataclass
class Pass:
    """What one measured window left behind."""

    rec: Any                      # loadgen.Recording
    server: procs.Server
    setups: List[float]
    opened: Dict[str, Dict[str, Any]]
    closed: Dict[str, Dict[str, Any]]
    rss_mb: float = 0.0
    scrapes: Tuple[Any, Any] = (None, None)
    client_spans: List[Any] = field(default_factory=list)
    reference_p50_ms: float = 0.0  # the untraced pass before a traced one


class Bench:
    def __init__(self, args: argparse.Namespace, spec_file: Dict[str, Any]) -> None:
        self.args = args
        self.spec_file = spec_file
        self.seconds = float(args.seconds or spec_file["run_seconds"])
        if args.smoke:
            self.seconds /= 20.0
        self.plan = streams.build(args.workload, args.seed, self.seconds)
        if args.topology and args.topology != self.plan.spec.topology:
            self.plan.spec = replace(self.plan.spec, topology=args.topology,
                                     serve_args=TOPOLOGY_ARGS[args.topology])
        self.spec = self.plan.spec
        self.env = _environment()
        rev = (self.env.get("git_rev") or "norev")[:12]
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.out = Path(args.out) if args.out else HERE / "runs" / f"{stamp}-{rev}"
        self.tag = f"{args.workload}-s{args.seed}" + ("-traced" if args.trace else "")
        self.tmp = self.out / f"{self.tag}-tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.failures: List[str] = []

    # -- set-up and teardown ---------------------------------------------------

    async def deploy(self, traced: bool, label: str) -> Deployment:
        from repro.service.client import PlannerClient

        from loadgen import run_concurrently

        started = time.monotonic()
        entry = [str(HERE / "traced_entry.py")] if traced else ["-m", "repro"]
        command = "fleet" if self.spec.topology == "fleet" else "serve"
        argv = [sys.executable, *entry, command, "--port", "0", *self.spec.serve_args]
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.tmp))
        if traced:
            env["CAST_E2E_SPAN_DIR"] = str(self.tmp / "spans")
        server = procs.Server(argv, env, str(ROOT), str(self.out / f"{self.tag}-{label}.log"))
        try:
            port = await asyncio.to_thread(server.wait_banner, WARMUP_TIMEOUT_S)
            clients = [PlannerClient("127.0.0.1", port) for _ in range(self.spec.connections)]
            stats = await asyncio.wait_for(clients[0].stats(), WARMUP_TIMEOUT_S)
            shards = [s for s in stats.get("shards", ()) if s.get("healthy")]
            if self.spec.topology == "fleet" and len(shards) < 2:
                raise RuntimeError(f"fleet came up with {len(shards)} healthy shards")
            warm = [PlannerClient("127.0.0.1", port) for _ in range(WARMUP_CONNECTIONS)]
            try:
                await asyncio.gather(
                    run_concurrently(warm, self.plan.warmup, WARMUP_TIMEOUT_S),
                    *(self._warm_directly(p) for p in ([s["port"] for s in shards] or [port])))
            finally:
                for c in warm:
                    await c.close()
            opened = {}
            for req in self.plan.sessions:
                response = await asyncio.wait_for(
                    clients[0].request(req.op, req.params), WARMUP_TIMEOUT_S)
                opened[req.session] = response["result"]
        except BaseException:
            await asyncio.to_thread(server.teardown)
            raise
        return Deployment(server, clients, time.monotonic() - started, shards, opened)

    async def _warm_directly(self, port: int) -> None:
        from repro.service.client import PlannerClient

        async with PlannerClient("127.0.0.1", port) as client:
            for req in self.plan.per_shard:
                await asyncio.wait_for(client.request(req.op, req.params), WARMUP_TIMEOUT_S)

    async def undeploy(self, dep: Deployment) -> None:
        for c in dep.clients:
            await c.close()
        leftovers = await asyncio.to_thread(dep.server.teardown)
        if leftovers:
            self.failures.append(f"processes outlived teardown: {leftovers}")

    # -- one window --------------------------------------------------------------

    async def window(self, dep: Deployment) -> Tuple[Any, List[int]]:
        """The measured window; returns its recording and the pids of the
        server tree as it ends."""
        import loadgen

        # The stream and set-up left many objects behind; a collection
        # walking them mid-window would stall the generator for ~10 ms.
        gc.collect()
        gc.freeze()
        try:
            if self.spec.loop == "closed":
                rec = await loadgen.run_closed(dep.clients, self.plan.stream, REQUEST_TIMEOUT_S)
            else:
                rec = await loadgen.run_open(dep.clients, self.plan.stream, REQUEST_TIMEOUT_S)
        finally:
            gc.unfreeze()
        return rec, dep.server.record_tree()

    async def close_sessions(self, dep: Deployment) -> Dict[str, Dict[str, Any]]:
        closed = {}
        for req in self.plan.sessions:
            response = await asyncio.wait_for(
                dep.clients[0].request("session_close", {"session_id": req.session}),
                REQUEST_TIMEOUT_S)
            closed[req.session] = response["result"]
        return closed

    async def scrape(self, dep: Deployment) -> Tuple[Dict[str, Any], List[Dict[str, Any]], int]:
        """Metrics snapshots of the outer server and every shard, plus the
        solver-pool worker count behind them."""
        from repro.service.client import PlannerClient

        async def metrics(port: int, scope: Optional[str]) -> Dict[str, Any]:
            async with PlannerClient("127.0.0.1", port) as c:
                return (await c.metrics(format="json", scope=scope))["metrics"]

        async def processes(port: int) -> int:
            async with PlannerClient("127.0.0.1", port) as c:
                return int((await c.stats())["pool"]["processes"])

        port = dep.server.port
        if self.spec.topology == "solo":
            return await metrics(port, None), [], await processes(port)
        outer = await metrics(port, "router")
        shards = [await metrics(s["port"], None) for s in dep.shards]
        workers = sum([await processes(s["port"]) for s in dep.shards])
        return outer, shards, workers

    # -- the two kinds of run ----------------------------------------------------

    async def untraced(self) -> Pass:
        setups = []
        rounds = 1 if self.args.smoke else SETUPS
        for k in range(rounds):
            dep = await self.deploy(False, f"setup{k}")
            setups.append(dep.setup_s)
            if k < rounds - 1:
                await self.undeploy(dep)
        try:
            rec, pids = await self.window(dep)
            rss = procs.rss_mb(pids)
            closed = await self.close_sessions(dep)
        finally:
            await self.undeploy(dep)
        return Pass(rec, dep.server, setups, dep.opened, closed, rss_mb=rss)

    async def traced(self) -> Pass:
        import traced_entry

        # trace.overhead_ratio compares against this pass, so it runs
        # before the client process installs its own wrappers.
        dep = await self.deploy(False, "reference")
        try:
            reference, _ = await self.window(dep)
        finally:
            await self.undeploy(dep)
        if any(not s.ok for s in reference.samples):
            self.failures.append("a request of the untraced reference pass failed")
        recorder = traced_entry.install()
        dep = await self.deploy(True, "setup")
        try:
            before = await self.scrape(dep)
            rec, _ = await self.window(dep)
            after = await self.scrape(dep)
            client_spans = list(recorder.spans)
            closed = await self.close_sessions(dep)
        finally:
            await self.undeploy(dep)
        return Pass(rec, dep.server, [dep.setup_s], dep.opened, closed,
                    scrapes=(before, after), client_spans=client_spans,
                    reference_p50_ms=layers.percentile(
                        [s.latency_ms for s in reference.samples], 50.0))

    # -- metrics -----------------------------------------------------------------

    def check(self, res: Pass) -> Dict[str, Any]:
        from check import run_checks

        sessions = [(req, res.opened[req.session], res.closed[req.session])
                    for req in self.plan.sessions]
        outcome = run_checks(self.args.seed, self.plan.stream, res.rec, sessions)
        self.failures.extend(outcome["failures"])
        return outcome

    def end_to_end(self, res: Pass, outcome: Dict[str, Any]) -> Dict[str, float]:
        samples = res.rec.samples
        lat = [s.latency_ms if s.ok else float("inf") for s in samples]
        return {
            "latency_p50_ms": layers.percentile(lat, 50.0),
            "latency_p90_ms": layers.percentile(lat, 90.0),
            "throughput_rps": sum(s.ok for s in samples) / res.rec.window_s,
            "setup_s": statistics.median(res.setups),
            "server_rss_mb": res.rss_mb,
            "plan_quality": outcome["plan_quality"],
        }

    def per_layer(self, res: Pass, outcome: Dict[str, Any]):
        from repro.obs.metrics import snapshot_delta

        leader = res.server.proc.pid
        roles = {os.getpid(): "client"}
        spans = layers.rows(os.getpid(), res.client_spans)
        for path in sorted((self.tmp / "spans").glob("spans-*.json")):
            data = json.loads(path.read_text())
            pid = data["pid"]
            if pid == leader:
                roles[pid] = "outer"
            elif self.spec.topology == "fleet" and res.server.parents.get(pid) == leader:
                roles[pid] = "shard"
            else:
                roles[pid] = "worker"
            spans.extend(layers.rows(pid, data["spans"]))
            self.failures.extend(f"trace target missing: {m}" for m in data["missing"])
        (outer0, shards0, _), (outer1, shards1, workers) = res.scrapes
        outer = snapshot_delta(outer0, outer1)
        ok = [s for s in res.rec.samples if s.ok]
        by_op: Dict[str, List[float]] = {}
        for s in ok:
            by_op.setdefault(s.op, []).append(s.latency_ms)
        metrics, details = layers.per_layer(layers.TracedPass(
            topology=self.spec.topology,
            ops=sorted({r.op for r in self.plan.stream}),
            latencies_ms=[s.latency_ms for s in ok],
            send_ms=[(s.done - s.sent) / 1e6 for s in ok],
            queue_ms=[(s.sent - s.due) / 1e6 for s in ok],
            lag_ms=[(s.sent - s.due) / 1e6 for s in ok if s.free_at_due],
            op_latencies_ms=by_op,
            window_s=res.rec.window_s,
            cpu_s=res.rec.cpu_s,
            window=(res.rec.start, res.rec.end),
            spans=spans,
            roles=roles,
            parents=res.server.parents,
            outer=outer,
            servers=([outer] if self.spec.topology == "solo" else
                     [snapshot_delta(a, b) for a, b in zip(shards0, shards1)]),
            pool_processes=workers,
            sweep_points=outcome["sweep_points"],
            sweep_warm=outcome["sweep_warm"],
            untraced_p50_ms=res.reference_p50_ms,
        ))
        # Two passes differ by the host's run-to-run noise as well as by
        # the spans; an overhead inside that noise is not resolved.
        noise = _p50_noise(self.args.workload)
        overhead = metrics["trace.overhead_ratio"]
        details["trace_overhead"] = {
            "ratio": overhead, "p50_noise": noise,
            "resolved": noise is not None and abs(overhead) > noise,
        }
        return metrics, details

    # -- reporting ---------------------------------------------------------------

    def report(self, metrics: Dict[str, float], res: Pass, extra: Dict[str, Any]) -> int:
        wanted = self.spec_file["per_layer" if self.args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
        samples = res.rec.samples
        attempted = len(samples)
        failed = sum(not s.ok for s in samples)
        lag_p99 = layers.percentile(
            [(s.sent - s.due) / 1e6 for s in samples if s.free_at_due], 99.0)
        tail = layers.supported_tail(attempted)
        lat = sorted(s.latency_ms for s in samples if s.ok)
        result = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.seconds,
            "trace": self.args.trace,
            "smoke": self.args.smoke,
            "topology": self.spec.topology,
            "benchmark_sha256": hashlib.sha256(BENCHMARK.read_bytes()).hexdigest(),
            "environment": self.env,
            "correct": not self.failures,
            "failures": self.failures,
            "attempted": attempted,
            "failed": failed,
            "errors": sorted({s.error for s in samples if s.error}),
            "valid": lag_p99 < MAX_SEND_LAG_MS,
            "client.send_lag_p99_ms": lag_p99,
            "tail": {"percentile": tail, "samples": len(lat),
                     "ms": layers.percentile(lat, tail) if tail else None},
            "setups_s": res.setups,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            **extra,
        }
        path = self.out / f"{self.tag}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        for name in units:
            print(f"{name:34s} {metrics[name]:>14.6g} {units[name]}")
        print(f"# {self.args.workload} seed={self.args.seed} requests={attempted} "
              f"failed={failed} tail=p{tail} lag_p99={lag_p99:.3f}ms -> {path}")
        if not result["valid"]:
            print(f"# INVALID: generator lag p99 {lag_p99:.2f} ms >= {MAX_SEND_LAG_MS} ms")
        for failure in self.failures:
            print(f"# CHECK FAILED: {failure}")
        print(json.dumps({
            "correct": result["correct"], "attempted": attempted, "failed": failed,
            "metrics": result["metrics"],
        }))
        return 0 if result["correct"] else 1

    def run(self) -> int:
        try:
            if self.args.trace:
                res = asyncio.run(self.traced())
                outcome = self.check(res)
                metrics, details = self.per_layer(res, outcome)
                (self.out / f"{self.tag}-layers.json").write_text(
                    json.dumps(details, indent=2) + "\n")
                extra = {"layers": details}
                t = details["trace_overhead"]
                noise = "unknown" if t["p50_noise"] is None else f"{t['p50_noise']:.1%}"
                note = "" if t["resolved"] else f" (unresolved: p50 noise {noise})"
                print(f"# trace overhead {t['ratio']:+.2%} of the untraced p50{note}")
            else:
                res = asyncio.run(self.untraced())
                outcome = self.check(res)
                metrics = self.end_to_end(res, outcome)
                extra = {}
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        extra["quality_samples"] = outcome["quality_samples"]
        return self.report(metrics, res, extra)


def _p50_noise(workload: str) -> Optional[float]:
    """Seed-to-seed spread of ``latency_p50_ms`` on ``workload``, as
    ``compare.py --calibrate`` last measured it (None when unknown)."""
    path = HERE / "calibration.json"
    if not path.is_file():
        return None
    spreads = json.loads(path.read_text()).get("seed_spread", {})
    return spreads.get("latency_p50_ms", {}).get(workload)


def _environment() -> Dict[str, Any]:
    """``benchmarks/conftest.bench_environment()``, the shared stamp."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bench_environment()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"run.py: no repro package under {SRC} or no {BENCHMARK.name}; "
              f"run it from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return Bench(args, json.loads(BENCHMARK.read_text())).run()


if __name__ == "__main__":
    sys.exit(main())
