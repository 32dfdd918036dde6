"""Span attribution and the per-layer metrics of a traced run.

Self time is a span's duration minus the union of its children: the
same-process spans it encloses on the call stack, plus root spans of
its child processes that carry its trace id and lie inside its interval
(a solver-pool restart under the ``SolverPool.solve`` that fanned it
out).
Children that run in parallel — two restarts on two workers — would
otherwise count their overlap twice, so each child's subtree is scaled
by ``union / sum`` of the children's durations: the layer times of one
request then add up to its wall time.

The decomposition of client latency (all sums over the window)::

    client latency = client queue + wire + protocol
                   + router self + router inner spans      (fleet only)
                   + server self + server inner spans

``wire`` is client latency minus the outermost server's op latency
(``cast_op_latency_seconds``) minus the protocol spans outside that
timer; ``router self`` is router op latency minus its inner spans,
shard op latency and shard-side protocol; ``server self`` is daemon or
shard op latency minus its inner spans.  Inner spans split further
into their layers' self times.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SpanRow:
    pid: int
    layer: str
    name: str
    start: int
    end: int
    sid: int
    parent: Optional[int]
    trace: Optional[str]
    kind: str = ""
    nbytes: int = 0

    @property
    def key(self) -> Tuple[int, int]:
        return (self.pid, self.sid)

    @property
    def duration(self) -> int:
        return self.end - self.start


def rows(pid: int, spans: Iterable[Sequence[Any]]) -> List[SpanRow]:
    """Span tuples as written by ``traced_entry`` → :class:`SpanRow`."""
    return [SpanRow(pid, *s) for s in spans]


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Attribution:
    weight: float
    self_ns: float
    root: bool


def attribute(spans: Sequence[SpanRow],
              parents: Mapping[int, int]) -> Dict[Tuple[int, int], Attribution]:
    """Weighted self time of every span (see the module docstring);
    ``parents`` maps a pid to its parent process's pid."""
    by_key = {s.key: s for s in spans}
    children: Dict[Tuple[int, int], List[SpanRow]] = defaultdict(list)
    orphans = []
    for s in spans:
        if s.parent is not None and (s.pid, s.parent) in by_key:
            children[(s.pid, s.parent)].append(s)
        else:
            orphans.append(s)
    by_trace: Dict[str, List[SpanRow]] = defaultdict(list)
    for s in spans:
        if s.trace is not None:
            by_trace[s.trace].append(s)
    roots = []
    for s in orphans:
        holders = [
            c for c in by_trace.get(s.trace, ())
            if parents.get(s.pid) == c.pid and c.start <= s.start and s.end <= c.end
        ]
        if holders:
            children[min(holders, key=lambda c: c.duration).key].append(s)
        else:
            roots.append(s)
    out: Dict[Tuple[int, int], Attribution] = {}
    todo = [(s, 1.0, True) for s in roots]
    while todo:
        s, weight, is_root = todo.pop()
        kids = children.get(s.key, ())
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        covered = union_length(c for c in clipped if c[1] > c[0])
        summed = sum(max(0, e - b) for b, e in clipped)
        out[s.key] = Attribution(weight, float(s.duration - covered), is_root)
        scale = covered / summed if summed else 1.0
        todo.extend((k, weight * scale, False) for k in kids)
    return out


# -- percentiles ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0–100) of ``values``.

    A failed request counts as ``inf``; a percentile that reaches one
    is ``inf`` too (plain interpolation would give NaN).
    """
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo:
        return data[lo]
    if math.isinf(data[hi]):
        return math.inf
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def supported_tail(n: int, candidates: Sequence[float] = (90.0, 99.0, 99.9)) -> Optional[float]:
    """The highest percentile of ``candidates`` with at least ten of ``n``
    samples beyond it (None when even the lowest has fewer)."""
    best = None
    for q in candidates:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            best = q
    return best


# -- scrape helpers -----------------------------------------------------------


def counter(delta: Mapping[str, Any], name: str, **labels: str) -> float:
    """Sum of a counter's series matching ``labels`` in a snapshot delta."""
    entry = delta.get(name)
    if not entry:
        return 0.0
    return sum(
        float(s["value"]) for s in entry["values"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def histogram(delta: Mapping[str, Any], name: str, **labels: str) -> Tuple[float, int]:
    """``(sum, count)`` of a histogram's series matching ``labels``."""
    entry = delta.get(name)
    if not entry:
        return 0.0, 0
    total, count = 0.0, 0
    for s in entry["values"]:
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            total += float(s["value"]["sum"])
            count += int(s["value"]["count"])
    return total, count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the per-layer metrics ----------------------------------------------------


@dataclass
class TracedPass:
    """Everything a traced window produced."""

    topology: str                       # "solo" | "fleet"
    ops: Sequence[str]                  # ops the stream sends
    latencies_ms: Sequence[float]       # from the due time
    send_ms: Sequence[float]            # from the send time
    queue_ms: Sequence[float]
    lag_ms: Sequence[float]             # send lag where a connection was free
    op_latencies_ms: Mapping[str, Sequence[float]]
    window_s: float
    cpu_s: float
    window: Tuple[int, int]             # monotonic ns
    spans: Sequence[SpanRow]
    roles: Mapping[int, str]            # pid -> client|outer|shard|worker
    parents: Mapping[int, int]          # pid -> parent pid
    outer: Mapping[str, Any]            # scrape delta of the daemon or router
    servers: Sequence[Mapping[str, Any]]  # scrape deltas of the daemon or shards
    pool_processes: int
    sweep_points: int = 0
    sweep_warm: int = 0
    untraced_p50_ms: float = 0.0        # p50 of the same stream without spans


def _edge_protocol(s: SpanRow, role: str) -> bool:
    """Protocol work outside the outermost server's op timer."""
    if s.layer != "protocol":
        return False
    if role == "client":
        return True
    if role == "outer":
        return s.name == "parse_request" or (s.name == "encode_message" and s.kind == "response")
    return False


def per_layer(p: TracedPass) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The per-layer metrics, plus the full breakdown for ``layers.json``."""
    n = max(1, len(p.latencies_ms))
    w0, w1 = p.window
    spans = [s for s in p.spans if s.start >= w0 and s.end <= w1]
    attr = attribute(spans, p.parents)
    layer_ns: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    edge_ns = shard_proto_ns = 0.0
    router_inner_ns = server_inner_ns = 0.0
    duration_ns: Dict[str, float] = defaultdict(float)
    for s in spans:
        a = attr[s.key]
        role = p.roles.get(s.pid, "worker")
        layer_ns[s.layer] += a.weight * a.self_ns
        count[s.name] += 1
        duration_ns[s.name] += s.duration
        if _edge_protocol(s, role):
            edge_ns += s.duration
        elif role == "shard" and s.layer == "protocol":
            shard_proto_ns += s.duration
        elif a.root and role == "outer":
            if p.topology == "fleet":
                router_inner_ns += s.duration
            else:
                server_inner_ns += s.duration
        elif a.root and role == "shard":
            server_inner_ns += s.duration

    def op_sum(delta: Mapping[str, Any]) -> float:
        return sum(histogram(delta, "cast_op_latency_seconds", op=op)[0] for op in set(p.ops))

    outer_s = op_sum(p.outer)
    server_s = sum(op_sum(d) for d in p.servers)

    def per_req(ns: float) -> float:
        return ns / 1e6 / n

    latency_sum_ms = sum(p.latencies_ms)
    queue_sum_ms = sum(p.queue_ms)
    wire_ms = (sum(p.send_ms) - outer_s * 1e3 - edge_ns / 1e6) / n
    router_self_ms = 0.0
    if p.topology == "fleet":
        router_self_ms = (outer_s - server_s) * 1e3 / n - per_req(router_inner_ns + shard_proto_ns)
    server_self_ms = server_s * 1e3 / n - per_req(server_inner_ns)

    breakdown = {layer: per_req(ns) for layer, ns in sorted(layer_ns.items())}
    breakdown.update({
        "client.queue": queue_sum_ms / n,
        "wire": wire_ms,
        "router.self": router_self_ms,
        "server.self": server_self_ms,
    })
    accounted = sum(breakdown.values())
    mean_latency = latency_sum_ms / n
    traced_p50 = percentile(p.latencies_ms, 50.0)

    def total(name: str, **labels: str) -> float:
        return sum(counter(d, name, **labels) for d in p.servers)

    def hist(name: str, **labels: str) -> Tuple[float, int]:
        parts = [histogram(d, name, **labels) for d in p.servers]
        return sum(x for x, _ in parts), sum(c for _, c in parts)

    def share(name: str, label: str, yes: str, no: str) -> float:
        a, b = total(name, **{label: yes}), total(name, **{label: no})
        return _ratio(a, a + b)

    solver_runs = total("cast_solver_solves_total")
    pool_solves = total("cast_pool_solves_total")
    plan_lat, _ = hist("cast_op_latency_seconds", op="plan")
    solve_s, solve_n = hist("cast_service_solve_seconds")
    anneal_s, anneal_n = hist("cast_solver_solve_seconds", backend="anneal")
    temper_s, temper_n = hist("cast_solver_solve_seconds", backend="tempering")
    warm_s, warm_n = hist("cast_session_replan_seconds", mode="warm")
    full_s, full_n = hist("cast_session_replan_seconds", mode="full")
    router = p.outer if p.topology == "fleet" else {}
    router_hits = counter(router, "cast_plan_cache_events_total", event="hit")
    router_misses = counter(router, "cast_plan_cache_events_total", event="miss")
    shed = total("cast_service_events_total", event="rejected") + counter(
        router, "cast_fleet_admission_total", outcome="shed")
    joins = total("cast_service_events_total", event="dedup_joined") + counter(
        router, "cast_fleet_events_total", event="dedup_joined")
    measure_calls = count["measure_plan"]
    sweeps = count["run"]
    client_bytes = sum(s.nbytes for s in spans if p.roles.get(s.pid) == "client")

    metrics = {
        "client.cpu_ms_per_req": p.cpu_s * 1e3 / n,
        "protocol.bytes_per_req": client_bytes / n,
        "protocol.ms_per_req": breakdown.get("protocol", 0.0),
        "wire.ms_per_req": wire_ms,
        "router.self_ms_per_req": router_self_ms,
        "router.forwards_per_req": counter(router, "cast_fleet_routed_total") / n,
        "router.l1_hit_ratio": _ratio(router_hits, router_hits + router_misses),
        "router.wfq_wait_ms_per_req": breakdown.get("router.wfq", 0.0),
        "router.failovers": counter(router, "cast_fleet_events_total", event="failovers"),
        "server.self_ms_per_req": server_self_ms,
        "server.queue_ms_per_solve": _ratio(plan_lat - solve_s, solve_n) * 1e3,
        "server.shed_ratio": shed / n,
        "server.dedup_join_ratio": joins / n,
        "cache.hit_ratio": share("cast_plan_cache_events_total", "event", "hit", "miss"),
        "cache.evictions": total("cast_plan_cache_events_total", event="eviction"),
        "fingerprint.ms_per_req": breakdown.get("fingerprint", 0.0),
        "io.decode_ms_per_req": breakdown.get("io", 0.0),
        "pool.overhead_ms_per_solve": _ratio(layer_ns["pool"], pool_solves) / 1e6,
        "pool.busy_ratio": _ratio(anneal_s + temper_s, p.window_s * p.pool_processes),
        "pool.restarts_per_solve": _ratio(
            total("cast_pool_tasks_total", stage="completed"), pool_solves),
        "profiler.build_s": sum(s.duration for s in p.spans if s.layer == "profiler") / 1e9,
        "profiler.builds": float(sum(1 for s in p.spans
                                     if s.layer == "profiler" and s.duration >= 10_000_000)),
        "solver.anneal_ms_per_solve": _ratio(anneal_s, anneal_n) * 1e3,
        "solver.tempering_ms_per_solve": _ratio(temper_s, temper_n) * 1e3,
        "solver.anneal_iters_per_s": _ratio(
            total("cast_solver_iterations_total", backend="anneal"), anneal_s),
        "solver.tempering_iters_per_s": _ratio(
            total("cast_solver_iterations_total", backend="tempering"), temper_s),
        "solver.accept_ratio": _ratio(
            total("cast_solver_moves_accepted_total", backend="anneal"),
            total("cast_solver_iterations_total", backend="anneal")),
        "solver.seed_ms_per_solve": _ratio(layer_ns["solver.seed"], solver_runs) / 1e6,
        "evaluator.hit_ratio": share(
            "cast_evaluator_events_total", "counter", "cache_hits", "cache_misses"),
        "evaluator.skip_ratio": share(
            "cast_evaluator_events_total", "counter", "jobs_skipped", "jobs_reestimated"),
        "utility.rescore_ms_per_solve": _ratio(layer_ns["utility"], solver_runs) / 1e6,
        "simulator.ms_per_whatif": _ratio(duration_ns["measure_plan"], measure_calls) / 1e6,
        "simulator.fastpath_ratio": share(
            "cast_sim_fastpath_total", "path", "analytic", "fallback"),
        "simulator.cache_hit_ratio": share(
            "cast_sim_cache_events_total", "event", "hit", "miss"),
        "session.warm_ms_per_replan": _ratio(warm_s, warm_n) * 1e3,
        "session.full_ms_per_replan": _ratio(full_s, full_n) * 1e3,
        "session.full_replans": float(full_n),
        "sweep.ms_per_sweep": _ratio(duration_ns["run"], sweeps) / 1e6,
        "sweep.transfer_win_ratio": _ratio(p.sweep_warm, p.sweep_points),
        "client.queue_ms_per_req": queue_sum_ms / n,
        "client.send_lag_p99_ms": percentile(p.lag_ms, 99.0),
        "trace.overhead_ratio": _ratio(traced_p50, p.untraced_p50_ms) - 1.0,
        "trace.residual_ratio": _ratio(mean_latency - accounted, mean_latency),
    }
    for op in ("plan", "whatif", "session_delta", "sweep"):
        metrics[f"op.{op}_p50_ms"] = percentile(p.op_latencies_ms.get(op, ()), 50.0)

    details = {
        "requests": len(p.latencies_ms),
        "window_s": p.window_s,
        "mean_latency_ms": mean_latency,
        "p50_ms": {"traced": traced_p50, "untraced": p.untraced_p50_ms},
        "breakdown_ms_per_req": breakdown,
        "accounted_ms_per_req": accounted,
        "span_counts": dict(sorted(count.items())),
        "span_self_ms": {layer: ns / 1e6 for layer, ns in sorted(layer_ns.items())},
    }
    return metrics, details
