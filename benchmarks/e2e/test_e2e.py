"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
import loadgen
import streams
from check import Checker, run_checks
from layers import SpanRow, attribute, supported_tail
from streams import Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MS = 1_000_000


def span(pid, sid, start, end, parent=None, trace=None, layer="x", name="f"):
    return SpanRow(pid, layer, name, start * MS, end * MS, sid, parent, trace)


# -- self time ------------------------------------------------------------------


def test_self_time_nested_children():
    spans = [span(1, 1, 0, 100), span(1, 2, 10, 30, parent=1), span(1, 3, 40, 50, parent=1),
             span(1, 4, 12, 20, parent=2)]
    a = attribute(spans, {})
    assert a[(1, 1)].self_ns == 70 * MS
    assert a[(1, 2)].self_ns == 12 * MS
    assert a[(1, 4)].self_ns == 8 * MS
    assert a[(1, 1)].root and not a[(1, 2)].root
    assert sum(x.weight * x.self_ns for x in a.values()) == 100 * MS


def test_self_time_overlapping_children_count_their_union_once():
    # Two threads' spans under one parent overlap for 10 ms.
    spans = [span(1, 1, 0, 100), span(1, 2, 10, 50, parent=1), span(1, 3, 40, 80, parent=1)]
    a = attribute(spans, {})
    assert a[(1, 1)].self_ns == 30 * MS
    total = sum(x.weight * x.self_ns for x in a.values())
    assert total == pytest.approx(100 * MS)


def test_self_time_adopts_cross_process_children_by_trace_id():
    spans = [
        span(1, 1, 0, 100, trace="t1", layer="pool"),
        span(1, 2, 0, 5, trace="t1", layer="fingerprint"),      # same trace, outside
        span(2, 1, 10, 90, trace="t1", layer="solver"),         # worker A restart
        span(3, 1, 20, 90, trace="t1", layer="solver"),         # worker B, in parallel
        span(2, 2, 20, 40, parent=1, trace="t1", layer="utility"),
        span(3, 5, 95, 99, trace="t2", layer="solver"),         # other trace: a root
    ]
    a = attribute(spans, {2: 1, 3: 1})
    assert a[(1, 1)].self_ns == 20 * MS
    assert not a[(2, 1)].root and not a[(3, 1)].root
    assert a[(3, 5)].root
    # Parallel restarts scale to the 80 ms they cover together.
    scale = 80 / 150
    assert a[(2, 1)].weight == pytest.approx(scale)
    assert a[(2, 2)].weight == pytest.approx(scale)
    pool_tree = sum(a[k].weight * a[k].self_ns for k in [(1, 1), (2, 1), (3, 1), (2, 2)])
    assert pool_tree == pytest.approx(100 * MS)


# -- percentiles ----------------------------------------------------------------


@pytest.mark.parametrize("n, tail", [
    (50, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, tail):
    assert supported_tail(n) == tail


def test_percentile_interpolates():
    assert layers.percentile([1, 2, 3, 4], 50.0) == 2.5
    assert layers.percentile([5.0], 99.0) == 5.0
    assert layers.percentile(list(range(101)), 90.0) == 90.0


def test_percentile_of_failed_requests_is_infinite_not_nan():
    inf = math.inf
    assert layers.percentile([1.0, 2.0, 3.0, inf], 50.0) == 2.5
    assert layers.percentile([1.0, 2.0, inf], 50.0) == 2.0   # exactly on a sample
    assert layers.percentile([1.0, 2.0, inf], 90.0) == inf
    assert layers.percentile([inf, inf], 50.0) == inf


# -- the load generator ---------------------------------------------------------


async def _stalling_server(stall_s: float):
    from repro.service.protocol import encode_message, ok_response

    first = asyncio.Event()

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            req = json.loads(line)
            if not first.is_set():
                first.set()
                await asyncio.sleep(stall_s)
            writer.write(encode_message(ok_response(req["id"], {"pong": True})))
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_measures_latency_from_the_due_time():
    from repro.service.client import PlannerClient

    async def scenario():
        server = await _stalling_server(0.3)
        port = server.sockets[0].getsockname()[1]
        client = PlannerClient("127.0.0.1", port)
        stream = [Request("ping", {}, due_s=0.01 * i) for i in range(10)]
        try:
            return await loadgen.run_open([client], stream, timeout_s=5.0)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    rec = asyncio.run(scenario())
    assert [s.index for s in rec.samples] == list(range(10))
    for s in rec.samples:
        due_offset_ms = 10.0 * s.index
        # Every request waits out the stall that began at t=0.
        assert s.latency_ms >= 300.0 - due_offset_ms - 2.0
        assert s.ok
    late = rec.samples[5]
    assert (late.sent - late.due) / 1e6 >= 300.0 - 50.0 - 2.0
    assert not late.free_at_due
    assert rec.samples[0].free_at_due


def test_closed_loop_serves_the_whole_stream_however_slow_the_server():
    from repro.service.client import PlannerClient

    async def scenario():
        server = await _stalling_server(0.5)
        port = server.sockets[0].getsockname()[1]
        clients = [PlannerClient("127.0.0.1", port) for _ in range(2)]
        stream = [Request("ping", {}) for _ in range(25)]
        try:
            return await loadgen.run_closed(clients, stream, timeout_s=5.0)
        finally:
            for c in clients:
                await c.close()
            server.close()
            await server.wait_closed()

    rec = asyncio.run(scenario())
    assert [s.index for s in rec.samples] == list(range(25))
    assert all(s.ok for s in rec.samples)
    assert rec.window_s >= 0.5


def test_recording_flags_bodies_that_differ_beyond_volatile_fields():
    rec = loadgen.Recording()
    body = {"fingerprint": "f", "utility": 1.0, "trace_id": "a", "solve_seconds": 1.0,
            "points": [{"solve_s": 0.1, "utility": 2.0}]}
    rec.add(loadgen.Sample(0, "plan", 0), body)
    rec.add(loadgen.Sample(1, "plan", 0), dict(body, trace_id="b", solve_seconds=9.0,
                                               points=[{"solve_s": 7.0, "utility": 2.0}]))
    assert rec.mismatches == []
    rec.add(loadgen.Sample(2, "plan", 0), dict(body, utility=1.5))
    assert len(rec.mismatches) == 1 and "request 2" in rec.mismatches[0]


# -- request streams ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(streams.SPECS))
def test_streams_are_byte_identical_per_seed(name):
    def dump(seed):
        plan = streams.build(name, seed, 2.0)
        return json.dumps([[r.op, r.params, r.due_s, r.session] for r in
                           plan.warmup + plan.per_shard + plan.sessions + plan.stream],
                          sort_keys=True)

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


def test_streams_have_a_fixed_length_per_window():
    plan = streams.build("session-churn", 1, 12.0)
    assert len(plan.stream) == 12 * streams.SESSION_CHURN_RATE
    assert all(r.due_s < 12.0 for r in plan.stream)
    mixed = streams.build("fleet-mixed", 1, 12.0)
    assert len(mixed.stream) == 12 * streams.FLEET_MIXED_RATE
    assert all(r.due_s < 12.0 for r in mixed.stream)
    assert len(streams.build("solve-cold", 1, 12.0).stream) == 12 * streams.SOLVE_COLD_PER_S
    assert len(streams.build("cache-hot", 1, 12.0).stream) == 12 * streams.CACHE_HOT_PER_S


def test_fleet_mixed_block_keeps_its_op_mix():
    block = streams.MIXED_BLOCK
    count = {op: block.count(op) for op in set(block)}
    assert count == {"plan": 6, "hit": 5, "whatif": 6, "session_delta": 2, "sweep": 1}
    assert len(streams.MIXED_BATCH) == 6 and block.index("sweep") in streams.MIXED_BATCH
    solves = [i for i, op in enumerate(block) if op == "plan"]
    gaps = [(b - a) % len(block) for a, b in zip(solves, solves[1:] + solves[:1])]
    assert min(gaps) >= 2


def test_session_deltas_only_remove_resident_jobs():
    plan = streams.build("fleet-mixed", 3, 30.0)
    resident = {r.session: {j["job_id"] for j in r.params["spec"]["jobs"]}
                for r in plan.sessions}
    for r in plan.stream:
        if r.op != "session_delta":
            continue
        for jid in r.params.get("remove", ()):
            assert jid in resident[r.session]
            resident[r.session].discard(jid)
        for job in r.params.get("add", {}).get("jobs", ()):
            assert job["job_id"] not in resident[r.session]
            resident[r.session].add(job["job_id"])


# -- the correctness gate -------------------------------------------------------


def test_check_fails_on_a_corrupted_answer():
    import random

    from repro.core.solver import solve_workload_request

    spec = streams.swim_workload(random.Random(1), 12, "tiny")
    req = Request("plan", {"spec": spec, "provider": "google", "n_vms": 25,
                           "iterations": 50, "seed": 3, "use_castpp": True, "restarts": 1,
                           "backend": "anneal", "replicas": 8})
    body = dict(solve_workload_request(spec, iterations=50, seed=3), fingerprint="fp")

    def failures(answer):
        rec = loadgen.Recording()
        rec.add(loadgen.Sample(0, "plan", 0, ok=True), answer)
        checker = Checker(seed=1)
        checker.plans([req], rec)
        checker.replay_solves([req], rec)
        return checker.failures

    assert failures(body) == []
    assert failures(dict(body, utility=body["utility"] * (1 + 1e-12)))
    placements = dict(body["plan"]["placements"])
    placements.pop(next(iter(placements)))
    assert failures(dict(body, plan=dict(body["plan"], placements=placements)))


def test_check_fails_when_a_request_failed():
    rec = loadgen.Recording()
    rec.add(loadgen.Sample(0, "ping", 0, ok=True), None)
    rec.add(loadgen.Sample(1, "ping", 0, error="timeout"), None)
    stream = [Request("ping", {}), Request("ping", {})]
    outcome = run_checks(1, stream, rec, [])
    assert outcome["failures"] == ["1 requests failed: timeout"]


# -- trace overhead ---------------------------------------------------------------


def _traced_pass(**overrides):
    fields = dict(
        topology="solo", ops=["plan"], latencies_ms=[1.0], send_ms=[1.0], queue_ms=[0.0],
        lag_ms=[0.0], op_latencies_ms={}, window_s=1.0, cpu_s=0.0, window=(0, 1),
        spans=[], roles={}, parents={}, outer={}, servers=[{}], pool_processes=1)
    fields.update(overrides)
    return layers.TracedPass(**fields)


def test_trace_overhead_is_traced_over_untraced_p50():
    metrics, details = layers.per_layer(_traced_pass(
        latencies_ms=[1.0, 1.1, 1.2], untraced_p50_ms=1.0))
    assert metrics["trace.overhead_ratio"] == pytest.approx(0.1)
    assert details["p50_ms"] == {"traced": 1.1, "untraced": 1.0}


# -- compare.py -------------------------------------------------------------------


def _result(workload, seed, **over):
    metrics = {"latency_p50_ms": 10.0, "latency_p90_ms": 50.0, "throughput_rps": 10.0,
               "setup_s": 2.0, "server_rss_mb": 100.0, "plan_quality": 1.05}
    metrics.update(over.pop("metrics", {}))
    units = {m["name"]: m["unit"] for m in json.loads(compare.BENCHMARK.read_text())["end_to_end"]}
    data = {"workload": workload, "seed": seed, "seconds": 10.0, "smoke": False, "trace": 0,
            "correct": True, "valid": True, "attempted": 100, "failed": 0,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    data.update(over)
    return data


def _write_set(path, tweak=lambda w, s: {}):
    path.mkdir()
    for w in streams.SPECS:
        for s in (1, 2, 3):
            (path / f"{w}-s{s}.json").write_text(json.dumps(_result(w, s, **tweak(w, s))))
    return path


def test_compare_passes_identical_sets(tmp_path):
    assert compare.compare(_write_set(tmp_path / "a"), _write_set(tmp_path / "b")) == 0


@pytest.mark.parametrize("tweak", [
    lambda w, s: {"failed": 1} if (w, s) == ("fleet-mixed", 2) else {},
    lambda w, s: {"correct": False} if (w, s) == ("cache-hot", 1) else {},
    lambda w, s: {"valid": False} if (w, s) == ("session-churn", 3) else {},
    lambda w, s: {"metrics": {"latency_p50_ms": math.inf}} if w == "solve-cold" else {},
    lambda w, s: {"metrics": {"latency_p90_ms": math.nan}} if w == "solve-cold" else {},
    # One seed's quality drops 1%: inside the median's bound, not the seed's.
    lambda w, s: {"metrics": {"plan_quality": 1.05 * 0.99}} if s == 2 else {},
], ids=["more-failed", "check-failed", "invalid", "inf-latency", "nan-latency",
        "quality-drop-on-one-seed"])
def test_compare_rejects(tmp_path, tweak):
    a = _write_set(tmp_path / "a")
    assert compare.compare(a, _write_set(tmp_path / "b", tweak)) == 1


def test_compare_refuses_sets_with_different_windows(tmp_path):
    a = _write_set(tmp_path / "a")
    b = _write_set(tmp_path / "b", lambda w, s: {"seconds": 5.0})
    assert compare.compare(a, b) == 2


# -- BENCHMARK.json agrees with the code ------------------------------------------


def test_benchmark_json_names_every_metric_the_run_computes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(streams.SPECS)
    metrics, _ = layers.per_layer(_traced_pass())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- one smoke pass through every workload -----------------------------------------


def test_smoke_all_workloads(tmp_path):
    started = time.monotonic()
    for name in streams.SPECS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--smoke", "--out", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert time.monotonic() - started <= 90.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "solve-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
