"""The shared op-serving core, probed over the raw wire.

A :class:`PlannerServer` and a :class:`FleetRouter` run the same
connection loop and op table, so every probe here runs against both.
"""

import asyncio
import contextlib
import json

import pytest

from repro.errors import ProtocolError
from repro.fleet import FleetRouter
from repro.service import PlannerClient, PlannerServer, SolverPool, protocol
from repro.service.protocol import CACHED, MAX_LINE_BYTES, OpSpec, read_message
from repro.workloads.io import workload_to_dict
from repro.workloads.swim import synthesize_small_workload

ROLES = ("server", "router")


def small_spec(n_jobs=4):
    return workload_to_dict(synthesize_small_workload(n_jobs=n_jobs))


@contextlib.asynccontextmanager
async def serving(role, solver_fn=None):
    """Yield ``(front, shard)``: the process clients talk to, and the
    planner behind it (the same object for a solo daemon)."""
    shard = PlannerServer(
        pool=SolverPool(processes=0, restarts=1), solver_fn=solver_fn
    )
    servers = [shard]
    if role == "router":
        front = FleetRouter(health_interval_s=0, default_restarts=1)
        servers.append(front)
    else:
        front = shard
    tasks = []
    try:
        for server in servers:
            await server.start()
            tasks.append(asyncio.create_task(server.serve_forever()))
        if front is not shard:
            front.add_shard("s0", *shard.address)
        yield front, shard
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for server in reversed(servers):
            await server.stop()


def line(**envelope):
    return (json.dumps(dict({"v": 1, "id": "probe"}, **envelope)) + "\n").encode()


def plan_line(**params):
    params = dict({"spec": small_spec(), "n_vms": 5, "iterations": 10}, **params)
    return line(op="plan", params=params)


def sweep_line(**params):
    return line(op="sweep", params=params)


PROBES = {
    "garbage": (b"{this is not json\n", "ProtocolError"),
    "bad_version": (line(v=99, op="ping"), "ProtocolError"),
    "unknown_op": (line(op="explode"), "ProtocolError"),
    "plan_empty_params": (line(op="plan", params={}), "ProtocolError"),
    "plan_bad_provider": (plan_line(provider="digitalocean"), "CatalogError"),
    "plan_zero_restarts": (plan_line(restarts=0), "ProtocolError"),
    "sweep_no_specs": (sweep_line(), "ProtocolError"),
    "sweep_empty_providers": (
        sweep_line(specs=[small_spec()], providers=[]), "ProtocolError"
    ),
    "sweep_zero_reps": (
        sweep_line(specs=[small_spec()], reps=0, n_vms=5, iterations=10),
        "WorkloadError",
    ),
    "over_long_line": (b"x" * (MAX_LINE_BYTES + 1) + b"\n", "ProtocolError"),
    # Warm-schedule knobs are solver constants, not session config.
    "session_open_removed_config_key": (
        line(op="session_open", params={"config": {"warm_temp_init": 0.1}}),
        "ProtocolError",
    ),
}


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_gets_typed_error_and_connection_survives(role, probe):
    payload, error_type = PROBES[probe]

    async def scenario():
        async with serving(role) as (front, _):
            reader, writer = await asyncio.open_connection(*front.address)
            try:
                writer.write(payload)
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == error_type
                writer.write(line(op="ping"))
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong["ok"] is True and pong["result"]["pong"] is True
            finally:
                writer.close()
                await writer.wait_closed()

    asyncio.run(scenario())


def test_over_long_line_is_skipped_whole():
    async def scenario():
        reader = asyncio.StreamReader(limit=64)
        # Newline already buffered when the limit trips...
        reader.feed_data(b"y" * 200 + b"\n" + b"z" * 200)
        with pytest.raises(ProtocolError, match="exceeds"):
            await read_message(reader)
        # ... and still in flight.
        pending = asyncio.ensure_future(read_message(reader))
        await asyncio.sleep(0.01)
        reader.feed_data(b"z" * 100 + b"\nnext\n")
        reader.feed_eof()
        with pytest.raises(ProtocolError, match="exceeds"):
            await pending
        assert await read_message(reader) == b"next\n"
        assert await read_message(reader) is None

    asyncio.run(scenario())


@pytest.mark.parametrize("role", ROLES)
def test_a_new_cached_op_is_one_table_entry(role, monkeypatch):
    """Server and router fingerprint, cache and single-flight an op
    that exists only as a table entry."""
    fingerprinted = []
    solved = []

    def normalize(op, params):
        return {"op": op, "n": int(params["n"]), "tenant": "default"}

    def fingerprint(op, normalized):
        fingerprinted.append(op)
        return f"echo-{normalized['n']}"

    async def solver(request):
        solved.append(request)
        await asyncio.sleep(0.05)
        return {"echo": request["n"]}

    monkeypatch.setitem(
        protocol.OP_TABLE, "echo", OpSpec(CACHED, normalize, fingerprint)
    )

    async def scenario():
        async with serving(role, solver_fn=solver) as (front, shard):
            clients = [PlannerClient(*front.address) for _ in range(3)]
            try:
                burst = await asyncio.gather(
                    *(c.request("echo", {"n": 7}) for c in clients)
                )
                again = await clients[0].request("echo", {"n": 7})
            finally:
                for client in clients:
                    await client.close()
            assert len(solved) == 1 and solved[0]["n"] == 7
            assert [r["result"]["echo"] for r in burst] == [7, 7, 7]
            assert {r["result"]["fingerprint"] for r in burst} == {"echo-7"}
            assert front.counters["dedup_joined"] == 2
            assert again["cached"] is True
            assert front.cache.stats()["hits"] == 1
            # Every request is fingerprinted at the front; a router's
            # single forward is fingerprinted once more by its shard.
            assert len(fingerprinted) == 4 + (front is not shard)

    asyncio.run(scenario())


def _non_finite_line(op, value):
    """A ``plan`` or ``whatif`` whose first job has ``input_gb = value``
    (Python's JSON writes NaN/Infinity, and the wire decoder reads them)."""
    spec = small_spec()
    spec["jobs"][0]["input_gb"] = value
    if op == "plan":
        return plan_line(spec=spec)
    return line(op="whatif", params={"spec": spec, "tier": "persSSD", "n_vms": 5})


def _nan_capacity_line():
    """A ``whatif`` whose explicit plan provisions NaN GB for one job."""
    spec = small_spec()
    placements = {
        j["job_id"]: {"tier": "persSSD", "capacity_gb": 1e4} for j in spec["jobs"]
    }
    placements[spec["jobs"][0]["job_id"]]["capacity_gb"] = float("nan")
    plan = {"version": 1, "kind": "tiering-plan", "placements": placements}
    return line(op="whatif", params={"spec": spec, "plan": plan, "n_vms": 5})


NON_FINITE_PROBES = {
    **{
        f"{op}_{name}_input": (_non_finite_line(op, value), "WorkloadError")
        for op in ("plan", "whatif")
        for name, value in (
            ("nan", float("nan")), ("inf", float("inf")), ("neg_inf", float("-inf")),
        )
    },
    "whatif_nan_plan_capacity": (_nan_capacity_line(), "PlanError"),
}


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("probe", sorted(NON_FINITE_PROBES))
def test_non_finite_sizes_are_typed_errors(role, probe):
    """A NaN or infinite size is the client's error, not the server's:
    typed, the connection survives, and no internal error is counted."""
    payload, error_type = NON_FINITE_PROBES[probe]

    async def scenario():
        async with serving(role) as (front, shard):
            reader, writer = await asyncio.open_connection(*front.address)
            try:
                writer.write(payload)
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == error_type
                writer.write(line(op="ping"))
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()
            for server in {front, shard}:
                assert server.counters.get(server.INTERNAL_ERROR_EVENT, 0) == 0

    asyncio.run(scenario())
