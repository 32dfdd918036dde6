"""The load generator: one asyncio loop, at most two client connections.

Both loops send the whole stream, so every run of a seed serves the
same requests; the window lasts from the first send to the last answer.
Closed loop: each connection sends the stream's next request as soon as
its previous one answered.  Open loop: requests
become due on the stream's schedule whatever the server is doing; a due
request waits for a free connection (and, for a session delta, for the
previous delta of its session to finish — a real client never reorders
its own writes).  Open-loop latency is measured from the due time, so a
stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.service.client import PlannerClient

from streams import Request

#: Result fields that legitimately differ between answers to one request.
VOLATILE_KEYS = frozenset((
    "trace_id", "cached", "solve_seconds", "measure_seconds", "sweep_seconds",
    "elapsed_s", "solve_s", "replan_s",
))


def stable_body(result: Any) -> Any:
    """``result`` without trace ids, cache flags and timings, at any depth."""
    if isinstance(result, dict):
        return {k: stable_body(v) for k, v in result.items() if k not in VOLATILE_KEYS}
    if isinstance(result, list):
        return [stable_body(v) for v in result]
    return result


@dataclass
class Sample:
    index: int              # position in the stream
    op: str
    due: int                # monotonic ns
    sent: int = 0
    done: int = 0
    ok: bool = False
    error: str = ""
    free_at_due: bool = False  # a connection was free when the request fell due
    fingerprint: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) / 1e6


class Recording:
    """What a window produced.

    Bodies are kept once per fingerprint (a cache-hot window answers
    thousands of requests with a few hundred bodies); every later answer
    with that fingerprint is compared against the kept one on arrival.
    Answers without one (session deltas) are checked through the
    session's final plan instead.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.bodies: Dict[str, Dict[str, Any]] = {}
        self._stable: Dict[str, Any] = {}
        self.first_index: Dict[str, int] = {}
        self.mismatches: List[str] = []
        self.start = 0
        self.end = 0
        self.cpu_s = 0.0

    def add(self, sample: Sample, result: Optional[Dict[str, Any]]) -> None:
        self.samples.append(sample)
        if result is None:
            return
        fp = result.get("fingerprint")
        if not isinstance(fp, str):
            return
        sample.fingerprint = fp
        kept = self._stable.get(fp)
        if kept is None:
            self.bodies[fp] = result
            self._stable[fp] = stable_body(result)
            self.first_index[fp] = sample.index
        elif stable_body(result) != kept:
            self.mismatches.append(
                f"request {sample.index}: body differs from request "
                f"{self.first_index[fp]} with the same fingerprint {fp[:12]}"
            )

    @property
    def window_s(self) -> float:
        return max(1e-9, (self.end - self.start) / 1e9)


async def _send(client: PlannerClient, req: Request, sample: Sample,
                rec: Recording, timeout_s: float) -> None:
    sample.sent = time.monotonic_ns()
    result = None
    try:
        response = await asyncio.wait_for(client.request(req.op, req.params), timeout_s)
        sample.ok = True
        result = response["result"]
    except asyncio.TimeoutError:
        sample.error = "timeout"
        await client.close()
    except Exception as exc:  # a failed request is counted, never fatal
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.done = time.monotonic_ns()
    rec.add(sample, result)


async def run_closed(clients: Sequence[PlannerClient], stream: Sequence[Request],
                     timeout_s: float) -> Recording:
    """Each client sends the stream's next request until the stream is done."""
    rec = Recording()
    cursor = iter(range(len(stream)))
    cpu0 = time.process_time()
    rec.start = time.monotonic_ns()

    async def worker(client: PlannerClient) -> None:
        for i in cursor:
            req = stream[i]
            sample = Sample(i, req.op, due=time.monotonic_ns(), free_at_due=True)
            await _send(client, req, sample, rec, timeout_s)

    await asyncio.gather(*(worker(c) for c in clients))
    rec.end = max([s.done for s in rec.samples] + [rec.start])
    rec.cpu_s = time.process_time() - cpu0
    rec.samples.sort(key=lambda s: s.index)
    return rec


async def run_open(clients: Sequence[PlannerClient], stream: Sequence[Request],
                   timeout_s: float) -> Recording:
    """Send each request when due over the first free client."""
    rec = Recording()
    free: "asyncio.Queue[PlannerClient]" = asyncio.Queue()
    for c in clients:
        free.put_nowait(c)
    session_locks: Dict[str, asyncio.Lock] = {}
    tasks = []
    cpu0 = time.process_time()
    rec.start = time.monotonic_ns()

    async def dispatch(i: int, req: Request, due: int) -> None:
        sample = Sample(i, req.op, due=due)
        lock = session_locks.setdefault(req.session, asyncio.Lock()) if req.session else None
        sample.free_at_due = not free.empty() and (lock is None or not lock.locked())
        if lock is not None:
            await lock.acquire()
        try:
            client = await free.get()
            try:
                await _send(client, req, sample, rec, timeout_s)
            finally:
                free.put_nowait(client)
        finally:
            if lock is not None:
                lock.release()

    for i, req in enumerate(stream):
        due = rec.start + int(req.due_s * 1e9)
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(dispatch(i, req, due)))
    await asyncio.gather(*tasks)
    rec.end = max([s.done for s in rec.samples] + [rec.start])
    rec.cpu_s = time.process_time() - cpu0
    rec.samples.sort(key=lambda s: s.index)
    return rec


async def run_concurrently(clients: Sequence[PlannerClient], requests: Sequence[Request],
                           timeout_s: float) -> None:
    """Warm-up helper: send ``requests`` over ``clients``; raise on failure."""
    cursor = iter(requests)

    async def worker(client: PlannerClient) -> None:
        for req in cursor:
            await asyncio.wait_for(client.request(req.op, req.params), timeout_s)

    await asyncio.gather(*(worker(c) for c in clients))
