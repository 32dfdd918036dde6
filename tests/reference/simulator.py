"""The seed simulator: per-transfer channels and the full-rescan dispatcher.

The product simulator runs virtual-time channels
(:class:`repro.simulator.storage_backend.SharedChannel`) under a ring
dispatcher with a node-local completion fast path
(:class:`repro.simulator.scheduler.PhaseRun`).  Both replaced simpler
code that is kept here, verbatim in behaviour, as the executable
specification they are checked against:

* :class:`ReferenceSharedChannel` advances every active transfer on
  each membership change (``O(k)``) and finds the next completion by a
  min scan (``O(k)``);
* :class:`ReferencePhaseRun` rescans every node after each dispatch and
  after each completion.

:func:`reference_simulator` swaps both into the engine for the length
of a ``with`` block.  It also switches the simulation cache off: the
cache key names no simulator implementation, so a reference result must
never be stored in the cache nor served from it.  Reference runs are
serial and in-process.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator

from repro.errors import SimulationError
from repro.simulator import cluster as _cluster
from repro.simulator import engine as _engine
from repro.simulator.cache import CACHE_ENV
from repro.simulator.events import EventQueue
from repro.simulator.scheduler import PhaseRun

__all__ = [
    "ReferencePhaseRun",
    "ReferenceSharedChannel",
    "Transfer",
    "reference_simulator",
]

_EPS_MB = 1e-9


@dataclass
class Transfer:
    """One in-flight transfer on a reference channel."""

    __slots__ = ("transfer_id", "remaining_mb", "on_complete")

    transfer_id: int
    remaining_mb: float
    on_complete: Callable[[], None]


class ReferenceSharedChannel:
    """Processor-sharing bandwidth server — the reference implementation.

    Progress is advanced lazily on membership changes by bulk-
    decrementing every active transfer (``O(k)``), the next completion
    comes from a min scan over remaining sizes (``O(k)``), and stale
    completion predictions are invalidated by epoch counters.  Correct
    and simple, but ``O(n²)`` per phase of ``n`` concurrent transfers.
    Same constructor, public API and counters as the product channel.
    """

    def __init__(
        self,
        queue: EventQueue,
        bandwidth_mb_s: float,
        name: str = "channel",
        request_overhead_s: float = 0.0,
    ) -> None:
        if bandwidth_mb_s <= 0:
            raise SimulationError(f"{name}: non-positive bandwidth {bandwidth_mb_s}")
        if request_overhead_s < 0:
            raise SimulationError(f"{name}: negative request overhead")
        self._queue = queue
        self.bandwidth_mb_s = float(bandwidth_mb_s)
        self.name = name
        self.request_overhead_s = float(request_overhead_s)
        self._epoch = 0
        self.busy_mb = 0.0
        self.n_transfers = 0
        self._active: Dict[int, Transfer] = {}
        self._ids = itertools.count()
        self._last_update = queue.now

    def start_transfer(
        self,
        size_mb: float,
        on_complete: Callable[[], None],
        n_requests: int = 1,
    ) -> None:
        """Begin moving ``size_mb``, after ``n_requests`` setup overheads."""
        if size_mb < 0:
            raise SimulationError(f"{self.name}: negative transfer size {size_mb}")
        overhead = self.request_overhead_s * (n_requests if n_requests > 0 else 0)
        if overhead > 0:
            self._queue.schedule_after(
                overhead, lambda: self._enter(size_mb, on_complete)
            )
        else:
            self._enter(size_mb, on_complete)

    def _enter(self, size_mb: float, on_complete: Callable[[], None]) -> None:
        if size_mb <= _EPS_MB:
            self.n_transfers += 1
            on_complete()
            return
        self._advance()
        tid = next(self._ids)
        self._active[tid] = Transfer(tid, size_mb, on_complete)
        self._reschedule()

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently sharing the channel."""
        return len(self._active)

    def current_rate_mb_s(self) -> float:
        """Per-transfer rate right now (``B/k``), or ``B`` when idle."""
        return self.bandwidth_mb_s / max(1, self.active_transfers)

    def _advance(self) -> None:
        """Progress all active transfers up to the current time."""
        now = self._queue.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        rate = self.bandwidth_mb_s / len(self._active)
        moved = rate * elapsed
        for t in self._active.values():
            t.remaining_mb -= moved
            self.busy_mb += moved

    def _reschedule(self) -> None:
        """Schedule the next completion; invalidate older schedules."""
        self._epoch += 1
        if not self._active:
            return
        epoch = self._epoch
        min_remaining = min(t.remaining_mb for t in self._active.values())
        rate = self.bandwidth_mb_s / len(self._active)
        eta = max(0.0, min_remaining) / rate
        self._queue.schedule_after(eta, lambda: self._on_completion_event(epoch))

    def _on_completion_event(self, epoch: int) -> None:
        """Handle a (possibly stale) predicted completion."""
        if epoch != self._epoch:
            return  # membership changed since this was scheduled
        self._advance()
        finished = [t for t in self._active.values() if t.remaining_mb <= _EPS_MB]
        for t in finished:
            del self._active[t.transfer_id]
        self._reschedule()
        for t in finished:
            self.n_transfers += 1
            t.on_complete()


class ReferencePhaseRun(PhaseRun):
    """:class:`PhaseRun` under the seed dispatcher.

    The seed dispatcher rescans every node after each dispatch and
    re-runs that full scan after every task completion, resuming one
    node past where the last scan stopped: ``O(n_nodes × tasks)`` per
    phase.  Construction, slot bookkeeping and the deadlock check are
    the product's.
    """

    __slots__ = ("_rr_next",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rr_next = 0

    def _dispatch(self) -> None:
        n_nodes = self.cluster.n_nodes
        scanned = 0
        while (self._pending or self._pinned) and scanned < n_nodes:
            node = self.cluster.node(self._rr_next % n_nodes)
            self._rr_next += 1
            if self._slots_free(node) <= 0:
                scanned += 1
                continue
            local = self._pinned.get(node.node_id)
            if local:
                task = local.popleft()
                if not local:
                    del self._pinned[node.node_id]
            elif self._pending:
                task = self._pending.popleft()
            else:
                scanned += 1
                continue
            scanned = 0
            self._take_slot(node)
            task(node, lambda n=node: self._on_task_done(n))

    def _on_task_done(self, node) -> None:
        self._release_slot(node)
        self._n_done += 1
        if self._n_done == self._n_total:
            self._on_phase_done()
            return
        if self._pending or self._pinned:
            self._dispatch()


@contextmanager
def reference_simulator() -> Iterator[None]:
    """Run the engine on the seed channel and dispatcher, cache off.

    Patches ``repro.simulator.cluster.SharedChannel`` and
    ``repro.simulator.engine.PhaseRun`` and sets ``REPRO_SIM_CACHE=0``;
    all three are restored on exit.  Not thread-safe, and a worker
    pool's processes need not see the patches: keep reference runs
    serial and in-process.
    """
    saved = (_cluster.SharedChannel, _engine.PhaseRun, os.environ.get(CACHE_ENV))
    _cluster.SharedChannel = ReferenceSharedChannel
    _engine.PhaseRun = ReferencePhaseRun
    os.environ[CACHE_ENV] = "0"
    try:
        yield
    finally:
        _cluster.SharedChannel, _engine.PhaseRun, cache = saved
        if cache is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = cache
