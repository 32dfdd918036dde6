"""Simulated storage channels with fair bandwidth sharing.

Each node-attached volume stack (an ephSSD array, a persSSD volume, the
node's slice of objStore egress) is a shared channel: a
processor-sharing bandwidth server.  ``k`` concurrent transfers each
progress at ``B/k`` MB/s, re-divided instantaneously whenever a
transfer starts or finishes — the standard fluid model for storage fair
sharing, and the mechanism behind both tier stragglers (Fig. 5) and
wave-level contention the analytical Eq. 1 model can only approximate
(which is precisely what gives the Fig. 8 prediction error its ~8 %
magnitude).

Object-store transfers additionally pay a fixed per-request setup
latency before entering the channel (GCS-connector behaviour, §3.1.2).

The channel is a processor-sharing **virtual clock**.  Virtual time
advances at ``B/k`` MB per simulated second, a transfer of ``S`` MB
entering at virtual time ``V`` gets a service tag ``V + S``, and
completions pop from a heap ordered by tag.  Membership changes cost
``O(log k)`` instead of an ``O(k)`` bulk decrement + ``O(k)`` min scan,
and an identical-size cohort (a wave of equal map tasks entering
together) shares one tag value and completes in a single event.
``tests/reference/`` keeps the original per-transfer bulk-decrement
channel as the executable specification; ``tests/`` and
``benchmarks/bench_sim_throughput.py`` gate on the two agreeing to
≤1e-9 relative on every completion time and phase timing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from ..errors import SimulationError
from .events import EventQueue

__all__ = ["SharedChannel"]

_EPS_MB = 1e-9


class SharedChannel:
    """Processor-sharing bandwidth server on a virtual service clock.

    Invariant: the channel's virtual time ``V`` advances at ``B/k`` MB
    per simulated second while ``k`` transfers are active, so every
    active transfer receives exactly ``dV`` MB over any interval.  A
    transfer of size ``S`` admitted at virtual time ``V₀`` therefore
    completes when ``V`` reaches its service tag ``V₀ + S`` — and
    ``tag − V`` *is* its remaining MB at any instant.  Completions pop
    from a heap keyed by ``(tag, seq)``: membership changes cost
    ``O(log k)``, equal-size cohorts share a tag and drain in one
    event, and FIFO order within a cohort comes from the seq counter.

    Parameters
    ----------
    queue:
        The owning simulation's event queue.
    bandwidth_mb_s:
        Aggregate channel bandwidth.
    name:
        Diagnostic label (``"node3/persSSD"``).
    request_overhead_s:
        Fixed setup latency charged per transfer *before* it begins to
        consume bandwidth (object stores; 0 for block devices).
    """

    __slots__ = (
        "_queue",
        "bandwidth_mb_s",
        "name",
        "request_overhead_s",
        "_epoch",
        "busy_mb",
        "n_transfers",
        "_heap",
        "_ids",
        "_vt",
        "_n_active",
        "_last_update",
        "_wake_at",
    )

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
        #: Total MB moved through this channel (metrics).
        self.busy_mb = 0.0
        #: Total transfers completed (metrics).
        self.n_transfers = 0
        # (service tag, seq, completion callback), heap-ordered.
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._ids = itertools.count()
        self._vt = 0.0
        self._n_active = 0
        self._last_update = queue.now
        # Fire time of the single valid outstanding wake event (None
        # when nothing is scheduled).  See _rearm.
        self._wake_at: float | None = None

    # -- public API --------------------------------------------------------

    def start_transfer(
        self,
        size_mb: float,
        on_complete: Callable[[], None],
        n_requests: int = 1,
    ) -> None:
        """Begin moving ``size_mb`` through the channel.

        ``on_complete`` fires when the last byte lands.  ``n_requests``
        multiplies the per-request setup overhead (a reduce task
        writing 64 small objects pays 64 setups, serialized before the
        data flows — the dominant effect for small files).
        """
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
        self._admit(size_mb, on_complete)

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently sharing the channel."""
        return self._n_active

    def current_rate_mb_s(self) -> float:
        """Per-transfer rate right now (``B/k``), or ``B`` when idle."""
        return self.bandwidth_mb_s / max(1, self._n_active)

    # -- fluid-model internals ----------------------------------------------

    def _admit(self, size_mb: float, on_complete: Callable[[], None]) -> None:
        self._advance()
        heapq.heappush(self._heap, (self._vt + size_mb, next(self._ids), on_complete))
        self._n_active += 1
        self._rearm()

    def _advance(self) -> None:
        """Advance the virtual clock up to the current time."""
        now = self._queue.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._n_active:
            return
        self._vt += self.bandwidth_mb_s / self._n_active * elapsed
        self.busy_mb += self.bandwidth_mb_s * elapsed

    def _rearm(self) -> None:
        """Keep one wake event scheduled at or before the head's finish.

        A wake that fires *early* (the head was pushed back by later
        admissions) is harmless: it pops nothing and re-arms at the
        corrected time.  So an outstanding wake only has to be replaced
        when the head's predicted finish moves *earlier* (a small
        transfer admitted under a long one).  Admission bursts — a wave
        of equal map tasks — therefore schedule one wake plus one
        correction instead of one event per admission; with the old
        always-invalidate scheme ~85 % of fired events were stale.
        """
        if not self._heap:
            self._wake_at = None
            return
        rate = self.bandwidth_mb_s / self._n_active
        lead = self._heap[0][0] - self._vt
        target = self._queue.now + (lead if lead > 0.0 else 0.0) / rate
        wake = self._wake_at
        if wake is not None and target >= wake:
            return  # the outstanding wake fires first and corrects
        self._epoch += 1
        self._wake_at = target
        epoch = self._epoch
        self._queue.schedule_at(target, lambda: self._on_wake(epoch))

    def _on_wake(self, epoch: int) -> None:
        """Pop every transfer whose service tag the clock has passed."""
        if epoch != self._epoch:
            return  # superseded by an earlier re-arm
        self._wake_at = None
        self._advance()
        finished: List[Tuple[float, int, Callable[[], None]]] = []
        while self._heap and self._heap[0][0] <= self._vt + _EPS_MB:
            finished.append(heapq.heappop(self._heap))
        self._n_active -= len(finished)
        self._rearm()
        for _tag, _seq, on_complete in finished:
            self.n_transfers += 1
            on_complete()

