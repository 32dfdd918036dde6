"""Slot-based FIFO phase scheduler (Hadoop-1 style).

A MapReduce phase is a bag of identical-shape tasks executed under
per-node slot limits.  :class:`PhaseRun` dispatches tasks to nodes
round-robin as slots free up — the wave structure of Eq. 1 emerges
naturally (``ceil(tasks/slots)`` waves), but unlike the analytical
model, waves here *overlap raggedly*: a node whose tasks finish early
starts its next wave immediately, and stragglers on slow tiers hold the
phase open (the Fig. 5 effect).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Sequence

from ..errors import SimulationError
from .cluster import SimCluster, SimNode

__all__ = ["PhaseRun", "TaskBody"]

#: A task body: given its node and a completion callback, drive the
#: task through its I/O + compute states on the event queue.
TaskBody = Callable[[SimNode, Callable[[], None]], None]


class PhaseRun:
    """Run one phase's tasks under slot constraints, then fire a callback.

    Parameters
    ----------
    cluster:
        Target cluster.
    kind:
        ``"map"`` or ``"reduce"`` — selects which slot pool is used.
    tasks:
        Task bodies in submission order (FIFO).
    on_phase_done:
        Fired once, when the last task completes.
    pins:
        Optional per-task node pin (data-local map tasks); ``None``
        entries run on any node.
    """

    __slots__ = (
        "cluster", "kind", "_pending", "_pinned", "_n_total", "_n_done",
        "_on_phase_done", "_started",
    )

    def __init__(
        self,
        cluster: SimCluster,
        kind: str,
        tasks: Sequence[TaskBody],
        on_phase_done: Callable[[], None],
        pins: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        if kind not in ("map", "reduce"):
            raise SimulationError(f"unknown phase kind: {kind!r}")
        self.cluster = cluster
        self.kind = kind
        if pins is not None and len(pins) != len(tasks):
            raise SimulationError(
                f"{len(pins)} pins for {len(tasks)} tasks"
            )
        self._pending: Deque[TaskBody] = deque()
        self._pinned: Dict[int, Deque[TaskBody]] = {}
        for i, task in enumerate(tasks):
            pin = pins[i] if pins is not None else None
            if pin is None:
                self._pending.append(task)
            else:
                if not 0 <= pin < cluster.n_nodes:
                    raise SimulationError(f"pin {pin} out of range")
                self._pinned.setdefault(pin, deque()).append(task)
        self._n_total = len(tasks)
        self._n_done = 0
        self._on_phase_done = on_phase_done
        self._started = False

    # -- slot bookkeeping --------------------------------------------------------

    def _slots_free(self, node: SimNode) -> int:
        return node.map_slots_free if self.kind == "map" else node.reduce_slots_free

    def _take_slot(self, node: SimNode) -> None:
        if self.kind == "map":
            node.map_slots_free -= 1
        else:
            node.reduce_slots_free -= 1

    def _release_slot(self, node: SimNode) -> None:
        if self.kind == "map":
            node.map_slots_free += 1
        else:
            node.reduce_slots_free += 1

    # -- dispatch ------------------------------------------------------------------

    def start(self) -> None:
        """Begin dispatching (idempotent; empty phases complete at once)."""
        if self._started:
            raise SimulationError("PhaseRun.start() called twice")
        self._started = True
        if self._n_total == 0:
            self.cluster.queue.schedule_after(0.0, self._on_phase_done)
            return
        self._dispatch()
        if self._n_done < self._n_total and not self._any_runnable():
            raise SimulationError("phase deadlocked: pinned tasks cannot start")

    def _dispatch(self) -> None:
        """Fill free slots round-robin from node 0 until tasks or slots
        run out (once, from :meth:`start`; completions refill through
        the node-local path of :meth:`_on_task_done`).

        Data-local (pinned) tasks only run on their node — Hadoop's
        locality-preferring placement; unpinned tasks take any slot.

        A node that can't take a task right now (slots full, or slots
        free but nothing dispatchable to it) stays that way for the
        rest of this pass — task bodies always defer through the event
        queue, so no slot frees and no task appears mid-dispatch.  Each
        node is therefore visited on a ring it drops off permanently on
        failure, one slot filled per visit (breadth-first, matching the
        wave structure), for O(n_nodes + dispatched) per pass instead
        of a full rescan after every successful dispatch.  The seed
        full-rescan dispatcher lives on in ``tests/reference/``, which
        checks that both pick the same node and start time per task.
        """
        nodes = self.cluster.nodes
        ring: Deque[int] = deque(range(len(nodes)))
        while ring and (self._pending or self._pinned):
            idx = ring.popleft()
            node = nodes[idx]
            if self._slots_free(node) <= 0:
                continue
            local = self._pinned.get(node.node_id)
            if local:
                task = local.popleft()
                if not local:
                    del self._pinned[node.node_id]
            elif self._pending:
                task = self._pending.popleft()
            else:
                continue
            ring.append(idx)
            self._take_slot(node)
            task(node, lambda n=node: self._on_task_done(n))

    def _on_task_done(self, node: SimNode) -> None:
        self._release_slot(node)
        self._n_done += 1
        if self._n_done == self._n_total:
            self._on_phase_done()
            return
        # Node-local fast path.  Every full dispatch pass ends with the
        # invariant "a node with free slots has nothing dispatchable to
        # it" (it failed its last ring visit), tasks are never added
        # after construction, and slots only free right here — so a
        # completion can unblock work on *this* node alone, and at most
        # one task (a node holding spare slots had, and therefore still
        # has, nothing to run).  Dispatching locally preserves the
        # invariant and skips the O(n_nodes) ring rebuild per
        # completion.
        local = self._pinned.get(node.node_id)
        if local:
            task = local.popleft()
            if not local:
                del self._pinned[node.node_id]
        elif self._pending:
            task = self._pending.popleft()
        else:
            return
        self._take_slot(node)
        task(node, lambda n=node: self._on_task_done(n))

    def _any_runnable(self) -> bool:
        """Whether at least one task is running or dispatchable."""
        total_free = sum(
            self._slots_free(n) for n in self.cluster.nodes
        )
        running = self._n_total - self._n_done - len(self._pending) - sum(
            len(q) for q in self._pinned.values()
        )
        return running > 0 or total_free > 0

    @property
    def progress(self) -> float:
        """Fraction of tasks completed (diagnostics)."""
        return self._n_done / self._n_total if self._n_total else 1.0
