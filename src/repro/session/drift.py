"""Workload-mix drift detection for streaming planning sessions.

A warm-started re-plan refines the incumbent plan with a tiny annealing
budget, which is exactly right while the resident workload looks like
the one the incumbent was solved for.  When the *mix* shifts — a phase
boundary in the sense of :mod:`repro.core.dynamic`, where one
application class drains and another floods in — the incumbent is a
poor starting point and a short refinement can be trapped in its basin.

The detector keeps a **fingerprint** of the resident workload: each
application's share of total input bytes.  After every delta it
compares the current fingerprint against the *anchor* fingerprint
captured at the last full solve, using total-variation distance
(half the L1 distance between the two distributions, in ``[0, 1]``).
Crossing :attr:`DriftDetector.threshold` escalates the next re-plan
from warm to full; a sliding window of recent distances is kept for
reporting (``recent_max`` shows fast drift even when the latest delta
happens to swing back).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Tuple

__all__ = ["workload_mix", "mix_distance", "DriftDetector"]


def workload_mix(jobs: Iterable) -> Dict[str, float]:
    """Fingerprint: normalized input-GB share per application class."""
    totals: Dict[str, float] = {}
    total = 0.0
    for job in jobs:
        gb = job.input_gb
        totals[job.app.name] = totals.get(job.app.name, 0.0) + gb
        total += gb
    if total <= 0.0:
        return {}
    return {app: gb / total for app, gb in totals.items()}


def mix_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Total-variation distance between two mixes, in ``[0, 1]``.

    0 means identical application mixes; 1 means disjoint ones (a full
    phase swap à la the fig. 8 phased workloads).
    """
    dist = 0.0
    for app in sorted(set(a) | set(b)):
        dist += abs(a.get(app, 0.0) - b.get(app, 0.0))
    return 0.5 * dist


class DriftDetector:
    """Escalates warm re-plans to full re-solves when the mix drifts.

    ``observe`` is called with the resident jobs after each delta and
    returns ``(distance, escalate)``; ``rearm`` re-anchors after a full
    solve so gradual drift is measured against the plan actually in
    force, not against session open.
    """

    def __init__(self, threshold: float = 0.25, window: int = 8) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"drift threshold must be in (0, 1]: {threshold}")
        if window < 1:
            raise ValueError(f"drift window must be >= 1: {window}")
        self.threshold = threshold
        self.window = window
        self._anchor: Dict[str, float] = {}
        self._recent: Deque[float] = deque(maxlen=window)
        self.escalations = 0

    def rearm(self, jobs: Iterable) -> None:
        """Re-anchor on the mix the incumbent plan was solved for."""
        self._anchor = workload_mix(jobs)
        self._recent.clear()

    def observe(self, jobs: Iterable) -> Tuple[float, bool]:
        """Distance of the current mix from the anchor, and the verdict."""
        dist = mix_distance(self._anchor, workload_mix(jobs))
        self._recent.append(dist)
        escalate = dist > self.threshold
        if escalate:
            self.escalations += 1
        return dist, escalate

    @property
    def recent_max(self) -> float:
        """Largest distance seen in the sliding window (0 when empty)."""
        return max(self._recent) if self._recent else 0.0
