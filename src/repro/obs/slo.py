"""SLO engine: declarative per-op objectives with burn-rate alerting.

The registry (:mod:`repro.obs.metrics`) records *what happened*; this
module decides *whether that is OK*.  An :class:`SLOEngine` holds a set
of :class:`Objective` definitions — availability (error-rate budget)
and latency (fraction of requests under a threshold) targets per
logical op — and evaluates them from successive registry snapshots
using the Google-SRE multi-window burn-rate recipe:

* **fast burn** — budget consumed at >= ``fast_burn``× the sustainable
  rate over *both* a short (5 m) and a long (1 h) window → ``page``;
* **slow burn** — >= ``slow_burn``× over both 30 m and 6 h windows →
  ``warning``;
* neither → ``ok``.

Requiring the short *and* the long window to burn together is what
makes the alert both fast (the short window resets quickly once the
bleeding stops) and unflappable (one bad request in a quiet minute
cannot page anyone).

The engine is **clock-agnostic**: it never calls ``time`` unless asked.
Pass ``clock=`` a callable for wall time, or drive :meth:`SLOEngine.observe`
with explicit timestamps for deterministic unit tests and simulated
time.  Snapshots of the cumulative per-op counters
(``cast_op_requests_total`` / ``cast_op_latency_seconds`` — recorded by
every serving surface's dispatch loop) accumulate in a bounded history;
windowed rates are deltas between the newest observation and the one
at the window boundary, clamped against counter resets exactly like
:func:`repro.obs.metrics.snapshot_delta`.

State transitions are fired to registered callbacks (the server hooks
``page`` entries to auto-write a flight-recorder debug bundle) and
counted in ``cast_slo_transitions_total``; the last report is published
as ``cast_slo_*`` gauges so the dashboard and any Prometheus scrape see
burn rates and states.

Fleet story: each shard evaluates its own engine; the router's ``slo``
op scrapes every healthy shard's report and :func:`rollup_reports`
combines them — per op, the fleet state is the **worst shard state**.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ObservabilityError
from .metrics import MetricsRegistry

__all__ = [
    "STATES",
    "Objective",
    "BurnPolicy",
    "SLOEngine",
    "Transition",
    "default_objectives",
    "worst_state",
    "rollup_reports",
]

#: Health states, ordered from best to worst.
STATES: Tuple[str, ...] = ("ok", "warning", "page")
_STATE_RANK = {state: i for i, state in enumerate(STATES)}

#: Metric names the engine reads from snapshots.  Both the planner
#: server and the fleet router record request outcomes and latencies
#: under these names (their registries are separate, so there is no
#: collision).
REQUESTS_METRIC = "cast_op_requests_total"
LATENCY_METRIC = "cast_op_latency_seconds"


def worst_state(states: Sequence[str]) -> str:
    """The worst (highest-severity) of ``states``; ``ok`` when empty."""
    worst = "ok"
    for state in states:
        if _STATE_RANK.get(state, 0) > _STATE_RANK[worst]:
            worst = state
    return worst


@dataclass(frozen=True)
class Objective:
    """One SLI target for one logical op.

    ``kind="availability"``: good events are requests that did not
    answer an error envelope; ``target`` is the minimum good fraction
    (0.99 → a 1% error budget).

    ``kind="latency"``: good events are requests completing in under
    ``threshold_s`` seconds; ``target`` is the minimum fraction under
    the threshold ("p95 < 2 s" ⇔ ``target=0.95, threshold_s=2.0``).

    ``ops`` lists the wire-op labels that aggregate into this logical
    op (``solve`` covers both ``plan`` and ``plan_workflow``).
    """

    name: str
    ops: Tuple[str, ...]
    kind: str = "availability"
    target: float = 0.99
    threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ObservabilityError(
                f"objective kind must be 'availability' or 'latency', "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ObservabilityError(
                f"objective target must be in (0, 1), got {self.target}"
            )
        if self.kind == "latency" and not self.threshold_s:
            raise ObservabilityError(
                f"latency objective {self.name!r} needs threshold_s"
            )

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-event fraction."""
        return 1.0 - self.target

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ops": list(self.ops),
            "kind": self.kind,
            "target": self.target,
            "threshold_s": self.threshold_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Objective":
        return cls(
            name=str(data["name"]),
            ops=tuple(str(op) for op in data["ops"]),
            kind=str(data.get("kind", "availability")),
            target=float(data.get("target", 0.99)),
            threshold_s=(
                float(data["threshold_s"])
                if data.get("threshold_s") is not None else None
            ),
        )


@dataclass(frozen=True)
class BurnPolicy:
    """Multi-window burn-rate thresholds (seconds / factors).

    Defaults are the SRE-workbook recommendation for a 30-day budget:
    page on 14.4× burn over 5 m ∧ 1 h, warn on 6× over 30 m ∧ 6 h.
    ``min_events`` suppresses alerts computed from fewer total events
    than this in the *short* window — raise it on low-traffic servers
    where a handful of failures is a datapoint, not an incident.
    """

    fast_short_s: float = 300.0
    fast_long_s: float = 3600.0
    fast_burn: float = 14.4
    slow_short_s: float = 1800.0
    slow_long_s: float = 21600.0
    slow_burn: float = 6.0
    min_events: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fast_short_s": self.fast_short_s,
            "fast_long_s": self.fast_long_s,
            "fast_burn": self.fast_burn,
            "slow_short_s": self.slow_short_s,
            "slow_long_s": self.slow_long_s,
            "slow_burn": self.slow_burn,
            "min_events": self.min_events,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BurnPolicy":
        return cls(**{k: type(getattr(cls, k))(v) for k, v in data.items()})

    @property
    def windows(self) -> Dict[str, float]:
        return {
            "fast_short": self.fast_short_s,
            "fast_long": self.fast_long_s,
            "slow_short": self.slow_short_s,
            "slow_long": self.slow_long_s,
        }


def default_objectives() -> Tuple[Objective, ...]:
    """The stock objectives for the four serving ops.

    Latency thresholds reflect the benchmarked shapes: solves are
    seconds of annealing, whatifs ride the vectorized fast path,
    session deltas are warm-start milliseconds, sweeps are whole grids.
    """
    return (
        Objective("solve", ("plan", "plan_workflow"),
                  kind="availability", target=0.99),
        Objective("solve", ("plan", "plan_workflow"),
                  kind="latency", target=0.95, threshold_s=30.0),
        Objective("whatif", ("whatif",), kind="availability", target=0.999),
        Objective("whatif", ("whatif",),
                  kind="latency", target=0.99, threshold_s=2.5),
        Objective("session_delta", ("session_delta",),
                  kind="availability", target=0.999),
        Objective("session_delta", ("session_delta",),
                  kind="latency", target=0.99, threshold_s=1.0),
        Objective("sweep", ("sweep",), kind="availability", target=0.99),
        Objective("sweep", ("sweep",),
                  kind="latency", target=0.95, threshold_s=120.0),
    )


@dataclass(frozen=True)
class Transition:
    """One state-machine edge, as handed to transition callbacks."""

    op: str
    old: str
    new: str
    at: float

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "old": self.old, "new": self.new, "at": self.at}


@dataclass
class _OpCounts:
    """Cumulative per-wire-op tallies extracted from one snapshot."""

    total: float = 0.0
    errors: float = 0.0
    bounds: Tuple[float, ...] = ()
    counts: List[float] = field(default_factory=list)
    count: float = 0.0


def _extract(snapshot: Mapping[str, Any]) -> Dict[str, _OpCounts]:
    """Per-wire-op cumulative counters from one registry snapshot."""
    out: Dict[str, _OpCounts] = {}

    def entry(op: str) -> _OpCounts:
        oc = out.get(op)
        if oc is None:
            oc = out[op] = _OpCounts()
        return oc

    requests = snapshot.get(REQUESTS_METRIC, {})
    for sample in requests.get("values", ()):
        labels = sample.get("labels", {})
        op = labels.get("op")
        if op is None:
            continue
        oc = entry(op)
        value = float(sample.get("value", 0.0))
        oc.total += value
        if labels.get("outcome") == "error":
            oc.errors += value

    latency = snapshot.get(LATENCY_METRIC, {})
    bounds = tuple(float(b) for b in latency.get("buckets", ()))
    for sample in latency.get("values", ()):
        op = sample.get("labels", {}).get("op")
        if op is None:
            continue
        value = sample.get("value", {})
        oc = entry(op)
        oc.bounds = bounds
        oc.counts = [float(c) for c in value.get("counts", ())]
        oc.count = float(value.get("count", 0.0))
    return out


def _clamped_delta(now: float, base: float) -> float:
    """``now - base`` with counter-reset clamping (never negative)."""
    diff = now - base
    if diff < 0:
        return now
    return diff


class SLOEngine:
    """Evaluate objectives against a stream of registry snapshots.

    Thread-safety: the engine is driven from one place (the server's
    event loop or a single test); it holds no locks of its own.  State
    edges count into ``registry`` (a private one when omitted).
    """

    def __init__(
        self,
        objectives: Optional[Sequence[Objective]] = None,
        *,
        policy: Optional[BurnPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        max_history: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.objectives: Tuple[Objective, ...] = tuple(
            objectives if objectives is not None else default_objectives()
        )
        self.policy = policy or BurnPolicy()
        self._clock = clock or time.monotonic
        self._history: Deque[Tuple[float, Dict[str, _OpCounts]]] = deque(
            maxlen=max_history
        )
        ops = sorted({obj.name for obj in self.objectives})
        self._states: Dict[str, str] = {op: "ok" for op in ops}
        self._since: Dict[str, float] = {}
        self._transition_log: Deque[Transition] = deque(maxlen=64)
        self._callbacks: List[Callable[[Transition], None]] = []
        self._last_report: Optional[Dict[str, Any]] = None
        registry = registry if registry is not None else MetricsRegistry()
        self._transitions = registry.counter(
            "cast_slo_transitions_total",
            "SLO state-machine edges by op and destination state",
            labelnames=("op", "to"),
        )
        registry.register_collector("slo", self._collect)

    # -- wiring --------------------------------------------------------------

    def on_transition(self, fn: Callable[[Transition], None]) -> None:
        """Register a callback fired synchronously on every state edge."""
        self._callbacks.append(fn)

    def _collect(self, reg: MetricsRegistry) -> None:
        """Publish the last report as ``cast_slo_*`` gauges.

        Runs at exposition time from the most recent evaluation and
        never evaluates, so a registry snapshot cannot recurse into the
        engine that is snapshotting it.
        """
        state_gauge = reg.gauge(
            "cast_slo_state",
            "SLO state per op (0 ok, 1 warning, 2 page)",
            labelnames=("op",),
        )
        burn_gauge = reg.gauge(
            "cast_slo_burn_rate",
            "Error-budget burn rate per op and window "
            "(1.0 = exactly sustainable)",
            labelnames=("op", "window"),
        )
        budget_gauge = reg.gauge(
            "cast_slo_error_budget_remaining",
            "Fraction of the error budget left over the slow-long window",
            labelnames=("op",),
        )
        report = self._last_report
        if report is None:
            return
        for op, entry in report["ops"].items():
            state_gauge.set(_STATE_RANK[entry["state"]], op=op)
            for window, burn in entry["burn"].items():
                burn_gauge.set(burn, op=op, window=window)
            budget_gauge.set(entry["budget_remaining"], op=op)

    # -- observation ---------------------------------------------------------

    def observe(
        self, snapshot: Mapping[str, Any], t: Optional[float] = None
    ) -> float:
        """Append one registry snapshot to the history; returns its time."""
        t = self._clock() if t is None else float(t)
        if self._history and t < self._history[-1][0]:
            raise ObservabilityError(
                f"SLO observations must be monotonic: {t} < "
                f"{self._history[-1][0]}"
            )
        self._history.append((t, _extract(snapshot)))
        self._prune(t)
        return t

    def _prune(self, now: float) -> None:
        """Drop history older than the longest window, keeping one
        entry beyond the boundary so the window delta stays exact."""
        horizon = now - max(self.policy.windows.values())
        while len(self._history) >= 2 and self._history[1][0] <= horizon:
            self._history.popleft()

    def _at_or_before(self, t: float) -> Dict[str, _OpCounts]:
        """The observation at the window boundary (oldest when the
        history is shorter than the window — a partial window)."""
        base = self._history[0][1]
        for obs_t, data in self._history:
            if obs_t <= t:
                base = data
            else:
                break
        return base

    # -- evaluation ----------------------------------------------------------

    def _bad_fraction(
        self,
        objective: Objective,
        now_data: Mapping[str, _OpCounts],
        base_data: Mapping[str, _OpCounts],
    ) -> Tuple[float, float]:
        """(bad_fraction, total_events) for one objective over a window."""
        total = 0.0
        bad = 0.0
        for op in objective.ops:
            now = now_data.get(op)
            if now is None:
                continue
            base = base_data.get(op, _OpCounts())
            if objective.kind == "availability":
                n = _clamped_delta(now.total, base.total)
                e = _clamped_delta(now.errors, base.errors)
                total += n
                bad += min(e, n)
            else:
                count = _clamped_delta(now.count, base.count)
                if count <= 0 or not now.bounds:
                    continue
                # Good = observations in buckets at or under the
                # threshold (conservative when the threshold falls
                # between bucket bounds).
                k = bisect.bisect_right(now.bounds, objective.threshold_s)
                base_counts = base.counts or [0.0] * len(now.counts)
                if len(base_counts) != len(now.counts):
                    base_counts = [0.0] * len(now.counts)
                deltas = [
                    _clamped_delta(a, b)
                    for a, b in zip(now.counts, base_counts)
                ]
                if sum(deltas) < count:  # reset clamped unevenly: rescale
                    count = sum(deltas)
                good = sum(deltas[:k])
                total += count
                bad += max(0.0, count - good)
        if total <= 0:
            return 0.0, 0.0
        return bad / total, total

    def evaluate(
        self,
        snapshot: Optional[Mapping[str, Any]] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        t: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Observe (optionally) and re-run the state machine.

        Pass ``registry`` (or a pre-taken ``snapshot``) to fold a new
        observation in first; with neither, re-evaluates on the
        existing history.  Returns the JSON-able report and fires
        transition callbacks for every op whose state changed.
        """
        if registry is not None:
            snapshot = registry.snapshot()
        if snapshot is not None:
            t = self.observe(snapshot, t)
        if not self._history:
            raise ObservabilityError("SLOEngine.evaluate before any observe")
        now_t, now_data = self._history[-1]
        if t is None:
            t = now_t

        policy = self.policy
        op_reports: Dict[str, Dict[str, Any]] = {}
        transitions: List[Transition] = []
        window_bases = {
            name: self._at_or_before(now_t - seconds)
            for name, seconds in policy.windows.items()
        }

        by_op: Dict[str, List[Dict[str, Any]]] = {}
        for objective in self.objectives:
            burn: Dict[str, float] = {}
            frac: Dict[str, float] = {}
            events: Dict[str, float] = {}
            for window, base_data in window_bases.items():
                bad_frac, total = self._bad_fraction(
                    objective, now_data, base_data
                )
                frac[window] = bad_frac
                events[window] = total
                burn[window] = bad_frac / objective.budget
            paging = (
                burn["fast_short"] >= policy.fast_burn
                and burn["fast_long"] >= policy.fast_burn
                and events["fast_short"] >= policy.min_events
            )
            warning = (
                burn["slow_short"] >= policy.slow_burn
                and burn["slow_long"] >= policy.slow_burn
                and events["slow_short"] >= policy.min_events
            )
            state = "page" if paging else ("warning" if warning else "ok")
            by_op.setdefault(objective.name, []).append({
                "kind": objective.kind,
                "target": objective.target,
                "threshold_s": objective.threshold_s,
                "state": state,
                "burn": burn,
                "bad_fraction": frac,
                "events": events,
                "budget_remaining": max(
                    0.0, 1.0 - frac["slow_long"] / objective.budget
                ),
            })

        for op, obj_reports in by_op.items():
            state = worst_state([r["state"] for r in obj_reports])
            old = self._states.get(op, "ok")
            if state != old:
                edge = Transition(op=op, old=old, new=state, at=t)
                transitions.append(edge)
                self._states[op] = state
                self._since[op] = t
                self._transitions.inc(op=op, to=state)
                self._transition_log.append(edge)
            op_reports[op] = {
                "state": state,
                "since": self._since.get(op),
                "objectives": obj_reports,
                "burn": {
                    window: max(r["burn"][window] for r in obj_reports)
                    for window in policy.windows
                },
                "budget_remaining": min(
                    r["budget_remaining"] for r in obj_reports
                ),
            }

        report = {
            "scope": "server",
            "state": worst_state([r["state"] for r in op_reports.values()]),
            "clock": t,
            "policy": policy.to_dict(),
            "ops": op_reports,
            "transitions": [e.to_dict() for e in self._transition_log],
        }
        self._last_report = report
        for edge in transitions:
            for fn in list(self._callbacks):
                fn(edge)
        return report

    # -- introspection -------------------------------------------------------

    @property
    def states(self) -> Dict[str, str]:
        """Current state per logical op."""
        return dict(self._states)

    @property
    def last_report(self) -> Optional[Dict[str, Any]]:
        """The most recent :meth:`evaluate` report (None before any)."""
        return self._last_report

    def config(self) -> Dict[str, Any]:
        """JSON-able engine configuration (for debug bundles)."""
        return {
            "objectives": [obj.to_dict() for obj in self.objectives],
            "policy": self.policy.to_dict(),
        }


def rollup_reports(
    shard_reports: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Any]:
    """Combine per-shard ``slo`` reports into one fleet view.

    Per op: state = **worst shard state**, burn = max per window,
    budget remaining = min — the pessimistic union, because a page on
    one shard is a page for the fleet.  Each op entry carries the
    per-shard states so the dashboard can point at the culprit.
    """
    ops: Dict[str, Dict[str, Any]] = {}
    for shard_id, report in shard_reports.items():
        for op, entry in report.get("ops", {}).items():
            agg = ops.get(op)
            if agg is None:
                agg = ops[op] = {
                    "state": "ok",
                    "burn": {},
                    "budget_remaining": 1.0,
                    "shards": {},
                }
            agg["shards"][shard_id] = entry["state"]
            agg["state"] = worst_state([agg["state"], entry["state"]])
            for window, burn in entry.get("burn", {}).items():
                agg["burn"][window] = max(agg["burn"].get(window, 0.0), burn)
            agg["budget_remaining"] = min(
                agg["budget_remaining"], entry.get("budget_remaining", 1.0)
            )
    return {
        "scope": "fleet",
        "state": worst_state([entry["state"] for entry in ops.values()]),
        "ops": ops,
        "shards": {
            shard_id: report.get("state", "ok")
            for shard_id, report in shard_reports.items()
        },
    }
