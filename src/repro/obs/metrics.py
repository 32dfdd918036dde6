"""Thread-safe metrics registry with cross-process roll-up.

Design constraints, in order:

* **Counted once, where it happens.**  Components count into the
  registry and read their ``stats`` back from it.  An increment is a
  label check and a dict update under one registry-wide
  :class:`threading.RLock` — still nothing for a per-iteration hot
  loop: the solver and simulator batch paths publish totals once per
  solve or batch.
* **Mergeable.**  :meth:`MetricsRegistry.snapshot` emits a plain
  JSON-able dict and :meth:`MetricsRegistry.merge` folds such a
  snapshot back in (counters and histograms add, gauges last-write).
  That is the whole cross-process story: a ``ProcessPoolExecutor``
  worker snapshots its process-local registry around the task body and
  ships the delta home in the result payload
  (:func:`snapshot_delta`); the parent merges it.
* **Exposable.**  :meth:`MetricsRegistry.to_prometheus` renders the
  text exposition format (``# HELP``/``# TYPE``, cumulative
  ``_bucket``/``_sum``/``_count`` for histograms);
  :meth:`MetricsRegistry.to_json` adds computed p50/p95/p99 per
  histogram series so latency percentiles are queryable from the
  service ``metrics`` op without a Prometheus server.

There is one process-global default registry (:func:`get_registry`).
Components that need isolation (each :class:`~repro.service.server.PlannerServer`
owns its counters) build their own ``MetricsRegistry`` and thread it
through; :func:`use_registry` rebinds the ambient default for the
current thread/task so deeply nested code (solver entry points running
inside a thread-mode pool) records into the caller's registry without
plumbing a parameter through every signature.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ObservabilityError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "snapshot_delta",
]

#: Default histogram bucket upper bounds (seconds): spans sub-ms cache
#: hits through ten-minute solve deadlines.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

_LabelKey = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help_text(value: str) -> str:
    # The 0.0.4 exposition format escapes backslash and newline (but
    # not quotes) in HELP text; label values escape all three.
    return value.replace("\\", "\\\\").replace("\n", "\\n")


class _Instrument:
    """Shared plumbing: a name, declared labels, keyed values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._lock = lock
        self._values: Dict[_LabelKey, Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> _LabelKey:
        """The series key of ``labels`` (which must name exactly the
        declared labels)."""
        if labels.keys() != self._labelset:
            raise ObservabilityError(
                f"labels {sorted(labels)} do not match declared {list(self.labelnames)}"
            )
        names = self.labelnames
        if len(names) == 1:  # the common case, without a comprehension
            return (str(labels[names[0]]),)
        return tuple([str(labels[name]) for name in names])

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        """Every (labels, value) series this instrument holds."""
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), self._copy_value(value))
                for key, value in sorted(self._values.items())
            ]

    def _copy_value(self, value: Any) -> Any:
        return value

    def clear(self) -> None:
        """Drop every series (the registry-wide reset path)."""
        with self._lock:
            self._values.clear()


class Counter(_Instrument):
    """Monotonically increasing value, optionally labeled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def clear(self) -> None:
        """Zero every series but keep it: a series declared at zero
        (``inc(0, ...)``) stays in the exposition across a reset."""
        with self._lock:
            self._values = dict.fromkeys(self._values, 0.0)

    def value(self, **labels: Any) -> float:
        """Current total of the labeled series (0.0 when unseen)."""
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))


class Gauge(_Instrument):
    """A value that can go up and down (sizes, limits, levels)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))


class Histogram(_Instrument):
    """Bucketed distribution with sum/count and quantile estimation.

    Buckets are *upper bounds*; an implicit ``+Inf`` bucket catches the
    overflow.  Internally counts are stored per-bucket (not
    cumulative) so snapshots merge by plain element-wise addition;
    the Prometheus exposition cumulates on the way out.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 lock: threading.RLock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name} buckets must be strictly increasing: {buckets}"
            )
        self.buckets = bounds

    def _new_series(self) -> Dict[str, Any]:
        return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labeled series."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                series = self._values[key] = self._new_series()
            series["counts"][bisect_left(self.buckets, value)] += 1
            series["sum"] += value
            series["count"] += 1

    def _copy_value(self, value: Dict[str, Any]) -> Dict[str, Any]:
        return {"counts": list(value["counts"]), "sum": value["sum"],
                "count": value["count"]}

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the q-quantile by linear interpolation in-bucket.

        Observations above the last finite bound clamp to it — the
        usual Prometheus ``histogram_quantile`` behaviour.  NaN when
        the series is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile out of [0,1]: {q}")
        key = self._key(labels)
        with self._lock:
            series = self._values.get(key)
            if series is None or series["count"] == 0:
                return float("nan")
            counts = list(series["counts"])
            total = series["count"]
        rank = q * total
        seen = 0.0
        for i, c in enumerate(counts):
            if seen + c >= rank and c:
                lo = 0.0 if i == 0 else self.buckets[i - 1]
                hi = self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
                frac = (rank - seen) / c
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            seen += c
        return self.buckets[-1]


class MetricsRegistry:
    """Named instruments plus collectors, snapshots, and exposition."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Instrument] = {}
        self._collectors: Dict[str, Callable[["MetricsRegistry"], None]] = {}

    # -- instrument registration (get-or-create) ---------------------------

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Sequence[str], **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ObservabilityError(
                        f"metric {name!r} re-registered as {cls.kind} "
                        f"with labels {list(labelnames)}; existing is "
                        f"{existing.kind} with labels {list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name`` (None when absent)."""
        with self._lock:
            return self._metrics.get(name)

    # -- collectors --------------------------------------------------------

    def register_collector(self, key: str,
                           fn: Callable[["MetricsRegistry"], None]) -> None:
        """(Re-)register a callback run before every snapshot/exposition.

        Collectors set *gauges* that read live state (cache sizes and
        capacities, ring occupancy, SLO state and burn, queue depths,
        shard health).  They never write a counter: counters are counted
        where their events happen, so a merged worker delta is never
        overwritten by a scrape.  Re-registering the same ``key``
        replaces the callback, keeping registration idempotent.
        """
        with self._lock:
            self._collectors[key] = fn

    def collect(self) -> None:
        """Run every registered collector (failures are swallowed —
        a broken collector must not take down exposition)."""
        with self._lock:
            collectors = list(self._collectors.values())
        for fn in collectors:
            try:
                fn(self)
            except Exception:  # pragma: no cover - defensive
                import logging

                logging.getLogger(__name__).exception(
                    "metrics collector failed; skipping"
                )

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy of every instrument's series (collectors
        run first, so the live gauges are current)."""
        self.collect()
        out: Dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            entry: Dict[str, Any] = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "values": [
                    {"labels": labels, "value": value}
                    for labels, value in metric.samples()
                ],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def merge(
        self,
        snapshot: Mapping[str, Any],
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold a :meth:`snapshot` (typically a worker delta) in.

        Counters and histograms add; gauges take the incoming value.
        Instruments absent from this registry are created on the fly,
        so merging into a fresh registry reconstructs the snapshot.

        ``extra_labels`` stamps every incoming series with additional
        constant labels (appended to the declared label names).  This
        is the fleet roll-up story: the router merges each shard's
        scrape into one fresh registry with ``{"shard": shard_id}``, so
        per-shard series stay distinguishable and summing over the
        ``shard`` label reproduces the fleet-wide total.
        """
        extra = dict(extra_labels or {})
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            labelnames = tuple(entry.get("labelnames", ())) + tuple(extra)
            if extra:
                entry = dict(
                    entry,
                    values=[
                        {**sample, "labels": {**sample["labels"], **extra}}
                        for sample in entry["values"]
                    ],
                )
            if kind == "counter":
                metric: Any = self.counter(name, entry.get("help", ""), labelnames)
                for sample in entry["values"]:
                    metric.inc(float(sample["value"]), **sample["labels"])
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""), labelnames)
                for sample in entry["values"]:
                    metric.set(float(sample["value"]), **sample["labels"])
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""), labelnames,
                    buckets=entry.get("buckets", DEFAULT_BUCKETS),
                )
                if tuple(entry.get("buckets", metric.buckets)) != metric.buckets:
                    raise ObservabilityError(
                        f"cannot merge histogram {name!r}: bucket bounds differ"
                    )
                for sample in entry["values"]:
                    value = sample["value"]
                    key = metric._key(sample["labels"])
                    with metric._lock:
                        series = metric._values.get(key)
                        if series is None:
                            series = metric._values[key] = metric._new_series()
                        for i, c in enumerate(value["counts"]):
                            series["counts"][i] += c
                        series["sum"] += value["sum"]
                        series["count"] += value["count"]
            else:
                raise ObservabilityError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )

    def reset(self) -> None:
        """Zero every instrument (registrations and collectors stay;
        counter series stay at zero, other series are dropped)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()

    # -- exposition ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            samples = metric.samples()
            if not samples:
                continue
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {_escape_help_text(metric.help)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, value in samples:
                label_str = ",".join(
                    f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()
                )
                if isinstance(metric, Histogram):
                    prefix = "{" + label_str + ("," if label_str else "")
                    cum = 0
                    for bound, count in zip(metric.buckets, value["counts"]):
                        cum += count
                        lines.append(
                            f'{metric.name}_bucket{prefix}le="{bound:g}"}} {cum}'
                        )
                    cum += value["counts"][-1]
                    lines.append(f'{metric.name}_bucket{prefix}le="+Inf"}} {cum}')
                    suffix = "{" + label_str + "}" if label_str else ""
                    lines.append(f"{metric.name}_sum{suffix} {value['sum']:g}")
                    lines.append(f"{metric.name}_count{suffix} {value['count']}")
                else:
                    suffix = "{" + label_str + "}" if label_str else ""
                    lines.append(f"{metric.name}{suffix} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, Any]:
        """Snapshot plus computed p50/p95/p99 per histogram series."""
        snap = self.snapshot()
        for name, entry in snap.items():
            if entry["kind"] != "histogram":
                continue
            metric = self.get(name)
            assert isinstance(metric, Histogram)
            for sample in entry["values"]:
                sample["quantiles"] = {
                    "p50": metric.quantile(0.50, **sample["labels"]),
                    "p95": metric.quantile(0.95, **sample["labels"]),
                    "p99": metric.quantile(0.99, **sample["labels"]),
                }
        return snap


def snapshot_delta(before: Mapping[str, Any],
                   after: Mapping[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two snapshots of the same registry.

    Counters and histogram series subtract element-wise (series absent
    from ``before`` pass through); gauges keep the ``after`` value.
    The result merges cleanly into any other registry — this is how a
    pool worker ships "what this task did" home without shipping its
    whole process history every time.

    A counter that went *backwards* between the two snapshots means the
    source restarted mid-scrape (a shard respawned by the fleet
    supervisor, a recycled pool worker): the cumulative total reset to
    zero and re-accumulated.  The delta then clamps to the ``after``
    value — everything the new incarnation counted — and never goes
    negative; a negative "monotonic" delta would poison any registry it
    merges into.  Histogram series reset the same way as a unit (a
    restart zeroes counts, sum and count together).
    """
    def _prev(entry: Mapping[str, Any], labels: Mapping[str, str]) -> Any:
        for sample in entry.get("values", ()):
            if sample["labels"] == labels:
                return sample["value"]
        return None

    delta: Dict[str, Any] = {}
    for name, entry in after.items():
        prev_entry = before.get(name, {})
        values: List[Dict[str, Any]] = []
        for sample in entry["values"]:
            prev = _prev(prev_entry, sample["labels"])
            value = sample["value"]
            if entry["kind"] == "counter":
                base = float(prev) if prev is not None else 0.0
                diff = float(value) - base
                if diff < 0:
                    # Counter reset (source restarted): clamp to the
                    # new cumulative value.
                    diff = float(value)
                if diff:
                    values.append({"labels": sample["labels"], "value": diff})
            elif entry["kind"] == "histogram":
                if prev is None:
                    prev = {"counts": [0] * len(value["counts"]), "sum": 0.0,
                            "count": 0}
                counts = [a - b for a, b in zip(value["counts"], prev["counts"])]
                count = value["count"] - prev["count"]
                if count < 0 or any(c < 0 for c in counts):
                    # Histogram reset: the series restarted as a unit,
                    # so the whole after-value is the delta.
                    prev = {"counts": [0] * len(value["counts"]), "sum": 0.0,
                            "count": 0}
                    counts = list(value["counts"])
                    count = value["count"]
                if count:
                    values.append({
                        "labels": sample["labels"],
                        "value": {"counts": counts,
                                  "sum": value["sum"] - prev["sum"],
                                  "count": count},
                    })
            else:  # gauge: last write wins
                if prev is None or prev != value:
                    values.append(dict(sample))
        if values:
            delta[name] = dict(entry, values=values)
    return delta


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------

_GLOBAL_REGISTRY = MetricsRegistry()

#: Ambient override: lets a thread-mode pool worker record into its
#: server's registry without threading a parameter through the solver
#: entry points.  Context-local, so concurrent servers can't clobber
#: each other.
_ACTIVE_REGISTRY: "ContextVar[Optional[MetricsRegistry]]" = ContextVar(
    "repro_obs_registry", default=None
)


def get_registry() -> MetricsRegistry:
    """The ambient registry: the :func:`use_registry` override when one
    is active in this context, else the process-global default."""
    return _ACTIVE_REGISTRY.get() or _GLOBAL_REGISTRY


def set_registry(registry: Optional[MetricsRegistry]) -> Any:
    """Bind ``registry`` as the ambient override for this context.

    Returns the reset token; pass it to ``_ACTIVE_REGISTRY.reset`` or
    simply prefer :func:`use_registry` which does both ends.
    """
    return _ACTIVE_REGISTRY.set(registry)


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[None]:
    """Context manager form of :func:`set_registry`."""
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield
    finally:
        _ACTIVE_REGISTRY.reset(token)
