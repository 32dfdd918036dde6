"""Content-addressed memoization of job simulations.

A discrete-event run of :func:`~repro.simulator.engine.simulate_job` is
a pure function of the job's *shape* — never its identity.  SWIM-style
workloads (Table 4) draw 100 jobs from 7 size bins × 4 applications, so
a plan measurement re-simulates the same (app, size, tier, capacity)
combination dozens of times; under a single plan the per-VM caps are
identical across jobs, leaving only ~28 distinct simulations in a
100-job Fig. 7 measurement.

The cache key is a plain tuple of everything the simulator reads:

* job shape: map/reduce task counts and the input size, plus their
  Python types (a tuple compares ``20 == 20.0``; the types keep such
  spellings apart);
* the full application profile (selectivities, CPU rates, file counts),
  as its canonical JSON, built once per profile object.  The
  intermediate and output volumes are the profile's selectivities
  applied to the input size, so these two fields fix them;
* input/output tiers, staging flags and any non-uniform block
  placement;
* resolved per-VM channel capacities (after defaulting — the footprint
  only matters through these), as ``(tier, float(cap))`` pairs sorted
  by tier;
* the batch context of :func:`sim_key_context`: the cluster shape the
  simulator reads (VM count, slot counts, NIC), a SHA-256 digest of the
  provider catalog's *performance* fields — prices and the provider
  name are excluded because the simulator never reads them, so a
  price-only catalog change keeps its hits.

The context is the same for every job of a batch, so batch callers
build it once and pass it in; the per-job part hashes no bytes.  A key
equal to another names the same inputs (``tests/test_sim_cache.py``
checks it against the canonical-JSON key this module used before); the
one spelling it merges that JSON kept apart is a ``-0.0`` against a
``0.0`` cap, both an empty volume.

Hits are bit-exact by construction: the stored
:class:`~repro.simulator.metrics.JobSimResult` is the object the
simulator produced, re-stamped with the requesting job's id.  Disable
with ``REPRO_SIM_CACHE=0`` (e.g. to time the raw simulator).  The key
names no simulator implementation, so the reference simulator of
``tests/reference/`` runs with the cache off: its results are never
stored here nor served from here.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..workloads.spec import JobSpec
from .metrics import JobSimResult

__all__ = [
    "SimKey",
    "catalog_digest",
    "sim_key_context",
    "job_sim_fingerprint",
    "SimulationCache",
    "simulation_cache",
    "cache_enabled",
    "register_metrics",
]

#: Environment variable disabling the simulation cache ("0"/"false").
CACHE_ENV = "REPRO_SIM_CACHE"

#: Default LRU capacity of the global cache (distinct job shapes).
DEFAULT_CAPACITY = 4096

#: A simulation-cache key (see the module docstring for its fields).
SimKey = Tuple[Any, ...]


def cache_enabled() -> bool:
    """Whether ``REPRO_SIM_CACHE`` leaves the cache on (the default)."""
    return os.environ.get(CACHE_ENV, "").strip().lower() not in ("0", "false")


def _canonical_json(obj: Any) -> str:
    from ..service.fingerprint import canonical_json

    return canonical_json(obj)


# Providers are immutable once built; digest each object once.  Keyed
# by id() with the provider kept as a strong reference so a recycled
# id can never alias a different catalog.
_CATALOG_MEMO: Dict[int, Tuple[CloudProvider, str]] = {}

# Same discipline for the other shared immutable inputs a workload
# re-presents hundreds of times per measurement: the (typically 4)
# application profiles and the cluster spec.  Each is keyed by its
# canonical JSON, so equal keys mean equal field values *and* types.
_APP_MEMO: Dict[int, Tuple[Any, str]] = {}
_CLUSTER_MEMO: Dict[int, Tuple[ClusterSpec, str]] = {}


def _app_key(app: Any) -> str:
    memo = _APP_MEMO.get(id(app))
    if memo is not None and memo[0] is app:
        return memo[1]
    key = _canonical_json(asdict(app))
    if len(_APP_MEMO) > 256:
        _APP_MEMO.clear()
    _APP_MEMO[id(app)] = (app, key)
    return key


def _cluster_key(cluster_spec: ClusterSpec) -> str:
    memo = _CLUSTER_MEMO.get(id(cluster_spec))
    if memo is not None and memo[0] is cluster_spec:
        return memo[1]
    key = _canonical_json({
        "n_vms": cluster_spec.n_vms,
        "map_slots": cluster_spec.vm.map_slots,
        "reduce_slots": cluster_spec.vm.reduce_slots,
        "network_mb_s": cluster_spec.vm.network_mb_s,
    })
    if len(_CLUSTER_MEMO) > 256:
        _CLUSTER_MEMO.clear()
    _CLUSTER_MEMO[id(cluster_spec)] = (cluster_spec, key)
    return key


def catalog_digest(provider: CloudProvider) -> str:
    """Digest of the catalog fields the simulator can observe.

    Performance-relevant only: throughput curves, volume shapes,
    request overheads, staging rates and tier couplings.  Prices, IOPS
    curves and the provider's name are deliberately excluded — the
    simulator never reads them, so e.g. a re-priced catalog keeps its
    cached simulations.
    """
    memo = _CATALOG_MEMO.get(id(provider))
    if memo is not None and memo[0] is provider:
        return memo[1]
    payload = {}
    for tier in sorted(provider.services, key=lambda t: t.value):
        svc = provider.service(tier)
        payload[tier.value] = {
            "persistent": svc.persistent,
            "throughput_points": [list(p) for p in svc.throughput.points],
            "throughput_cap": svc.throughput.cap,
            "fixed_volume_gb": svc.fixed_volume_gb,
            "max_volumes_per_vm": svc.max_volumes_per_vm,
            "max_volume_gb": svc.max_volume_gb,
            "request_overhead_s": svc.request_overhead_s,
            "bulk_staging_mb_s": svc.bulk_staging_mb_s,
            "requires_backing": (
                svc.requires_backing.value if svc.requires_backing else None
            ),
            "requires_intermediate": (
                svc.requires_intermediate.value if svc.requires_intermediate else None
            ),
        }
    digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    if len(_CATALOG_MEMO) > 64:
        _CATALOG_MEMO.clear()
    _CATALOG_MEMO[id(provider)] = (provider, digest)
    return digest


def sim_key_context(
    cluster_spec: ClusterSpec, provider: CloudProvider
) -> Tuple[str, str]:
    """The part of a simulation key every job of one batch shares:
    the cluster shape and the catalog digest."""
    return (_cluster_key(cluster_spec), catalog_digest(provider))


def job_sim_fingerprint(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    caps: Mapping[Tier, float],
    output_tier: Tier,
    stage_in: bool,
    stage_out: bool,
    placement_tiers: Optional[Sequence[Tier]] = None,
    context: Optional[Tuple[str, str]] = None,
) -> SimKey:
    """Hashable key identifying one job simulation.

    ``caps`` must be the *resolved* per-VM capacities (after
    defaulting): the job's footprint influences the run only through
    them.  The job id is excluded — shape-identical jobs share a key.
    ``placement_tiers`` is ``None`` for the uniform-on-``input_tier``
    placement (the normalized form of the common case).  ``context``
    is :func:`sim_key_context` of ``cluster_spec`` and ``provider``;
    batch callers pass it in so it is built once per batch.
    """
    if context is None:
        context = sim_key_context(cluster_spec, provider)
    m = job.map_tasks
    r = job.reduce_tasks
    size = job.input_gb
    # ``_value_`` is ``.value`` without the enum descriptor's overhead.
    return (
        _app_key(job.app),
        m, r, size,
        type(m), type(r), type(size),
        input_tier._value_,
        output_tier._value_,
        bool(stage_in),
        bool(stage_out),
        None if placement_tiers is None else tuple(t._value_ for t in placement_tiers),
        tuple(sorted([(t._value_, float(v)) for t, v in caps.items()])),
        context,
    )


class SimulationCache:
    """In-memory LRU of finished job simulations, with counters.

    Same discipline as the planning service's
    :class:`~repro.service.cache.PlanCache`: ``get`` refreshes recency,
    ``put`` evicts the least-recently-used entry past ``capacity``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[SimKey, JobSimResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: SimKey) -> Optional[JobSimResult]:
        """Look up a simulation result, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: SimKey, result: JobSimResult) -> None:
        """Insert a result, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (``hits``/``misses``/``evictions``/``size``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }


_GLOBAL_CACHE = SimulationCache()


def simulation_cache() -> SimulationCache:
    """The process-wide simulation cache."""
    return _GLOBAL_CACHE


def register_metrics(registry: Any, key: str = "sim_cache") -> None:
    """Mirror the global simulation cache into a metrics registry.

    Registers a keyed collector (idempotent — re-registration replaces)
    that publishes the cache's plain-``int`` counters as
    ``cast_sim_cache_events_total{event=...}`` plus a size gauge on
    every snapshot/exposition.  The hot lookup path keeps its raw ints;
    mirroring costs nothing until somebody actually reads metrics.
    """

    def _mirror(reg: Any) -> None:
        cache = _GLOBAL_CACHE
        events = reg.counter(
            "cast_sim_cache_events_total",
            "Simulation-cache lookups by outcome",
            labelnames=("event",),
        )
        events.set_total(cache.hits, event="hit")
        events.set_total(cache.misses, event="miss")
        events.set_total(cache.evictions, event="eviction")
        reg.gauge(
            "cast_sim_cache_size", "Entries in the simulation cache"
        ).set(len(cache))

    registry.register_collector(key, _mirror)
