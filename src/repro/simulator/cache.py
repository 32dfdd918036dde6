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
  as its canonical JSON (``AppProfile.fields_json``, built once per
  profile object).  The
  intermediate and output volumes are the profile's selectivities
  applied to the input size, so these two fields fix them;
* input/output tiers, staging flags and any non-uniform block
  placement;
* resolved per-VM channel capacities (after defaulting — the footprint
  only matters through these), as ``(tier, float(cap))`` pairs sorted
  by tier;
* the batch context of :func:`sim_key_context`: the cluster fields the
  simulator reads (VM count, slot counts, NIC) as a plain tuple, and
  ``CloudProvider.digest``, a SHA-256 of the catalog's *performance*
  fields computed once per provider — prices and the provider name are
  excluded because the simulator never reads them, so a price-only
  catalog change keeps its hits.

The context is the same for every job of a batch, so batch callers
build it once and pass it in; the per-job part hashes no bytes.  A key
equal to another names the same inputs (``tests/test_sim_cache.py``
checks it against the canonical-JSON key this module used before); the
spellings it merges that JSON kept apart are a ``-0.0`` against a
``0.0`` cap, both an empty volume, and an int against a float of one
value in the cluster fields, which the simulator computes alike.

Hits are bit-exact by construction: the stored
:class:`~repro.simulator.metrics.JobSimResult` is the object the
simulator produced, re-stamped with the requesting job's id.  Disable
with ``REPRO_SIM_CACHE=0`` (e.g. to time the raw simulator).  The key
names no simulator implementation, so the reference simulator of
``tests/reference/`` runs with the cache off: its results are never
stored here nor served from here.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..obs.metrics import get_registry
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
    "record_events",
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


def catalog_digest(provider: CloudProvider) -> str:
    """Digest of the catalog fields the simulator can observe
    (``CloudProvider.digest``, computed once per provider object)."""
    return provider.digest


def sim_key_context(
    cluster_spec: ClusterSpec, provider: CloudProvider
) -> Tuple[Any, ...]:
    """The part of a simulation key every job of one batch shares:
    the cluster fields the simulator reads and the catalog digest."""
    vm = cluster_spec.vm
    cluster = (cluster_spec.n_vms, vm.map_slots, vm.reduce_slots, vm.network_mb_s)
    return (cluster, provider.digest)


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
    context: Optional[Tuple[Any, ...]] = None,
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
        job.app.fields_json,
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

    def put(self, key: SimKey, result: JobSimResult) -> int:
        """Insert a result, evicting LRU entries when full; returns the
        number evicted."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

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


def _events(registry: Any) -> Any:
    return registry.counter(
        "cast_sim_cache_events_total",
        "Simulation-cache lookups by outcome",
        labelnames=("event",),
    )


def record_events(hits: int = 0, misses: int = 0, evictions: int = 0) -> None:
    """Add one batch's (or one ``simulate_job``'s) lookups to the
    ambient metrics registry; the cache's own ints count the process."""
    events = _events(get_registry())
    for event, n in (("hit", hits), ("miss", misses), ("eviction", evictions)):
        if n:
            events.inc(n, event=event)


def register_metrics(registry: Any) -> None:
    """Declare ``cast_sim_cache_events_total{event=...}`` in
    ``registry`` at zero (events arrive via :func:`record_events`) and
    collect the ``cast_sim_cache_size`` gauge (idempotent)."""
    events = _events(registry)
    for event in ("hit", "miss", "eviction"):
        events.inc(0, event=event)
    registry.register_collector(
        "sim_cache",
        lambda reg: reg.gauge(
            "cast_sim_cache_size", "Entries in the simulation cache"
        ).set(len(_GLOBAL_CACHE)),
    )
