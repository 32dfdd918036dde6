"""Planner service: a long-lived daemon answering tiering-plan requests.

CAST is a planning framework — every tenant interaction is "here is my
workload, give me a plan" (Eq. 2–6, Algorithm 2).  This subpackage
turns the one-shot solver pipeline into a service that amortizes solver
work across requests:

* :mod:`repro.service.protocol` — versioned JSON-lines request/response
  schema over asyncio streams;
* :mod:`repro.service.fingerprint` — canonical SHA-256 fingerprints of
  requests, the cache/dedup key;
* :mod:`repro.service.cache` — bounded LRU plan cache with hit/miss/
  eviction counters;
* :mod:`repro.service.pool` — multi-start simulated-annealing solver
  pool on a ``ProcessPoolExecutor`` (deterministic per seed);
* :mod:`repro.service.base` — the op-serving core the daemon shares
  with the fleet router: connection loop, op-table dispatch, cache +
  single-flight, SLOs and postmortems;
* :mod:`repro.service.server` — the daemon: solver pool, admission
  control, per-request timeouts, streaming sessions;
* :mod:`repro.service.client` — async and sync clients.

Everything is stdlib + the package's existing numpy dependency: no new
third-party requirements.
"""

from __future__ import annotations

from .cache import PlanCache
from .client import PlannerClient, SyncPlannerClient
from .fingerprint import canonical_json, canonical_spec, request_fingerprint
from .pool import SolverPool, restart_seeds, solve_restart
from .protocol import PROTOCOL_VERSION
from .server import PlannerServer

__all__ = [
    "PROTOCOL_VERSION",
    "PlanCache",
    "PlannerClient",
    "PlannerServer",
    "SolverPool",
    "SyncPlannerClient",
    "canonical_json",
    "canonical_spec",
    "request_fingerprint",
    "restart_seeds",
    "solve_restart",
]
