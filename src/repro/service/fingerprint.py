"""Canonical request fingerprinting — the cache and dedup key.

Two requests get one fingerprint exactly when the solver would be run
with identical inputs: same canonical workload/workflow, same provider
catalog, same cluster size, and same solver knobs (iterations, seed,
CAST vs CAST++, restart count).

Canonicalization leans on :mod:`repro.workloads.io`: the spec dict is
round-tripped through the model objects (``workload_from_dict`` →
``workload_to_dict``), which validates it and normalizes every
degree of freedom JSON allows — omitted optional fields, reuse-set
member order, numeric types — onto the schema-v1 canonical form.  The
normalized payload is serialized as sorted, compact JSON and hashed
with SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from ..core.plan import TieringPlan
from ..errors import WorkloadError
from ..workloads.io import (
    workflow_from_dict,
    workflow_to_dict,
    workload_from_dict,
    workload_to_dict,
)

__all__ = [
    "canonical_json",
    "canonical_spec",
    "request_fingerprint",
    "sweep_fingerprint",
    "whatif_fingerprint",
]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def canonical_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a workload/workflow dict onto its canonical schema form.

    Raises :class:`WorkloadError` for anything that does not validate —
    a fingerprint of an invalid spec would poison the cache.
    """
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if kind == "workload":
        return workload_to_dict(workload_from_dict(dict(spec)))
    if kind == "workflow":
        return workflow_to_dict(workflow_from_dict(dict(spec)))
    raise WorkloadError(f"spec kind must be 'workload' or 'workflow', got {kind!r}")


def request_fingerprint(
    op: str,
    spec: Mapping[str, Any],
    provider: str = "google",
    n_vms: int = 25,
    iterations: int = 3000,
    seed: int = 42,
    use_castpp: bool = True,
    restarts: int = 1,
    backend: str = "anneal",
    replicas: int = 8,
) -> str:
    """SHA-256 hex digest identifying one solve request."""
    payload = {
        "op": str(op),
        "spec": canonical_spec(spec),
        "provider": str(provider),
        "n_vms": int(n_vms),
        "iterations": int(iterations),
        "seed": int(seed),
        "use_castpp": bool(use_castpp),
        "restarts": int(restarts),
        "backend": str(backend),
        "replicas": int(replicas),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def sweep_fingerprint(
    specs: "list[Mapping[str, Any]]",
    providers: "list[str]",
    reps: int = 1,
    n_vms: int = 25,
    iterations: int = 3000,
    seed: int = 42,
    use_castpp: bool = True,
    backend: str = "anneal",
    replicas: int = 8,
    warm: bool = True,
) -> str:
    """SHA-256 hex digest identifying one cross-catalog sweep.

    Axis *order* is part of the key: catalog 0 is the warm-start
    reference catalog and the point list is row-major, so permuting
    the axes changes which points transfer from which donors (results
    stay within the quality gate but are not bit-identical).
    ``warm`` is part of the key for the same reason.
    """
    payload = {
        "op": "sweep",
        "specs": [canonical_spec(s) for s in specs],
        "providers": [str(p) for p in providers],
        "reps": int(reps),
        "n_vms": int(n_vms),
        "iterations": int(iterations),
        "seed": int(seed),
        "use_castpp": bool(use_castpp),
        "backend": str(backend),
        "replicas": int(replicas),
        "warm": bool(warm),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def whatif_fingerprint(
    spec: Mapping[str, Any],
    plan: Optional[Mapping[str, Any]] = None,
    tier: Optional[str] = None,
    provider: str = "google",
    n_vms: int = 25,
    fast: bool = True,
) -> str:
    """SHA-256 hex digest identifying one ``whatif`` measurement.

    ``fast`` is part of the key: fast-path and exact-engine results
    agree only within the documented tolerance, so they must not share
    a cache entry.  A ``plan`` dict must decode (:class:`PlanError`
    otherwise, like :func:`canonical_spec`'s ``WorkloadError``).
    """
    if plan is not None:
        TieringPlan.from_dict(plan)
    payload = {
        "op": "whatif",
        "spec": canonical_spec(spec),
        "plan": None if plan is None else dict(plan),
        "tier": None if tier is None else str(tier),
        "provider": str(provider),
        "n_vms": int(n_vms),
        "fast": bool(fast),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
