"""Server-side streaming planning sessions.

:class:`SessionManager` owns the :class:`~repro.session.PlanningSession`
objects living inside one planner daemon (or one fleet-router failover
replay).  The wire ops:

``session_open``
    ``{"spec": <workload dict>?, "session_id": ...?, knobs...}`` —
    create a session (solving the initial workload at full budget when
    one is given).  The server generates the id when omitted; opening
    an existing id replaces that session.
``session_delta``
    ``{"session_id": ..., "remove": [ids], "add": {"jobs": [...],
    "reuse_sets": [...]}, "include_plan": bool}`` — admit departures
    and/or arrivals; each group triggers one warm re-plan (removals
    first, matching how churn unfolds on a real cluster).
``session_close``
    ``{"session_id": ...}`` — retire the session, returning its final
    plan and counters.

Concurrency: deltas against one session are serialized by a per-session
``asyncio.Lock`` (a session is a single optimization trajectory); the
re-plans themselves run on worker threads via ``asyncio.to_thread`` so
a big full solve never blocks ``ping``.  Sessions report into the
server's metrics registry (``cast_session_*``).
"""

from __future__ import annotations

import asyncio
import uuid
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ProtocolError, SessionError
from ..obs.metrics import MetricsRegistry
from ..session import PlanningSession, ReplanResult, SessionConfig
from ..workloads.io import (
    job_from_dict,
    reuse_set_from_dict,
    workload_from_dict,
)
from ..workloads.spec import WorkloadSpec

__all__ = ["SessionManager", "normalize_open_params", "normalize_delta_params"]

#: SessionConfig fields settable over the wire (all ints/floats).
_CONFIG_KEYS = (
    "drift_threshold",
    "drift_window",
    "full_solve_every",
    "parity_check_every",
)


def normalize_open_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate/default a ``session_open`` envelope."""
    spec = params.get("spec")
    if spec is not None and not isinstance(spec, Mapping):
        raise ProtocolError("session_open 'spec' must be a workload object")
    config = params.get("config")
    if config is not None:
        if not isinstance(config, Mapping):
            raise ProtocolError("session_open 'config' must be an object")
        unknown = sorted(set(config) - set(_CONFIG_KEYS))
        if unknown:
            raise ProtocolError(
                f"unknown session config keys {unknown}; known: {list(_CONFIG_KEYS)}"
            )
    try:
        return {
            "spec": None if spec is None else dict(spec),
            "session_id": (
                None if params.get("session_id") is None
                else str(params["session_id"])
            ),
            "provider": str(params.get("provider", "google")),
            "n_vms": int(params.get("n_vms", 25)),
            "iterations": int(params.get("iterations", 3000)),
            "seed": int(params.get("seed", 42)),
            "use_castpp": bool(params.get("use_castpp", True)),
            "backend": str(params.get("backend", "anneal")),
            "replicas": int(params.get("replicas", 8)),
            "config": None if config is None else dict(config),
            "include_plan": bool(params.get("include_plan", False)),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad knob in session_open params: {exc}") from None


def normalize_delta_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a ``session_delta`` envelope."""
    session_id = params.get("session_id")
    if not session_id:
        raise ProtocolError("session_delta params need a 'session_id'")
    remove = params.get("remove", [])
    if not isinstance(remove, (list, tuple)):
        raise ProtocolError("session_delta 'remove' must be a list of job ids")
    add = params.get("add")
    if add is not None:
        if not isinstance(add, Mapping):
            raise ProtocolError(
                "session_delta 'add' must be an object with 'jobs'"
            )
        jobs = add.get("jobs", [])
        sets = add.get("reuse_sets", [])
        if not isinstance(jobs, (list, tuple)) or not isinstance(sets, (list, tuple)):
            raise ProtocolError(
                "session_delta 'add.jobs'/'add.reuse_sets' must be lists"
            )
    if add is None and not remove:
        raise ProtocolError(
            "session_delta needs at least one of 'remove' or 'add'"
        )
    return {
        "session_id": str(session_id),
        "remove": [str(jid) for jid in remove],
        "add": None if add is None else dict(add),
        "include_plan": bool(params.get("include_plan", False)),
    }


def _result_payload(
    session: PlanningSession, result: ReplanResult, include_plan: bool
) -> Dict[str, Any]:
    out = result.to_dict(include_plan=include_plan)
    out["session_id"] = session.name
    return out


class SessionManager:
    """The planner daemon's registry of live streaming sessions."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry
        self._sessions: Dict[str, PlanningSession] = {}
        self._locks: Dict[str, asyncio.Lock] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def session_ids(self) -> Tuple[str, ...]:
        return tuple(self._sessions)

    def _lock(self, session_id: str) -> asyncio.Lock:
        lock = self._locks.get(session_id)
        if lock is None:
            lock = self._locks[session_id] = asyncio.Lock()
        return lock

    def _get(self, session_id: str) -> PlanningSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"no such session: {session_id!r}")
        return session

    # -- ops ---------------------------------------------------------------

    async def open(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        p = normalize_open_params(params)
        session_id = p["session_id"] or f"session-{uuid.uuid4().hex[:12]}"
        workload: Optional[WorkloadSpec] = None
        if p["spec"] is not None:
            workload = workload_from_dict(p["spec"])
        config = (
            SessionConfig(**p["config"]) if p["config"] is not None else None
        )
        async with self._lock(session_id):
            from ..cloud import resolve_provider

            def build() -> PlanningSession:
                return PlanningSession(
                    workload,
                    provider=resolve_provider(p["provider"]),
                    n_vms=p["n_vms"],
                    iterations=p["iterations"],
                    seed=p["seed"],
                    use_castpp=p["use_castpp"],
                    backend=p["backend"],
                    replicas=p["replicas"],
                    config=config,
                    name=session_id,
                    registry=self._registry,
                )

            # The open solve is the full-budget batch solve — seconds of
            # work; keep it off the event loop.
            session = await asyncio.to_thread(build)
            self._sessions[session_id] = session
        out: Dict[str, Any] = {
            "session_id": session_id,
            "resident_jobs": session.n_resident_jobs,
        }
        if session.last_result is not None:
            out.update(
                _result_payload(session, session.last_result, p["include_plan"])
            )
        return out

    async def delta(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        p = normalize_delta_params(params)
        session_id = p["session_id"]
        add = p["add"]
        jobs = (
            [job_from_dict(dict(j)) for j in add.get("jobs", [])]
            if add is not None else []
        )
        reuse_sets = (
            [reuse_set_from_dict(dict(rs)) for rs in add.get("reuse_sets", [])]
            if add is not None else []
        )
        async with self._lock(session_id):
            session = self._get(session_id)
            replans: List[ReplanResult] = []

            def apply() -> None:
                if p["remove"]:
                    replans.append(session.remove_jobs(p["remove"]))
                if jobs or reuse_sets:
                    replans.append(session.add_jobs(jobs, reuse_sets))

            await asyncio.to_thread(apply)
        last = replans[-1]
        out = _result_payload(session, last, p["include_plan"])
        out["replans"] = [r.to_dict() for r in replans]
        out["replan_s"] = sum(r.replan_s for r in replans)
        return out

    async def close(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        session_id = params.get("session_id")
        if not session_id:
            raise ProtocolError("session_close params need a 'session_id'")
        session_id = str(session_id)
        async with self._lock(session_id):
            session = self._sessions.pop(session_id, None)
            self._locks.pop(session_id, None)
            if session is None:
                raise SessionError(f"no such session: {session_id!r}")
            summary = session.close()
        summary["session_id"] = session_id
        return summary

    def stats(self) -> Dict[str, Any]:
        """Per-session counters for the ``stats`` payload."""
        return {
            "open": len(self._sessions),
            "sessions": {
                sid: {
                    "resident_jobs": s.n_resident_jobs,
                    "events": len(s.log),
                    "warm_replans": s.counters["warm_replans"],
                    "full_replans": s.counters["full_replans"],
                }
                for sid, s in self._sessions.items()
            },
        }
