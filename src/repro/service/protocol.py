"""The planner service wire protocol (version 1).

JSON lines over a byte stream: every message is one JSON object on one
``\\n``-terminated line, so the framing survives any transport that
preserves bytes and both ends can be debugged with ``nc``.

Request::

    {"v": 1, "id": "req-1", "op": "plan", "params": {...}}

``op`` is a key of :data:`OP_TABLE`.  ``params`` for the solve ops carries the
workload/workflow dict (the :mod:`repro.workloads.io` schema) plus the
solver knobs; ``catalog`` takes ``{"provider": name}``; ``stats`` and
``ping`` take nothing.

Response::

    {"v": 1, "id": "req-1", "ok": true,  "cached": false, "result": {...}}
    {"v": 1, "id": "req-1", "ok": false, "error": {"type": "WorkloadError",
                                                   "message": "..."}}

Error payloads are *typed*: ``type`` names the
:class:`~repro.errors.CastError` subclass the server raised, and
:func:`exception_from_payload` reconstructs it client-side so callers
can ``except WorkloadError`` across the wire exactly as they would
in-process.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional

from .. import errors as _errors
from ..errors import CastError, ProtocolError, ServiceError
from .fingerprint import request_fingerprint, sweep_fingerprint, whatif_fingerprint

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "OP_TABLE",
    "OpSpec",
    "MAX_LINE_BYTES",
    "make_request",
    "parse_request",
    "ok_response",
    "error_response",
    "parse_response",
    "exception_from_payload",
    "encode_message",
    "send_message",
    "read_message",
]

PROTOCOL_VERSION = 1

#: Op kinds: how a server answers an op.
#:
#: ``monitoring``
#:     reads the server's own state; kept out of the flight-recorder
#:     ring, so a dashboard polling every 2 s cannot evict the records
#:     a postmortem needs.
#: ``local``
#:     answered by whichever process receives it.
#: ``cached``
#:     normalized, fingerprinted, then served from the plan cache or
#:     the single-flight leader (:meth:`repro.service.base.OpServer._serve_cached`).
#: ``session``
#:     stateful, keyed by ``session_id``: no cache, no dedup.
#: ``router``
#:     shard membership, served only by the fleet router.
MONITORING, LOCAL, CACHED, SESSION, ROUTER = (
    "monitoring", "local", "cached", "session", "router"
)


class OpSpec(NamedTuple):
    """One row of :data:`OP_TABLE`."""

    kind: str
    #: ``(op, params) -> normalized``: validates the envelope and fills
    #: defaults.  Cached ops only; the result carries a ``tenant``.
    normalize: Optional[Callable[[str, Mapping[str, Any]], Dict[str, Any]]] = None
    #: ``(op, normalized) -> hex digest``: the cache and single-flight
    #: key.  Cached ops only.
    fingerprint: Optional[Callable[[str, Mapping[str, Any]], str]] = None


def _normalize_solve_params(op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Fill knob defaults and type-check the envelope-level fields.

    Spec-level validation (job records, DAG shape...) happens inside
    fingerprinting/solving and raises ``WorkloadError`` on its own.
    ``restarts`` stays ``None`` when omitted: the serving role pins its
    own default before fingerprinting.
    """
    spec = params.get("spec")
    if not isinstance(spec, Mapping):
        raise ProtocolError(f"{op} params need a 'spec' object (a workload/workflow dict)")
    try:
        normalized = {
            "op": op,
            "spec": dict(spec),
            "tenant": str(params.get("tenant", "default")),
            "provider": str(params.get("provider", "google")),
            "n_vms": int(params.get("n_vms", 25)),
            "iterations": int(params.get("iterations", 3000)),
            "seed": int(params.get("seed", 42)),
            "use_castpp": bool(params.get("use_castpp", True)),
            "backend": str(params.get("backend", "anneal")),
            "replicas": int(params.get("replicas", 8)),
            "restarts": (
                None if params.get("restarts") is None else int(params["restarts"])
            ),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad solver knob in {op} params: {exc}") from None
    if normalized["restarts"] is not None and normalized["restarts"] < 1:
        raise ProtocolError(
            f"{op} restarts must be >= 1, got {normalized['restarts']}"
        )
    return normalized


def _normalize_whatif_params(op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate the ``whatif`` envelope: a spec plus exactly one tiering."""
    spec = params.get("spec")
    if not isinstance(spec, Mapping):
        raise ProtocolError("whatif params need a 'spec' object (a workload dict)")
    plan = params.get("plan")
    tier = params.get("tier")
    if (plan is None) == (tier is None):
        raise ProtocolError(
            "whatif params need exactly one of 'plan' (a tiering-plan dict) "
            "or 'tier' (a uniform tier name)"
        )
    if plan is not None and not isinstance(plan, Mapping):
        raise ProtocolError("whatif 'plan' must be an object")
    try:
        return {
            "spec": dict(spec),
            "plan": None if plan is None else dict(plan),
            "tier": None if tier is None else str(tier),
            "tenant": str(params.get("tenant", "default")),
            "provider": str(params.get("provider", "google")),
            "n_vms": int(params.get("n_vms", 25)),
            "fast": bool(params.get("fast", True)),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad knob in whatif params: {exc}") from None


def _normalize_sweep_params(op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate the ``sweep`` envelope: workload spec(s) plus axes."""
    specs = params.get("specs")
    if specs is None:
        spec = params.get("spec")
        specs = None if spec is None else [spec]
    if (
        not isinstance(specs, (list, tuple))
        or not specs
        or not all(isinstance(s, Mapping) for s in specs)
    ):
        raise ProtocolError(
            "sweep params need 'specs' (a non-empty list of workload "
            "dicts) or 'spec' (a single workload dict)"
        )
    providers = params.get("providers", ["google"])
    if (
        not isinstance(providers, (list, tuple))
        or not providers
        or not all(isinstance(p, str) for p in providers)
    ):
        raise ProtocolError(
            "sweep 'providers' must be a non-empty list of catalog names"
        )
    try:
        return {
            "specs": [dict(s) for s in specs],
            "providers": [str(p) for p in providers],
            "tenant": str(params.get("tenant", "default")),
            "reps": int(params.get("reps", 1)),
            "n_vms": int(params.get("n_vms", 25)),
            "iterations": int(params.get("iterations", 3000)),
            "seed": int(params.get("seed", 42)),
            "use_castpp": bool(params.get("use_castpp", True)),
            "backend": str(params.get("backend", "anneal")),
            "replicas": int(params.get("replicas", 8)),
            "warm": bool(params.get("warm", True)),
            "workers": (
                None if params.get("workers") is None else int(params["workers"])
            ),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad knob in sweep params: {exc}") from None


#: Normalized params that never enter a fingerprint: plans are
#: tenant-independent, and a sweep's ``workers`` only sets its fan-out.
_UNKEYED = ("tenant", "workers")


def _keyed(normalized: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in normalized.items() if k not in _UNKEYED}


# A normalized dict minus its unkeyed params is exactly its fingerprint
# function's arguments.  The adapters look the functions up by their
# module-level names at call time, so whatever is bound to those names
# (a tracing wrapper, say) is what runs.


def _solve_fingerprint(op: str, normalized: Mapping[str, Any]) -> str:
    return request_fingerprint(**_keyed(normalized))


def _whatif_fingerprint(op: str, normalized: Mapping[str, Any]) -> str:
    return whatif_fingerprint(**_keyed(normalized))


def _sweep_fingerprint(op: str, normalized: Mapping[str, Any]) -> str:
    return sweep_fingerprint(**_keyed(normalized))


#: Every op the protocol knows, and how servers treat it.  Adding an op
#: is one entry here plus its handler (see ``docs/SERVICE.md``).
#:
#: ``whatif`` measures a fixed tiering (a plan dict or a uniform tier)
#: on the simulated cluster, with no solver.  ``sweep`` solves a
#: catalog x workload x rep grid on one shard.  Cached params may carry
#: a ``tenant`` string (default ``"default"``): it never enters the
#: fingerprint (plans are tenant-independent) but drives the router's
#: per-tenant fair queueing and the per-tenant metric labels.  ``slo``
#: evaluates the SLO engine (:mod:`repro.obs.slo`; a fleet router rolls
#: every shard's report up, worst state wins), ``profile`` runs the
#: sampling profiler (:mod:`repro.obs.sampler`) and ``debug_dump``
#: returns a flight-recorder postmortem bundle (:mod:`repro.obs.flightrec`).
#: The session ops drive streaming planning sessions (:mod:`repro.session`).
OP_TABLE: Dict[str, OpSpec] = {
    "plan": OpSpec(CACHED, _normalize_solve_params, _solve_fingerprint),
    "plan_workflow": OpSpec(CACHED, _normalize_solve_params, _solve_fingerprint),
    "whatif": OpSpec(CACHED, _normalize_whatif_params, _whatif_fingerprint),
    "sweep": OpSpec(CACHED, _normalize_sweep_params, _sweep_fingerprint),
    "catalog": OpSpec(LOCAL),
    "stats": OpSpec(MONITORING),
    "metrics": OpSpec(MONITORING),
    "slo": OpSpec(MONITORING),
    "profile": OpSpec(MONITORING),
    "debug_dump": OpSpec(MONITORING),
    "ping": OpSpec(MONITORING),
    "register": OpSpec(ROUTER),
    "deregister": OpSpec(ROUTER),
    "session_open": OpSpec(SESSION),
    "session_delta": OpSpec(SESSION),
    "session_close": OpSpec(SESSION),
}

#: The op names, in table order.
OPS = tuple(OP_TABLE)

#: Stream limit for one message — generous headroom over the largest
#: synthetic workload (~100 jobs ≈ 10 KB) without letting one client
#: buffer unbounded garbage.
MAX_LINE_BYTES = 8 * 1024 * 1024


def make_request(
    op: str, params: Optional[Mapping[str, Any]] = None, req_id: Any = None
) -> Dict[str, Any]:
    """Build a v1 request envelope (validating the op client-side)."""
    if op not in OP_TABLE:
        raise ProtocolError(f"unknown op {op!r}; known: {list(OP_TABLE)}")
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "op": op,
        "params": dict(params or {}),
    }


def _parse_object(line: Any, what: str) -> Dict[str, Any]:
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(data).__name__}")
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (supported: {PROTOCOL_VERSION})"
        )
    return data


def parse_request(line: Any) -> Dict[str, Any]:
    """Validate one request line into its envelope dict."""
    data = _parse_object(line, "request")
    op = data.get("op")
    if not isinstance(op, str) or op not in OP_TABLE:
        raise ProtocolError(f"unknown op {op!r}; known: {list(OP_TABLE)}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {type(params).__name__}")
    data["params"] = params
    return data


def ok_response(
    req_id: Any, result: Mapping[str, Any], cached: bool = False
) -> Dict[str, Any]:
    """Success envelope."""
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": True,
        "cached": bool(cached),
        "result": dict(result),
    }


def error_response(req_id: Any, exc: BaseException) -> Dict[str, Any]:
    """Failure envelope with a typed error payload."""
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def parse_response(line: Any) -> Dict[str, Any]:
    """Validate one response line into its envelope dict."""
    data = _parse_object(line, "response")
    if "ok" not in data:
        raise ProtocolError("response missing 'ok' field")
    if data["ok"] and not isinstance(data.get("result"), dict):
        raise ProtocolError("ok response missing 'result' object")
    if not data["ok"] and not isinstance(data.get("error"), dict):
        raise ProtocolError("error response missing 'error' object")
    return data


def exception_from_payload(payload: Mapping[str, Any]) -> CastError:
    """Rebuild the server-side exception from its wire payload.

    Unknown or non-:class:`CastError` type names degrade to
    :class:`ServiceError` — the client never executes arbitrary names.
    """
    name = str(payload.get("type", "ServiceError"))
    message = str(payload.get("message", "unknown service error"))
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, CastError):
        return cls(message)
    return ServiceError(f"{name}: {message}")


def encode_message(obj: Mapping[str, Any]) -> bytes:
    """One message → one compact JSON line."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


async def send_message(writer: asyncio.StreamWriter, obj: Mapping[str, Any]) -> None:
    """Write one message and flush it."""
    writer.write(encode_message(obj))
    await writer.drain()


async def read_message(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one raw message line; ``None`` on a clean EOF.

    A line longer than the reader's limit is discarded through its
    newline, so the stream stays framed, and raises :class:`ProtocolError`.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:  # EOF; keep an unterminated tail
        return exc.partial or None
    except asyncio.LimitOverrunError as exc:
        scanned = exc.consumed
    while True:
        try:
            await reader.readexactly(scanned)
            await reader.readuntil(b"\n")
            break
        except asyncio.LimitOverrunError as exc:
            scanned = exc.consumed
        except asyncio.IncompleteReadError:
            break
    raise ProtocolError(
        f"message line exceeds the stream limit ({MAX_LINE_BYTES} bytes)"
    )
