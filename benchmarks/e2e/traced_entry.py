"""Span recording for the traced benchmark run, and its process launcher.

``python traced_entry.py <cast-plan arguments>`` wraps the public
callables of each layer (:data:`TARGETS`) and then runs
``repro.cli.main``.  Every ``repro.*`` module attribute bound to a
wrapped function object is rebound too, so names imported with
``from x import f`` are covered.  Pool workers fork from this process
and inherit the wrappers; shard processes that a fleet launches with
``python -m repro`` are redirected through this launcher.

A span is ``(layer, name, start_ns, end_ns, span_id, parent_id,
trace_id, kind, nbytes)`` with ``time.monotonic_ns`` clocks (one clock
for every process on the host).  The parent is the enclosing wrapped
call of the same process, tracked through a ``ContextVar`` so asyncio
tasks and ``asyncio.to_thread`` work nest correctly; ``trace_id`` is
:func:`repro.obs.tracing.current_trace_id`, which links solver-pool
restarts to the request that fanned them out.  Spans stay in memory and
are written once per process at exit (pool workers through
``multiprocessing.util.Finalize``) as ``spans-<pid>.json`` in
``$CAST_E2E_SPAN_DIR``.

No wrapper sits on a per-iteration function; the program's own counters
cover those.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from contextvars import ContextVar
from typing import Any, Callable, List, Optional, Tuple

SPAN_DIR_ENV = "CAST_E2E_SPAN_DIR"

#: (module, attribute path, layer).  Layers are named after modules.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.protocol", "encode_message", "protocol"),
    ("repro.service.protocol", "parse_request", "protocol"),
    ("repro.service.protocol", "parse_response", "protocol"),
    ("repro.service.fingerprint", "request_fingerprint", "fingerprint"),
    ("repro.service.fingerprint", "whatif_fingerprint", "fingerprint"),
    ("repro.service.fingerprint", "sweep_fingerprint", "fingerprint"),
    ("repro.workloads.io", "workload_from_dict", "io"),
    ("repro.service.pool", "SolverPool.solve", "pool"),
    ("repro.core.solver", "solve_workload_request", "solver"),
    ("repro.core.solver", "CastSolver.initial_plan", "solver.seed"),
    ("repro.core.castpp", "CastPlusPlus.initial_plan", "solver.seed"),
    ("repro.core.utility", "evaluate_plan", "utility"),
    ("repro.experiments.measure", "measure_plan", "simulator"),
    ("repro.session.session", "PlanningSession.add_jobs", "session"),
    ("repro.session.session", "PlanningSession.remove_jobs", "session"),
    ("repro.sweep.engine", "SweepEngine.run", "sweep"),
    ("repro.profiler.profiler", "build_model_matrix", "profiler"),
    ("repro.fleet.tenancy", "WeightedFairScheduler.acquire", "router.wfq"),
)

Span = Tuple[str, str, int, int, int, Optional[int], Optional[str], str, int]

_current: "ContextVar[Optional[int]]" = ContextVar("cast_e2e_span", default=None)


class Recorder:
    """The spans of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.installed = False
        self._ids = itertools.count(1)
        self._trace_id: Callable[[], Optional[str]] = lambda: None

    def reset_after_fork(self) -> None:
        """A forked child starts empty and flushes at its own exit."""
        from multiprocessing import util

        self.pid = os.getpid()
        self.spans = []
        span_dir = os.environ.get(SPAN_DIR_ENV)
        if span_dir:
            util.Finalize(None, self.flush, args=(span_dir,), exitpriority=100)

    def flush(self, span_dir: str) -> None:
        os.makedirs(span_dir, exist_ok=True)
        path = os.path.join(span_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "missing": self.missing, "spans": self.spans}, fh)


RECORDER = Recorder()


def _kind_and_size(name: str, args: Tuple[Any, ...], result: Any) -> Tuple[str, int]:
    """Protocol spans carry the message direction and its byte count."""
    if name == "encode_message":
        obj = args[0] if args else {}
        kind = "request" if isinstance(obj, dict) and "op" in obj else "response"
        return kind, len(result) if isinstance(result, (bytes, bytearray)) else 0
    if name in ("parse_request", "parse_response"):
        line = args[0] if args else b""
        size = len(line) if isinstance(line, (bytes, bytearray, str)) else 0
        return ("request" if name == "parse_request" else "response"), size
    return "", 0


def _wrap(fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
    rec = RECORDER
    ids = rec._ids

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = _current.get()
            trace = rec._trace_id()
            token = _current.set(sid)
            start = time.monotonic_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                _current.reset(token)
                rec.spans.append((layer, name, start, end, sid, parent, trace, "", 0))

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = next(ids)
        parent = _current.get()
        trace = rec._trace_id()
        token = _current.set(sid)
        start = time.monotonic_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            _current.reset(token)
            kind, size = _kind_and_size(name, args, result)
            rec.spans.append((layer, name, start, end, sid, parent, trace, kind, size))

    return wrapper


def install() -> Recorder:
    """Wrap every target in this process (idempotent); return the recorder."""
    if RECORDER.installed:
        return RECORDER
    from repro.obs.tracing import current_trace_id

    RECORDER._trace_id = current_trace_id
    for mod_name, path, layer in TARGETS:
        try:
            owner: Any = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            RECORDER.missing.append(f"{mod_name}.{path}")
            continue
        wrapped = _wrap(original, layer, attr)
        setattr(owner, attr, wrapped)
        if not parents:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
    from multiprocessing import util

    util.register_after_fork(RECORDER, Recorder.reset_after_fork)
    RECORDER.installed = True
    return RECORDER


def _redirect_shards() -> None:
    """Launch ``python -m repro ...`` children through this file instead."""
    original = asyncio.create_subprocess_exec

    async def create_subprocess_exec(program: Any, *args: Any, **kwargs: Any) -> Any:
        if args[:2] == ("-m", "repro"):
            args = (os.path.abspath(__file__),) + args[2:]
        return await original(program, *args, **kwargs)

    asyncio.create_subprocess_exec = create_subprocess_exec


def main(argv: List[str]) -> int:
    import atexit

    import repro.cli

    install()
    _redirect_shards()
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        pid = os.getpid()
        atexit.register(lambda: RECORDER.pid == pid and RECORDER.flush(span_dir))
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
