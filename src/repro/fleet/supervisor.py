"""Shard process supervision: spawn, watch, restart, drain.

:class:`FleetSupervisor` owns N ``cast-plan serve`` subprocesses (one
planner shard each) plus their membership in a :class:`FleetRouter`.
It is the first multi-process serving path in the repo — each shard is
a full Python process with its own solver pool, so a fleet of N shards
uses N+ cores where every earlier benchmark was pinned to one.

Responsibilities:

* **spawn** — pick a free port per shard, launch
  ``python -m repro serve --port <p> ...`` with the repo's ``src`` on
  ``PYTHONPATH``, wait until the shard answers ``ping``, then register
  it with the router (in-process or over the wire via the ``register``
  op);
* **watch** — a monitor task polls child liveness; a crashed shard is
  respawned on its *original port* (so the hash ring mapping is
  unchanged — restart is invisible to routing) and re-registered,
  bounded by ``restart_limit`` respawns per shard to keep a
  crash-looping binary from spinning forever;
* **drain** — :meth:`stop` sends SIGTERM (which ``cast-plan serve``
  handles like Ctrl-C: drain inflight solves, close the socket, exit
  0), escalating to SIGKILL only after ``stop_timeout_s``.

The supervisor is asyncio-native so it can live on the router's event
loop (the ``cast-plan fleet`` command) or inside tests.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import socket
import sys
import time
from typing import Any, Dict, List, Optional

from ..errors import CastError, FleetError
from ..service.client import ping
from .router import FleetRouter

__all__ = ["FleetSupervisor", "ShardProcess", "free_port"]

logger = logging.getLogger(__name__)


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bound briefly, then released)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _kill_group(process: "asyncio.subprocess.Process") -> None:
    """SIGKILL the shard's whole process group (workers included).

    The shard forks solver-pool workers that inherit its socket fds;
    killing only the parent leaves them alive holding those fds, so the
    router's pooled connections never see EOF.  Falls back to killing
    just the parent where process groups aren't available.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            process.kill()
        except ProcessLookupError:  # pragma: no cover - exit race
            pass


def _src_pythonpath() -> str:
    """The repo ``src`` dir (where :mod:`repro` lives), for child procs."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class ShardProcess:
    """One supervised planner shard subprocess."""

    def __init__(self, shard_id: str, host: str, port: int) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.process: Optional[asyncio.subprocess.Process] = None
        self.restarts = 0
        self.detached = False  # killed on purpose; do not respawn

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "host": self.host,
            "port": self.port,
            "pid": self.process.pid if self.process else None,
            "alive": self.alive,
            "restarts": self.restarts,
            "detached": self.detached,
        }


class FleetSupervisor:
    """Spawn N planner shards, keep them alive, keep the router current.

    Parameters
    ----------
    router:
        The in-process :class:`FleetRouter` to register shards with.
    shards:
        How many shard processes to run.
    pool_processes / restarts / max_inflight / cache_size /
    request_timeout_s:
        Passed through to each shard's ``cast-plan serve``.
        ``pool_processes`` defaults to 1 so an N-shard fleet uses ~N
        cores rather than N × cpu_count.
    auto_restart / restart_limit:
        Whether (and how many times per shard) to respawn crashed
        shards.
    ready_timeout_s:
        How long to wait for a freshly spawned shard to answer pings.
    """

    def __init__(
        self,
        router: FleetRouter,
        shards: int = 2,
        *,
        host: str = "127.0.0.1",
        pool_processes: int = 1,
        restarts: int = 4,
        max_inflight: int = 4,
        cache_size: int = 128,
        request_timeout_s: float = 600.0,
        auto_restart: bool = True,
        restart_limit: int = 5,
        ready_timeout_s: float = 30.0,
        check_interval_s: float = 0.5,
        python: Optional[str] = None,
        dump_dir: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise FleetError(f"fleet needs >= 1 shard, got {shards}")
        self.router = router
        self.host = host
        self.pool_processes = int(pool_processes)
        self.restarts = int(restarts)
        self.max_inflight = int(max_inflight)
        self.cache_size = int(cache_size)
        self.request_timeout_s = float(request_timeout_s)
        self.auto_restart = bool(auto_restart)
        self.restart_limit = int(restart_limit)
        self.ready_timeout_s = float(ready_timeout_s)
        self.check_interval_s = float(check_interval_s)
        self.python = python or sys.executable
        self.dump_dir = dump_dir
        self.shards: List[ShardProcess] = [
            ShardProcess(f"shard-{i}", host, free_port(host)) for i in range(shards)
        ]
        self._monitor_task: Optional["asyncio.Task[None]"] = None

    # -- spawning ------------------------------------------------------------

    def _command(self, shard: ShardProcess) -> List[str]:
        cmd = [
            self.python, "-m", "repro", "serve",
            "--host", shard.host,
            "--port", str(shard.port),
            "--pool-processes", str(self.pool_processes),
            "--restarts", str(self.restarts),
            "--max-inflight", str(self.max_inflight),
            "--cache-size", str(self.cache_size),
            "--request-timeout", str(self.request_timeout_s),
        ]
        if self.dump_dir:
            # One subdirectory per shard so concurrent page dumps from
            # different shards never race on a filename.
            cmd.extend(
                ["--dump-dir", os.path.join(self.dump_dir, shard.shard_id)]
            )
        return cmd

    async def _spawn(self, shard: ShardProcess) -> None:
        env = dict(os.environ)
        src = _src_pythonpath()
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        # Each shard leads its own process group so a hard kill can take
        # its forked solver workers down with it (a SIGKILL to the shard
        # alone leaves workers orphaned, still holding inherited
        # connection fds — see _kill_group).
        shard.process = await asyncio.create_subprocess_exec(
            *self._command(shard),
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        await self._wait_ready(shard)
        self.router.add_shard(shard.shard_id, shard.host, shard.port)

    async def _wait_ready(self, shard: ShardProcess) -> None:
        """Poll until the shard answers a ``ping`` (or the deadline)."""
        deadline = time.monotonic() + self.ready_timeout_s
        while time.monotonic() < deadline:
            if not shard.alive:
                raise FleetError(
                    f"{shard.shard_id} exited with code "
                    f"{shard.process.returncode if shard.process else '?'} "
                    f"before becoming ready"
                )
            try:
                await asyncio.wait_for(ping(shard.host, shard.port), timeout=2.0)
                return
            except (OSError, asyncio.TimeoutError, CastError):
                pass
            await asyncio.sleep(0.05)
        raise FleetError(
            f"{shard.shard_id} did not become ready within "
            f"{self.ready_timeout_s:.0f}s on {shard.host}:{shard.port}"
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard, register each, start the crash monitor."""
        try:
            await asyncio.gather(*(self._spawn(s) for s in self.shards))
        except BaseException:
            await self.stop()
            raise
        self._monitor_task = asyncio.create_task(self._monitor())

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(self.check_interval_s)
            for shard in self.shards:
                if shard.alive or shard.detached:
                    continue
                code = shard.process.returncode if shard.process else None
                self.router._mark_down(shard.shard_id, f"process exited ({code})")
                if not self.auto_restart:
                    shard.detached = True
                    continue
                if shard.restarts >= self.restart_limit:
                    logger.error(
                        "%s crash-looped %d times; giving up",
                        shard.shard_id, shard.restarts,
                    )
                    shard.detached = True
                    continue
                shard.restarts += 1
                logger.warning(
                    "%s exited (%s); respawn %d/%d on port %d",
                    shard.shard_id, code, shard.restarts,
                    self.restart_limit, shard.port,
                )
                try:
                    # Same port → same ring position; the restart is
                    # invisible to routing once re-registered.
                    await self._spawn(shard)
                except FleetError:
                    logger.exception("respawn of %s failed", shard.shard_id)

    async def kill_shard(self, shard_id: str, respawn: bool = False) -> None:
        """Hard-kill one shard (failure injection for tests/benchmarks).

        ``respawn=False`` detaches it from the monitor so it stays
        dead; ``respawn=True`` leaves the crash-restart path to bring
        it back.
        """
        for shard in self.shards:
            if shard.shard_id == shard_id:
                shard.detached = not respawn
                if shard.alive:
                    assert shard.process is not None
                    _kill_group(shard.process)
                    await shard.process.wait()
                if not respawn:
                    self.router._mark_down(shard_id, "killed by supervisor")
                return
        raise FleetError(f"unknown shard {shard_id!r}")

    async def stop(self, stop_timeout_s: float = 10.0) -> None:
        """SIGTERM every shard (graceful drain), SIGKILL stragglers."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None

        async def terminate(shard: ShardProcess) -> None:
            if not shard.alive:
                return
            assert shard.process is not None
            try:
                shard.process.send_signal(signal.SIGTERM)
            except ProcessLookupError:  # pragma: no cover - exit race
                return
            try:
                await asyncio.wait_for(shard.process.wait(), stop_timeout_s)
            except asyncio.TimeoutError:  # pragma: no cover - drain hang
                logger.warning("%s ignored SIGTERM; killing", shard.shard_id)
                _kill_group(shard.process)
                await shard.process.wait()

        await asyncio.gather(*(terminate(s) for s in self.shards))

    def stats(self) -> List[Dict[str, Any]]:
        """Per-shard process state (pid, liveness, respawn count)."""
        return [s.to_dict() for s in self.shards]
