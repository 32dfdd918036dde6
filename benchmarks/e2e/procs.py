"""Server process lifecycle for the benchmark: spawn, find, measure, reap.

Processes are found through ``/proc`` (``psutil`` is not installed):
a daemon forks its solver-pool workers, and a fleet router spawns shard
processes that lead process groups of their own, so the benchmark
records the whole tree while it is alive and checks every recorded
process is gone after teardown.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Tuple

_BANNER = re.compile(r"(?:listening on|router on) [\w.]+:(\d+)")

SERVER_NICENESS = 5

#: A process is identified by pid plus its kernel start time, so a
#: recycled pid is never mistaken for a survivor.
ProcKey = Tuple[int, int]


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def proc_key(pid: int) -> Optional[ProcKey]:
    """``(pid, start time)``, or None when the process is gone or a zombie."""
    fields = _stat_fields(pid)
    if fields is None or fields[0] == "Z":
        return None
    return (pid, int(fields[19]))


def alive(key: ProcKey) -> bool:
    return proc_key(key[0]) == key


def descendants(root: int) -> Dict[int, int]:
    """``root`` and every live process below it, as pid → parent pid."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                children.setdefault(int(fields[1]), []).append(int(entry))
    out: Dict[int, int] = {}
    todo = [(root, 0)]
    while todo:
        pid, parent = todo.pop()
        if proc_key(pid) is not None:
            out[pid] = parent
        todo.extend((child, pid) for child in children.get(pid, ()))
    return out


def rss_mb(pids: Iterable[int]) -> float:
    """Summed resident set size of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One spawned ``cast-plan serve`` or ``cast-plan fleet`` process tree."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str, log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        # Below the client's priority (children inherit it): a starved
        # load generator sends late and times its own stalls.
        os.setpriority(os.PRIO_PROCESS, self.proc.pid, SERVER_NICENESS)
        self.port: Optional[int] = None
        self.recorded: Dict[ProcKey, int] = {}  # process -> its process group
        self.parents: Dict[int, int] = {}       # pid -> parent pid, as recorded

    def wait_banner(self, timeout_s: float) -> int:
        """Block until the banner names the bound port; return it."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as fh:
                match = _BANNER.search(fh.read().decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"server did not start (exit {self.proc.poll()}); see {self.log_path}"
        )

    def record_tree(self) -> List[int]:
        """Remember every live process of the tree; return their pids."""
        tree = descendants(self.proc.pid)
        for pid, parent in tree.items():
            key = proc_key(pid)
            if key is not None:
                try:
                    self.recorded[key] = os.getpgid(pid)
                except ProcessLookupError:
                    continue
                self.parents[pid] = parent
        return list(tree)

    def teardown(self, grace_s: float = 15.0) -> List[ProcKey]:
        """SIGTERM every recorded process group, then SIGKILL stragglers.

        The daemon and the fleet drain on SIGTERM: pools shut down, so
        pool workers exit normally and flush what they hold.  Returns
        the recorded processes still alive afterwards (empty on success).
        """
        self.record_tree()
        groups = sorted(set(self.recorded.values()))
        for pgid in groups:
            _signal_group(pgid, signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline and any(map(alive, self.recorded)):
            self.proc.poll()
            time.sleep(0.02)
        if any(map(alive, self.recorded)):
            for pgid in groups:
                _signal_group(pgid, signal.SIGKILL)
            for key in self.recorded:
                if alive(key):
                    _kill(key[0])
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        self._log.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(alive, self.recorded)):
            time.sleep(0.02)
        return [key for key in self.recorded if alive(key)]


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
