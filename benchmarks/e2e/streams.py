"""Seeded request streams for the four end-to-end workloads.

Everything here is plain Python over ``random.Random(seed)`` and imports
nothing from the program under test: the same seed yields byte-identical
wire requests on any machine and at any revision, and the program only
ever sees the generated requests.

A :class:`Plan` is what one run sends: warm-up requests (part of set-up,
never timed as latency) and the measured stream.  Every stream has a
fixed length for a given ``seconds``, so each run of a seed serves the
same requests however fast the program is.  Open-loop streams carry a
due time per request and hold exactly ``rate × seconds`` requests;
closed-loop streams hold ``per_s × seconds``, at most what a 2-core
machine answered in ``seconds`` when the benchmark was written.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

APPS = ("sort", "join", "grep", "kmeans")

#: Table 4 of the paper (SWIM synthesis of the Facebook trace):
#: (map tasks per job, jobs per 100).
SWIM_BINS: Tuple[Tuple[int, int], ...] = (
    (1, 35), (5, 22), (10, 16), (50, 13), (500, 7), (1500, 4), (3000, 3),
)

GOOGLE_TIERS = ("ephSSD", "persSSD", "persHDD", "objStore")

#: Annealer budget of the ``solve-cold`` solves.
SOLVE_COLD_ITERATIONS = 1000
#: Requests per second of window in the closed loops.  Two idle cores
#: answered 6.3 solves/s and 960 hits/s when the benchmark was written;
#: 4000 hits already pin the p50 far below the host's own noise, so
#: ``cache-hot`` sends about half a window's worth and leaves the time to
#: set-up on a slow host.
SOLVE_COLD_PER_S = 6
CACHE_HOT_PER_S = 500
#: Cached working set of ``cache-hot``: twice the router's L1 (64
#: entries), and each shard's share fits its own 128-entry plan cache
#: with room for ring imbalance.
CACHE_HOT_KEYS = 128
SESSION_CHURN_RATE = 12.0
FLEET_MIXED_RATE = 10.0


@dataclass(frozen=True)
class Request:
    """One wire request.  ``due_s`` is the open-loop offset from the start
    of the window; ``session`` names the session a delta belongs to."""

    op: str
    params: Dict[str, Any]
    due_s: Optional[float] = None
    session: Optional[str] = None


@dataclass(frozen=True)
class Spec:
    """The static shape of a workload (``BENCHMARK.json`` says why)."""

    name: str
    topology: str                 # "solo" daemon or "fleet" (router + 2 shards)
    serve_args: Tuple[str, ...]   # extra ``cast-plan serve|fleet`` arguments
    loop: str                     # "closed" or "open"
    connections: int


@dataclass
class Plan:
    """Everything one run sends, in order."""

    spec: Spec
    #: Sent concurrently, over a few connections, before the window.
    warmup: List[Request]
    #: Sent in order straight to every shard (to the daemon when solo),
    #: shards in parallel: warms per-process state the router would
    #: spread unevenly, such as the model matrices of a sweep's catalogs.
    per_shard: List[Request] = field(default_factory=list)
    #: Session opens, sent last in the warm-up; the window's deltas
    #: refer to these session ids.
    sessions: List[Request] = field(default_factory=list)
    stream: List[Request] = field(default_factory=list)


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec("solve-cold", "solo", ("--pool-processes", "2", "--restarts", "2"),
             "closed", 2),
        # One connection: a cache hit is a serial client -> router -> shard
        # path, and two connections made four processes fight over two
        # cores, which swung medians by a third from run to run.
        Spec("cache-hot", "fleet", ("--shards", "2", "--cache-size", "64"), "closed", 1),
        Spec("session-churn", "solo", ("--pool-processes", "1"), "open", 1),
        Spec("fleet-mixed", "fleet",
             ("--shards", "2", "--tenant-weight", "interactive=4",
              "--tenant-weight", "batch=1"), "open", 2),
    )
}


# -- workload synthesis -------------------------------------------------------


def _job(job_id: str, app: str, maps: int) -> Dict[str, Any]:
    return {"job_id": job_id, "app": app, "input_gb": float(maps), "n_maps": maps}


def swim_jobs(rng: random.Random, n_jobs: int, prefix: str) -> List[Dict[str, Any]]:
    """``n_jobs`` Facebook/SWIM jobs: whole copies of Table 4 first, then
    the remainder drawn with the table's job shares, in shuffled order."""
    maps: List[int] = []
    for _ in range(n_jobs // 100):
        for m, count in SWIM_BINS:
            maps.extend([m] * count)
    bins = [m for m, _ in SWIM_BINS]
    weights = [count for _, count in SWIM_BINS]
    maps.extend(rng.choices(bins, weights, k=n_jobs - len(maps)))
    rng.shuffle(maps)
    offset = rng.randrange(len(APPS))
    return [
        _job(f"{prefix}{i:04d}", APPS[(offset + i) % len(APPS)], m)
        for i, m in enumerate(maps)
    ]


def small_jobs(rng: random.Random, n_jobs: int, prefix: str) -> List[Dict[str, Any]]:
    """Modest jobs (16–256 one-GB splits, log-uniform), the §5.1.4 shape."""
    offset = rng.randrange(len(APPS))
    return [
        _job(
            f"{prefix}{i:04d}",
            APPS[(offset + i) % len(APPS)],
            int(round(math.exp(rng.uniform(math.log(16), math.log(256))))),
        )
        for i in range(n_jobs)
    ]


def reuse_sets(
    rng: random.Random, jobs: List[Dict[str, Any]], fraction: float = 0.15
) -> List[Dict[str, Any]]:
    """Share inputs among ``fraction`` of the jobs, in groups of 2–3 jobs
    of equal size, largest jobs first (as the paper's synthesis does)."""
    remaining = int(round(fraction * len(jobs)))
    by_maps: Dict[int, List[str]] = {}
    for j in jobs:
        by_maps.setdefault(j["n_maps"], []).append(j["job_id"])
    sets = []
    for m in sorted(by_maps, reverse=True):
        ids = list(by_maps[m])
        rng.shuffle(ids)
        while len(ids) >= 2 and remaining >= 2:
            take = 3 if len(ids) >= 3 and remaining >= 3 else 2
            group, ids = ids[:take], ids[take:]
            sets.append({"job_ids": sorted(group), "lifetime": "1-hr", "n_accesses": 7})
            remaining -= take
    return sets


def workload(
    name: str, jobs: List[Dict[str, Any]], sets: Optional[List[Dict[str, Any]]] = None
) -> Dict[str, Any]:
    """A schema-v1 workload dict."""
    return {"version": 1, "kind": "workload", "name": name, "jobs": jobs,
            "reuse_sets": list(sets or [])}


def swim_workload(rng: random.Random, n_jobs: int, name: str) -> Dict[str, Any]:
    jobs = swim_jobs(rng, n_jobs, f"{name}-j")
    return workload(name, jobs, reuse_sets(rng, jobs))


def _plan(spec: Dict[str, Any], rng: random.Random, iterations: int, restarts: int,
          backend: str = "anneal") -> Request:
    return Request("plan", {
        "spec": spec, "provider": "google", "n_vms": 25,
        "iterations": iterations, "seed": rng.randrange(2**31),
        "use_castpp": True, "restarts": restarts, "backend": backend,
        "replicas": 8,
    })


def _whatif(spec: Dict[str, Any], rng: random.Random,
            tenant: Optional[str] = None) -> Request:
    params = {"spec": spec, "tier": rng.choice(GOOGLE_TIERS),
              "provider": "google", "n_vms": 25, "fast": True}
    if tenant is not None:
        params["tenant"] = tenant
    return Request("whatif", params)


def _sweep(spec: Dict[str, Any], rng: random.Random) -> Request:
    return Request("sweep", {
        "specs": [spec], "providers": ["google", "aws", "azure"], "reps": 2,
        "n_vms": 25, "iterations": 1000, "seed": rng.randrange(2**31),
        "use_castpp": True, "backend": "anneal", "replicas": 8,
        "warm": True, "tenant": "batch",
    })


def _session_open(session_id: str, spec: Dict[str, Any], rng: random.Random,
                  iterations: int, config: Optional[Dict[str, Any]] = None) -> Request:
    params = {
        "session_id": session_id, "spec": spec, "provider": "google",
        "n_vms": 25, "iterations": iterations, "seed": rng.randrange(2**31),
        "use_castpp": True, "include_plan": True,
    }
    if config is not None:
        params["config"] = config
    return Request("session_open", params, session=session_id)


class _Churn:
    """Alternating departure/arrival deltas against one session, tracking
    the resident set so every delta is valid when applied in order."""

    def __init__(self, session_id: str, spec: Dict[str, Any]) -> None:
        self.session_id = session_id
        self.resident = [j["job_id"] for j in spec["jobs"]]
        self.count = 0

    def next(self, rng: random.Random, tenant: Optional[str] = None) -> Dict[str, Any]:
        params: Dict[str, Any] = {"session_id": self.session_id}
        if self.count % 2 == 0:
            victim = self.resident.pop(rng.randrange(len(self.resident)))
            params["remove"] = [victim]
        else:
            job = swim_jobs(rng, 1, f"{self.session_id}-a{self.count:05d}-")[0]
            self.resident.append(job["job_id"])
            params["add"] = {"jobs": [job], "reuse_sets": []}
        if tenant is not None:
            params["tenant"] = tenant
        self.count += 1
        return params


def _zipf(rng: random.Random, n: int, s: float, k: int) -> List[int]:
    """``k`` draws of indices ``0..n-1`` with P(i) ∝ 1/(i+1)**s."""
    weights = [1.0 / (i + 1) ** s for i in range(n)]
    return rng.choices(range(n), weights, k=k)


# -- the four workloads -------------------------------------------------------


def _solve_cold(rng: random.Random, seconds: float) -> Plan:
    def request(i: int, prefix: str) -> Request:
        if i % 4 == 3:
            spec = swim_workload(rng, 500, f"{prefix}{i}")
            return _plan(spec, rng, SOLVE_COLD_ITERATIONS, 2, backend="tempering")
        return _plan(swim_workload(rng, 100, f"{prefix}{i}"), rng,
                     SOLVE_COLD_ITERATIONS, 2)

    # Set-up only has to build the model matrix in both pool workers and
    # touch both annealers; two restarts of a small solve each do that.
    warmup = [_plan(swim_workload(rng, 20, f"warm{b}"), rng, 100, 2, backend=b)
              for b in ("anneal", "tempering")]
    stream = [request(i, "cold") for i in range(max(8, round(SOLVE_COLD_PER_S * seconds)))]
    return Plan(SPECS["solve-cold"], warmup, stream=stream)


def _cache_hot(rng: random.Random, seconds: float) -> Plan:
    # Key i has popularity rank i and every third key is a whatif, so the
    # hot set has the same op mix and message sizes at every seed.  The
    # keys are solved once, in set-up, so a small budget keeps set-up short.
    keys: List[Request] = []
    for i in range(CACHE_HOT_KEYS):
        if i % 3 == 2:
            keys.append(_whatif(swim_workload(rng, 50, f"hot{i}"), rng))
        else:
            keys.append(_plan(swim_workload(rng, 32, f"hot{i}"), rng, 50, 1))
    draws = _zipf(rng, len(keys), 1.0, max(100, round(CACHE_HOT_PER_S * seconds)))
    return Plan(SPECS["cache-hot"], keys, stream=[keys[i] for i in draws])


def _session_churn(rng: random.Random, seconds: float) -> Plan:
    # After six warm re-plans the seventh delta is a full re-solve that
    # stalls the session for ~90 ms (400 jobs; its cost grows with the
    # session, not the iterations), a little longer than the 83 ms
    # between deltas.  The stalls are 1/7 of the requests, more than the
    # tenth above the p90, so the p90 lies among them, and at
    # most the next delta queues behind one, so the p50 lies among the
    # warm re-plans.  Both then move in proportion to the work; a stall
    # that queued several deltas made the p90 swing twice as much as the
    # host.  No shared inputs: reuse sets make each re-plan several
    # times dearer.
    spec = workload("churn", swim_jobs(rng, 400, "churn-j"))
    opener = _session_open("churn", spec, rng, 500, {"full_solve_every": 6})
    churn = _Churn("churn", spec)
    stream = [
        Request("session_delta", churn.next(rng), due_s=i / SESSION_CHURN_RATE,
                session="churn")
        for i in range(max(2, int(SESSION_CHURN_RATE * seconds)))
    ]
    return Plan(SPECS["session-churn"], [], sessions=[opener], stream=stream)


#: One block of ``fleet-mixed`` ops, 100 ms apart, repeated: 55% plan
#: (6 fresh keys that solve, 5 repeats that hit the router's L1), 30%
#: whatif, 10% delta, 5% sweep, with the ``batch`` tenant at the
#: positions in :data:`MIXED_BATCH` (30%, the sweep among them).  Solves
#: are at least 200 ms apart and 300 ms after the sweep, so no solve
#: waits on another: the p90 then lies among the solves
#: and the p50 among the whatifs, and both move with the work they do.
#: Shuffled blocks and Poisson arrivals made which ops collided the luck
#: of the seed, and the p90 followed the collisions.
MIXED_BLOCK = (
    "plan", "whatif", "hit", "plan", "session_delta", "whatif", "plan", "hit",
    "whatif", "hit", "sweep", "whatif", "hit", "plan", "session_delta", "plan",
    "whatif", "plan", "hit", "whatif",
)
MIXED_BATCH = frozenset((2, 5, 10, 13, 16, 18))


def _fleet_mixed(rng: random.Random, seconds: float) -> Plan:
    openers, churns = [], {}
    for sid in ("mix-a", "mix-b"):
        spec = swim_workload(rng, 200, sid)
        openers.append(_session_open(sid, spec, rng, 1000))
        churns[sid] = _Churn(sid, spec)
    warm_sweep = _sweep(workload("warms", small_jobs(rng, 4, "warms-j")), rng)
    per_shard = [
        _plan(swim_workload(rng, 100, "warmp"), rng, 200, 1),
        _whatif(swim_workload(rng, 100, "warmw"), rng),
        Request("sweep", dict(warm_sweep.params, reps=1, iterations=50)),
    ]
    # A hit repeats a key answered well before, or one warmed in set-up.
    resident = [_plan(swim_workload(rng, 100, f"mixr{i}"), rng, 500, 1) for i in range(4)]
    sent_plans: List[Tuple[int, Request]] = []
    stream: List[Request] = []
    deltas = 0
    for i in range(max(len(MIXED_BLOCK), int(round(FLEET_MIXED_RATE * seconds)))):
        t = i / FLEET_MIXED_RATE
        op = MIXED_BLOCK[i % len(MIXED_BLOCK)]
        tenant = "batch" if i % len(MIXED_BLOCK) in MIXED_BATCH else "interactive"
        if op == "plan":
            key = _plan(swim_workload(rng, 100, f"mixp{i}"), rng, 500, 1)
            sent_plans.append((i, key))
            req = Request("plan", dict(key.params, tenant=tenant), due_s=t)
        elif op == "hit":
            key = rng.choice([k for j, k in sent_plans if i - j >= 20] + resident)
            req = Request("plan", dict(key.params, tenant=tenant), due_s=t)
        elif op == "whatif":
            req = Request("whatif", _whatif(swim_workload(rng, 100, f"mixw{i}"), rng,
                                            tenant).params, due_s=t)
        elif op == "session_delta":
            sid = ("mix-a", "mix-b")[deltas % 2]
            deltas += 1
            req = Request("session_delta", churns[sid].next(rng, tenant), due_s=t,
                          session=sid)
        else:
            spec = workload(f"mixs{i}", small_jobs(rng, 16, f"mixs{i}-j"))
            req = Request("sweep", _sweep(spec, rng).params, due_s=t)
        stream.append(req)
    return Plan(SPECS["fleet-mixed"], resident, per_shard=per_shard, sessions=openers,
                stream=stream)


_WORKLOADS = {
    "solve-cold": _solve_cold,
    "cache-hot": _cache_hot,
    "session-churn": _session_churn,
    "fleet-mixed": _fleet_mixed,
}


def build(name: str, seed: int, seconds: float) -> Plan:
    """The plan for workload ``name`` at ``seed`` over a ``seconds`` window."""
    if name not in _WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_WORKLOADS)}")
    return _WORKLOADS[name](random.Random(f"{name}:{seed}"), float(seconds))
