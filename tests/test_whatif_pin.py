"""Pinned answers of a whatif stream, and the simulator's counters.

A seeded stream of 24 ``whatif`` requests in the style of the service's
mixed traffic (fresh 100-job SWIM workloads, uniform tierings over all
four Google tiers, one exact-engine ``fast: false`` request and one
explicit plan dict) runs through the server's ``_run_whatif`` against a
fresh, persistent simulation cache.  Every answer, the simulation
cache's counters and the fast path's routing counters are compared with
``data/whatif_pin.json``.  Floats are compared for equality, and each
answer's 100-row ``per_job`` table by the SHA-256 of its JSON (float
reprs round-trip, so equal digests mean equal bits): a change to how
simulations are keyed, cached or re-stamped must leave every answer and
every hit/miss bit for bit where it was.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_whatif_pin.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path

import pytest

from repro.cloud.storage import Tier
from repro.core.plan import TieringPlan
from repro.service.protocol import OP_TABLE
from repro.service.server import _run_whatif
from repro.simulator import cache as sim_cache
from repro.simulator.vectorized import fastpath_stats, reset_fastpath_stats
from repro.workloads.io import workload_from_dict

FIXTURE = Path(__file__).parent / "data" / "whatif_pin.json"

APPS = ("sort", "join", "grep", "kmeans")
#: Table 4 of the paper: (map tasks per job, jobs per 100).
SWIM_BINS = ((1, 35), (5, 22), (10, 16), (50, 13), (500, 7), (1500, 4), (3000, 3))
TIERS = ("ephSSD", "persSSD", "persHDD", "objStore")
N_REQUESTS = 24
#: Stream positions of the exact-engine request and the plan-dict one.
ENGINE_AT = 7
PLAN_AT = 13

#: Simulator environment knobs, cleared so the pin runs the defaults.
_SIM_ENV = ("REPRO_SIM_CACHE", "REPRO_SIM_REFERENCE", "REPRO_SIM_ANALYTIC")


def _swim_spec(rng: random.Random, name: str) -> dict:
    """A 100-job SWIM workload dict: one copy of Table 4, shuffled, with
    a few equal-size jobs sharing their input."""
    maps = [m for m, count in SWIM_BINS for _ in range(count)]
    rng.shuffle(maps)
    offset = rng.randrange(len(APPS))
    jobs = [
        {"job_id": f"{name}-j{i:03d}", "app": APPS[(offset + i) % len(APPS)],
         "input_gb": float(m), "n_maps": m}
        for i, m in enumerate(maps)
    ]
    by_maps: dict = {}
    for j in jobs:
        by_maps.setdefault(j["n_maps"], []).append(j["job_id"])
    reuse = [
        {"job_ids": sorted(ids[:2]), "lifetime": "1-hr", "n_accesses": 7}
        for m, ids in sorted(by_maps.items())
        if m >= 10 and len(ids) >= 2
    ]
    return {"version": 1, "kind": "workload", "name": name, "jobs": jobs,
            "reuse_sets": reuse}


def _mixed_plan(spec: dict) -> dict:
    """An exact-fit plan cycling the jobs over all four tiers."""
    workload = workload_from_dict(dict(spec))
    tier_of = {j.job_id: Tier(TIERS[i % len(TIERS)])
               for i, j in enumerate(workload.jobs)}
    return TieringPlan.exact_fit(workload, tier_of).to_dict()


def stream():
    """The 24 normalized whatif requests, in order."""
    rng = random.Random(17)
    out = []
    for i in range(N_REQUESTS):
        spec = _swim_spec(rng, f"w{i}")
        params = {"spec": spec, "provider": "google", "n_vms": 25, "fast": True}
        if i == PLAN_AT:
            params["plan"] = _mixed_plan(spec)
        else:
            params["tier"] = TIERS[(i + rng.randrange(2)) % len(TIERS)]
        if i == ENGINE_AT:
            params["fast"] = False
        out.append(OP_TABLE["whatif"].normalize("whatif", params))
    return out


def _pinned_form(answer: dict) -> dict:
    """The answer with its ``per_job`` table folded into a digest."""
    out = {k: v for k, v in answer.items() if k != "per_job"}
    per_job = json.dumps(answer["per_job"], sort_keys=True, allow_nan=False)
    out["per_job_sha256"] = hashlib.sha256(per_job.encode()).hexdigest()
    return out


def record():
    """Run the stream on a fresh cache; answers plus counters."""
    saved = sim_cache._GLOBAL_CACHE
    sim_cache._GLOBAL_CACHE = sim_cache.SimulationCache()
    reset_fastpath_stats()
    try:
        answers = [_pinned_form(_run_whatif(request)) for request in stream()]
        return {
            "answers": answers,
            "sim_cache": sim_cache.simulation_cache().stats(),
            "fastpath": fastpath_stats(),
        }
    finally:
        sim_cache._GLOBAL_CACHE = saved


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def recorded():
    with pytest.MonkeyPatch.context() as mp:
        for name in _SIM_ENV:
            mp.delenv(name, raising=False)
        return record()


def test_whatif_answers_match_pin(pinned, recorded):
    assert len(recorded["answers"]) == N_REQUESTS
    for i, (got, want) in enumerate(zip(recorded["answers"], pinned["answers"])):
        assert got == want, f"whatif {i} differs from the pin"


def test_simulator_counters_match_pin(pinned, recorded):
    assert recorded["sim_cache"] == pinned["sim_cache"]
    assert recorded["fastpath"] == pinned["fastpath"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_whatif_pin.py --write")
    for name in _SIM_ENV:
        os.environ.pop(name, None)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
