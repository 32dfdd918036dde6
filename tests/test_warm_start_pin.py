"""Pinned outputs of the warm-start paths (sessions and sweeps).

Seeded session streams (CAST++ and basic CAST on the anneal backend,
plus one tempering session) and a seeded three-catalog sweep (warm and
cold, serial and pooled) are replayed and compared field by field with
``data/warm_start_pin.json``.  Every float is compared for equality:
warm starts must reproduce the recorded plans bit for bit.

The session streams add reuse sets only together with new jobs, so
Constraint 7 already holds for every survivor and the rebase's reuse
repair never fires.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_warm_start_pin.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cloud import resolve_provider
from repro.session import PlanningSession, SessionConfig
from repro.sweep import SweepConfig, SweepEngine
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec
from repro.workloads.swim import synthesize_small_workload

FIXTURE = Path(__file__).parent / "data" / "warm_start_pin.json"

SESSIONS = {
    "castpp-anneal": dict(use_castpp=True, backend="anneal"),
    "cast-anneal": dict(use_castpp=False, backend="anneal"),
    "castpp-tempering": dict(use_castpp=True, backend="tempering", replicas=4),
}


def _job(jid, app, gb):
    return JobSpec.make(jid, app, gb)


def _with_reuse(workload, members, lifetime=ReuseLifetime.SHORT):
    return WorkloadSpec(
        jobs=workload.jobs,
        reuse_sets=workload.reuse_sets
        + (ReuseSet(job_ids=frozenset(members), lifetime=lifetime),),
        name=workload.name,
    )


def _session_workload():
    base = synthesize_small_workload(
        n_jobs=12, total_dataset_gb=1500.0, rng=np.random.default_rng(21),
        name="pin-session",
    )
    ids = [j.job_id for j in base.jobs]
    return _with_reuse(base, ids[1:4], ReuseLifetime.LONG)


def _replan_record(r):
    return {
        "seq": r.seq, "kind": r.kind, "mode": r.mode,
        "iterations": r.iterations, "utility": r.utility,
        "makespan_s": r.makespan_s, "cost_total_usd": r.cost_total_usd,
        "added": list(r.added), "removed": list(r.removed),
        "resident_jobs": r.resident_jobs,
        "drift_distance": r.drift_distance,
        "escalated": r.escalated,
        "parity_ok": r.parity_ok,
        "plan": r.plan.to_dict() if r.plan is not None else None,
    }


def record_session(name):
    workload = _session_workload()
    ids = [j.job_id for j in workload.jobs]
    session = PlanningSession(
        workload, provider=resolve_provider("google"), n_vms=10,
        iterations=150, seed=5,
        config=SessionConfig(full_solve_every=5, parity_check_every=1),
        name=f"pin-{name}", **SESSIONS[name],
    )
    results = [session.last_result]
    results.append(session.remove_jobs([ids[7], ids[2]]))
    results.append(session.add_jobs(
        [_job("n-a", "grep", 40.0), _job("n-b", "sort", 25.0),
         _job("n-c", "kmeans", 60.0)],
        [ReuseSet(job_ids=frozenset({"n-c", "n-a"}))],
    ))
    results.append(session.add_jobs([_job("n-d", "pagerank", 30.0)]))
    results.append(session.remove_jobs(["n-b", ids[0], ids[5]]))
    results.append(session.add_jobs(
        [_job("n-e", "join", 35.0), _job("n-f", "grep", 15.0)],
        [ReuseSet(job_ids=frozenset({"n-f", "n-e"}),
                  lifetime=ReuseLifetime.LONG)],
    ))
    results.append(session.replan())
    results.append(session.remove_jobs(["n-a"]))
    results.append(session.add_jobs(
        [_job("n-g", "sort", 50.0), _job("n-h", "kmeans", 20.0)]
    ))
    results.append(session.remove_jobs([ids[1], "n-e"]))
    stats = session.stats()
    return {
        "replans": [_replan_record(r) for r in results],
        "counters": dict(session.counters),
        "evaluator": stats.get("evaluator"),
    }


def _sweep_workload():
    base = synthesize_small_workload(
        n_jobs=8, total_dataset_gb=800.0, rng=np.random.default_rng(4),
        name="pin-sweep",
    )
    ids = [j.job_id for j in base.jobs]
    return _with_reuse(base, ids[2:5])


def record_sweep(warm, workers=None):
    engine = SweepEngine(
        ("google", "aws", "azure"), [_sweep_workload()],
        knobs=[{}, {}, {"n_vms": 8}],
        # 1,500 iterations: both warm budget fractions clear the
        # 96-iteration floor.
        config=SweepConfig(n_vms=6, iterations=1500, seed=13, warm=warm),
        workers=workers,
    )
    return [
        {
            "index": r.point.index, "mode": r.mode, "utility": r.utility,
            "makespan_min": r.makespan_min,
            "cost_total_usd": r.cost_total_usd,
            "iterations_run": r.iterations_run, "parity_ok": r.parity_ok,
            "transfer_utility": r.transfer_utility,
            "plan": r.plan.to_dict(),
        }
        for r in engine.run().points
    ]


def record_all():
    return {
        "sessions": {name: record_session(name) for name in SESSIONS},
        "sweeps": {
            "warm": record_sweep(True),
            "cold": record_sweep(False),
        },
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_stream_matches_pin(pinned, name):
    assert record_session(name) == pinned["sessions"][name]


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("mode", ["warm", "cold"])
def test_sweep_matches_pin(pinned, mode, workers):
    assert record_sweep(mode == "warm", workers) == pinned["sweeps"][mode]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_warm_start_pin.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
