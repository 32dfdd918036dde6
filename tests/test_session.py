"""Streaming planning sessions: warm-start delta-solves under churn.

Unit coverage for :mod:`repro.session` (config validation, drift
detection, the event log and trace format, warm/full/empty re-plan
modes, parity) plus the service-layer session ops end to end.
"""

import asyncio
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.solver import rebase_plan
from repro.errors import SessionError
from repro.session import (
    DriftDetector,
    PlanningSession,
    SessionConfig,
    SessionLog,
    load_trace,
    mix_distance,
    save_trace,
    workload_mix,
)
from repro.session.session import WARM_SCHEDULE
from repro.workloads.apps import GREP, KMEANS, SORT
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec
from repro.workloads.swim import synthesize_small_workload

ITERATIONS = 300


def _job(jid, app=GREP, gb=20.0):
    return JobSpec(job_id=jid, app=app, input_gb=gb, n_maps=20)


def _workload(n=8):
    return synthesize_small_workload(
        n_jobs=n, rng=np.random.default_rng(5), name="sess"
    )


@pytest.fixture()
def session(provider):
    return PlanningSession(
        _workload(), provider=provider, iterations=ITERATIONS, seed=7,
        config=SessionConfig(parity_check_every=1),
    )


class TestSessionConfig:
    def test_defaults_valid(self):
        SessionConfig()

    @pytest.mark.parametrize("bad", [
        {"drift_threshold": 0.0},
        {"drift_threshold": 1.5},
        {"drift_window": 0},
        {"full_solve_every": 0},
        {"parity_check_every": -1},
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(SessionError):
            SessionConfig(**bad)


_MIX_A = {"grep": 0.1, "join": 0.2, "kmeans": 0.3, "pagerank": 0.15, "sort": 0.25}
_MIX_B = {"grep": 0.3, "join": 0.1, "kmeans": 0.05, "pagerank": 0.35, "sort": 0.2}
_MIX_DISTANCE_SCRIPT = f"""
from repro.session import mix_distance
print(repr(mix_distance({_MIX_A!r}, {_MIX_B!r})))
"""


class TestDriftDetector:
    def test_mix_is_input_share_per_app(self):
        jobs = [_job("a", GREP, 30.0), _job("b", SORT, 10.0)]
        assert workload_mix(jobs) == {"grep": 0.75, "sort": 0.25}
        assert workload_mix([]) == {}

    def test_distance_bounds(self):
        a = {"grep": 1.0}
        assert mix_distance(a, a) == 0.0
        assert mix_distance(a, {"sort": 1.0}) == 1.0

    def test_distance_is_independent_of_hash_seed(self):
        # Five apps whose |a - b| terms round differently in different
        # summation orders: summed over a set of str keys, the last bit
        # depended on PYTHONHASHSEED.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        values = set()
        for seed in ("0", "1", "2", "3", "5", "8", "13", "21"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _MIX_DISTANCE_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            values.add(out.stdout.strip())
        assert values == {repr(mix_distance(_MIX_A, _MIX_B))}

    def test_escalates_past_threshold_and_rearms(self):
        det = DriftDetector(threshold=0.5, window=4)
        det.rearm([_job("a", GREP)])
        dist, esc = det.observe([_job("a", GREP), _job("b", GREP)])
        assert (dist, esc) == (0.0, False)
        dist, esc = det.observe([_job("b", SORT)])
        assert dist == 1.0 and esc
        assert det.escalations == 1
        assert det.recent_max == 1.0
        det.rearm([_job("b", SORT)])
        assert det.recent_max == 0.0
        assert det.observe([_job("b", SORT)]) == (0.0, False)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DriftDetector(threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(window=0)


class TestSessionLog:
    def test_append_assigns_sequence(self):
        log = SessionLog()
        log.append("open", {"jobs": ["a"]})
        log.append("add", {"job_ids": ["b"]})
        assert len(log) == 2
        assert [e.seq for e in log.events()] == [0, 1]
        assert log.to_dicts()[1] == {
            "seq": 1, "kind": "add", "payload": {"job_ids": ["b"]}
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(SessionError, match="kind"):
            SessionLog().append("explode", {})


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        events = [
            {"kind": "add", "jobs": [{"job_id": "a"}]},
            {"kind": "remove", "job_ids": ["a"]},
        ]
        save_trace(path, {"n_vms": 10}, events)
        trace = load_trace(path)
        assert trace["open"] == {"n_vms": 10}
        assert trace["events"] == events

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        path2 = str(tmp_path / "bad2.json")
        with open(path, "w") as fh:
            fh.write('{"version": 2, "kind": "session-trace", "events": []}')
        with pytest.raises(SessionError, match="v1"):
            load_trace(path)
        with open(path2, "w") as fh:
            fh.write(
                '{"version": 1, "kind": "session-trace",'
                ' "events": [{"kind": "add"}]}'
            )
        with pytest.raises(SessionError, match="jobs"):
            load_trace(path2)

    def test_save_validates_events(self, tmp_path):
        with pytest.raises(SessionError, match="remove"):
            save_trace(
                str(tmp_path / "t.json"), {}, [{"kind": "remove"}]
            )


class TestPlanningSession:
    def test_open_runs_a_full_solve(self, session):
        opened = session.last_result
        assert opened.kind == "open" and opened.mode == "full"
        assert session.plan is not None
        assert opened.parity_ok is True
        assert session.counters["full_replans"] == 1

    def test_deltas_stay_on_the_warm_path(self, session):
        added = session.add_jobs([_job("new-a"), _job("new-b")])
        assert added.mode == "warm" and not added.escalated
        assert added.resident_jobs == session.n_resident_jobs == 10
        assert added.parity_ok is True
        removed = session.remove_jobs(["new-a"])
        assert removed.mode == "warm"
        assert removed.parity_ok is True
        assert "new-a" not in session.resident_job_ids
        # The adaptive warm budget, not the full 300-iteration schedule.
        assert added.iterations <= WARM_SCHEDULE.iter_max

    def test_warm_plans_satisfy_reuse_coplacement(self, session, provider):
        rs = ReuseSet(job_ids=frozenset({"rs-a", "rs-b"}),
                      lifetime=ReuseLifetime.SHORT)
        incumbent = session.plan
        result = session.add_jobs([_job("rs-a"), _job("rs-b", KMEANS)], [rs])
        placements = result.plan.placements
        assert placements["rs-a"].tier is placements["rs-b"].tier
        # The warm seed itself co-places the arrivals (rs-b joins its
        # already-placed mate) and keeps every survivor's placement.
        seed = rebase_plan(incumbent, session.workload, provider, False).placements
        assert seed["rs-a"].tier is seed["rs-b"].tier
        for jid, p in incumbent.placements.items():
            assert seed[jid] is p

    def test_reuse_set_over_resident_jobs_is_coplaced(self, provider):
        session = PlanningSession(
            _workload(12), provider=provider, iterations=ITERATIONS, seed=3,
            config=SessionConfig(parity_check_every=1),
        )
        resident = session.resident_job_ids
        split = [
            jid for jid in resident
            if session.plan.placements[jid].tier
            is not session.plan.placements[resident[0]].tier
        ]
        assert split, "the open plan must span more than one tier"
        members = frozenset({resident[0], split[0], "rs-new"})
        result = session.add_jobs(
            [_job("rs-new")], [ReuseSet(job_ids=members)]
        )
        assert result.mode == "warm" and result.parity_ok is True
        for rs in session.workload.reuse_sets:
            tiers = {result.plan.placements[jid].tier for jid in rs.job_ids}
            assert len(tiers) == 1, rs
        # The next delta warm-starts from the repaired plan.
        after = session.add_jobs([_job("later")])
        assert after.mode == "warm" and after.parity_ok is True

    def test_duplicate_removal_rejected_before_commit(self, session):
        victim = session.resident_job_ids[0]
        with pytest.raises(SessionError, match="duplicate"):
            session.remove_jobs([victim, victim])
        assert session.n_resident_jobs == 8
        assert len(session.plan.placements) == 8
        assert session.replan().parity_ok is True
        removed = session.remove_jobs([victim])
        assert removed.mode == "warm" and removed.resident_jobs == 7

    def test_duplicate_and_unknown_jobs_rejected(self, session):
        resident = session.resident_job_ids[0]
        with pytest.raises(SessionError, match="resident"):
            session.add_jobs([session._jobs[resident]])
        with pytest.raises(SessionError, match="duplicate"):
            session.add_jobs([_job("x"), _job("x")])
        with pytest.raises(SessionError, match="not resident"):
            session.remove_jobs(["nope"])

    def test_drain_to_empty_and_refill(self, session):
        drained = session.remove_jobs(session.resident_job_ids)
        assert drained.mode == "empty"
        assert session.plan is None and session.n_resident_jobs == 0
        refilled = session.add_jobs([_job("fresh", KMEANS)])
        assert refilled.mode == "full"  # no incumbent to warm-start from
        assert session.plan is not None

    def test_full_solve_every_bounds_warm_streaks(self, provider):
        session = PlanningSession(
            _workload(), provider=provider, iterations=ITERATIONS, seed=7,
            config=SessionConfig(full_solve_every=2),
        )
        modes = [
            session.add_jobs([_job(f"j{i}")]).mode for i in range(3)
        ]
        assert modes == ["warm", "warm", "full"]

    def test_manual_replan_and_parity(self, session):
        warm = session.replan()
        assert warm.mode == "warm"
        full = session.replan(force_full=True)
        assert full.mode == "full"
        assert session.verify_parity()

    def test_catalog_swap_forces_full_solve(self, session):
        from repro.cloud.aws import aws_2015

        result = session.update_catalog(aws_2015())
        assert result.kind == "catalog" and result.mode == "full"
        assert session.verify_parity()

    def test_closed_session_rejects_deltas(self, session):
        summary = session.close()
        assert summary["counters"]["deltas"] == 1
        assert summary["plan"] is not None
        with pytest.raises(SessionError, match="closed"):
            session.add_jobs([_job("late")])
        with pytest.raises(SessionError, match="closed"):
            session.close()

    def test_stats_shape(self, session):
        session.add_jobs([_job("s1")])
        stats = session.stats()
        assert stats["resident_jobs"] == 9
        assert stats["deltas"] == 2
        assert stats["warm_replans"] == 1
        assert "evaluator" in stats

    def test_log_records_every_delta(self, session):
        session.add_jobs([_job("l1")])
        session.remove_jobs(["l1"])
        kinds = [e.kind for e in session.log.events()]
        assert kinds == ["open", "add", "remove"]


class TestServiceSessions:
    """session_open / session_delta / session_close through the daemon."""

    def test_duplicate_removal_over_the_manager(self):
        from repro.service.sessions import SessionManager
        from repro.workloads.io import workload_to_dict

        wl = _workload()
        victim = wl.jobs[0].job_id

        async def scenario():
            manager = SessionManager()
            await manager.open({
                "spec": workload_to_dict(wl), "session_id": "dup",
                "iterations": ITERATIONS, "config": {"parity_check_every": 1},
            })
            with pytest.raises(SessionError, match="duplicate"):
                await manager.delta(
                    {"session_id": "dup", "remove": [victim, victim]}
                )
            return await manager.delta(
                {"session_id": "dup", "remove": [victim]}
            )

        out = asyncio.run(scenario())
        assert out["mode"] == "warm" and out["resident_jobs"] == 7
        assert out["parity_ok"] is True

    def test_session_lifecycle_over_the_wire(self):
        from repro.service import PlannerClient, PlannerServer
        from repro.workloads.io import job_to_dict, workload_to_dict

        async def scenario():
            server = PlannerServer(pool_processes=0)
            await server.start()
            serve_task = asyncio.create_task(server.serve_forever())
            try:
                host, port = server.address
                wl = _workload()
                async with PlannerClient(host, port) as client:
                    async with client.session(
                        workload_to_dict(wl), iterations=ITERATIONS,
                        config={"parity_check_every": 1},
                    ) as sess:
                        opened = sess.last
                        jobs = [
                            job_to_dict(
                                dataclasses.replace(j, job_id="n-" + j.job_id)
                            )
                            for j in _workload(2).jobs
                        ]
                        added = await sess.add_jobs(jobs)
                        removed = await sess.remove_jobs(
                            [wl.jobs[0].job_id]
                        )
                        stats = await client.stats()
                        metrics = await client.metrics(format="prometheus")
                    summary = sess.summary
                    after = await client.stats()
            finally:
                serve_task.cancel()
                try:
                    await serve_task
                except asyncio.CancelledError:
                    pass
                await server.stop()
            return opened, added, removed, stats, metrics, summary, after

        opened, added, removed, stats, metrics, summary, after = asyncio.run(
            scenario()
        )
        assert opened["mode"] == "full" and opened["resident_jobs"] == 8
        assert added["mode"] == "warm" and added["resident_jobs"] == 10
        assert added["parity_ok"] is True
        assert removed["resident_jobs"] == 9
        assert stats["sessions"]["open"] == 1
        assert after["sessions"]["open"] == 0
        assert summary["counters"]["deltas"] == 3
        assert summary["utility"] == removed["utility"]
        assert "cast_session_replan_seconds" in metrics["body"]
        assert 'cast_session_replans_total{mode="warm"}' in metrics["body"]
