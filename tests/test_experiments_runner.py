"""Experiment runner: seed spawning, ordered fan-out, dedup, parity."""

import pytest

from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.experiments.runner import (
    ExperimentRunner,
    sim_report,
    simulate_job_task,
)
from repro.service.pool import restart_seeds
from repro.simulator.cache import simulation_cache
from repro.simulator.engine import simulate_job
from repro.workers import spawn_seeds
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec


def _double(x):
    return 2 * x


def _jobs():
    return [
        JobSpec(job_id="s0", app=SORT, input_gb=10.0, n_maps=8, n_reduces=4),
        JobSpec(job_id="s1", app=SORT, input_gb=10.0, n_maps=8, n_reduces=4),
        JobSpec(job_id="g0", app=GREP, input_gb=5.0, n_maps=6, n_reduces=2),
        JobSpec(job_id="s2", app=SORT, input_gb=10.0, n_maps=8, n_reduces=4),
    ]


class TestSpawnSeeds:
    """The one seed rule behind solver restarts, sweeps and studies."""

    def test_slot_zero_is_the_request_seed(self):
        assert spawn_seeds(42, 4)[0] == 42

    def test_deterministic_and_distinct(self):
        for seed, n in ((42, 4), (7, 6)):
            a = spawn_seeds(seed, n)
            assert a == spawn_seeds(seed, n)
            assert len(set(a)) == n
        assert spawn_seeds(8, 6) != spawn_seeds(7, 6)

    def test_different_request_seeds_diverge(self):
        assert spawn_seeds(1, 4)[1:] != spawn_seeds(2, 4)[1:]

    def test_single_seed(self):
        assert spawn_seeds(3, 1) == [3]
        assert spawn_seeds(9, 1) == [9]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spawn_seeds(3, 0)

    def test_restart_seeds_is_the_one_rule(self):
        assert restart_seeds is spawn_seeds


class TestSerialRunner:
    def test_serial_map_preserves_order(self):
        with ExperimentRunner() as r:
            assert not r.parallel
            assert r.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert r.stats()["tasks_run"] == 3
        assert r.stats()["batches"] == 1

    def test_workers_one_is_serial(self):
        assert not ExperimentRunner(1).parallel
        assert ExperimentRunner(2).parallel

    def test_simulate_jobs_matches_direct_calls(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        jobs = _jobs()
        direct = [simulate_job(j, Tier.PERS_SSD, cluster, prov) for j in jobs]
        with ExperimentRunner() as r:
            batch = r.simulate_jobs(
                [(j, Tier.PERS_SSD, None) for j in jobs], cluster, prov
            )
        assert batch == direct


class TestParallelRunner:
    def test_parallel_batch_is_bit_exact_and_dedupes(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        jobs = _jobs()
        serial = [simulate_job(j, Tier.PERS_SSD, cluster, prov) for j in jobs]
        simulation_cache().clear()
        with ExperimentRunner(2) as r:
            batch = r.simulate_jobs(
                [(j, Tier.PERS_SSD, None) for j in jobs], cluster, prov
            )
            # 4 items, 2 distinct shapes: 3 sort clones collapse to one.
            assert r.tasks_deduped == 2
        assert [b.job_id for b in batch] == [j.job_id for j in jobs]
        assert batch == serial

    def test_worker_simulation_spans_reach_the_parent(self, monkeypatch):
        from repro.obs.tracing import span, trace_collector

        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        simulation_cache().clear()
        trace_collector().clear()
        with ExperimentRunner(2) as r, span("test.simulate") as sp:
            r.simulate_jobs(
                [(j, Tier.PERS_SSD, None) for j in _jobs()], cluster, prov
            )
        # Two distinct shapes, one per worker chunk: two fresh runs.
        names = [s.name for s in trace_collector().records(trace_id=sp.trace_id)]
        assert names.count("simulator.job") == 2

    def test_parallel_map_orders_results(self):
        with ExperimentRunner(2) as r:
            assert r.map(_double, [5, 4, 3, 2, 1]) == [10, 8, 6, 4, 2]


class TestSimReport:
    def test_report_shape(self):
        with ExperimentRunner(2) as r:
            report = sim_report(r).to_dict()
        assert set(report) == {"cache", "runner"}
        assert set(report["cache"]) == {"hits", "misses", "evictions", "size"}
        assert report["runner"]["workers"] == 2

    def test_report_without_runner(self):
        assert sim_report().to_dict()["runner"] == {}


def test_simulate_job_task_payload_roundtrip(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    prov = google_cloud_2015()
    cluster = ClusterSpec(n_vms=4)
    job = _jobs()[0]
    direct = simulate_job(job, Tier.PERS_SSD, cluster, prov)
    via_task = simulate_job_task((job, Tier.PERS_SSD, None, cluster, prov, {}))
    assert via_task == direct
