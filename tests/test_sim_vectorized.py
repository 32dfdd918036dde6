"""Vectorized fast path: parity, fallbacks, cache coherence, counters."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.experiments.runner import ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from repro.simulator import (
    ANALYTIC_RTOL,
    batch_results_match,
    fallback_reason,
    fastpath_stats,
    register_fastpath_metrics,
    reset_fastpath_stats,
    simulate_batch,
    simulate_job,
)
from repro.simulator.cache import job_sim_fingerprint, simulation_cache
from repro.simulator.engine import ANALYTIC_KEY_PREFIX, resolve_sim_inputs
from repro.simulator.hdfs import BlockPlacement
from repro.workloads.apps import GREP, JOIN, KMEANS, PAGERANK, SORT
from repro.workloads.spec import JobSpec
from repro.workloads.swim import synthesize_small_workload

APPS = (SORT, JOIN, GREP, KMEANS, PAGERANK)
TIERS = (Tier.EPH_SSD, Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE)


def _fast_env(monkeypatch, cache: str = "0") -> None:
    monkeypatch.setenv("REPRO_SIM_CACHE", cache)


class TestFallbackReason:
    def test_plain_job_is_eligible(self):
        job = JobSpec(job_id="s", app=SORT, input_gb=50.0)
        assert fallback_reason(job, None, True, True) is None

    def test_block_placement_falls_back(self):
        job = JobSpec(job_id="g", app=GREP, input_gb=3.0, n_maps=12)
        bp = BlockPlacement.fractional(12, Tier.PERS_SSD, Tier.PERS_HDD, 0.5)
        assert fallback_reason(job, bp, True, True) == "placement"

    def test_phased_staging_falls_back(self):
        job = JobSpec(job_id="s", app=SORT, input_gb=50.0)
        assert fallback_reason(job, None, False, True) == "phased"
        assert fallback_reason(job, None, True, False) == "phased"


class TestAnalyticParity:
    @pytest.fixture(autouse=True)
    def _env(self, monkeypatch):
        _fast_env(monkeypatch)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        app=st.sampled_from(APPS),
        input_gb=st.floats(
            min_value=0.05, max_value=300.0,
            allow_nan=False, allow_infinity=False,
        ),
        tier=st.sampled_from(TIERS),
        n_vms=st.sampled_from([1, 2, 3, 5, 8]),
    )
    def test_random_jobs_match_engine_within_gate(
        self, app, input_gb, tier, n_vms
    ):
        job = JobSpec(job_id="j", app=app, input_gb=input_gb)
        cluster = ClusterSpec(n_vms=n_vms)
        prov = google_cloud_2015()
        exact = simulate_job(job, tier, cluster, prov)
        fast = simulate_batch([(job, tier, None)], cluster, prov, fast_path=True)
        assert fast[0].events == 0  # closed form, not the engine
        assert batch_results_match(fast, [exact], rtol=ANALYTIC_RTOL) == []

    def test_small_workload_all_tiers(self):
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=25)
        workload = synthesize_small_workload()
        items = [(j, t, None) for t in TIERS for j in workload.jobs]
        exact = [
            simulate_job(j, t, cluster, prov) for j, t, _ in items
        ]
        fast = simulate_batch(items, cluster, prov, fast_path=True)
        assert [r.job_id for r in fast] == [j.job_id for j, _, _ in items]
        assert batch_results_match(fast, exact, rtol=ANALYTIC_RTOL) == []


class TestFallbackPaths:
    def test_contended_placement_is_bit_exact(self, monkeypatch):
        _fast_env(monkeypatch)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        job = JobSpec(job_id="g", app=GREP, input_gb=3.0, n_maps=12)
        bp = BlockPlacement.fractional(12, Tier.PERS_SSD, Tier.PERS_HDD, 0.5)
        direct = simulate_job(
            job, Tier.PERS_SSD, cluster, prov, block_placement=bp
        )
        reset_fastpath_stats()
        batch = simulate_batch(
            [(job, Tier.PERS_SSD, None)], cluster, prov,
            block_placements=[bp], fast_path=True,
        )
        assert batch[0].events >= 1  # the event engine ran
        assert batch[0] == direct
        assert fastpath_stats()["fallback_reasons"] == {"placement": 1}

    def test_phased_job_is_bit_exact(self, monkeypatch):
        _fast_env(monkeypatch)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        job = JobSpec(job_id="s", app=SORT, input_gb=40.0)
        direct = simulate_job(
            job, Tier.EPH_SSD, cluster, prov, stage_in=False
        )
        reset_fastpath_stats()
        batch = simulate_batch(
            [(job, Tier.EPH_SSD, None)], cluster, prov,
            stage_in=False, fast_path=True,
        )
        assert batch[0].events >= 1
        assert batch[0] == direct
        assert fastpath_stats()["fallback_reasons"] == {"phased": 1}

    def test_fast_path_false_disables(self, monkeypatch):
        _fast_env(monkeypatch)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        job = JobSpec(job_id="s", app=SORT, input_gb=20.0)
        direct = simulate_job(job, Tier.PERS_SSD, cluster, prov)
        reset_fastpath_stats()
        batch = simulate_batch(
            [(job, Tier.PERS_SSD, None)], cluster, prov, fast_path=False
        )
        assert batch[0] == direct
        assert fastpath_stats()["fallback_reasons"] == {"disabled": 1}


class TestCacheCoherence:
    def test_warm_hits_stay_bit_exact_through_batch(self, monkeypatch):
        _fast_env(monkeypatch, cache="1")
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=25)
        workload = synthesize_small_workload()
        items = [(j, Tier.PERS_SSD, None) for j in workload.jobs]
        simulation_cache().clear()
        cold = simulate_batch(items, cluster, prov, fast_path=True)
        reset_fastpath_stats()
        warm = simulate_batch(items, cluster, prov, fast_path=True)
        assert warm == cold
        stats = fastpath_stats()
        assert stats["cache_hits"] + stats["deduped"] == len(items)
        assert stats["analytic"] == 0  # nothing re-evaluated

    def test_analytic_results_never_shadow_engine_keys(self, monkeypatch):
        _fast_env(monkeypatch, cache="1")
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        job = JobSpec(job_id="s", app=SORT, input_gb=33.0)
        simulation_cache().clear()
        fast = simulate_batch(
            [(job, Tier.PERS_SSD, None)], cluster, prov, fast_path=True
        )
        assert fast[0].events == 0
        caps, placement, out_tier = resolve_sim_inputs(
            job, Tier.PERS_SSD, cluster, prov
        )
        key = job_sim_fingerprint(
            job, Tier.PERS_SSD, cluster, prov, caps, out_tier,
            stage_in=True, stage_out=True,
            placement_tiers=None if placement is None else tuple(placement.tiers),
        )
        cache = simulation_cache()
        assert cache.get(key) is None  # engine key untouched
        assert cache.get(ANALYTIC_KEY_PREFIX + key) is not None
        # The engine path computes fresh and stays authoritative.
        engine = simulate_job(job, Tier.PERS_SSD, cluster, prov)
        assert engine.events >= 1
        assert cache.get(key) is not None


class TestRunnerFastPath:
    def test_serial_fast_runner_within_gate(self, monkeypatch):
        _fast_env(monkeypatch)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=25)
        workload = synthesize_small_workload()
        items = [(j, Tier.OBJ_STORE, None) for j in workload.jobs]
        exact = [simulate_job(j, t, cluster, prov) for j, t, _ in items]
        with ExperimentRunner(0, fast_path=True) as r:
            fast = r.simulate_jobs(items, cluster, prov)
            assert r.stats()["fast_path"] is True
        assert batch_results_match(fast, exact, rtol=ANALYTIC_RTOL) == []

    def test_parallel_fast_runner_matches_serial_fast(self, monkeypatch):
        _fast_env(monkeypatch, cache="1")
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=25)
        workload = synthesize_small_workload()
        items = [(j, Tier.PERS_HDD, None) for j in workload.jobs]
        simulation_cache().clear()
        with ExperimentRunner(0, fast_path=True) as r:
            serial = r.simulate_jobs(items, cluster, prov)
        simulation_cache().clear()
        with ExperimentRunner(2, fast_path=True) as r:
            parallel = r.simulate_jobs(items, cluster, prov)
        assert parallel == serial  # elementwise math is chunk-invariant

    def test_default_runner_stays_bit_exact(self, monkeypatch):
        _fast_env(monkeypatch, cache="1")
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        jobs = [
            JobSpec(job_id=f"j{i}", app=KMEANS, input_gb=5.0 + i)
            for i in range(4)
        ]
        items = [(j, Tier.PERS_SSD, None) for j in jobs]
        direct = [simulate_job(j, t, cluster, prov) for j, t, _ in items]
        simulation_cache().clear()
        with ExperimentRunner(2) as r:  # fast_path defaults off
            batch = r.simulate_jobs(items, cluster, prov)
        assert batch == direct


class TestFastpathMetrics:
    def test_counters_exposed_via_registry(self, monkeypatch):
        _fast_env(monkeypatch)
        reg = MetricsRegistry()
        register_fastpath_metrics(reg)
        prov = google_cloud_2015()
        cluster = ClusterSpec(n_vms=4)
        job = JobSpec(job_id="s", app=SORT, input_gb=12.0)
        reset_fastpath_stats()
        simulate_batch([(job, Tier.PERS_SSD, None)], cluster, prov,
                       fast_path=True)
        body = reg.to_prometheus()
        assert 'cast_sim_fastpath_total{path="analytic"} 1' in body
        assert "cast_sim_fastpath_batches_total 1" in body

    def test_register_is_idempotent(self):
        reg = MetricsRegistry()
        register_fastpath_metrics(reg)
        register_fastpath_metrics(reg)  # keyed collector: no duplicate
        assert reg.to_prometheus().count("# TYPE cast_sim_fastpath_total") == 1
