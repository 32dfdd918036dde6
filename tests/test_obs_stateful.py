"""Stateful property test: registry counters are owned, monotone and exact.

A Hypothesis state machine drives one :class:`MetricsRegistry` with a
:class:`PlanCache`, the simulation cache and the batch fast path bound
to it, interleaving local events, merges of a second "worker"
registry's :func:`snapshot_delta` and snapshots.  At every snapshot each
counter series must be at least what the previous snapshot read (a
scrape never lowers a counter, so scraped deltas are never negative)
and must equal the local events plus the merged ones.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.obs.metrics import MetricsRegistry, snapshot_delta, use_registry
from repro.service.cache import PlanCache
from repro.simulator import cache as sim_cache_mod
from repro.simulator import simulate_batch, simulate_job
from repro.simulator.cache import SimulationCache, record_events, register_metrics
from repro.simulator.vectorized import (
    fastpath_stats,
    register_fastpath_metrics,
    reset_fastpath_stats,
)
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec

PROVIDER = google_cloud_2015()
CLUSTER = ClusterSpec(n_vms=2)
JOBS = [
    JobSpec(job_id=f"j{i}", app=app, input_gb=gb)
    for i, (app, gb) in enumerate([(GREP, 0.5), (GREP, 1.0), (SORT, 0.5), (SORT, 1.0)])
]
TIERS = (Tier.PERS_SSD, Tier.PERS_HDD)
PLAN_KEYS = st.sampled_from(["a", "b", "c", "d"])

SIM = "cast_sim_cache_events_total"
PLAN = "cast_plan_cache_events_total"
PATHS = "cast_sim_fastpath_total"
BATCHES = "cast_sim_fastpath_batches_total"
REASONS = "cast_sim_fastpath_fallbacks_total"


def counter_values(snapshot):
    """``{(name, sorted label items): value}`` of every counter series."""
    return {
        (name, tuple(sorted(sample["labels"].items()))): sample["value"]
        for name, entry in snapshot.items()
        if entry["kind"] == "counter"
        for sample in entry["values"]
    }


class CounterOwnership(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = MetricsRegistry()
        self.plan_cache = PlanCache(capacity=2, registry=self.registry)
        register_metrics(self.registry)
        register_fastpath_metrics(self.registry)
        # A small private simulation cache, so batches also evict.
        self.saved_cache = sim_cache_mod._GLOBAL_CACHE
        self.sim_cache = sim_cache_mod._GLOBAL_CACHE = SimulationCache(capacity=3)
        reset_fastpath_stats()
        self.plan_model = []  # LRU order of the plan cache, oldest first
        self.plan_local = {"hit": 0, "miss": 0, "eviction": 0}
        self.merged = {}
        self.last = {}

    def teardown(self):
        sim_cache_mod._GLOBAL_CACHE = self.saved_cache

    # -- local events ----------------------------------------------------------

    @rule(key=PLAN_KEYS)
    def plan_get(self, key):
        hit = self.plan_cache.get(key) is not None
        assert hit == (key in self.plan_model)
        self.plan_local["hit" if hit else "miss"] += 1
        if hit:
            self.plan_model.remove(key)
            self.plan_model.append(key)

    @rule(key=PLAN_KEYS)
    def plan_put(self, key):
        self.plan_cache.put(key, {"key": key})
        if key in self.plan_model:
            self.plan_model.remove(key)
        self.plan_model.append(key)
        if len(self.plan_model) > self.plan_cache.capacity:
            self.plan_model.pop(0)
            self.plan_local["eviction"] += 1

    @rule(
        picks=st.lists(
            st.tuples(st.sampled_from(JOBS), st.sampled_from(TIERS)),
            min_size=1, max_size=4,
        ),
        phased=st.booleans(),
    )
    def simulate(self, picks, phased):
        with use_registry(self.registry):
            simulate_batch(
                [(job, tier, None) for job, tier in picks], CLUSTER, PROVIDER,
                stage_in=not phased,
            )

    @rule(job=st.sampled_from(JOBS), tier=st.sampled_from(TIERS))
    def simulate_one(self, job, tier):
        with use_registry(self.registry):
            simulate_job(job, tier, CLUSTER, PROVIDER)

    # -- a worker's shipped delta ----------------------------------------------

    @rule(
        hits=st.integers(0, 5), misses=st.integers(0, 5),
        evictions=st.integers(0, 2), plan_misses=st.integers(0, 3),
    )
    def merge_worker_delta(self, hits, misses, evictions, plan_misses):
        worker = MetricsRegistry()
        worker_cache = PlanCache(registry=worker)
        before = worker.snapshot()
        with use_registry(worker):
            record_events(hits, misses, evictions)
        for _ in range(plan_misses):
            worker_cache.get("absent")
        self.registry.merge(snapshot_delta(before, worker.snapshot()))
        for key, n in (
            ((SIM, "hit"), hits), ((SIM, "miss"), misses),
            ((SIM, "eviction"), evictions), ((PLAN, "miss"), plan_misses),
        ):
            self.merged[key] = self.merged.get(key, 0) + n

    # -- scrape ----------------------------------------------------------------

    def expected(self):
        """Local events (the components' own tallies) plus merged ones."""
        sim = self.sim_cache.stats()
        fast = fastpath_stats()
        local = {
            (SIM, "hit"): sim["hits"], (SIM, "miss"): sim["misses"],
            (SIM, "eviction"): sim["evictions"],
            (PATHS, "analytic"): fast["analytic"],
            (PATHS, "fallback"): fast["fallback"],
            (PATHS, "cache_hit"): fast["cache_hits"],
            (PATHS, "deduped"): fast["deduped"],
        }
        local.update({(PLAN, event): n for event, n in self.plan_local.items()})
        for key, n in self.merged.items():
            local[key] += n
        label = {SIM: "event", PLAN: "event", PATHS: "path"}
        out = {(name, ((label[name], value),)): float(n) for (name, value), n in local.items()}
        out[(BATCHES, ())] = float(fast["batches"])
        for reason, n in fast["fallback_reasons"].items():
            out[(REASONS, (("reason", reason),))] = float(n)
        return out

    @rule()
    def snapshot(self):
        values = counter_values(self.registry.snapshot())
        for series, value in self.last.items():
            assert values.get(series, 0.0) >= value, series
        assert values == self.expected()
        # A second scrape with no events in between reads the same.
        assert counter_values(self.registry.snapshot()) == values
        self.last = values


TestCounterOwnership = CounterOwnership.TestCase
