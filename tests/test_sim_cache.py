"""Simulation memo cache: key sensitivity, LRU behaviour, bit-exact hits."""

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import resolve_provider
from repro.cloud.provider import CloudProvider, google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.service.fingerprint import canonical_json
from repro.simulator.cache import (
    SimulationCache,
    cache_enabled,
    catalog_digest,
    job_sim_fingerprint,
    sim_key_context,
    simulation_cache,
)
from repro.simulator.engine import (
    ANALYTIC_KEY_PREFIX,
    resolve_sim_inputs,
    simulate_job,
)
from repro.simulator.metrics import JobSimResult
from repro.simulator.storage_backend import REFERENCE_ENV, channel_impl_name
from repro.workloads.apps import PAGERANK, SORT, AppProfile
from repro.workloads.io import job_from_dict
from repro.workloads.spec import JobSpec


@pytest.fixture()
def prov():
    return google_cloud_2015()


@pytest.fixture()
def cluster():
    return ClusterSpec(n_vms=5)


def make_job(job_id="j0", **overrides):
    kwargs = dict(job_id=job_id, app=SORT, input_gb=20.0, n_maps=10, n_reduces=4)
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def fp(job, prov, cluster, input_tier=Tier.PERS_SSD, caps=None,
       output_tier=Tier.PERS_SSD, stage_in=True, stage_out=True,
       placement_tiers=None):
    return job_sim_fingerprint(
        job, input_tier, cluster, prov,
        caps if caps is not None else {Tier.PERS_SSD: 100.0},
        output_tier, stage_in, stage_out, placement_tiers,
    )


class TestKeySensitivity:
    def test_identical_shape_different_id_share_a_key(self, prov, cluster):
        assert fp(make_job("a"), prov, cluster) == fp(make_job("b"), prov, cluster)

    @pytest.mark.parametrize("override", [
        {"n_maps": 11},
        {"n_reduces": 5},
        {"input_gb": 21.0},
        {"app": PAGERANK},
    ])
    def test_job_shape_changes_the_key(self, prov, cluster, override):
        assert fp(make_job(), prov, cluster) != fp(make_job(**override), prov, cluster)

    def test_simulator_inputs_change_the_key(self, prov, cluster):
        base = fp(make_job(), prov, cluster)
        assert fp(make_job(), prov, cluster, input_tier=Tier.PERS_HDD) != base
        assert fp(make_job(), prov, cluster, output_tier=Tier.OBJ_STORE) != base
        assert fp(make_job(), prov, cluster, stage_in=False) != base
        assert fp(make_job(), prov, cluster, stage_out=False) != base
        assert fp(make_job(), prov, cluster, caps={Tier.PERS_SSD: 200.0}) != base
        assert fp(make_job(), prov, cluster,
                  placement_tiers=[Tier.PERS_SSD, Tier.PERS_HDD]) != base
        assert fp(make_job(), prov, ClusterSpec(n_vms=6)) != base

    def test_channel_impl_is_part_of_the_key(self, prov, cluster, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
        virt = fp(make_job(), prov, cluster)
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        assert fp(make_job(), prov, cluster) != virt


class TestCatalogDigest:
    def test_stable_across_equal_catalogs(self, prov):
        assert catalog_digest(prov) == catalog_digest(google_cloud_2015())

    def test_ignores_prices_and_name(self, prov):
        repriced = CloudProvider(
            name="someone-else",
            services=prov.services,
            prices=replace(prov.prices, vm_price_per_min=99.0),
            default_vm=prov.default_vm,
        )
        assert catalog_digest(repriced) == catalog_digest(prov)

    def test_sees_throughput_changes(self, prov):
        ssd = prov.services[Tier.PERS_SSD]
        faster = replace(
            ssd, throughput=replace(ssd.throughput, cap=ssd.throughput.cap * 2)
        )
        tweaked = CloudProvider(
            name=prov.name,
            services={**dict(prov.services), Tier.PERS_SSD: faster},
            prices=prov.prices,
            default_vm=prov.default_vm,
        )
        assert catalog_digest(tweaked) != catalog_digest(prov)


class TestLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulationCache(capacity=0)

    def test_eviction_order_and_counters(self):
        c = SimulationCache(capacity=2)
        c.put("a", "ra")
        c.put("b", "rb")
        assert c.get("a") == "ra"   # refreshes a; b is now LRU
        c.put("c", "rc")            # evicts b
        assert c.get("b") is None
        assert c.get("a") == "ra"
        assert c.get("c") == "rc"
        assert c.stats() == {"hits": 3, "misses": 1, "evictions": 1, "size": 2}

    def test_clear_keeps_counters(self):
        c = SimulationCache(capacity=4)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0
        assert c.stats()["hits"] == 1


class TestSimulateJobIntegration:
    def test_hit_is_bit_exact_and_restamped(self, prov, cluster, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        cache = simulation_cache()
        cache.clear()
        h0, m0 = cache.hits, cache.misses
        first = simulate_job(make_job("left"), Tier.PERS_SSD, cluster, prov)
        second = simulate_job(make_job("right"), Tier.PERS_SSD, cluster, prov)
        assert cache.misses == m0 + 1 and cache.hits == h0 + 1
        assert second.job_id == "right"
        assert second.total_s == first.total_s
        assert replace(second, job_id=first.job_id) == first

    def test_env_disables_cache(self, prov, cluster, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        assert not cache_enabled()
        cache = simulation_cache()
        before = cache.stats()
        uncached = simulate_job(make_job("u"), Tier.PERS_SSD, cluster, prov)
        assert cache.stats() == before
        # Same answer either way.
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        cached = simulate_job(make_job("u"), Tier.PERS_SSD, cluster, prov)
        assert cached == uncached

    def test_resolve_normalizes_uniform_placement(self, prov, cluster):
        job = make_job()
        caps, placement, out = resolve_sim_inputs(job, Tier.PERS_SSD, cluster, prov)
        assert placement is None
        assert out is Tier.PERS_SSD
        assert caps[Tier.PERS_SSD] > 0


# -- the tuple key against the canonical-JSON key it replaced ---------------

def reference_key(job, input_tier, cluster_spec, provider, caps, output_tier,
                  stage_in, stage_out, placement_tiers=None):
    """The SHA-256-over-canonical-JSON key the cache used before its
    tuple key, kept verbatim as the strictness reference."""
    payload = {
        "app": asdict(job.app),
        "map_tasks": job.map_tasks,
        "reduce_tasks": job.reduce_tasks,
        "input_gb": job.input_gb,
        "intermediate_gb": job.intermediate_gb,
        "output_gb": job.output_gb,
        "input_tier": input_tier.value,
        "output_tier": output_tier.value,
        "stage_in": bool(stage_in),
        "stage_out": bool(stage_out),
        "placement": (
            None
            if placement_tiers is None
            else [t.value for t in placement_tiers]
        ),
        "caps": {t.value: float(v) for t, v in caps.items()},
        "cluster": {
            "n_vms": cluster_spec.n_vms,
            "map_slots": cluster_spec.vm.map_slots,
            "reduce_slots": cluster_spec.vm.reduce_slots,
            "network_mb_s": cluster_spec.vm.network_mb_s,
        },
        "catalog": catalog_digest(provider),
        "channel": channel_impl_name(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@contextmanager
def _reference_channel(on):
    saved = os.environ.get(REFERENCE_ENV)
    os.environ[REFERENCE_ENV] = "1" if on else "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[REFERENCE_ENV]
        else:
            os.environ[REFERENCE_ENV] = saved


def _variant_catalogs():
    base = google_cloud_2015()
    ssd = base.services[Tier.PERS_SSD]
    faster = replace(ssd, throughput=replace(ssd.throughput, cap=ssd.throughput.cap * 2))
    repriced = CloudProvider(
        name="repriced", services=base.services,
        prices=replace(base.prices, vm_price_per_min=99.0),
        default_vm=base.default_vm,
    )
    tweaked = CloudProvider(
        name=base.name, services={**dict(base.services), Tier.PERS_SSD: faster},
        prices=base.prices, default_vm=base.default_vm,
    )
    return [base, google_cloud_2015(), repriced, tweaked]


#: A profile whose fields equal SORT's, and one that differs in a
#: selectivity only (so only its derived volumes move).
_SORT_TWIN = replace(SORT)
_CUSTOM = AppProfile(**{**asdict(SORT), "name": "sort", "map_selectivity": 0.5})
_SSD2 = (Tier.PERS_SSD, Tier.PERS_HDD)

#: Choices per simulator input.  Sizes and counts mix ints and floats of
#: one value; 80 maps is what 20 GB derives; ``n_reduces`` 28 is what
#: 80 maps derive for SORT.
_CHOICES = {
    "app": [SORT, _SORT_TWIN, PAGERANK, _CUSTOM],
    "input_gb": [20, 20.0, 21.5],
    "n_maps": [None, 80, 80.0, 3],
    "n_reduces": [None, 28, 4],
    "input_tier": list(Tier),
    "output_tier": list(Tier),
    "stage_in": [True, False],
    "stage_out": [True, False],
    "placement": [None, _SSD2, list(_SSD2), (Tier.PERS_HDD, Tier.PERS_HDD)],
    "n_vms": [4, 5],
    "provider": _variant_catalogs(),
    "reference": [False, True],
}

#: Wire-decoded choices: what a request's JSON can say (sizes arrive
#: as floats, counts as ints or not at all, catalogs by name).
_WIRE_CHOICES = {
    **{k: _CHOICES[k] for k in (
        "input_tier", "output_tier", "stage_in", "stage_out", "placement",
        "n_vms", "reference")},
    "app": ["sort", "pagerank", "grep"],
    "input_gb": [20, 20.0, 21.5],
    "n_maps": [None, 80, 3],
    "n_reduces": [None, 28, 4],
    "provider": ["google", "aws"],
}

_CAPS = st.lists(
    st.tuples(st.sampled_from(list(Tier)), st.sampled_from([100.0, 100, 250.0, 0.0])),
    min_size=1, max_size=4, unique_by=lambda pair: pair[0],
)


@st.composite
def _input_pairs(draw, choices):
    """Two simulator inputs that differ in at most two fields, with caps
    dicts built in independently shuffled insertion orders."""
    a = {field: draw(st.sampled_from(opts)) for field, opts in choices.items()}
    a["caps"] = draw(_CAPS)
    b = dict(a)
    for field in draw(st.sets(st.sampled_from(sorted(choices) + ["caps"]), max_size=2)):
        b[field] = draw(_CAPS) if field == "caps" else draw(st.sampled_from(choices[field]))
    a["caps"] = draw(st.permutations(a["caps"]))
    b["caps"] = draw(st.permutations(b["caps"]))
    a["job_id"], b["job_id"] = "a", "b"
    return a, b


def _keys(case, wire=False):
    """(tuple key, reference key) of one drawn case."""
    if wire:
        record = {"job_id": case["job_id"], "app": case["app"],
                  "input_gb": case["input_gb"]}
        for field in ("n_maps", "n_reduces"):
            if case[field] is not None:
                record[field] = case[field]
        job = job_from_dict(json.loads(json.dumps(record)))
        caps = {t: json.loads(json.dumps(v)) for t, v in case["caps"]}
        prov = resolve_provider(case["provider"])
    else:
        job = JobSpec(case["job_id"], case["app"], case["input_gb"],
                      case["n_maps"], case["n_reduces"])
        caps = dict(case["caps"])
        prov = case["provider"]
    cluster = ClusterSpec(n_vms=case["n_vms"])
    args = (job, case["input_tier"], cluster, prov, caps, case["output_tier"],
            case["stage_in"], case["stage_out"], case["placement"])
    with _reference_channel(case["reference"]):
        key = job_sim_fingerprint(*args)
        assert key == job_sim_fingerprint(
            *args, context=sim_key_context(cluster, prov)
        )
        return key, reference_key(*args)


class TestTupleKeyAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_input_pairs(_CHOICES))
    def test_equal_keys_name_equal_inputs(self, pair):
        (new_a, ref_a), (new_b, ref_b) = (_keys(case) for case in pair)
        if new_a == new_b:
            assert hash(new_a) == hash(new_b)
            assert ref_a == ref_b

    @settings(max_examples=300, deadline=None)
    @given(_input_pairs(_WIRE_CHOICES))
    def test_wire_inputs_keep_every_hit(self, pair):
        (new_a, ref_a), (new_b, ref_b) = (_keys(case, wire=True) for case in pair)
        assert (new_a == new_b) == (ref_a == ref_b)

    def test_int_and_float_spellings_stay_apart(self, prov, cluster):
        assert fp(make_job(input_gb=20), prov, cluster) != fp(
            make_job(input_gb=20.0), prov, cluster)
        assert fp(make_job(n_maps=10), prov, cluster) != fp(
            make_job(n_maps=10.0), prov, cluster)

    def test_equivalent_spellings_share_a_key(self, prov, cluster):
        derived = make_job(input_gb=20.0, n_maps=None, n_reduces=None)
        explicit = make_job(input_gb=20.0, n_maps=derived.map_tasks,
                            n_reduces=derived.reduce_tasks)
        assert fp(derived, prov, cluster) == fp(explicit, prov, cluster)
        assert fp(make_job(app=replace(SORT)), prov, cluster) == fp(
            make_job(), prov, cluster)
        caps = {Tier.PERS_SSD: 100.0, Tier.OBJ_STORE: 250}
        flipped = {Tier.OBJ_STORE: 250.0, Tier.PERS_SSD: 100}
        assert fp(make_job(), prov, cluster, caps=caps) == fp(
            make_job(), prov, cluster, caps=flipped)

    def test_analytic_keys_never_equal_engine_keys(self, prov, cluster):
        key = fp(make_job(), prov, cluster)
        assert ANALYTIC_KEY_PREFIX + key != key
        assert (ANALYTIC_KEY_PREFIX + key)[1:] == key


class TestRestamp:
    def test_for_job_equals_replace(self):
        res = JobSimResult("a", Tier.EPH_SSD, Tier.OBJ_STORE, 1.5, 2.5, 3.5, 4.5, 7)
        moved = res.for_job("b")
        assert moved == replace(res, job_id="b")
        assert moved.job_id == "b" and res.job_id == "a"
        assert res.for_job("a") is res
