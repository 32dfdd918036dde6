"""Offline profiler and the model matrix."""

from dataclasses import replace

import pytest

from repro.cloud import resolve_provider
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core.sizing import sweep_cluster_sizes
from repro.errors import CatalogError
from repro.obs import tracing
from repro.profiler import profiler as profiler_mod
from repro.profiler.models import CapacityProfile, ModelMatrix, PhaseBandwidths
from repro.profiler.profiler import Profiler, build_model_matrix
from repro.workloads.apps import GREP, SORT


class TestPhaseBandwidths:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            PhaseBandwidths(map_mb_s=0.0, shuffle_mb_s=1.0, reduce_mb_s=1.0)

    def test_holds_values(self):
        bw = PhaseBandwidths(10.0, 20.0, 30.0)
        assert (bw.map_mb_s, bw.shuffle_mb_s, bw.reduce_mb_s) == (10.0, 20.0, 30.0)


class TestCapacityProfile:
    def test_single_anchor_is_constant(self):
        bw = PhaseBandwidths(10.0, 20.0, 30.0)
        profile = CapacityProfile(anchors=((375.0, bw),))
        assert profile.at(100.0) == bw
        assert profile.at(1500.0) == bw

    def test_interpolates_between_anchors(self):
        lo = PhaseBandwidths(10.0, 10.0, 10.0)
        hi = PhaseBandwidths(30.0, 30.0, 30.0)
        profile = CapacityProfile(anchors=((100.0, lo), (300.0, hi)))
        mid = profile.at(200.0)
        assert 10.0 < mid.map_mb_s < 30.0

    def test_constant_extension_outside_range(self):
        lo = PhaseBandwidths(10.0, 10.0, 10.0)
        hi = PhaseBandwidths(30.0, 30.0, 30.0)
        profile = CapacityProfile(anchors=((100.0, lo), (300.0, hi)))
        assert profile.at(50.0).map_mb_s == pytest.approx(10.0)
        assert profile.at(900.0).map_mb_s == pytest.approx(30.0)

    def test_unsorted_anchors_rejected(self):
        bw = PhaseBandwidths(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CapacityProfile(anchors=((300.0, bw), (100.0, bw)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CapacityProfile(anchors=())


class TestModelMatrix:
    def test_missing_profile_raises_catalog_error(self):
        matrix = ModelMatrix()
        with pytest.raises(CatalogError, match="no profile"):
            matrix.get("sort", Tier.PERS_SSD)

    def test_put_get_roundtrip(self):
        matrix = ModelMatrix()
        profile = CapacityProfile(anchors=((100.0, PhaseBandwidths(1.0, 1.0, 1.0)),))
        matrix.put("sort", Tier.PERS_SSD, profile)
        assert matrix.get("sort", Tier.PERS_SSD) is profile
        assert matrix.has("sort", Tier.PERS_SSD)
        assert not matrix.has("sort", Tier.PERS_HDD)

    def test_bandwidth_cache_rounds_capacity(self):
        matrix = ModelMatrix()
        lo = PhaseBandwidths(10.0, 10.0, 10.0)
        hi = PhaseBandwidths(30.0, 30.0, 30.0)
        matrix.put("sort", Tier.PERS_SSD, CapacityProfile(anchors=((100.0, lo), (300.0, hi))))
        a = matrix.bandwidths("sort", Tier.PERS_SSD, 200.2)
        b = matrix.bandwidths("sort", Tier.PERS_SSD, 200.4)
        assert a is b  # both round to 200 GB


class TestProfiler:
    def test_profiled_bandwidths_track_tier_speed(self, provider, char_cluster, matrix):
        ssd = matrix.bandwidths("sort", Tier.PERS_SSD, 500.0)
        hdd = matrix.bandwidths("sort", Tier.PERS_HDD, 500.0)
        assert ssd.map_mb_s > hdd.map_mb_s * 1.5

    def test_cpu_bound_app_is_tier_flat(self, matrix):
        ssd = matrix.bandwidths("kmeans", Tier.PERS_SSD, 500.0)
        hdd = matrix.bandwidths("kmeans", Tier.PERS_HDD, 500.0)
        assert ssd.map_mb_s == pytest.approx(hdd.map_mb_s, rel=0.1)

    def test_scaling_tiers_have_multiple_anchors(self, matrix):
        assert len(matrix.get("sort", Tier.PERS_SSD).capacities) > 1
        assert len(matrix.get("sort", Tier.EPH_SSD).capacities) == 1

    def test_all_pairs_profiled(self, matrix):
        apps = {a for a, _ in matrix.pairs}
        tiers = {t for _, t in matrix.pairs}
        assert apps == {"sort", "join", "grep", "kmeans", "pagerank"}
        assert tiers == set(Tier)

    def test_bandwidths_grow_with_capacity(self, matrix):
        small = matrix.bandwidths("grep", Tier.PERS_SSD, 100.0)
        large = matrix.bandwidths("grep", Tier.PERS_SSD, 1000.0)
        assert large.map_mb_s > small.map_mb_s * 2

    def test_calibration_job_fills_waves(self, provider, char_cluster):
        profiler = Profiler(provider=provider, cluster_spec=char_cluster, waves=2)
        job = profiler.calibration_job(SORT)
        assert job.map_tasks == char_cluster.total_map_slots * 2

    def test_build_model_matrix_memoizes(self, provider, char_cluster):
        a = build_model_matrix(provider=provider, cluster_spec=char_cluster)
        b = build_model_matrix(provider=provider, cluster_spec=char_cluster)
        assert a is b

    def test_build_model_matrix_keys_by_catalog_content(self, provider, char_cluster):
        """A catalog that performs differently gets its own profile
        even under the same name; a re-priced one shares the matrix."""
        google = build_model_matrix(provider=provider, cluster_spec=char_cluster)
        ssd = provider.service(Tier.PERS_SSD)
        curve = ssd.throughput
        doubled = replace(ssd, throughput=replace(
            curve, points=tuple((c, v * 2) for c, v in curve.points), cap=curve.cap * 2,
        ))
        faster = replace(provider, services={**provider.services, Tier.PERS_SSD: doubled})
        assert faster.name == provider.name

        matrix = build_model_matrix(provider=faster, cluster_spec=char_cluster)
        assert matrix is not google
        fresh = Profiler(provider=faster, cluster_spec=char_cluster).profile_all()
        assert matrix.pairs == fresh.pairs
        for app, tier in fresh.pairs:
            assert matrix.get(app, tier) == fresh.get(app, tier)
        assert matrix.bandwidths("sort", Tier.PERS_SSD, 500.0) != google.bandwidths(
            "sort", Tier.PERS_SSD, 500.0)

        repriced = replace(
            provider, name="repriced",
            prices=replace(provider.prices, vm_price_per_min=99.0),
        )
        assert build_model_matrix(provider=repriced, cluster_spec=char_cluster) is google

    def test_partial_profiling(self, provider, char_cluster):
        profiler = Profiler(provider=provider, cluster_spec=char_cluster)
        matrix = profiler.profile_all(apps=[GREP], tiers=[Tier.OBJ_STORE])
        assert matrix.has("grep", Tier.OBJ_STORE)
        assert not matrix.has("sort", Tier.OBJ_STORE)


def max_relative_difference(a, b):
    """Largest relative gap between two matrices' profiled bandwidths."""
    assert a.pairs == b.pairs
    worst = 0.0
    for app, tier in a.pairs:
        pa, pb = a.get(app, tier), b.get(app, tier)
        assert pa.capacities == pb.capacities
        for (_, x), (_, y) in zip(pa.anchors, pb.anchors):
            for field in ("map_mb_s", "shuffle_mb_s", "reduce_mb_s"):
                u, v = getattr(x, field), getattr(y, field)
                worst = max(worst, abs(u - v) / abs(v))
    return worst


@pytest.mark.parametrize("name", ["google", "aws", "azure"])
def test_profiles_do_not_depend_on_cluster_size(name):
    """The one-VM calibration matrix is the one every cluster size
    would profile: bit for bit at 2, 10 and 25 VMs, within float
    rounding of per-node shares at 3 and 7.  A catalog term that
    couples VMs would break this, and ``n_vms`` would have to go back
    into the memo key."""
    provider = resolve_provider(name)
    one = Profiler(provider, ClusterSpec(n_vms=1, vm=provider.default_vm)).profile_all()
    for n_vms in (2, 3, 7, 10, 25):
        matrix = Profiler(provider, provider.cluster(n_vms)).profile_all()
        if n_vms in (3, 7):
            assert max_relative_difference(matrix, one) <= 1e-15
        else:
            assert matrix.__getstate__() == one.__getstate__()


class TestOneVMCalibration:
    @pytest.fixture
    def calibrations(self, monkeypatch):
        """Fresh memo and collector; yields the calibration clusters
        profiled from here on."""
        monkeypatch.setattr(profiler_mod, "_MATRIX_CACHE", {})
        monkeypatch.setattr(tracing, "_COLLECTOR", tracing.TraceCollector())
        monkeypatch.setattr(tracing, "_RECORDING", True)
        seen = []
        profile_all = Profiler.profile_all

        def spy(self, *args, **kwargs):
            seen.append(self.cluster_spec)
            return profile_all(self, *args, **kwargs)

        monkeypatch.setattr(Profiler, "profile_all", spy)
        return seen

    def test_every_cluster_size_shares_one_build(self, provider, calibrations):
        matrices = [
            build_model_matrix(provider=provider, cluster_spec=provider.cluster(n))
            for n in (1, 7, 25, 100, 400)
        ]
        assert all(m is matrices[0] for m in matrices)
        assert len(profiler_mod._MATRIX_CACHE) == 1
        assert calibrations == [ClusterSpec(n_vms=1, vm=provider.default_vm)]
        names = [s.name for s in tracing.trace_collector().records()]
        assert names == ["profiler.build"]

    def test_cold_build_adds_one_span(self, provider, calibrations):
        """The calibration simulations' spans never reach the collector."""
        build_model_matrix(provider=provider, cluster_spec=provider.cluster(25))
        (record,) = tracing.trace_collector().records()
        assert record.name == "profiler.build" and record.parent_id is None
        assert record.attrs == {"provider": provider.name, "vm": provider.default_vm.name}

    def test_vm_shape_gets_its_own_entry(self, provider, calibrations):
        default = build_model_matrix(provider=provider, cluster_spec=provider.cluster(25))
        slow_nic = replace(provider.default_vm, name="slow-nic", network_mb_s=100.0)
        matrix = build_model_matrix(
            provider=provider, cluster_spec=ClusterSpec(n_vms=25, vm=slow_nic)
        )
        assert matrix is not default
        assert len(profiler_mod._MATRIX_CACHE) == 2
        assert calibrations[-1] == ClusterSpec(n_vms=1, vm=slow_nic)
        assert matrix.bandwidths("sort", Tier.PERS_SSD, 1000.0) != default.bandwidths(
            "sort", Tier.PERS_SSD, 1000.0)

    def test_cluster_size_sweep_profiles_once(self, provider, small_workload, calibrations):
        points = sweep_cluster_sizes(small_workload, (5, 10, 25, 50), provider, iterations=20)
        assert [p.n_vms for p in points] == [5, 10, 25, 50]
        assert calibrations == [ClusterSpec(n_vms=1, vm=provider.default_vm)]
