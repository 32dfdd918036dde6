"""Offline profiler and the model matrix."""

from dataclasses import replace

import pytest

from repro.cloud.storage import Tier
from repro.errors import CatalogError
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
