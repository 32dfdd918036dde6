"""Offline workload profiling (paper §4.1).

CAST "performs offline workload profiling to construct job performance
prediction models on different cloud storage services".  In the paper
that means running each application once per storage service (and per
capacity point, for the scaling services) on the real cluster; here the
calibration jobs run on the simulator substrate — the same substitution
as everywhere else, and importantly the *planner never sees the
simulator's internals*: it only sees what profiling a real deployment
would yield, phase durations inverted into per-task bandwidths.

Inversion follows Eq. 1's structure.  A phase observed to take ``P``
seconds over ``w`` waves with per-task data ``d`` MB has effective
per-task bandwidth ``d / (P / w)``.  The simulator's merged
shuffle+reduce phase is apportioned between Eq. 1's shuffle and reduce
terms pro rata by data volume so the three-term estimator reproduces
the observed total exactly at the calibration point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from ..cloud.provider import CloudProvider, google_cloud_2015
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..obs.tracing import capture_spans, span
from ..simulator.cache import sim_key_context
from ..simulator.engine import intermediate_tier_for, simulate_job
from ..units import gb_to_mb
from ..workloads.apps import APP_CATALOG, AppProfile
from ..workloads.spec import JobSpec
from .models import CapacityProfile, ModelMatrix, PhaseBandwidths

__all__ = ["Profiler", "DEFAULT_CAPACITY_GRID_GB", "build_model_matrix"]

#: Per-VM capacity grid for the scaling services (GB).  The paper
#: profiles 100–1000 GB per VM (Fig. 2).
DEFAULT_CAPACITY_GRID_GB: Tuple[float, ...] = (100.0, 200.0, 350.0, 500.0, 750.0, 1000.0)

_BW_FLOOR = 1e-6


@dataclass
class Profiler:
    """Runs calibration jobs and assembles a :class:`ModelMatrix`.

    Parameters
    ----------
    provider:
        Cloud catalog to profile against.
    cluster_spec:
        The calibration cluster.  The paper uses its 10-VM §3 cluster;
        :func:`build_model_matrix` uses one VM of the planned shape.
    waves:
        Calibration-job size in scheduling waves — ≥2 so wave overlap
        effects are represented in the measurement.
    """

    provider: CloudProvider
    cluster_spec: ClusterSpec
    waves: int = 2
    #: Input GB per map task in calibration runs.  Matches the
    #: production workloads being planned for (the Facebook trace's
    #: ~1 GB splits); per-task fixed overheads then amortize in the
    #: measured bandwidths the same way they do in real jobs.
    split_gb: float = 1.0

    def calibration_job(self, app: AppProfile) -> JobSpec:
        """A job filling exactly ``waves`` map AND reduce waves.

        Wave-aligned task counts make the Eq. 1 inversion unambiguous:
        observed phase time divides into whole waves on both sides, so
        the derived per-task bandwidths carry no partial-wave bias.
        """
        n_maps = self.cluster_spec.total_map_slots * self.waves
        n_reduces = self.cluster_spec.total_reduce_slots * self.waves
        return JobSpec(
            job_id=f"calib-{app.name}",
            app=app,
            input_gb=n_maps * self.split_gb,
            n_maps=n_maps,
            n_reduces=n_reduces,
        )

    # -- single-point profiling -------------------------------------------------

    def profile_point(
        self, app: AppProfile, tier: Tier, capacity_gb_per_vm: float
    ) -> PhaseBandwidths:
        """Measure phase bandwidths for one (app, tier, capacity)."""
        job = self.calibration_job(app)
        caps = self._capacity_map(job, tier, capacity_gb_per_vm)
        result = simulate_job(job, tier, self.cluster_spec, self.provider, caps)

        m, r = job.map_tasks, job.reduce_tasks
        waves_m = self.cluster_spec.map_waves(m)
        waves_r = self.cluster_spec.reduce_waves(r)

        map_per_wave_s = result.map_s / waves_m
        bw_map = gb_to_mb(job.input_gb / m) / max(map_per_wave_s, 1e-12)

        inter_mb = gb_to_mb(job.intermediate_gb / r)
        out_mb = gb_to_mb(job.output_gb / r)
        red_per_wave_s = result.reduce_s / max(waves_r, 1e-12)
        total_mb = inter_mb + out_mb
        if total_mb <= 0 or red_per_wave_s <= 0:
            bw_shuffle = bw_reduce = max(bw_map, 1.0)
        else:
            shuffle_share = inter_mb / total_mb
            shuffle_s = red_per_wave_s * shuffle_share
            reduce_s = red_per_wave_s * (1.0 - shuffle_share)
            bw_shuffle = inter_mb / shuffle_s if shuffle_s > 0 else max(bw_map, 1.0)
            bw_reduce = out_mb / reduce_s if reduce_s > 0 else max(bw_map, 1.0)
        return PhaseBandwidths(
            map_mb_s=max(bw_map, _BW_FLOOR),
            shuffle_mb_s=max(bw_shuffle, _BW_FLOOR),
            reduce_mb_s=max(bw_reduce, _BW_FLOOR),
        )

    def _capacity_map(
        self, job: JobSpec, tier: Tier, capacity_gb_per_vm: float
    ) -> Dict[Tier, float]:
        caps: Dict[Tier, float] = {}
        inter = intermediate_tier_for(self.provider, tier)
        if tier is Tier.OBJ_STORE:
            # Calibrate with the same helper-volume sizing production
            # deployments use, or the profile would under-report the
            # shuffle bandwidth objStore jobs actually see.
            from ..simulator.engine import HELPER_INTERMEDIATE_GB_PER_VM

            caps[inter] = HELPER_INTERMEDIATE_GB_PER_VM
        elif tier is Tier.EPH_SSD:
            caps[Tier.EPH_SSD] = capacity_gb_per_vm
        else:
            caps[tier] = capacity_gb_per_vm
        return caps

    # -- full-matrix profiling -----------------------------------------------------

    def capacity_grid(self, tier: Tier) -> Tuple[float, ...]:
        """Capacity anchors for ``tier``.

        persSSD/persHDD follow their volume-size curves; ephSSD scales
        in whole 375 GB volumes (1–4 per VM); objStore is flat.
        """
        svc = self.provider.service(tier)
        if tier is Tier.OBJ_STORE:
            return (100.0,)
        if tier is Tier.EPH_SSD:
            # Volumes add capacity, not bandwidth (see SimCluster) —
            # one anchor suffices.
            return (float(svc.fixed_volume_gb or 375.0),)
        return DEFAULT_CAPACITY_GRID_GB

    def profile_app_tier(self, app: AppProfile, tier: Tier) -> CapacityProfile:
        """Profile one (app, tier) across the capacity grid."""
        anchors = []
        for cap in self.capacity_grid(tier):
            anchors.append((cap, self.profile_point(app, tier, cap)))
        return CapacityProfile(anchors=tuple(anchors))

    def profile_all(
        self,
        apps: Optional[Iterable[AppProfile]] = None,
        tiers: Optional[Iterable[Tier]] = None,
    ) -> ModelMatrix:
        """Profile every (app, tier) pair into a fresh matrix."""
        matrix = ModelMatrix()
        app_list = list(apps) if apps is not None else list(APP_CATALOG.values())
        tier_list = list(tiers) if tiers is not None else list(self.provider.tiers)
        for app in app_list:
            for tier in tier_list:
                matrix.put(app.name, tier, self.profile_app_tier(app, tier))
        return matrix


_MATRIX_CACHE: Dict[Tuple[Any, ...], ModelMatrix] = {}


def build_model_matrix(
    provider: Optional[CloudProvider] = None,
    cluster_spec: Optional[ClusterSpec] = None,
    waves: int = 2,
) -> ModelMatrix:
    """Profile (with caching) the model matrix for a catalog and VM shape.

    Only ``cluster_spec.vm`` is read.  Calibration runs on one VM of that
    shape, because the profiled per-task bandwidths do not depend on the
    VM count: calibration jobs are sized in waves per VM
    (:meth:`Profiler.calibration_job`); every ``SimCluster`` channel is
    per node, objStore included (``throughput_mb_s(1.0)`` per node);
    persistent block bandwidth is capped by the per-VM NIC; and no term
    aggregates across VMs.  ``tests/test_profiler.py`` pins the 1-VM
    matrix to those profiled at 2 to 25 VMs on every catalog.  A catalog
    with a cluster-wide term (say, a shared object-store cap) would need
    ``n_vms`` back in the memo key; that test fails first.

    Results are memoized per (VM shape, catalog digest, waves), the
    :func:`~repro.simulator.cache.sim_key_context` of the one-VM
    cluster: a re-priced or renamed catalog shares its matrix, one that
    performs differently gets its own.  A real build records one
    ``profiler.build`` span in the caller's trace and discards its
    calibration simulations' spans.
    """
    provider = provider or google_cloud_2015()
    vm = cluster_spec.vm if cluster_spec is not None else provider.default_vm
    calibration = ClusterSpec(n_vms=1, vm=vm)
    key = (sim_key_context(calibration, provider), waves)
    matrix = _MATRIX_CACHE.get(key)
    if matrix is None:
        profiler = Profiler(provider=provider, cluster_spec=calibration, waves=waves)
        with span("profiler.build", attrs={
            "provider": provider.name, "vm": vm.name,
        }), capture_spans():
            matrix = profiler.profile_all()
        matrix = _MATRIX_CACHE.setdefault(key, matrix)
    return matrix
