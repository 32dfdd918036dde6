"""Tensorized workload evaluation for population-based search.

The incremental :class:`~repro.core.evaluator.PlanEvaluator` makes one
Metropolis chain cheap; it cannot make *many* chains cheap, because its
state is a web of Python dicts per chain.  This module re-expresses the
whole Eq. 1–6 objective as dense NumPy tensors so a batch of R replica
plans is scored in one vectorized pass:

* **Plans are two int arrays.**  A plan is ``(tier_idx, cap_idx)`` —
  job → tier index and job → capacity-level index into a per-job
  capacity table (level 0 holds the job's custom/encoded capacity,
  levels 1.. are ``footprint × CAPACITY_MULTIPLIERS``).  Encoding is
  exact: decoding returns bit-identical capacities.
* **Bandwidths are precomputed grids.**  Quantized per-VM capacities
  are whole GB and every (app, tier) profile spans a bounded anchor
  range, so the PCHIP splines are evaluated once over the integer grid
  (:meth:`~repro.profiler.models.CapacityProfile.at_array`) into a
  padded ``(apps, tiers, grid, 3)`` tensor; a batch lookup is a clip +
  gather, never a spline call.
* **Sufficient statistics, not per-job scans.**  A job's Eq. 1
  estimate depends only on (app, tier, quantized per-VM capacity), so
  the batch objective needs only one per-replica contraction:
  ``stats[r, app, tier, channel]`` holding the phase pre-term sums,
  staging sums, and aggregate/billable capacity sums of the jobs at
  that (app, tier) cell.  Full-plan utility is a gather + segment-sum
  over ``R × apps × tiers`` elements — independent of the job count —
  and the parallel-tempering loop (:mod:`~repro.core.tempering`)
  maintains the statistics incrementally: a single-job move updates
  two 8-vectors, an app-level bulk move zeroes one row and writes one
  precomputed level vector.

Exactness contract: the tensor path **guides the search only**.  Its
batched utilities (:meth:`TensorWorkloadModel.utilities`) agree with
:func:`~repro.core.utility.evaluate_plan` to ≤ 1e-9 relative — the
parity suite and the scale benchmark gate exactly that — and the best
plan a search returns is always re-scored through the canonical
``evaluate_plan``, so reported metrics are bit-identical to the naive
path.  Two documented guidance-only deviations exist in the batched
reuse economics: billed-capacity dedup is clamped at zero once per
tier instead of once per reuse set, and holding costs use the final
discounted makespan for every set instead of the running value.  Both
differ only when a clamp binds.
"""

from __future__ import annotations

import math
import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import PlanError
from ..profiler.models import ModelMatrix
from ..workloads.spec import WorkloadSpec
from .perf_model import eq1_static_terms
from .plan import CAPACITY_MULTIPLIERS, Placement, TieringPlan

__all__ = [
    "TensorWorkloadModel",
    "TensorBatchState",
    "BandwidthTensor",
    "JobStatics",
    "bandwidth_tensor",
    "job_statics",
]

#: Channels of the per-(replica, app, tier) statistic vector:
#: 0–2 Eq. 1 phase pre-terms (map/shuffle/reduce), 3 ephSSD staging
#: seconds, 4 aggregate capacity GB, 5 own billed GB, 6 intermediate GB
#: (billed on the helper tier), 7 input+output GB (billed on backing).
_C = 8


class BandwidthTensor:
    """Shared dense PCHIP bandwidth grids for one (matrix, apps, tiers).

    The spline evaluation over the integer capacity grids is the
    expensive, capacity-profile-bound part of model construction, and
    it depends only on the model matrix and the (app, tier) universe —
    not on the workload, plan, or prices.  One instance is built per
    catalog and shared read-only by every :class:`TensorWorkloadModel`
    over the same matrix (cross-catalog sweeps, repeated tempering
    solves, service restarts on one shard).
    """

    __slots__ = ("apps", "tiers", "lo", "hi", "G", "bw")

    def __init__(
        self,
        apps: Tuple[str, ...],
        tiers: Tuple[Tier, ...],
        lo: np.ndarray,
        hi: np.ndarray,
        G: int,
        bw: np.ndarray,
    ) -> None:
        self.apps = apps
        self.tiers = tiers
        self.lo = lo
        self.hi = hi
        self.G = G
        self.bw = bw


#: (id(matrix), apps, tiers) → (weakref(matrix), tensor).  Keyed by
#: matrix identity — profiled matrices are memoized process-wide by
#: :func:`repro.profiler.build_model_matrix`, so identity hits are the
#: common case; the weakref guard detects id reuse after a collect.
_BW_CACHE: Dict[Tuple[int, Tuple[str, ...], Tuple[Tier, ...]], Tuple[Any, Any]] = {}
_BW_CACHE_MAX = 64


def bandwidth_tensor(
    matrix: ModelMatrix, apps: Tuple[str, ...], tiers: Tuple[Tier, ...]
) -> BandwidthTensor:
    """The memoized ``(apps, tiers, grid, 3)`` bandwidth tensor.

    Bit-exact: the same ``at_array`` evaluation over the same grids as
    the inline build it replaces, so sharing cannot change any utility.
    """
    key = (id(matrix), apps, tiers)
    hit = _BW_CACHE.get(key)
    if hit is not None and hit[0]() is matrix:
        return hit[1]
    A, T = len(apps), len(tiers)
    lo = np.zeros((A, T), dtype=np.int64)
    hi = np.zeros((A, T), dtype=np.int64)
    tables: Dict[Tuple[int, int], Tuple[np.ndarray, ...]] = {}
    for a, name in enumerate(apps):
        for t, tier in enumerate(tiers):
            profile = matrix.get(name, tier)
            caps = profile.capacities
            if len(caps) == 1:
                arrs = profile.at_array(np.array([caps[0]]))
                lo[a, t] = hi[a, t] = 0
            else:
                lo[a, t] = math.floor(caps[0])
                hi[a, t] = math.ceil(caps[-1])
                grid = np.arange(lo[a, t], hi[a, t] + 1, dtype=float)
                arrs = profile.at_array(grid)
            # The max(1e-9, ...) clamp CapacityProfile.at applies.
            tables[(a, t)] = tuple(np.maximum(1e-9, arr) for arr in arrs)
    G = max(int(hi[a, t] - lo[a, t]) + 1 for a in range(A) for t in range(T))
    # Interleaved (A, T, G, 3) so one gather yields all three phases.
    bw = np.full((A, T, G, 3), 1e-9, dtype=float)
    for (a, t), (m_arr, s_arr, r_arr) in tables.items():
        n = m_arr.shape[0]
        bw[a, t, :n, 0] = m_arr
        bw[a, t, :n, 1] = s_arr
        bw[a, t, :n, 2] = r_arr
    tensor = BandwidthTensor(apps, tiers, lo, hi, G, bw)
    try:
        ref = weakref.ref(matrix)
    except TypeError:
        return tensor
    if len(_BW_CACHE) >= _BW_CACHE_MAX:
        _BW_CACHE.clear()
    _BW_CACHE[key] = (ref, tensor)
    return tensor


class JobStatics:
    """Shared capacity-independent Eq. 1 terms for one workload.

    Everything here is a pure function of (workload, cluster slots,
    objStore staging parameters): the app-contiguous job order, the
    per-job phase pre-terms, staging seconds, footprints, and the
    reuse-group structure.  Instances are shared read-only between
    models — per-plan state (capacity levels, level sums) stays in
    :class:`TensorWorkloadModel`.
    """

    __slots__ = (
        "jobs", "app_names", "job_pos", "app_idx", "app_idx_l", "pre",
        "download", "stage_s", "inter", "io", "fp", "app_members",
        "groups", "group_of", "set_members", "set_anchor", "set_shared",
        "set_disc", "set_dup", "set_window",
    )


#: (id(workload), cluster, staging signature) → (weakref, statics).
_STATICS_CACHE: Dict[Tuple[Any, ...], Tuple[Any, Any]] = {}
_STATICS_CACHE_MAX = 64


def _staging_signature(
    cluster_spec: ClusterSpec, provider: CloudProvider
) -> Tuple[float, float]:
    """The provider inputs :func:`staging_seconds` actually reads."""
    svc = provider.service(Tier.OBJ_STORE)
    bw = svc.bulk_staging_mb_s or svc.throughput_mb_s(1.0)
    return (float(bw), float(svc.request_overhead_s))


def job_statics(
    workload: WorkloadSpec, cluster_spec: ClusterSpec, provider: CloudProvider
) -> JobStatics:
    """The memoized per-job static terms of the Eq. 1 objective.

    Two catalogs with identical objStore staging behaviour share an
    instance; catalogs that stage differently get their own (the
    staging constants differ, nothing else does).
    """
    key = (id(workload), cluster_spec, _staging_signature(cluster_spec, provider))
    hit = _STATICS_CACHE.get(key)
    if hit is not None and hit[0]() is workload:
        return hit[1]

    jobs = list(workload.jobs)
    N = len(jobs)
    app_names = sorted({j.app.name for j in jobs})
    apos = {name: i for i, name in enumerate(app_names)}
    # Internal job order groups each app contiguously (stable sort, so
    # workload order is preserved within an app): app-level bulk moves
    # then touch plain slices instead of fancy-index arrays.
    jobs.sort(key=lambda j: apos[j.app.name])

    st = JobStatics()
    st.jobs = jobs
    st.app_names = app_names
    st.job_pos = {j.job_id: i for i, j in enumerate(jobs)}
    st.app_idx = np.empty(N, dtype=np.int64)
    st.pre = np.empty((N, 3), dtype=float)
    st.download = np.empty(N, dtype=float)
    st.stage_s = np.empty(N, dtype=float)
    st.inter = np.empty(N, dtype=float)
    st.io = np.empty(N, dtype=float)
    st.fp = np.empty(N, dtype=float)
    for i, job in enumerate(jobs):
        st.app_idx[i] = apos[job.app.name]
        *pre, download, upload = eq1_static_terms(job, cluster_spec, provider)
        st.pre[i] = pre
        st.download[i] = download
        st.stage_s[i] = download + upload
        st.inter[i] = job.intermediate_gb
        st.io[i] = job.input_gb + job.output_gb
        st.fp[i] = job.footprint_gb
    # Python-int twin for the scalar move kernels (list indexing beats
    # numpy scalar extraction in the hot loop).
    st.app_idx_l = st.app_idx.tolist()

    # Jobs are app-contiguous (see the sort above), so each app is a
    # slice — slice reads/writes in the bulk-move kernel are views.
    A = len(app_names)
    starts = np.searchsorted(st.app_idx, np.arange(A + 1))
    st.app_members = [slice(int(starts[a]), int(starts[a + 1])) for a in range(A)]

    # Reuse groups: each reuse set is one atomic move unit; jobs
    # outside any set are singleton groups (Constraint 7).
    group_of = np.arange(N, dtype=np.int64)
    groups: List[np.ndarray] = [np.array([i], dtype=np.int64) for i in range(N)]
    if workload.reuse_sets:
        groups = []
        group_of = np.full(N, -1, dtype=np.int64)
        for rs in workload.reuse_sets:
            ns = np.array(
                sorted(st.job_pos[j] for j in rs.job_ids), dtype=np.int64
            )
            for n in ns:
                group_of[n] = len(groups)
            groups.append(ns)
        for i in range(N):
            if group_of[i] < 0:
                group_of[i] = len(groups)
                groups.append(np.array([i], dtype=np.int64))
    st.groups = groups
    st.group_of = group_of.tolist()

    # Reuse-set constants for the batched §3.1.3 economics.
    sets = workload.reuse_sets
    if sets:
        st.set_members = [
            np.array(sorted(st.job_pos[j] for j in rs.job_ids), dtype=np.int64)
            for rs in sets
        ]
        st.set_anchor = np.array([ns[0] for ns in st.set_members], dtype=np.int64)
        st.set_shared = np.array(
            [max(jobs[n].input_gb for n in ns) for ns in st.set_members]
        )
        # ephSSD download discount: one staged copy serves every
        # member, so all but the largest download are skipped (the
        # staging terms are capacity-independent constants).
        st.set_disc = np.array(
            [
                float(st.download[ns].sum() - st.download[ns].max())
                if len(ns) > 1
                else 0.0
                for ns in st.set_members
            ]
        )
        st.set_dup = np.array(
            [
                (len(ns) - 1) * float(shared)
                for ns, shared in zip(st.set_members, st.set_shared)
            ]
        )
        st.set_window = np.array([rs.lifetime.window_seconds for rs in sets])
    else:
        st.set_members = []
        st.set_anchor = st.set_shared = st.set_disc = None
        st.set_dup = st.set_window = None

    try:
        ref = weakref.ref(workload)
    except TypeError:
        return st
    if len(_STATICS_CACHE) >= _STATICS_CACHE_MAX:
        _STATICS_CACHE.clear()
    _STATICS_CACHE[key] = (ref, st)
    return st


class TensorBatchState:
    """Mutable sufficient statistics for R replica plans.

    ``tier``/``lvl`` are the (R, N) plan arrays; ``stats`` is the
    (R, apps, tiers, 8) channel tensor maintained incrementally by the
    tempering move kernels and rebuilt exactly by
    :meth:`TensorWorkloadModel.refresh` (drift control).
    """

    __slots__ = ("tier", "lvl", "stats")

    def __init__(self, tier: np.ndarray, lvl: np.ndarray) -> None:
        self.tier = tier
        self.lvl = lvl
        self.stats: np.ndarray = np.empty(0)


class TensorWorkloadModel:
    """Dense-tensor view of one workload's Eq. 1–6 objective.

    One model serves one solve: workload, cluster, model matrix and
    provider are fixed at construction.  ``reuse_aware`` selects the
    CAST++ world view (§3.1.3 reuse economics); the batched reuse path
    assumes every reuse set occupies a single tier, which the group
    move kernels keep invariant (Constraint 7).
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        cluster_spec: ClusterSpec,
        matrix: ModelMatrix,
        provider: CloudProvider,
        reuse_aware: bool = False,
    ) -> None:
        self.workload = workload
        self.cluster_spec = cluster_spec
        self.matrix = matrix
        self.provider = provider
        self.reuse_aware = reuse_aware

        self.n_jobs = N = workload.n_jobs
        self.tiers: List[Tier] = list(provider.tiers)
        self.n_tiers = T = len(self.tiers)
        tpos = {tier: i for i, tier in enumerate(self.tiers)}
        self._tpos = tpos

        # -- shared capacity-independent Eq. 1 terms (memoized) --
        st = job_statics(workload, cluster_spec, provider)
        self._statics = st
        self.jobs = st.jobs
        self.apps = st.app_names
        self.n_apps = A = len(st.app_names)
        self._job_pos = st.job_pos
        self.app_idx = st.app_idx
        self.app_idx_l = st.app_idx_l
        self.pre = st.pre
        self.download = st.download
        self.stage_s = st.stage_s
        self.inter = st.inter
        self.io = st.io
        self.fp = st.fp

        # -- capacity levels: level 0 = custom, 1.. = footprint × mult --
        self.n_levels = L = 1 + len(CAPACITY_MULTIPLIERS)
        self.cap_levels = np.empty((N, L), dtype=float)
        self.cap_levels[:, 0] = self.fp
        for k, mult in enumerate(CAPACITY_MULTIPLIERS):
            self.cap_levels[:, k + 1] = self.fp * mult
        self._lvl_sums_stale = True

        # -- tier relations, clamps and prices --
        self.max_pvc = np.empty(T, dtype=float)
        self.price = np.empty(T, dtype=float)
        self.has_ri = np.zeros(T, dtype=bool)
        self.ri_idx = np.full(T, -1, dtype=np.int64)
        self.rb_idx = np.full(T, -1, dtype=np.int64)
        for t, tier in enumerate(self.tiers):
            svc = provider.service(tier)
            self.max_pvc[t] = svc.max_capacity_per_vm_gb()
            self.price[t] = provider.storage_price_gb_hr(tier)
            if svc.requires_intermediate is not None:
                self.has_ri[t] = True
                self.ri_idx[t] = tpos[svc.requires_intermediate]
            if svc.requires_backing is not None:
                self.rb_idx[t] = tpos[svc.requires_backing]
        #: 0/1 selector between the plain and requires-intermediate
        #: variants of the precomputed delta vectors.
        self._ri01 = self.has_ri.astype(np.int64)
        self.eph_pos = tpos.get(Tier.EPH_SSD, -1)
        # Billing routing fused into one (3T, T) matrix: a (tier,
        # channel) cell of the flattened (own, inter, io) statistics
        # lands on its own tier, the helper tier, or the backing tier.
        self._route = np.zeros((T * 3, T), dtype=float)
        for t in range(T):
            self._route[t * 3 + 0, t] = 1.0
            if self.ri_idx[t] >= 0:
                self._route[t * 3 + 1, self.ri_idx[t]] = 1.0
            if self.rb_idx[t] >= 0:
                self._route[t * 3 + 2, self.rb_idx[t]] = 1.0
        # §3.1.3 holding rate per tier (tier + its backing copy).
        self.hold_rate = self.price.copy()
        for t in range(T):
            if self.rb_idx[t] >= 0:
                self.hold_rate[t] += self.price[self.rb_idx[t]]
        self.n_vms = cluster_spec.n_vms
        self.vm_rate = provider.prices.vm_price_per_min

        # -- bandwidth grids: one shared padded tensor per catalog --
        bwt = bandwidth_tensor(matrix, tuple(st.app_names), tuple(self.tiers))
        self.lo, self.hi = bwt.lo, bwt.hi
        self._G = bwt.G
        self.bw = bwt.bw
        self._ai_grid = np.broadcast_to(np.arange(A)[:, None], (A, T))
        self._ti_grid = np.broadcast_to(np.arange(T)[None, :], (A, T))
        self._arangeN = np.arange(N)

        # -- groupings for the move kernels (shared, read-only) --
        self.app_members: List[slice] = st.app_members
        self.groups = st.groups
        self.group_of = st.group_of

        # -- reuse-set constants for the batched economics --
        self.n_sets = S = len(workload.reuse_sets)
        if S:
            self.set_members = st.set_members
            self.set_anchor = st.set_anchor
            self.set_shared = st.set_shared
            self.set_disc = st.set_disc
            self.set_dup = st.set_dup
            self.set_window = st.set_window

    # -- capacity levels -------------------------------------------------------

    def _finalize_levels(self) -> None:
        """(Re)build the precomputed delta vectors the moves apply.

        ``job_vec[n, k, l]`` is job n's full 8-channel contribution at
        capacity level l on a plain (k=0) or intermediate-routing (k=1)
        tier — a single-job move subtracts one such vector and adds
        another.  ``app_lvl[a, k, l]`` is the same thing summed over
        app a's jobs: after a bulk move every member sits in one
        (app, tier) cell, so the statistics update is "zero the app's
        row, write this vector".  Rebuilt whenever :meth:`encode_plan`
        rewrites a custom (level 0) capacity.
        """
        N, A, L = self.n_jobs, self.n_apps, self.n_levels
        caps = self.cap_levels  # (N, L)
        jv = np.empty((N, 2, L, _C), dtype=float)
        jv[..., 0] = self.pre[:, None, None, 0]
        jv[..., 1] = self.pre[:, None, None, 1]
        jv[..., 2] = self.pre[:, None, None, 2]
        jv[..., 3] = self.stage_s[:, None, None]
        jv[..., 4] = caps[:, None, :]
        jv[..., 6] = self.inter[:, None, None]
        jv[..., 7] = self.io[:, None, None]
        jv[:, 0, :, 5] = caps
        jv[:, 1, :, 5] = np.maximum(caps - self.inter[:, None], self.io[:, None])
        self.job_vec = jv
        # Nested-list view cache: _jv_l[n][k][l] is the (8,) delta
        # vector, reachable by plain list indexing in the move kernels
        # (ndarray chained indexing costs ~3× as much per lookup).
        self._jv_l = [
            [[jv[n, k, l] for l in range(L)] for k in range(2)] for n in range(N)
        ]
        self._ri01_l = self._ri01.tolist()
        self.app_lvl = np.empty((A, 2, L, _C), dtype=float)
        for a, ns in enumerate(self.app_members):
            self.app_lvl[a] = jv[ns].sum(axis=0)
        self._lvl_sums_stale = False

    def encode_plan(self, plan: TieringPlan) -> Tuple[np.ndarray, np.ndarray]:
        """Encode a plan as ``(tier_idx, cap_idx)`` int arrays.

        Capacities matching a ``footprint × multiplier`` level map to
        that level; anything else is bound to the job's *custom* level
        0, whose value is rewritten to the encoded capacity — encoding
        therefore round-trips bit-exactly, and the custom column always
        reflects the most recently encoded plan.
        """
        N = self.n_jobs
        tier = np.empty(N, dtype=np.int64)
        lvl = np.empty(N, dtype=np.int64)
        for i, job in enumerate(self.jobs):
            p = plan.placements.get(job.job_id)
            if p is None:
                raise PlanError(f"job {job.job_id!r} not in plan")
            tier[i] = self._tpos[p.tier]
            cap = p.capacity_gb
            for level in range(1, self.n_levels):
                if self.cap_levels[i, level] == cap:
                    lvl[i] = level
                    break
            else:
                self.cap_levels[i, 0] = cap
                self._lvl_sums_stale = True
                lvl[i] = 0
        return tier, lvl

    def decode_plan(self, tier: np.ndarray, lvl: np.ndarray) -> TieringPlan:
        """Inverse of :meth:`encode_plan` (bit-exact capacities)."""
        placements = {}
        for i, job in enumerate(self.jobs):
            placements[job.job_id] = Placement(
                tier=self.tiers[int(tier[i])],
                capacity_gb=float(self.cap_levels[i, int(lvl[i])]),
            )
        return TieringPlan(placements=placements)

    # -- batch state -----------------------------------------------------------

    def make_state(
        self, tier: np.ndarray, lvl: np.ndarray, replicas: int
    ) -> TensorBatchState:
        """R replicas, all starting from one encoded plan."""
        if self._lvl_sums_stale:
            self._finalize_levels()
        state = TensorBatchState(
            np.tile(np.asarray(tier, dtype=np.int64), (replicas, 1)),
            np.tile(np.asarray(lvl, dtype=np.int64), (replicas, 1)),
        )
        self.refresh(state)
        return state

    def refresh(self, state: TensorBatchState) -> None:
        """Rebuild every sufficient statistic from the plan arrays.

        The tempering loop calls this periodically so incremental
        float drift never outlives a swap round.
        """
        R, N = state.tier.shape
        T, A = self.n_tiers, self.n_apps
        cap = self.cap_levels[self._arangeN, state.lvl]
        own = np.where(
            self.has_ri[state.tier], np.maximum(cap - self.inter, self.io), cap
        )
        comb = (
            (np.arange(R, dtype=np.int64) * (A * T))[:, None]
            + self.app_idx * T
            + state.tier
        ).ravel()
        rat = R * A * T
        bro = np.broadcast_to
        channels = (
            bro(self.pre[:, 0], (R, N)),
            bro(self.pre[:, 1], (R, N)),
            bro(self.pre[:, 2], (R, N)),
            bro(self.stage_s, (R, N)),
            cap,
            own,
            bro(self.inter, (R, N)),
            bro(self.io, (R, N)),
        )
        stats = np.empty((R, A, T, _C), dtype=float)
        for c, w in enumerate(channels):
            stats[..., c] = np.bincount(
                comb, weights=w.ravel(), minlength=rat
            ).reshape(R, A, T)
        state.stats = stats

    # -- batched objective -----------------------------------------------------

    def utilities(self, state: TensorBatchState) -> np.ndarray:
        """Guidance utilities of all R replica plans, one NumPy pass."""
        stats = state.stats
        R = stats.shape[0]
        ssum = stats.sum(axis=1)  # (R, T, 8): all channels, apps folded
        pvc = ssum[..., 4] / self.n_vms
        np.minimum(pvc, self.max_pvc, out=pvc)
        np.maximum(pvc, 10.0, out=pvc)
        qi = np.rint(pvc).astype(np.int64)  # round-half-even == quantize_capacity
        idx = np.clip(qi[:, None, :], self.lo, self.hi)
        idx -= self.lo
        bw = self.bw[self._ai_grid, self._ti_grid, idx]  # (R, A, T, 3)
        mk = (stats[..., :3] / bw).sum(axis=(1, 2, 3))
        if self.eph_pos >= 0:
            mk = mk + ssum[:, self.eph_pos, 3]
        billed = ssum[..., 5:8].reshape(R, -1) @ self._route  # (R, T)
        extra = 0.0
        if self.reuse_aware and self.n_sets:
            T, S = self.n_tiers, self.n_sets
            set_tier = state.tier[:, self.set_anchor]  # (R, S)
            if self.eph_pos >= 0:
                mk = mk - (set_tier == self.eph_pos) @ self.set_disc
            roff = (np.arange(R, dtype=np.int64) * T)[:, None]
            comb = (set_tier + roff).ravel()
            dup = np.bincount(
                comb,
                weights=np.broadcast_to(self.set_dup, (R, S)).ravel(),
                minlength=R * T,
            ).reshape(R, T)
            bt = self.rb_idx[set_tier]
            comb_b = (np.where(bt >= 0, bt, 0) + roff).ravel()
            dup += np.bincount(
                comb_b,
                weights=(np.broadcast_to(self.set_dup, (R, S)) * (bt >= 0)).ravel(),
                minlength=R * T,
            ).reshape(R, T)
            billed = np.maximum(billed - dup, 0.0)
            hours_e = np.ceil(np.maximum(self.set_window - mk[:, None], 0.0) / 3600.0)
            extra = (self.set_shared * self.hold_rate[set_tier] * hours_e).sum(axis=1)
        vm = (self.n_vms * self.vm_rate / 60.0) * mk
        hours = np.ceil(mk / 3600.0)
        storage = hours * (billed @ self.price) + extra
        return (60.0 / mk) / (vm + storage)

    # -- move kernels (incremental statistic updates) --------------------------

    def revert(self, state: TensorBatchState, r: int, undo: Tuple) -> None:
        """Bit-exact rollback of one replica's uncommitted move."""
        ns, old_t, old_l, a, saved = undo
        state.tier[r, ns] = old_t
        state.lvl[r, ns] = old_l
        if a is None:
            state.stats[r] = saved
        else:
            state.stats[r, a] = saved

    def apply_job_move(
        self, state: TensorBatchState, r: int, n: int, new_t: int, new_l: int
    ) -> Tuple:
        """Move one job to (tier, level); returns the undo record."""
        tier, lvl = state.tier, state.lvl
        old_t = tier[r, n]
        old_l = lvl[r, n]
        a = self.app_idx_l[n]
        row = state.stats[r, a]
        undo = (n, old_t, old_l, a, row.copy())
        jv = self._jv_l[n]
        ri01 = self._ri01_l
        row[old_t] -= jv[ri01[old_t]][old_l]
        row[new_t] += jv[ri01[new_t]][new_l]
        tier[r, n] = new_t
        lvl[r, n] = new_l
        return undo

    def apply_bulk_app_move(
        self, state: TensorBatchState, r: int, a: int, new_t: int, new_l: int
    ) -> Tuple:
        """Move every job of app ``a`` to (tier, level ≥ 1).

        After the move all of the app's jobs sit in one (app, tier)
        cell, so the statistics update is: zero the app's row, write
        the precomputed per-level vector — no per-member work at all.
        """
        ns = self.app_members[a]
        row = state.stats[r, a]
        undo = (ns, state.tier[r, ns].copy(), state.lvl[r, ns].copy(), a, row.copy())
        row[:] = 0.0
        row[new_t] = self.app_lvl[a, self._ri01[new_t], new_l]
        state.tier[r, ns] = new_t
        state.lvl[r, ns] = new_l
        return undo

    def apply_group_move(
        self,
        state: TensorBatchState,
        r: int,
        g: int,
        new_t: Optional[int],
        new_l: Optional[int],
    ) -> Tuple:
        """Atomically move one reuse group (Constraint 7).

        ``new_t`` / ``new_l`` of ``None`` keep each member's current
        tier / capacity level.  Groups are small, so members apply the
        scalar job-move deltas under one shared snapshot (members may
        span apps, so the whole replica slab is saved).
        """
        ns = self.groups[g]
        tier, lvl = state.tier, state.lvl
        undo = (ns, tier[r, ns].copy(), lvl[r, ns].copy(), None, state.stats[r].copy())
        stats = state.stats
        ri01 = self._ri01_l
        jv_all = self._jv_l
        for n in ns.tolist():
            ot = int(tier[r, n])
            ol = int(lvl[r, n])
            nt = ot if new_t is None else new_t
            nl = ol if new_l is None else new_l
            a = self.app_idx_l[n]
            jv = jv_all[n]
            stats[r, a, ot] -= jv[ri01[ot]][ol]
            stats[r, a, nt] += jv[ri01[nt]][nl]
            tier[r, n] = nt
            lvl[r, n] = nl
        return undo
