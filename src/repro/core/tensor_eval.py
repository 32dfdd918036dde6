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
  maintains the statistics incrementally with one kernel call per step
  for all replicas (:meth:`TensorWorkloadModel.apply_moves`): each
  moved job (a reuse-set move moves every member; a single-job move is
  a singleton set) subtracts its old 8-vector from one row and adds
  its new one to another, and an app-level bulk move zeroes one row
  and writes one precomputed level vector.  One snapshot of the
  statistics per step undoes a rejected replica.
* **Reuse terms only when a set moves.**  The §3.1.3 terms depend only
  on the tiers of the reuse sets; the batch state keeps the last ones
  and recomputes them only when some replica's set tiers changed.

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
from itertools import accumulate
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import PlanError
from ..profiler.models import ModelMatrix, derived
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


@derived
def bandwidth_tensor(
    matrix: ModelMatrix, apps: Tuple[str, ...], tiers: Tuple[Tier, ...]
) -> BandwidthTensor:
    """The ``(apps, tiers, grid, 3)`` bandwidth tensor, memoized on
    ``matrix``.

    Bit-exact: the same ``at_array`` evaluation over the same grids as
    the inline build it replaces, so sharing cannot change any utility.
    """
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
    return BandwidthTensor(apps, tiers, lo, hi, G, bw)


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
        "jobs", "app_names", "job_pos", "app_idx", "pre",
        "download", "stage_s", "inter", "io", "fp", "app_members",
        "groups", "group_mem", "group_size", "set_members", "set_anchor",
        "set_shared", "set_disc", "set_dup", "set_window",
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

    # Jobs are app-contiguous (see the sort above), so each app is a
    # slice — slice reads/writes in the bulk-move kernel are views.
    A = len(app_names)
    starts = np.searchsorted(st.app_idx, np.arange(A + 1))
    st.app_members = [slice(int(starts[a]), int(starts[a + 1])) for a in range(A)]

    # Reuse groups: each reuse set is one atomic move unit; jobs
    # outside any set are singleton groups (Constraint 7).
    groups: List[np.ndarray] = [
        np.array(sorted(st.job_pos[j] for j in rs.job_ids), dtype=np.int64)
        for rs in workload.reuse_sets
    ]
    in_set = np.zeros(N, dtype=bool)
    for ns in groups:
        in_set[ns] = True
    groups.extend(np.array([i], dtype=np.int64) for i in np.flatnonzero(~in_set))
    st.groups = groups
    # The same groups as one (groups, largest group) table padded with
    # -1, so a block of drawn group ids expands to members in one gather.
    st.group_size = np.array([len(ns) for ns in groups], dtype=np.int64)
    st.group_mem = np.full((len(groups), int(st.group_size.max(initial=1))), -1,
                           dtype=np.int64)
    for g, ns in enumerate(groups):
        st.group_mem[g, :len(ns)] = ns

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
    (R, apps, tiers, 8) channel tensor maintained incrementally by
    :meth:`TensorWorkloadModel.apply_moves` and rebuilt exactly by
    :meth:`TensorWorkloadModel.refresh` (drift control).  The last
    step's undo record — a snapshot of ``stats`` and the moved
    tier/level cells — lets :meth:`reject` roll one replica back.
    """

    __slots__ = (
        "tier", "lvl", "tier_flat", "lvl_flat", "stats", "flat", "snap",
        "moved", "bulk", "reuse",
    )

    def __init__(self, tier: np.ndarray, lvl: np.ndarray) -> None:
        self.tier = tier
        self.lvl = lvl
        #: (R·N) views of the plan arrays, indexed by job cell.
        self.tier_flat = tier.reshape(-1)
        self.lvl_flat = lvl.reshape(-1)
        self.stats: np.ndarray = np.empty(0)
        #: ``stats`` as (R·A·T, 8) rows, and the pre-step snapshot.
        self.flat: np.ndarray = self.stats
        self.snap: np.ndarray = self.stats
        #: Last step's member moves ``(rr, cell, old tier, old level)``
        #: and bulk moves ``{replica: (jobs, old tiers, old levels)}``.
        self.moved: Tuple[np.ndarray, ...] = ()
        self.bulk: Dict[int, Tuple[Any, np.ndarray, np.ndarray]] = {}
        #: Reuse terms of the last scored set tiers (see ``utilities``).
        self.reuse: Optional[Tuple[bytes, Any, np.ndarray, np.ndarray]] = None

    def reject(self, r: int) -> None:
        """Bit-exact rollback of replica ``r``'s move in the last step."""
        self.stats[r] = self.snap[r]
        rr, cell, ot, ol = self.moved
        mine = rr == r
        self.tier_flat[cell[mine]] = ot[mine]
        self.lvl_flat[cell[mine]] = ol[mine]
        undo = self.bulk.get(r)
        if undo is not None:
            ns, old_t, old_l = undo
            self.tier[r, ns] = old_t
            self.lvl[r, ns] = old_l


class StepMoves(NamedTuple):
    """One tempering step's moves for all R replicas, as member entries.

    A group move of k members is k entries (a single-job move is a
    singleton group).  Entries run member-major — every replica's first
    member, then every second member, ... — in replica order within a
    member, so ``rounds`` (``None``: one round) can be applied one after
    another with each replica's updates in the order of a sequential
    per-member loop.
    """

    #: Per entry: replica, and the job's cell in the flattened (R·N)
    #: plan arrays.
    rr: np.ndarray
    cell: np.ndarray
    #: Tier draw: the new tier is ``to`` below the current tier, else
    #: ``to + 1``; whether the tier / level change; the new level.
    to: np.ndarray
    tchg: np.ndarray
    lchg: np.ndarray
    nl: np.ndarray
    #: Row of (replica, app, tier 0) in the flattened statistics, and
    #: the job's first row in the flattened delta-vector table.
    rowbase: np.ndarray
    jvbase: np.ndarray
    #: The entry whose current tier the tier draw is relative to
    #: (``None``: each entry's own).
    anchor: Optional[np.ndarray]
    rounds: Optional[List[slice]]
    #: App-level moves ``(replica, app, tier, level)``.
    bulk: Sequence[Tuple[int, int, int, int]]


class TensorWorkloadModel:
    """Dense-tensor view of one workload's Eq. 1–6 objective.

    One model serves one solve: workload, cluster, model matrix and
    provider are fixed at construction.  ``reuse_aware`` selects the
    CAST++ world view (§3.1.3 reuse economics); the batched reuse path
    assumes every reuse set occupies a single tier, which group moves
    keep invariant (Constraint 7).
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
        self._vm_usd_per_s = self.n_vms * self.vm_rate / 60.0

        # -- bandwidth grids: one shared padded tensor per catalog --
        bwt = bandwidth_tensor(matrix, tuple(st.app_names), tuple(self.tiers))
        self.lo, self.hi = bwt.lo, bwt.hi
        self._G = bwt.G
        self.bw = bwt.bw
        # Row of grid point 0 of each (app, tier) in the flattened
        # (A·T·G, 3) tensor, less the grid's lower bound: a clamped
        # quantized capacity plus this is its bandwidth row.
        self._bw_rows = bwt.bw.reshape(-1, 3)
        self._bw_base = (
            (np.arange(A)[:, None] * T + np.arange(T)[None, :]) * bwt.G - bwt.lo
        )
        self._arangeN = np.arange(N)

        # -- groupings for the move kernel (shared, read-only) --
        self.app_members: List[slice] = st.app_members
        self.groups = st.groups

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
        tier — a member move subtracts one such vector and adds
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
        # Flat (N·2·L, 8) rows: job n's vector for tier t at level l is
        # row n·2L + ri_l[t] + l.
        self._jv_rows = jv.reshape(-1, _C)
        self._ri_l = self._ri01 * L
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
        state.flat = stats.reshape(-1, _C)
        if state.snap.shape != stats.shape:
            state.snap = np.empty_like(stats)

    # -- batched objective -----------------------------------------------------

    def utilities(self, state: TensorBatchState) -> List[float]:
        """Guidance utilities of all R replica plans, one NumPy pass.

        The reuse terms depend only on the tiers of the reuse sets, so
        they are kept on ``state`` and recomputed only when some
        replica's set tiers changed since the last call.
        """
        stats = state.stats
        R = stats.shape[0]
        ssum = stats.sum(axis=1)  # (R, T, 8): all channels, apps folded
        pvc = ssum[..., 4] / self.n_vms
        np.minimum(pvc, self.max_pvc, out=pvc)
        np.maximum(pvc, 10.0, out=pvc)
        qi = np.rint(pvc).astype(np.int64)  # round-half-even == quantize_capacity
        idx = np.maximum(qi[:, None, :], self.lo)
        np.minimum(idx, self.hi, out=idx)
        idx += self._bw_base
        bw = self._bw_rows[idx]  # (R, A, T, 3)
        mk = (stats[..., :3] / bw).sum(axis=(1, 2, 3))
        if self.eph_pos >= 0:
            mk = mk + ssum[:, self.eph_pos, 3]
        billed = ssum[..., 5:8].reshape(R, -1) @ self._route  # (R, T)
        extra = 0.0
        if self.reuse_aware and self.n_sets:
            set_tier = state.tier[:, self.set_anchor]  # (R, S)
            key = set_tier.tobytes()
            reuse = state.reuse
            if reuse is None or reuse[0] != key:
                reuse = state.reuse = (key, *self._reuse_terms(set_tier))
            _, disc, dup, hold = reuse
            if disc is not None:
                mk = mk - disc
            billed = np.maximum(billed - dup, 0.0)
            hours_e = np.ceil(np.maximum(self.set_window - mk[:, None], 0.0) / 3600.0)
            extra = (hold * hours_e).sum(axis=1)
        # R is small: the last elementwise steps are scalar float math
        # (the same IEEE ops) on plain lists, not R-element ufunc calls.
        vm_rate = self._vm_usd_per_s
        return [
            (60.0 / m) / (vm_rate * m + (math.ceil(m / 3600.0) * b + e))
            for m, b, e in zip(
                mk.tolist(), (billed @ self.price).tolist(),
                extra.tolist() if type(extra) is np.ndarray else [extra] * R,
            )
        ]

    def _reuse_terms(
        self, set_tier: np.ndarray
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """The set-tier-only reuse terms of :meth:`utilities`.

        Per replica: the ephSSD download discount (``None`` without an
        ephSSD tier), the duplicate GB to drop from each billed tier
        (the set's tier and its backing tier), and each set's holding
        rate × shared GB.
        """
        R, S = set_tier.shape
        T = self.n_tiers
        disc = None
        if self.eph_pos >= 0:
            disc = (set_tier == self.eph_pos) @ self.set_disc
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
        return disc, dup, self.set_shared * self.hold_rate[set_tier]

    # -- the move kernel (incremental statistic updates) ------------------------

    def group_move_block(
        self,
        kind: np.ndarray,
        group: np.ndarray,
        to: np.ndarray,
        lm: np.ndarray,
    ) -> List[StepMoves]:
        """Per-step moves of a block of CAST++ reuse-group draws.

        Every argument is (R, steps): move kind (0 retier, 1 resize,
        2 both), group id, tier draw and level draw (level ``lm + 1``).
        A group's tier draw is relative to its first member's tier, so
        a moved set stays on one tier (Constraint 7).
        """
        st = self._statics
        k_max = int(st.group_size[group].max())
        mem = st.group_mem[group.T, :k_max].transpose(0, 2, 1)  # (C, K, R)
        present = mem >= 0
        k_i, m_i, r_i = np.nonzero(present)
        # Every step's first round holds all R replicas in order, so a
        # member's anchor (its group's first member) sits at its replica.
        return self._block(
            k_i, r_i, mem[k_i, m_i, r_i], kind, to, lm, anchor=True,
            round_sizes=present.sum(axis=2) if k_max > 1 else None, bulk=None,
        )

    def job_move_block(
        self,
        kind: np.ndarray,
        job: np.ndarray,
        app: np.ndarray,
        tier: np.ndarray,
        to: np.ndarray,
        lm: np.ndarray,
    ) -> List[StepMoves]:
        """Per-step moves of a block of basic-CAST draws.

        Every argument is (R, steps).  Kinds 0–2 move one job (retier,
        resize, both: tier draw ``to``, level ``lm + 1``); kind 3 moves
        every job of ``app`` to ``tier`` at level ``lm + 1``.
        """
        bulk_draw = kind.T == 3  # (C, R)
        k_i, r_i = np.nonzero(~bulk_draw)
        kb, rb = np.nonzero(bulk_draw)
        bulk: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(kind.shape[1])]
        for k, r, a, t, l in zip(
            kb.tolist(), rb.tolist(), app[rb, kb].tolist(),
            tier[rb, kb].tolist(), (lm[rb, kb] + 1).tolist(),
        ):
            bulk[k].append((r, a, t, l))
        return self._block(
            k_i, r_i, job[r_i, k_i], kind, to, lm,
            anchor=False, round_sizes=None, bulk=bulk,
        )

    def _block(
        self,
        k_i: np.ndarray,
        r_i: np.ndarray,
        nn: np.ndarray,
        kind: np.ndarray,
        to: np.ndarray,
        lm: np.ndarray,
        anchor: bool,
        round_sizes: Optional[np.ndarray],
        bulk: Optional[List[List[Tuple[int, int, int, int]]]],
    ) -> List[StepMoves]:
        """Split block-wide member entries (sorted by step) into steps."""
        A, T, L = self.n_apps, self.n_tiers, self.n_levels
        kind_e = kind[r_i, k_i]
        cell = r_i * self.n_jobs + nn
        to_e = to[r_i, k_i]
        tchg, lchg = kind_e != 1, kind_e != 0
        nl = lm[r_i, k_i] + 1
        rowbase = (r_i * A + self.app_idx[nn]) * T
        jvbase = nn * (2 * L)
        steps = kind.shape[1]
        bounds = np.searchsorted(k_i, np.arange(steps + 1)).tolist()
        sizes = round_sizes.tolist() if round_sizes is not None else None
        block = []
        for k in range(steps):
            s, e = bounds[k], bounds[k + 1]
            rr = r_i[s:e]
            rounds = None
            if sizes is not None and sizes[k][1]:
                ends = list(accumulate(sizes[k]))
                rounds = [slice(a, b) for a, b in zip([0] + ends, ends) if b > a]
            block.append(StepMoves(
                rr, cell[s:e], to_e[s:e], tchg[s:e], lchg[s:e], nl[s:e],
                rowbase[s:e], jvbase[s:e], rr if anchor else None, rounds,
                bulk[k] if bulk is not None else (),
            ))
        return block

    def apply_moves(self, state: TensorBatchState, mv: StepMoves) -> None:
        """Apply one step's moves of every replica in one pass.

        Member moves subtract each member's old delta vector from its
        (replica, app, old tier) row and add the new one to the
        (replica, app, new tier) row, round by round, so every row sees
        the float ops of a sequential per-member loop in the same
        order.  Bulk app moves zero the app's row and write the
        precomputed per-level vector.  ``state.reject(r)`` undoes
        replica r's part.
        """
        tier, lvl, stats = state.tier, state.lvl, state.stats
        np.copyto(state.snap, stats)
        rr, cell, to, tchg, lchg, nl, rowbase, jvbase, anchor, rounds, bulk = mv
        tier_f, lvl_f = state.tier_flat, state.lvl_flat
        ot = tier_f[cell]
        ol = lvl_f[cell]
        cur = ot if anchor is None else ot[anchor]
        nt = np.where(tchg, to + (to >= cur), ot)
        nl = np.where(lchg, nl, ol)
        jv, ri_l = self._jv_rows, self._ri_l
        v_old = jv[jvbase + ri_l[ot] + ol]
        v_new = jv[jvbase + ri_l[nt] + nl]
        row_old = rowbase + ot
        row_new = rowbase + nt
        flat = state.flat
        if rounds is None:
            flat[row_old] -= v_old
            flat[row_new] += v_new
        else:
            for sl in rounds:
                flat[row_old[sl]] -= v_old[sl]
                flat[row_new[sl]] += v_new[sl]
        tier_f[cell] = nt
        lvl_f[cell] = nl
        state.moved = (rr, cell, ot, ol)
        state.bulk = {}
        for r, a, t, l in bulk:
            ns = self.app_members[a]
            state.bulk[r] = (ns, tier[r, ns].copy(), lvl[r, ns].copy())
            row = stats[r, a]
            row[:] = 0.0
            row[t] = self.app_lvl[a, self._ri01[t], l]
            tier[r, ns] = t
            lvl[r, ns] = l
