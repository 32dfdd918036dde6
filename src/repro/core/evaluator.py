"""Incremental plan evaluation for the annealing hot loop.

Algorithm 2 evaluates ``iter_max`` neighbor plans per solve, and the
naive :func:`~repro.core.utility.evaluate_plan` re-validates the plan
and re-runs :func:`~repro.core.perf_model.estimate_job` for all N jobs
even though a neighbor move touches one job (or one app class).
:class:`PlanEvaluator` makes a step cost what the move touched:

* **Tier-level invalidation.**  A move changes the aggregate capacity
  of at most a handful of services; only jobs on those services can see
  a different per-VM capacity (capacity coupling, Eq. 4), so only they
  are candidates for re-estimation.  Everything else keeps its cached
  runtime.
* **Bandwidth-keyed estimate memoization.**  A job estimate depends on
  capacity only through the 1 GB-quantized bandwidth lookup
  (:func:`~repro.profiler.models.quantize_capacity` is shared with
  :class:`~repro.profiler.models.ModelMatrix`), so estimates are
  memoized on ``(job, phase-bandwidth identity)``: every
  ``(app, tier, quantized capacity)`` maps to an interned id for the
  bandwidth *values* it produces.  Capacity-insensitive and saturated
  profiles collapse to a single id — capacity churn on those tiers
  invalidates nothing — and the memo stays *exact* by construction.
  All jobs of one app on one tier share that id, so when a tier's
  quantized capacity moves, a ``(tier, app)`` group whose id did not
  change is skipped whole, and its members are visited only when it
  did.  The ids are interned once per model matrix, over the
  bandwidth grid :func:`~repro.core.tensor_eval.bandwidth_tensor`
  memoizes, and every evaluator over that matrix reads the same
  read-only table (:func:`bandwidth_ids`).
* **Static term precomputation.**  The capacity-independent pieces of
  Eq. 1 (:func:`~repro.core.perf_model.eq1_static_terms`, the
  definition ``estimate_job`` reads) are computed once per job at
  construction; a memo miss costs three divisions by the phase
  bandwidths, not a full ``estimate_job``.
* **Column state.**  The base plan lives in float64 columns over job
  *slots* (workload order): per service a capacity column (0.0 for
  jobs elsewhere), per billed service a contribution column (one entry
  per job and contribution position), and one runtime column.  A move
  copies and patches only the columns of the services it touched, so
  the Python-level work of a step is O(|move| + tiers × apps); the
  O(N) part is a C loop.
* **Canonical-order summation.**  Each sum the naive path takes with a
  ``+=`` loop is taken here with :func:`~repro.core.utility.seq_sum`
  over a column laid out in the same order (plan order for aggregates,
  workload order × contribution position for billed capacities,
  workload order for the makespan).  Off-member entries hold 0.0, and
  adding 0.0 leaves a non-negative running sum unchanged, so every sum
  — and, through the shared
  :func:`~repro.core.utility.finalize_plan_metrics` tail, the utility —
  is **bit-identical** to the naive one, not merely close.  The parity
  test suite and the CI benchmark smokes enforce this.

The evaluator is a search objective only: it answers one utility per
proposal and keeps the base plan's utility, makespan and cost.  Every
reported plan metric comes from :func:`~repro.core.utility.evaluate_plan`.

Protocol (the delta objective of
:func:`~repro.core.annealing.simulated_annealing`):

* ``reset(plan)`` — full evaluation; the plan becomes the base state;
* ``propose(neighbor_plan, move)`` — utility of base + move, computed
  from deltas, committed to nothing;
* ``accept()`` — promote the last proposal to the new base.

Sessions and sweeps also move the base directly: ``promote(plan)``
re-bases onto a plan over the same jobs, ``apply_workload_delta`` and
``update_workload`` onto a new workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import CatalogError, PlanError
from ..profiler.models import ModelMatrix, derived, quantize_capacity
from ..workloads.spec import WorkloadSpec
from .cost import CostBreakdown
from .perf_model import eq1_static_terms
from .plan import Placement, TieringPlan
from .tensor_eval import bandwidth_tensor
from .utility import PlanTail, finalize_plan_metrics, seq_sum

__all__ = ["PlanMove", "PlanEvaluator", "bandwidth_ids"]


class _BandwidthIds(dict):
    """Interned bandwidth ids of one model matrix, per (app, tier).

    Entry ``(lo, hi, ids, rows)``: a quantized per-VM capacity ``q``
    sees grid point ``i = min(max(int(q), lo), hi) - lo`` and the
    bandwidth id ``ids[i]``, whose (map, shuffle, reduce) values are
    ``rows[ids[i]]``.  Quantized capacities are whole GB and a profile
    clamps to its boundary anchors outside the grid, so the grid covers
    every capacity.  An id is the row of the first grid point of its
    (app, tier) with equal values: equal bandwidths on one tier share an
    id, and one app's ids on different tiers never collide.
    """

    def __init__(self, apps: Sequence[str]) -> None:
        super().__init__()
        self.apps = sorted(apps)

    def __missing__(self, key: Tuple[str, Tier]) -> Any:
        raise CatalogError(
            f"no profile for app={key[0]!r} on tier={key[1]}; "
            f"profiled apps: {self.apps}"
        )


@derived
def bandwidth_ids(matrix: ModelMatrix, tiers: Tuple[Tier, ...]) -> _BandwidthIds:
    """The shared bandwidth-id table of ``matrix`` over ``tiers``,
    memoized on ``matrix`` and never mutated once built.

    Read from the :func:`~repro.core.tensor_eval.bandwidth_tensor` grid
    of the matrix's apps × the profiled ``tiers`` (a profiled matrix
    covers every such pair), so the table adds only the id tuples: at
    most apps × tiers × grid points per matrix.
    """
    pairs = matrix.pairs
    apps = tuple(sorted({a for a, _ in pairs}))
    on = tuple(t for t in tiers if any(t is pt for _, pt in pairs))
    bwt = bandwidth_tensor(matrix, apps, on)
    rows = bwt.bw.reshape(-1, 3)
    table = _BandwidthIds(apps)
    for a, app in enumerate(apps):
        for t, tier in enumerate(on):
            lo, hi = int(bwt.lo[a, t]), int(bwt.hi[a, t])
            _, first, inverse = np.unique(
                bwt.bw[a, t, :hi - lo + 1], axis=0,
                return_index=True, return_inverse=True,
            )
            row0 = (a * len(on) + t) * bwt.G
            ids = (row0 + first[inverse.ravel()]).tolist()
            table[(app, tier)] = (lo, hi, tuple(ids), rows)
    return table


@dataclass(frozen=True)
class PlanMove:
    """One neighbor move: the batch of placement changes it applies.

    ``changes`` mirrors the argument of
    :meth:`~repro.core.plan.TieringPlan.with_placements`; the neighbor
    plan must equal the evaluator's base plan with these changes
    applied (the annealer maintains that invariant).
    """

    changes: Tuple[Tuple[str, Placement], ...]


class _BaseState:
    """The evaluator's base plan, held as columns over job slots.

    Slots follow workload order.  A job that departs (streaming deltas)
    leaves a tombstone — 0.0 in every column, ``None`` in
    ``slot_tier`` — and arrivals append, so slot order stays workload
    order.  Columns may be longer than ``used``; the tail is zeros.
    Tombstones are squeezed out when the columns fill up.
    """

    __slots__ = (
        "plan", "slot", "slot_tier", "used", "perm",
        "count", "cap", "agg", "qpvc", "first",
        "groups", "gid", "tot", "raw_makespan",
        "bcol", "bsum", "border",
        "utility", "makespan_s", "cost", "billed",
    )

    def __init__(self) -> None:
        self.plan: Optional[TieringPlan] = None
        #: Job id -> slot; each slot's tier (``None``: tombstone).
        self.slot: Dict[str, int] = {}
        self.slot_tier: List[Optional[Tier]] = []
        self.used = 0
        #: Live slots in plan order, or ``None`` when that is slot order.
        self.perm: Optional[np.ndarray] = None
        #: Per service: member count and capacity column; for services
        #: with members, the aggregate, the quantized per-VM capacity
        #: and the first member's slot.
        self.count: Dict[Tier, int] = {}
        self.cap: Dict[Tier, np.ndarray] = {}
        self.agg: Dict[Tier, float] = {}
        self.qpvc: Dict[Tier, float] = {}
        self.first: Dict[Tier, int] = {}
        #: tier -> app -> member ids, and the bandwidth id all members
        #: of a (tier, app) group are keyed by.
        self.groups: Dict[Tier, Dict[str, Dict[str, None]]] = {}
        self.gid: Dict[Tuple[Tier, str], int] = {}
        #: Per-slot runtime seconds and their canonical sum.
        self.tot: np.ndarray = np.zeros(0)
        self.raw_makespan = 0.0
        #: Per billed service: contribution column and its sum; the
        #: billed services present, in first-contribution order.
        self.bcol: Dict[Tier, np.ndarray] = {}
        self.bsum: Dict[Tier, float] = {}
        self.border: Tuple[Tier, ...] = ()
        self.utility: float = float("nan")
        self.makespan_s: float = float("nan")
        self.cost: Optional[CostBreakdown] = None
        self.billed: Dict[Tier, float] = {}


class _TierState(NamedTuple):
    """One service after a proposal; the last three are ``None`` when
    the move leaves it without members."""

    count: int
    cap: np.ndarray
    agg: Optional[float]
    qpvc: Optional[float]
    first: Optional[int]


class _Pending:
    """An uncommitted proposal: the columns and scalars it would change."""

    __slots__ = (
        "plan", "moves", "tiers", "gid", "tot", "raw_makespan",
        "bcol", "bsum", "border", "utility", "makespan_s", "cost", "billed",
    )


class PlanEvaluator:
    """Delta-aware, memoizing Eq. 2–6 objective for one workload.

    One evaluator serves one solve (one annealing run): it assumes the
    workload, cluster, model matrix and provider are fixed and that
    successive proposals are expressed relative to the accepted base
    plan.  It is deliberately not thread-safe — each solver restart
    (and each pool worker) builds its own.  Its bandwidth-id table is
    the exception: one table per model matrix (:func:`bandwidth_ids`),
    read from the bandwidth grid the tensor model shares, serves every
    evaluator over that matrix.  The table is complete before it is
    published and is never written afterwards, so evaluators in
    concurrent threads (thread-mode pool restarts, sessions on one
    catalog) share it safely; everything an evaluator writes — its
    estimate memo, base state and counters — stays its own.
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
        #: Validate plans on reset (structure + Eq. 3).  The
        #: streaming session layer turns this off for its persistent
        #: evaluator: warm plans are feasible by construction (survivors
        #: keep validated placements, arrivals get exact-fit seeds) and
        #: the O(N) re-validation would dominate millisecond re-plans.
        self.validate_resets = True
        self._jobs = workload.jobs
        self._job_by_id = {j.job_id: j for j in self._jobs}
        self._footprint: Dict[str, float] = {}
        # Capacity-independent Eq. 1 terms, once per job: (app name,
        # *eq1_static_terms) — the per-phase numerators estimate_job
        # divides by the bandwidths, then ephSSD download and upload
        # seconds.
        self._static: Dict[str, Tuple[str, float, float, float, float, float]] = {}
        # Per-job data-size constants for billed contributions, summed
        # exactly as job_billed_contributions sums them.
        self._job_gb: Dict[str, Tuple[float, float]] = {}
        for job in self._jobs:
            self._register_job(job)
        # The reuse economics read ephSSD download seconds, which are
        # capacity-independent: serve them from the static terms.
        static = self._static
        self._download_of = lambda jid: static[jid][4]
        self._tail = PlanTail(
            workload, cluster_spec, provider, self._download_of, reuse_aware
        )
        # Per-tier constants on the hot paths: per-VM capacity clamp
        # and the billed-contribution tier relations.
        self._tiers = tuple(provider.tiers)
        # Interned bandwidth identities, shared read-only per matrix.
        self._bw = bandwidth_ids(matrix, self._tiers)
        self._max_pvc: Dict[Tier, float] = {}
        self._tier_rel: Dict[Tier, Tuple[Optional[Tier], Optional[Tier]]] = {}
        for tier in self._tiers:
            svc = provider.service(tier)
            self._max_pvc[tier] = svc.max_capacity_per_vm_gb()
            self._tier_rel[tier] = (svc.requires_intermediate, svc.requires_backing)
        self._init_billed_layout()
        self._n_vms = cluster_spec.n_vms
        # Job ids removed by update_workload whose memo entries are
        # still resident; compacted once enough pile up.
        self._retired: set = set()
        # (job, bandwidth id) -> total runtime seconds: the hot-loop
        # cache (only makespan totals are needed per proposal).
        self._tot_cache: Dict[Tuple[str, int], float] = {}
        self._base = _BaseState()
        self._pending: Optional[_Pending] = None
        self.counters: Dict[str, int] = {
            "full_evaluations": 0,
            "incremental_evaluations": 0,
            "delta_rebases": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "jobs_reestimated": 0,
            "jobs_skipped": 0,
        }

    def _init_billed_layout(self) -> None:
        """Column layout of the billed contributions.

        A job on tier ``X`` contributes the pairs of
        :func:`~repro.core.plan.job_billed_contributions`: ``(helper,
        inter)``, ``(X, own)``, ``(backing, io)``, as X's relations
        have them.  Each billed tier ``T`` gets one column entry per job
        and per pair position ``T`` can take (its *stride*), in pair
        order, so a sequential sum over the column adds the same floats
        in the same order as the naive per-job loop.  Two pairs of one
        job never share an entry: folding them would change the
        rounding.

        A tier billed only for its own members' capacity (no helper
        tier, no other tier's pairs land on it) would get a column equal
        to its capacity column; it is billed from that column instead.
        """
        pair_tiers: Dict[Tier, Tuple[Tier, ...]] = {}
        positions: Dict[Tier, List[int]] = {}
        for tier in self._tiers:
            ri, rb = self._tier_rel[tier]
            pts = tuple(t for t in (ri, tier, rb) if t is not None)
            pair_tiers[tier] = pts
            for k, t in enumerate(pts):
                if k not in positions.setdefault(t, []):
                    positions[t].append(k)
        for ks in positions.values():
            ks.sort()
        #: Billed tier -> (placement tier, pair position) of each source.
        self._src: Dict[Tier, Tuple[Tuple[Tier, int], ...]] = {
            t: tuple((x, pts.index(t)) for x, pts in pair_tiers.items() if t in pts)
            for t in positions
        }
        #: Tiers billed straight from their capacity column.
        self._own_billed = frozenset(
            t for t, src in self._src.items()
            if src == ((t, 0),) and self._tier_rel[t][0] is None
        )
        self._stride: Dict[Tier, int] = {
            t: len(ks) for t, ks in positions.items() if t not in self._own_billed
        }
        #: Placement tier -> (pair position, billed tier, offset in the
        #: job's stride) per contribution with a billed column.
        self._layout: Dict[Tier, Tuple[Tuple[int, Tier, int], ...]] = {
            x: tuple(
                (k, t, positions[t].index(k))
                for k, t in enumerate(pts) if t in self._stride
            )
            for x, pts in pair_tiers.items()
        }

    def _register_job(self, job) -> None:
        """Compute one job's capacity-independent terms (Eq. 1 statics).

        Pure per-job functions of the fixed cluster/provider, so values
        are identical whether the job arrived at construction or later
        through :meth:`update_workload` — bit-parity is insensitive to
        arrival order.
        """
        self._static[job.job_id] = (
            job.app.name,
            *eq1_static_terms(job, self.cluster_spec, self.provider),
        )
        self._footprint[job.job_id] = job.footprint_gb
        self._job_gb[job.job_id] = (
            job.intermediate_gb, job.input_gb + job.output_gb
        )

    def _unregister_job(self, jid: str) -> None:
        del self._static[jid]
        del self._footprint[jid]
        del self._job_gb[jid]
        self._retired.add(jid)

    def _admit_job(self, job) -> None:
        """Register an arriving job, dropping stale memo entries of a
        retired job that had the same id."""
        jid = job.job_id
        if jid in self._retired:
            self._retired.discard(jid)
            self._purge_job(jid)
        self._register_job(job)
        self._job_by_id[jid] = job

    def _purge_job(self, jid: str) -> None:
        """Drop a job's memo entries (re-admission of a retired id)."""
        cache = self._tot_cache
        for key in [k for k in cache if k[0] == jid]:
            del cache[key]

    _COMPACT_RETIRED = 512

    def update_workload(self, workload: WorkloadSpec) -> None:
        """Rebase the evaluator onto a new workload (streaming deltas).

        Static terms are computed only for newly arrived jobs; departed
        jobs' entries are dropped and their memo keys retired (compacted
        in bulk once :attr:`_COMPACT_RETIRED` pile up).  The base state
        is invalidated — the next ``reset`` performs one full, memo-warm
        evaluation — so every downstream number still flows through
        ``_full_state``'s canonical-order summation and parity with the
        reference path is untouched.

        A surviving job id must keep its spec: estimates are memoized by
        id, so mutating a job in place would serve stale cache entries.
        """
        old_by_id = self._job_by_id
        new_jobs = workload.jobs
        for job in new_jobs:
            old = old_by_id.get(job.job_id)
            if old is None:
                self._admit_job(job)
            elif old != job:
                raise PlanError(
                    f"job {job.job_id!r} changed spec across update_workload(); "
                    "remove and re-add it under a fresh id"
                )
        new_ids = {j.job_id for j in new_jobs}
        for jid in [jid for jid in old_by_id if jid not in new_ids]:
            self._unregister_job(jid)
            del old_by_id[jid]
        self._set_workload(workload)
        self._base = _BaseState()
        self._pending = None
        self._compact_retired()

    def _set_workload(self, workload: WorkloadSpec) -> None:
        """Adopt ``workload`` (its jobs already registered), rebuilding
        the reuse tail when the reuse sets can have changed."""
        self.workload = workload
        self._jobs = workload.jobs
        if self.reuse_aware and (workload.reuse_sets or self._tail.sets):
            self._tail = PlanTail(
                workload, self.cluster_spec, self.provider, self._download_of,
                reuse_aware=True,
            )

    def _compact_retired(self) -> None:
        if len(self._retired) >= self._COMPACT_RETIRED:
            gone = self._retired
            self._tot_cache = {
                k: v for k, v in self._tot_cache.items() if k[0] not in gone
            }
            self._retired = set()

    def apply_workload_delta(
        self,
        workload: WorkloadSpec,
        plan: TieringPlan,
        added: Sequence,
        removed: Sequence[str],
    ) -> float:
        """Rebase workload *and* base plan in one delta-scoped step.

        The streaming-session warm path: instead of invalidating the
        base and paying a full O(N) re-evaluation on the next
        ``reset``, patch the base columns in place — departures become
        tombstones, arrivals append, and only the *contended tiers*
        (those whose quantized per-VM capacity moved) are re-keyed;
        every other job keeps its exact cached runtime.  The makespan,
        aggregate and billed sums and the finalize tail still run in
        canonical order over the patched columns, so the resulting
        utility is bit-identical to ``reset(plan)`` after
        ``update_workload``.

        Caller contract (a plan from
        :func:`~repro.core.solver.rebase_plan` over the base plan
        guarantees it when every survivor kept its ``Placement``, which
        is when :meth:`~repro.core.solver.CastSolver.warm_solve` takes
        this path; violations would silently break parity, which the
        session's periodic ``verify_parity`` check would then trip):

        * ``workload`` is the previous workload with ``removed`` ids
          dropped (survivors keep relative order) and ``added`` jobs
          appended at the end, in order;
        * ``plan`` is the previous *base* plan with exactly those
          placements dropped/appended — surviving jobs keep their
          ``Placement`` objects and relative plan order.

        Needs a base (``reset`` first).  Returns the utility of ``plan``.
        """
        base = self._base
        if base.plan is None:
            raise PlanError("apply_workload_delta: no base plan; reset first")
        self._pending = None
        placements = plan.placements
        if len(placements) != len(workload.jobs):
            raise PlanError(
                "apply_workload_delta: plan does not cover the workload"
            )
        slot = base.slot
        for jid in removed:
            if jid not in slot:
                raise PlanError(f"removed job not in workload: {jid!r}")
        leaving = set(removed)
        arriving: set = set()
        for job in added:
            jid = job.job_id
            if (jid in self._job_by_id and jid not in leaving) or jid in arriving:
                raise PlanError(f"job {jid!r} already in workload")
            arriving.add(jid)

        static = self._static
        layout, stride = self._layout, self._stride
        groups, gid, first = base.groups, base.gid, base.first
        # Touched tiers with their quantized capacity before the delta.
        touched: Dict[Tier, Optional[float]] = {}
        billed_touched: set = set()

        # Departures: tombstone the slot in every column.
        old_pl = base.plan.placements
        dead: List[int] = []
        refirst: Dict[Tier, int] = {}
        for jid in removed:
            s = slot.pop(jid)
            tier = old_pl[jid].tier
            touched.setdefault(tier, base.qpvc.get(tier))
            self._leave_group(base, jid, tier)
            base.count[tier] -= 1
            base.cap[tier][s] = 0.0
            base.tot[s] = 0.0
            for _, bt, off in layout[tier]:
                base.bcol[bt][s * stride[bt] + off] = 0.0
                billed_touched.add(bt)
            base.slot_tier[s] = None
            if first.get(tier) == s:
                refirst[tier] = s
            dead.append(s)
            del self._job_by_id[jid]
            self._unregister_job(jid)
        for tier, s in refirst.items():
            f = _next_member(base.slot_tier, tier, s + 1)
            if f is None:
                del first[tier]
            else:
                first[tier] = f
        if dead and base.perm is not None:
            base.perm = base.perm[~np.isin(base.perm, dead)]

        # Arrivals: append slots (re-laying the columns when full).
        if base.used + len(added) > len(base.tot):
            self._relayout(base, 2 * (len(slot) + len(added)))
        new_slots: List[int] = []
        for job in added:
            jid = job.job_id
            self._admit_job(job)
            p = placements[jid]
            tier = p.tier
            touched.setdefault(tier, base.qpvc.get(tier))
            s = base.used
            base.used += 1
            slot[jid] = s
            base.slot_tier.append(tier)
            base.cap[tier][s] = p.capacity_gb
            base.count[tier] += 1
            if tier not in first:
                first[tier] = s
            groups[tier].setdefault(static[jid][0], {})[jid] = None
            vals = self._bill_values(jid, tier, p.capacity_gb)
            for k, bt, off in layout[tier]:
                base.bcol[bt][s * stride[bt] + off] = vals[k]
                billed_touched.add(bt)
            new_slots.append(s)
        if new_slots and base.perm is not None:
            base.perm = np.concatenate(
                (base.perm, np.asarray(new_slots, dtype=np.intp))
            )
        self._set_workload(workload)

        for tier in touched:
            if base.count[tier]:
                self._set_aggregate(base, tier, base.cap[tier])
            else:
                for d in (base.agg, base.qpvc):
                    d.pop(tier, None)

        # Re-key groups on contended tiers whose bandwidth id moved,
        # then key the arrivals that pass left alone.
        tot_cache = self._tot_cache
        keyed: set = set()
        for tier, old_qp in touched.items():
            qp = base.qpvc.get(tier)
            if qp is None or qp == old_qp:
                continue
            for app, members in groups[tier].items():
                bid = self._bw_id(app, tier, qp)
                if bid == gid.get((tier, app)):
                    continue
                gid[(tier, app)] = bid
                for jid in members:
                    tot = tot_cache.get((jid, bid))
                    if tot is None:
                        tot = self._tot(jid, tier, bid)
                    s = slot[jid]
                    base.tot[s] = tot
                    keyed.add(s)
        for job in added:
            jid = job.job_id
            s = slot[jid]
            if s in keyed:
                continue
            keyed.add(s)
            tier = placements[jid].tier
            key = (tier, static[jid][0])
            bid = gid.get(key)
            if bid is None:
                bid = self._bw_id(key[1], tier, base.qpvc[tier])
                gid[key] = bid
            tot = tot_cache.get((jid, bid))
            if tot is None:
                tot = self._tot(jid, tier, bid)
            base.tot[s] = tot

        # Canonical re-summation + shared finalize tail — the same
        # accumulation _full_state performs.
        base.raw_makespan = seq_sum(base.tot[:base.used])
        for bt in billed_touched:
            base.bsum[bt] = seq_sum(base.bcol[bt][:base.used * stride[bt]])
        for tier in self._own_billed.intersection(touched):
            base.bsum[tier] = self._own_bill(base, base.cap[tier], base.agg.get(tier))
        base.border = self._billed_order(first)
        billed = {bt: base.bsum[bt] for bt in base.border}
        makespan_s, cost, utility = finalize_plan_metrics(
            self._tail, plan.placements, base.raw_makespan, billed
        )
        base.plan = plan
        base.utility = utility
        base.makespan_s = makespan_s
        base.cost = cost
        base.billed = billed
        counters = self.counters
        counters["delta_rebases"] += 1
        counters["jobs_reestimated"] += len(keyed)
        counters["jobs_skipped"] += len(self._jobs) - len(keyed)
        self._compact_retired()
        return utility

    def _relayout(self, st: _BaseState, size: int) -> None:
        """Re-lay the columns over ``size`` slots, dropping tombstones."""
        keep = [s for s, t in enumerate(st.slot_tier) if t is not None]
        n = len(keep)
        size = max(size, n, 16)
        idx = np.asarray(keep, dtype=np.intp)

        def moved(col: np.ndarray, stride: int = 1) -> np.ndarray:
            out = np.zeros(size * stride)
            src = idx if stride == 1 else (
                idx[:, None] * stride + np.arange(stride)
            ).ravel()
            out[:n * stride] = col[src]
            return out

        st.cap = {t: moved(c) for t, c in st.cap.items()}
        st.tot = moved(st.tot)
        st.bcol = {t: moved(c, self._stride[t]) for t, c in st.bcol.items()}
        if n != st.used:
            # Renumber in place: callers hold references to these.
            rank = {s: i for i, s in enumerate(keep)}
            for mapping in (st.slot, st.first):
                for key, s in mapping.items():
                    mapping[key] = rank[s]
            if st.perm is not None:
                st.perm = np.asarray(
                    [rank[s] for s in st.perm.tolist()], dtype=np.intp
                )
            st.slot_tier[:] = [st.slot_tier[s] for s in keep]
            st.used = n

    # -- memoized job estimation ------------------------------------------------

    def _bw_id(self, app_name: str, tier: Tier, qpvc: float) -> int:
        """Interned id of the bandwidths ``(app, tier, qpvc)`` sees."""
        lo, hi, ids, _ = self._bw[(app_name, tier)]
        i = int(qpvc)
        return ids[(lo if i < lo else hi if i > hi else i) - lo]

    def _tot(self, jid: str, tier: Tier, bid: int) -> float:
        """Total runtime seconds, memoized on the bandwidth identity.

        Identical bandwidth values and tier imply an identical
        estimate, so the memo is exact; misses replay the float ops of
        ``estimate_job`` + ``JobEstimate.total_s`` from the precomputed
        static terms — same values, same order, no object construction.
        """
        key = (jid, bid)
        tot = self._tot_cache.get(key)
        if tot is not None:
            self.counters["cache_hits"] += 1
            return tot
        self.counters["cache_misses"] += 1
        app, pre_map, pre_shuffle, pre_reduce, download_s, upload_s = self._static[jid]
        bw_map, bw_shuffle, bw_reduce = self._bw[(app, tier)][3][bid].tolist()
        if tier is not Tier.EPH_SSD:
            download_s = upload_s = 0.0
        map_s = pre_map / bw_map
        shuffle_s = pre_shuffle / bw_shuffle
        reduce_s = pre_reduce / bw_reduce
        # total_s = download + (map + shuffle + reduce) + upload,
        # parenthesized as the property chain evaluates it.
        tot = download_s + (map_s + shuffle_s + reduce_s) + upload_s
        self._tot_cache[key] = tot
        return tot

    # -- column helpers -----------------------------------------------------------

    def _per_vm(self, tier: Tier, aggregate_gb: float) -> float:
        # Exactly the ops of utility.per_vm_gb, with the service's
        # capacity ceiling cached at construction.
        per_vm = aggregate_gb / self._n_vms
        mx = self._max_pvc[tier]
        if per_vm > mx:
            per_vm = mx
        return per_vm if per_vm > 10.0 else 10.0

    def _aggregate(self, st: _BaseState, col: np.ndarray) -> float:
        """A service's aggregate capacity: its column summed in plan order."""
        perm = st.perm
        return seq_sum(col[:st.used] if perm is None else col[perm])

    def _set_aggregate(self, st: _BaseState, tier: Tier, col: np.ndarray) -> None:
        agg = self._aggregate(st, col)
        st.agg[tier] = agg
        st.qpvc[tier] = quantize_capacity(self._per_vm(tier, agg))

    def _bill_values(self, jid: str, tier: Tier, capacity_gb: float) -> Tuple[float, ...]:
        # job_billed_contributions from cached per-job/per-tier parts —
        # same values, same pair order, same float ops.
        ri, rb = self._tier_rel[tier]
        inter, io = self._job_gb[jid]
        if ri is not None:
            own = capacity_gb - inter
            vals: Tuple[float, ...] = (inter, own if own > io else io)
        else:
            vals = (capacity_gb,)
        if rb is not None:
            vals += (io,)
        return vals

    def _own_bill(
        self, st: _BaseState, col: np.ndarray, agg: Optional[float]
    ) -> float:
        """Billed capacity of an own-billed tier from its capacity column.

        The billed sum runs in slot (workload) order; the aggregate is
        the same column in plan order, so while the two orders agree it
        is reused.
        """
        if agg is None:
            return 0.0
        return agg if st.perm is None else seq_sum(col[:st.used])

    def _billed_order(self, first: Dict[Tier, int]) -> Tuple[Tier, ...]:
        """Billed tiers present, in first-contribution order.

        The naive billed dict gains a key at the first contribution to
        it in workload order, and the storage bill sums the dict in key
        order, so the order is part of the bit-exact contract.  A
        billed tier's first contribution comes from the first job (in
        slot order) on one of its source tiers, at that tier's pair
        position.
        """
        keyed = []
        for bt, sources in self._src.items():
            best = -1
            for tier, k in sources:
                f = first.get(tier)
                if f is not None:
                    key = 3 * f + k  # (slot, pair position); k < 3
                    if best < 0 or key < best:
                        best = key
            if best >= 0:
                keyed.append((best, bt))
        keyed.sort()  # keys are distinct, so tiers are never compared
        return tuple(bt for _, bt in keyed)

    def _leave_group(self, st: _BaseState, jid: str, tier: Tier) -> None:
        app = self._static[jid][0]
        group = st.groups[tier][app]
        del group[jid]
        if not group:
            del st.groups[tier][app]
            del st.gid[(tier, app)]

    # -- full evaluation (reference-parity path) --------------------------------

    def _full_state(self, plan: TieringPlan) -> _BaseState:
        """Evaluate ``plan`` from scratch into a fresh base state.

        Mirrors :func:`~repro.core.utility.evaluate_plan` operation for
        operation (same summation orders, shared finalize tail), with
        job runtimes routed through the memo cache.
        """
        if self.validate_resets:
            plan.validate(self.workload, self.provider)
        placements = plan.placements
        jobs = self._jobs
        n = len(jobs)
        static = self._static
        layout, stride = self._layout, self._stride
        st = _BaseState()
        st.plan = plan
        st.used = n
        st.slot = {job.job_id: i for i, job in enumerate(jobs)}
        if list(placements) != list(st.slot):
            st.perm = np.asarray([st.slot[jid] for jid in placements], dtype=np.intp)

        caps = {t: [0.0] * n for t in self._tiers}
        bcols = {bt: [0.0] * (n * w) for bt, w in stride.items()}
        st.count = dict.fromkeys(self._tiers, 0)
        st.groups = {t: {} for t in self._tiers}
        first = st.first
        slot_tier = st.slot_tier
        for i, job in enumerate(jobs):
            jid = job.job_id
            p = placements[jid]
            tier = p.tier
            slot_tier.append(tier)
            caps[tier][i] = p.capacity_gb
            st.count[tier] += 1
            if tier not in first:
                first[tier] = i
            st.groups[tier].setdefault(static[jid][0], {})[jid] = None
            vals = self._bill_values(jid, tier, p.capacity_gb)
            for k, bt, off in layout[tier]:
                bcols[bt][i * stride[bt] + off] = vals[k]
        st.cap = {t: np.asarray(c, dtype=np.float64) for t, c in caps.items()}
        st.bcol = {bt: np.asarray(c, dtype=np.float64) for bt, c in bcols.items()}
        for tier in first:
            self._set_aggregate(st, tier, st.cap[tier])
            for app in st.groups[tier]:
                st.gid[(tier, app)] = self._bw_id(app, tier, st.qpvc[tier])

        tot = [0.0] * n
        for i, job in enumerate(jobs):
            jid = job.job_id
            tier = slot_tier[i]
            tot[i] = self._tot(jid, tier, st.gid[(tier, static[jid][0])])
        st.tot = np.asarray(tot, dtype=np.float64)
        st.raw_makespan = seq_sum(st.tot)
        st.bsum = {bt: seq_sum(col) for bt, col in st.bcol.items()}
        for tier in self._own_billed:
            st.bsum[tier] = self._own_bill(st, st.cap[tier], st.agg.get(tier))
        st.border = self._billed_order(first)
        billed = {bt: st.bsum[bt] for bt in st.border}
        makespan_s, cost, utility = finalize_plan_metrics(
            self._tail, plan.placements, st.raw_makespan, billed
        )
        st.utility = utility
        st.makespan_s = makespan_s
        st.cost = cost
        st.billed = billed
        self.counters["full_evaluations"] += 1
        return st

    # -- the delta protocol -----------------------------------------------------

    def reset(self, plan: TieringPlan) -> float:
        """Full evaluation; ``plan`` becomes the base state."""
        self._pending = None
        self._base = self._full_state(plan)
        return self._base.utility

    def propose(self, neighbor_plan: TieringPlan, move: PlanMove) -> float:
        """Utility of base + ``move``, recomputing only what it touched.

        Raises :class:`~repro.errors.PlanError` (or
        :class:`~repro.errors.CatalogError`) for infeasible moves, like
        the naive path; the base state is untouched either way.
        """
        self._pending = None
        base = self._base
        if base.plan is None:
            raise PlanError("propose() before reset(): no base plan")
        counters = self.counters
        counters["incremental_evaluations"] += 1

        # Effective per-job changes (last write wins), delta-validated
        # exactly as plan.validate would judge the changed jobs.
        footprint = self._footprint
        new_placements: Dict[str, Placement] = {}
        for jid, placement in move.changes:
            fp = footprint.get(jid)
            if fp is None:
                raise PlanError(f"job {jid!r} not in workload")
            if placement.tier not in self._max_pvc:
                self.provider.service(placement.tier)  # raises CatalogError
            if placement.capacity_gb + 1e-9 < fp:
                raise PlanError(
                    f"{jid}: Eq. 3 violated — provisioned "
                    f"{placement.capacity_gb:.1f} GB < footprint {fp:.1f} GB"
                )
            new_placements[jid] = placement

        base_pl = base.plan.placements
        moves = []
        for jid, p in new_placements.items():
            old = base_pl[jid]
            if old.tier is not p.tier or old.capacity_gb != p.capacity_gb:
                moves.append((jid, old.tier, p))
        pending = _Pending()
        pending.plan = neighbor_plan
        pending.moves = moves
        if not moves:
            # Pure no-op: the neighbor is the base plan; reuse its eval.
            pending.utility = base.utility
            pending.makespan_s = base.makespan_s
            pending.cost = base.cost
            pending.billed = dict(base.billed)
            self._pending = pending
            counters["jobs_skipped"] += len(self._jobs)
            return pending.utility

        # Capacity and billed-contribution patches, leavers and joiners
        # per touched service.
        slot = base.slot
        static = self._static
        layout, stride = self._layout, self._stride
        patches: Dict[Tier, List[Tuple[int, float]]] = {}
        bpatches: Dict[Tier, List[Tuple[int, float]]] = {}
        leavers: Dict[Tier, Dict[str, int]] = {}
        joiners: Dict[Tier, Dict[str, int]] = {}
        for jid, old_tier, p in moves:
            s = slot[jid]
            tier = p.tier
            if old_tier is not tier:
                patches.setdefault(old_tier, []).append((s, 0.0))
                leavers.setdefault(old_tier, {})[jid] = s
                joiners.setdefault(tier, {})[jid] = s
            patches.setdefault(tier, []).append((s, p.capacity_gb))
            for _, bt, off in layout[old_tier]:
                bpatches.setdefault(bt, []).append((s * stride[bt] + off, 0.0))
            vals = self._bill_values(jid, tier, p.capacity_gb)
            for k, bt, off in layout[tier]:
                bpatches.setdefault(bt, []).append((s * stride[bt] + off, vals[k]))
        tiers: Dict[Tier, _TierState] = {}
        first_moved = False
        for tier, patch in patches.items():
            left = leavers.get(tier)
            joined = joiners.get(tier)
            count = base.count[tier] - len(left or ()) + len(joined or ())
            col = base.cap[tier].copy()
            for s, c in patch:
                col[s] = c
            base_f = base.first.get(tier)
            if not count:
                tiers[tier] = _TierState(0, col, None, None, None)
                first_moved = True
                continue
            agg = self._aggregate(base, col)
            f = base_f
            if left and f is not None and f in left.values():
                f = _next_member(base.slot_tier, tier, f + 1, left.values())
            if joined:
                m = min(joined.values())
                if f is None or m < f:
                    f = m
            first_moved = first_moved or f != base_f
            qp = quantize_capacity(self._per_vm(tier, agg))
            tiers[tier] = _TierState(count, col, agg, qp, f)

        # Re-key: pass 1 walks the (tier, app) groups of services whose
        # quantized per-VM capacity moved — a group whose bandwidth id
        # held is skipped whole; pass 2 keys the moved jobs pass 1 left.
        tot_new: Dict[int, float] = {}
        gid_new: Dict[Tuple[Tier, str], int] = {}
        base_gid = base.gid
        bw = self._bw
        tot_cache = self._tot_cache
        hits = 0
        for tier, ts in tiers.items():
            qp = ts.qpvc
            if qp is None or qp == base.qpvc.get(tier):
                continue
            q = int(qp)
            left = leavers.get(tier) or {}
            left_apps: Dict[str, int] = {}
            for jid in left:
                app = static[jid][0]
                left_apps[app] = left_apps.get(app, 0) + 1
            joined_apps: Dict[str, List[str]] = {}
            for jid in joiners.get(tier, ()):
                joined_apps.setdefault(static[jid][0], []).append(jid)
            base_groups = base.groups[tier]
            apps = list(base_groups)
            if joined_apps:
                apps.extend(a for a in joined_apps if a not in base_groups)
            for app in apps:
                members = base_groups.get(app, {})
                joined = joined_apps.get(app, ())
                if not joined and len(members) == left_apps.get(app, 0):
                    continue  # the move empties this group
                lo, hi, ids, _ = bw[(app, tier)]
                bid = ids[(lo if q < lo else hi if q > hi else q) - lo]
                gid_new[(tier, app)] = bid
                if bid == base_gid.get((tier, app)):
                    continue
                for ids in (members, joined):
                    for jid in ids:
                        if jid in left:
                            continue
                        tot = tot_cache.get((jid, bid))
                        if tot is None:
                            tot = self._tot(jid, tier, bid)
                        else:
                            hits += 1
                        tot_new[slot[jid]] = tot
        for jid, old_tier, p in moves:
            s = slot[jid]
            if s in tot_new:
                continue
            tier = p.tier
            app = static[jid][0]
            lo, hi, ids, _ = bw[(app, tier)]
            q = int(tiers[tier].qpvc)
            bid = ids[(lo if q < lo else hi if q > hi else q) - lo]
            if bid == base_gid.get((old_tier, app)):
                continue
            gid_new[(tier, app)] = bid
            tot = tot_cache.get((jid, bid))
            if tot is None:
                tot = self._tot(jid, tier, bid)
            else:
                hits += 1
            tot_new[s] = tot
        counters["cache_hits"] += hits
        counters["jobs_reestimated"] += len(tot_new)
        counters["jobs_skipped"] += len(self._jobs) - len(tot_new)

        # Makespan: the runtime column summed in workload order.
        tot_col: Optional[np.ndarray] = None
        raw_makespan = base.raw_makespan
        if tot_new:
            tot_col = col = base.tot.copy()
            for s, tot in tot_new.items():
                col[s] = tot
            raw_makespan = seq_sum(col[:base.used])

        # Billed capacities: the patched contribution columns' sums.
        bcol: Dict[Tier, np.ndarray] = {}
        bsum: Dict[Tier, float] = {}
        for bt, patch in bpatches.items():
            col = base.bcol[bt].copy()
            for i, gb in patch:
                col[i] = gb
            bcol[bt] = col
            bsum[bt] = seq_sum(col[:base.used * stride[bt]])
        for tier in self._own_billed.intersection(tiers):
            bsum[tier] = self._own_bill(base, tiers[tier].cap, tiers[tier].agg)
        border = base.border
        if first_moved:
            first = dict(base.first)
            for tier, ts in tiers.items():
                if ts.first is None:
                    first.pop(tier, None)
                else:
                    first[tier] = ts.first
            border = self._billed_order(first)
        base_bsum = base.bsum
        billed = {bt: bsum[bt] if bt in bsum else base_bsum[bt] for bt in border}

        makespan_s, cost, utility = finalize_plan_metrics(
            self._tail, neighbor_plan.placements, raw_makespan, billed
        )
        pending.tiers = tiers
        pending.gid = gid_new
        pending.tot = tot_col
        pending.raw_makespan = raw_makespan
        pending.bcol = bcol
        pending.bsum = bsum
        pending.border = border
        pending.utility = utility
        pending.makespan_s = makespan_s
        pending.cost = cost
        pending.billed = billed
        self._pending = pending
        return utility

    def accept(self) -> None:
        """Promote the last proposal to the new base state."""
        pending = self._pending
        if pending is None:
            raise PlanError("accept() without a pending proposal")
        base = self._base
        base.plan = pending.plan
        if pending.moves:
            for jid, old_tier, p in pending.moves:
                if p.tier is not old_tier:
                    self._leave_group(base, jid, old_tier)
                    base.groups[p.tier].setdefault(self._static[jid][0], {})[jid] = None
                    base.slot_tier[base.slot[jid]] = p.tier
            base.gid.update(pending.gid)
            for tier, ts in pending.tiers.items():
                base.count[tier] = ts.count
                base.cap[tier] = ts.cap
                if ts.count:
                    base.agg[tier] = ts.agg  # type: ignore[assignment]
                    base.qpvc[tier] = ts.qpvc  # type: ignore[assignment]
                    base.first[tier] = ts.first  # type: ignore[assignment]
                else:
                    for d in (base.agg, base.qpvc, base.first):
                        d.pop(tier, None)
            if pending.tot is not None:
                base.tot = pending.tot
            base.raw_makespan = pending.raw_makespan
            base.bcol.update(pending.bcol)
            base.bsum.update(pending.bsum)
            base.border = pending.border
        base.utility = pending.utility
        base.makespan_s = pending.makespan_s
        base.cost = pending.cost
        base.billed = pending.billed
        self._pending = None

    def promote(self, best: TieringPlan) -> None:
        """Move the base onto ``best``, a plan over the same jobs.

        The annealer leaves the base at its *last accepted* plan, which
        may trail the best one.  Rather than a full O(N) re-evaluation,
        diff the two plans — ``with_placements`` shares untouched
        ``Placement`` objects, so an identity scan finds the changed
        jobs — and promote the best plan through the delta ``propose``
        path, which is bit-identical to a full re-score by the parity
        guarantee.
        """
        base_plan = self._base.plan
        if base_plan is best:
            return
        if base_plan is None or base_plan.placements.keys() != best.placements.keys():
            self.reset(best)
            return
        base_pl = base_plan.placements
        changes = tuple(
            (jid, p) for jid, p in best.placements.items()
            if base_pl[jid] is not p
        )
        self.propose(best, PlanMove(changes))
        self.accept()

    # -- introspection ----------------------------------------------------------

    @property
    def base_plan(self) -> Optional[TieringPlan]:
        """The current base plan (None before the first ``reset``)."""
        return self._base.plan

    @property
    def base_utility(self) -> float:
        """Utility of the current base plan (NaN before ``reset``)."""
        return self._base.utility

    @property
    def base_makespan_s(self) -> float:
        """Makespan of the current base plan (NaN before ``reset``)."""
        return self._base.makespan_s

    @property
    def base_cost(self) -> Optional[CostBreakdown]:
        """Cost breakdown of the current base plan (None before ``reset``).

        These three read the already-summed base-state scalars, so
        sessions and sweeps report utility, makespan and cost without
        an O(N) pass.  Per-job runtimes and every other reported
        metric come from :func:`~repro.core.utility.evaluate_plan`.
        """
        return self._base.cost

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and the planner-service ``stats`` op."""
        return {**self.counters, "cache_entries": len(self._tot_cache)}


def _next_member(
    slot_tier: List[Optional[Tier]], tier: Tier, start: int,
    skip: Iterable[int] = (),
) -> Optional[int]:
    """First slot at or after ``start`` on ``tier``, not in ``skip``."""
    skip = set(skip)
    i = start
    try:
        while True:
            i = slot_tier.index(tier, i)
            if i not in skip:
                return i
            i += 1
    except ValueError:
        return None
