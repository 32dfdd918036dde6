"""Rewritten hot-loop pieces against their reference implementations.

Two pieces of the search were rewritten for speed under a bit-identity
contract, and each is checked here against a small reference copy of
the implementation it replaced (kept in ``tests/reference/kernels.py``):

* the tempering move kernel — one batched pass per step over all
  replicas (:meth:`~repro.core.tensor_eval.TensorWorkloadModel.apply_moves`)
  — against sequential per-replica move/undo kernels;
* the reuse/price tail compiled once per workload
  (:class:`~repro.core.utility.PlanTail` +
  :func:`~repro.core.utility.finalize_plan_metrics`) against the
  per-call loop that re-derived every set's constants.

Hypothesis draws the moves, plans and reject masks; every compared
float must match bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core.perf_model import eq1_static_terms, estimate_job
from repro.core.plan import CAPACITY_MULTIPLIERS, Placement, TieringPlan
from repro.core.tensor_eval import TensorWorkloadModel
from repro.core.utility import PlanTail, finalize_plan_metrics, per_vm_capacity
from repro.profiler.profiler import build_model_matrix
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec

from reference.kernels import ref_finalize, ref_group_step, ref_job_step, ref_revert

PROVIDER = google_cloud_2015()
CLUSTER = ClusterSpec(n_vms=25)
MATRIX = build_model_matrix(provider=PROVIDER, cluster_spec=CLUSTER)
APPS = ("sort", "join", "grep", "kmeans")
TIERS = list(PROVIDER.tiers)
LIFETIMES = (ReuseLifetime.NONE, ReuseLifetime.SHORT, ReuseLifetime.LONG)


# ---------------------------------------------------------------------------
# Drawn workloads
# ---------------------------------------------------------------------------


@st.composite
def workloads(draw, max_jobs=12):
    """Jobs of every app, and disjoint reuse sets of 1-4 members whose
    members may span apps.  ``twins`` sets copy one job's shape to every
    member, so their ephSSD downloads tie."""
    n = draw(st.integers(4, max_jobs))
    shapes = [
        (draw(st.sampled_from(APPS)), float(draw(st.integers(5, 120))))
        for _ in range(n)
    ]
    order = draw(st.permutations(range(n)))
    sets, i = [], 0
    while i < n and draw(st.booleans()):
        size = draw(st.integers(1, 4))
        members = order[i:i + size]
        if not members:
            break
        if draw(st.booleans()):  # twins: tied downloads
            for m in members:
                shapes[m] = shapes[members[0]]
        sets.append((members, draw(st.sampled_from(LIFETIMES))))
        i += size
    jobs = tuple(
        JobSpec.make(f"j{k:02d}", app, gb) for k, (app, gb) in enumerate(shapes)
    )
    reuse = tuple(
        ReuseSet(job_ids=frozenset(f"j{m:02d}" for m in members), lifetime=life)
        for members, life in sets
    )
    return WorkloadSpec(jobs=jobs, reuse_sets=reuse, name="drawn")


def bitwise(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def start_states(model, data, R):
    """Two identical R-replica states from drawn per-replica plans."""
    N, T, L = model.n_jobs, model.n_tiers, model.n_levels
    tier = np.array(data.draw(st.lists(
        st.lists(st.integers(0, T - 1), min_size=N, max_size=N),
        min_size=R, max_size=R)), dtype=np.int64)
    lvl = np.array(data.draw(st.lists(
        st.lists(st.integers(0, L - 1), min_size=N, max_size=N),
        min_size=R, max_size=R)), dtype=np.int64)
    states = []
    for _ in range(2):
        state = model.make_state(tier[0], lvl[0], R)
        state.tier[:] = tier
        state.lvl[:] = lvl
        model.refresh(state)
        states.append(state)
    return states


def draw_block(data, R, C, high):
    return np.array(data.draw(st.lists(
        st.lists(st.integers(0, high - 1), min_size=C, max_size=C),
        min_size=R, max_size=R)), dtype=np.int64)


def assert_same(new, ref):
    assert bitwise(new.stats) == bitwise(ref.stats)
    assert np.array_equal(new.tier, ref.tier)
    assert np.array_equal(new.lvl, ref.lvl)


# ---------------------------------------------------------------------------
# Batched kernel == per-replica kernels
# ---------------------------------------------------------------------------


class TestBatchedMoveKernel:
    @given(workload=workloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_moves_match_per_replica_kernels(self, workload, data):
        model = TensorWorkloadModel(
            workload, CLUSTER, MATRIX, PROVIDER, reuse_aware=True
        )
        R = data.draw(st.integers(1, 6))
        C = data.draw(st.integers(1, 5))
        T, L, G = model.n_tiers, model.n_levels, len(model.groups)
        new, ref = start_states(model, data, R)
        kind = draw_block(data, R, C, 3)
        group = draw_block(data, R, C, G)
        to = draw_block(data, R, C, T - 1)
        lm = draw_block(data, R, C, L - 1)
        reject = draw_block(data, R, C, 2).astype(bool)
        block = model.group_move_block(kind, group, to, lm)
        for k in range(C):
            model.apply_moves(new, block[k])
            undos = ref_group_step(
                model, ref, kind[:, k].tolist(), group[:, k].tolist(),
                to[:, k].tolist(), lm[:, k].tolist(),
            )
            assert_same(new, ref)
            for r in np.flatnonzero(reject[:, k]).tolist():
                new.reject(r)
                ref_revert(ref, r, undos[r])
            assert_same(new, ref)

    @given(workload=workloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_job_and_bulk_moves_match_per_replica_kernels(self, workload, data):
        model = TensorWorkloadModel(workload, CLUSTER, MATRIX, PROVIDER)
        R = data.draw(st.integers(1, 6))
        C = data.draw(st.integers(1, 5))
        N, A, T, L = model.n_jobs, model.n_apps, model.n_tiers, model.n_levels
        new, ref = start_states(model, data, R)
        kind = draw_block(data, R, C, 4)
        job = draw_block(data, R, C, N)
        app = draw_block(data, R, C, A)
        tier = draw_block(data, R, C, T)
        to = draw_block(data, R, C, T - 1)
        lm = draw_block(data, R, C, L - 1)
        reject = draw_block(data, R, C, 2).astype(bool)
        block = model.job_move_block(kind, job, app, tier, to, lm)
        for k in range(C):
            model.apply_moves(new, block[k])
            undos = ref_job_step(
                model, ref, *(x[:, k].tolist() for x in (kind, job, app, tier, to, lm))
            )
            assert_same(new, ref)
            for r in np.flatnonzero(reject[:, k]).tolist():
                new.reject(r)
                ref_revert(ref, r, undos[r])
            assert_same(new, ref)

    @given(workload=workloads(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_cached_reuse_terms_match_a_fresh_state(self, workload, data):
        # Utilities after moves and rejections (reuse terms possibly
        # served from the state's cache) equal those of a state scored
        # for the first time.
        model = TensorWorkloadModel(
            workload, CLUSTER, MATRIX, PROVIDER, reuse_aware=True
        )
        R = data.draw(st.integers(1, 4))
        C = data.draw(st.integers(1, 5))
        T, L, G = model.n_tiers, model.n_levels, len(model.groups)
        state, _ = start_states(model, data, R)
        model.utilities(state)
        kind = draw_block(data, R, C, 3)
        block = model.group_move_block(
            kind, draw_block(data, R, C, G), draw_block(data, R, C, T - 1),
            draw_block(data, R, C, L - 1),
        )
        reject = draw_block(data, R, C, 2).astype(bool)
        for k in range(C):
            model.apply_moves(state, block[k])
            got = model.utilities(state)
            fresh = model.make_state(state.tier[0], state.lvl[0], R)
            fresh.tier[:] = state.tier
            fresh.stats = state.stats
            assert bitwise(got) == bitwise(model.utilities(fresh))
            for r in np.flatnonzero(reject[:, k]).tolist():
                state.reject(r)


# ---------------------------------------------------------------------------
# Compiled tail == per-call tail
# ---------------------------------------------------------------------------


class TestCompiledTail:
    @given(workload=workloads(max_jobs=10), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_tail_matches_per_call_loop(self, workload, data):
        jobs = {j.job_id: j for j in workload.jobs}
        # Per set: all members on ephSSD, all on one drawn tier, or
        # each member on its own drawn tier.
        tier_of = {}
        in_set = set()
        for rs in workload.reuse_sets:
            mode = data.draw(st.sampled_from(("eph", "uniform", "mixed")))
            shared = data.draw(st.sampled_from(TIERS))
            for jid in sorted(rs.job_ids):
                in_set.add(jid)
                tier_of[jid] = (
                    Tier.EPH_SSD if mode == "eph"
                    else shared if mode == "uniform"
                    else data.draw(st.sampled_from(TIERS))
                )
        for jid in jobs:
            if jid not in in_set:
                tier_of[jid] = data.draw(st.sampled_from(TIERS))
        plan = TieringPlan(placements={
            jid: Placement(
                tier=tier_of[jid],
                capacity_gb=jobs[jid].footprint_gb
                * data.draw(st.sampled_from(CAPACITY_MULTIPLIERS)),
            )
            for jid in jobs
        })
        # The raw makespan is drawn across the 1-hour window, and kept
        # above every possible ephSSD discount.
        static = {
            jid: eq1_static_terms(job, CLUSTER, PROVIDER)[3]
            for jid, job in jobs.items()
        }
        floor = sum(static.values()) + 1.0
        makespan = floor + data.draw(st.floats(0.0, 8000.0, allow_nan=False))
        billed = plan.billed_capacity_gb(workload, PROVIDER)
        # evaluate_plan's download_of: the plan's own estimates, which
        # read 0 for jobs off ephSSD.
        pvc = per_vm_capacity(plan, CLUSTER, PROVIDER)
        est = {
            jid: estimate_job(jobs[jid], p.tier, pvc[p.tier], CLUSTER, MATRIX, PROVIDER)
            for jid, p in plan.placements.items()
        }
        reuse_aware = data.draw(st.booleans())
        want = ref_finalize(
            workload, plan, lambda j: est[j].download_s, makespan, dict(billed),
            reuse_aware, CLUSTER, PROVIDER,
        )
        for download_of in (static.__getitem__, lambda j: est[j].download_s):
            tail = PlanTail(workload, CLUSTER, PROVIDER, download_of, reuse_aware)
            got = finalize_plan_metrics(tail, plan.placements, makespan, dict(billed))
            assert got == want
