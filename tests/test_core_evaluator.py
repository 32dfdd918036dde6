"""Incremental :class:`PlanEvaluator`: bit-exact parity with the naive path.

Every assertion here uses ``==`` on floats deliberately — the evaluator
promises *bit-identical* utilities, makespans and billed capacities, not
approximate ones, and the solvers rely on that to produce identical
plans from identical seeds.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import resolve_provider
from repro.cloud.aws import aws_2015
from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core import evaluator as evaluator_mod
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import CastPlusPlus
from repro.core.evaluator import PlanEvaluator, PlanMove
from repro.core.plan import Placement, TieringPlan
from repro.core.solver import CAPACITY_MULTIPLIERS, CastSolver
from repro.core.tensor_eval import bandwidth_tensor
from repro.core.utility import evaluate_plan
from repro.errors import CastError, CatalogError, PlanError
from repro.profiler import profiler as profiler_mod
from repro.profiler.models import CapacityProfile, ModelMatrix, PhaseBandwidths
from repro.profiler.profiler import build_model_matrix
from repro.service.pool import SolverPool, solve_restart
from repro.simulator.cache import sim_key_context
from repro.workloads.io import workload_to_dict
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec
from repro.workloads.swim import synthesize_facebook_workload, synthesize_small_workload

from reference.solver import reference_solve

# ---------------------------------------------------------------------------
# Deployments under test: both provider catalogs, one shared cluster.
# ---------------------------------------------------------------------------

CLUSTER = ClusterSpec(n_vms=25)
DEPLOYMENTS = {
    name: (prov, build_model_matrix(provider=prov, cluster_spec=CLUSTER))
    for name, prov in (("google", google_cloud_2015()), ("aws", aws_2015()))
}


def make_workload(n_jobs=12, seed=11):
    return synthesize_small_workload(n_jobs=n_jobs, rng=np.random.default_rng(seed))


def seed_plan(workload, provider, seed=3):
    """A random feasible plan: every job on a random tier, exact fit."""
    rng = np.random.default_rng(seed)
    tiers = list(provider.tiers)
    return TieringPlan.exact_fit(
        workload, {j.job_id: tiers[rng.integers(len(tiers))] for j in workload.jobs}
    )


def random_changes(workload, provider, plan, rng):
    """A solver-shaped move: retier/resize one job, or bulk-move an app."""
    tiers = list(provider.tiers)
    jobs = list(workload.jobs)
    if rng.integers(4) == 3:
        by_app = workload.jobs_by_app()
        app = sorted(by_app)[rng.integers(len(by_app))]
        tier = tiers[rng.integers(len(tiers))]
        mult = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
        return tuple(
            (j.job_id, Placement(tier=tier, capacity_gb=j.footprint_gb * mult))
            for j in by_app[app]
        )
    job = jobs[rng.integers(len(jobs))]
    tier = tiers[rng.integers(len(tiers))]
    mult = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
    return ((job.job_id, Placement(tier=tier, capacity_gb=job.footprint_gb * mult)),)


def assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware):
    """The evaluator's base state (after ``reset``/``accept``) equals
    ``evaluate_plan`` on ``plan``: utility, makespan, cost, billed
    capacities, and each job's memoized runtime."""
    ref = evaluate_plan(
        workload, plan, CLUSTER, matrix, provider, reuse_aware=reuse_aware
    )
    base = ev._base
    assert ev.base_utility == ref.utility
    assert ev.base_makespan_s == ref.makespan_s
    assert ev.base_cost == ref.cost
    assert base.billed == dict(ref.capacity_gb)
    runtimes = {jid: float(base.tot[s]) for jid, s in base.slot.items()}
    assert runtimes == {jid: est.total_s for jid, est in ref.per_job.items()}


# ---------------------------------------------------------------------------
# Full-evaluation parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("reuse_aware", [False, True])
class TestFullEvaluationParity:
    def test_exact_fit_plan(self, deployment, reuse_aware):
        provider, matrix = DEPLOYMENTS[deployment]
        workload = make_workload()
        plan = seed_plan(workload, provider)
        ev = PlanEvaluator(workload, CLUSTER, matrix, provider, reuse_aware=reuse_aware)
        ev.reset(plan)
        assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)

    def test_overprovisioned_plan(self, deployment, reuse_aware):
        provider, matrix = DEPLOYMENTS[deployment]
        workload = make_workload()
        tiers = list(provider.tiers)
        plan = TieringPlan(
            placements={
                j.job_id: Placement(
                    tier=tiers[i % len(tiers)], capacity_gb=j.footprint_gb * 2.0
                )
                for i, j in enumerate(workload.jobs)
            }
        )
        ev = PlanEvaluator(workload, CLUSTER, matrix, provider, reuse_aware=reuse_aware)
        ev.reset(plan)
        assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)


# ---------------------------------------------------------------------------
# Propose/accept random-walk parity (the delta path)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("reuse_aware", [False, True])
class TestMoveSequenceParity:
    def test_random_walk(self, deployment, reuse_aware):
        provider, matrix = DEPLOYMENTS[deployment]
        workload = make_workload()
        plan = seed_plan(workload, provider)
        ev = PlanEvaluator(workload, CLUSTER, matrix, provider, reuse_aware=reuse_aware)
        ev.reset(plan)
        rng = np.random.default_rng(29)
        for step in range(60):
            changes = random_changes(workload, provider, plan, rng)
            neighbor = plan.with_placements(changes)
            u_inc = ev.propose(neighbor, PlanMove(changes))
            ref = evaluate_plan(
                workload, neighbor, CLUSTER, matrix, provider, reuse_aware=reuse_aware
            )
            assert u_inc == ref.utility, f"step {step}: delta != naive"
            if rng.random() < 0.6:
                ev.accept()
                plan = neighbor
                assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)

    def test_noop_move_returns_base_utility(self, deployment, reuse_aware):
        provider, matrix = DEPLOYMENTS[deployment]
        workload = make_workload(n_jobs=6)
        plan = seed_plan(workload, provider)
        ev = PlanEvaluator(workload, CLUSTER, matrix, provider, reuse_aware=reuse_aware)
        base_u = ev.reset(plan)
        jid = workload.jobs[0].job_id
        changes = ((jid, plan.placements[jid]),)
        assert ev.propose(plan.with_placements(changes), PlanMove(changes)) == base_u
        ev.accept()
        assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)


class TestProposalSafety:
    """Rejected or failed proposals must never corrupt the base state."""

    def setup_method(self):
        self.provider, self.matrix = DEPLOYMENTS["google"]
        self.workload = make_workload(n_jobs=8)
        self.plan = seed_plan(self.workload, self.provider)
        self.ev = PlanEvaluator(self.workload, CLUSTER, self.matrix, self.provider)
        self.base_u = self.ev.reset(self.plan)

    def _one_change(self, mult=1.5, tier=Tier.PERS_SSD):
        job = self.workload.jobs[0]
        return (
            (job.job_id, Placement(tier=tier, capacity_gb=job.footprint_gb * mult)),
        )

    def test_unaccepted_proposals_do_not_move_the_base(self):
        for mult in (1.25, 2.0, 3.0):
            changes = self._one_change(mult=mult)
            self.ev.propose(self.plan.with_placements(changes), PlanMove(changes))
        # Base unchanged: a no-op proposal still reports the base utility.
        jid = self.workload.jobs[1].job_id
        noop = ((jid, self.plan.placements[jid]),)
        assert (
            self.ev.propose(self.plan.with_placements(noop), PlanMove(noop))
            == self.base_u
        )

    def test_eq3_violation_raises_and_preserves_base(self):
        job = self.workload.jobs[0]
        bad = ((job.job_id, Placement(tier=Tier.PERS_SSD, capacity_gb=0.5)),)
        with pytest.raises(PlanError, match="Eq. 3"):
            self.ev.propose(self.plan.with_placements(bad), PlanMove(bad))
        changes = self._one_change()
        ref = evaluate_plan(
            self.workload,
            self.plan.with_placements(changes),
            CLUSTER,
            self.matrix,
            self.provider,
            reuse_aware=False,
        )
        assert (
            self.ev.propose(self.plan.with_placements(changes), PlanMove(changes))
            == ref.utility
        )

    def test_unknown_job_rejected(self):
        bad = (("no-such-job", Placement(tier=Tier.PERS_SSD, capacity_gb=10.0)),)
        with pytest.raises(PlanError, match="no-such-job"):
            self.ev.propose(self.plan, PlanMove(bad))

    def test_accept_without_proposal_rejected(self):
        ev = PlanEvaluator(self.workload, CLUSTER, self.matrix, self.provider)
        ev.reset(self.plan)
        changes = self._one_change()
        ev.propose(self.plan.with_placements(changes), PlanMove(changes))
        ev.accept()
        with pytest.raises(PlanError, match="accept"):
            ev.accept()


# ---------------------------------------------------------------------------
# Property-based parity: random seeded move sequences
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    deployment=st.sampled_from(sorted(DEPLOYMENTS)),
    reuse_aware=st.booleans(),
    walk_seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_moves=st.integers(min_value=1, max_value=12),
)
def test_property_random_move_sequences_agree(
    deployment, reuse_aware, walk_seed, n_moves
):
    provider, matrix = DEPLOYMENTS[deployment]
    workload = make_workload(n_jobs=8)
    plan = seed_plan(workload, provider)
    ev = PlanEvaluator(workload, CLUSTER, matrix, provider, reuse_aware=reuse_aware)
    ev.reset(plan)
    rng = np.random.default_rng(walk_seed)
    for _ in range(n_moves):
        changes = random_changes(workload, provider, plan, rng)
        neighbor = plan.with_placements(changes)
        u_inc = ev.propose(neighbor, PlanMove(changes))
        ref = evaluate_plan(
            workload, neighbor, CLUSTER, matrix, provider, reuse_aware=reuse_aware
        )
        assert u_inc == ref.utility
        ev.accept()
        plan = neighbor
        assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)


def reuse_workload(n_jobs, seed):
    """A ``make_workload`` with pairs and triples of jobs sharing input."""
    base = make_workload(n_jobs=n_jobs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    ids = [j.job_id for j in base.jobs]
    rng.shuffle(ids)
    lifetimes = (ReuseLifetime.SHORT, ReuseLifetime.LONG)
    sets, at = [], 0
    for _ in range(n_jobs // 12):
        size = int(rng.integers(2, 4))
        sets.append(ReuseSet(
            job_ids=frozenset(ids[at:at + size]),
            lifetime=lifetimes[int(rng.integers(2))],
        ))
        at += size
    return WorkloadSpec(jobs=base.jobs, reuse_sets=tuple(sets), name=base.name)


def shuffled(plan, rng):
    """The same placements in another plan order."""
    ids = list(plan.placements)
    rng.shuffle(ids)
    return TieringPlan(placements={jid: plan.placements[jid] for jid in ids})


def delta_step(workload, plan, provider, rng, step):
    """A session-shaped delta: drop 0-3 jobs, append 0-3 arrivals
    (sometimes sharing a new reuse set), the base plan edited to match."""
    jobs = list(workload.jobs)
    gone = {jobs[i].job_id for i in rng.choice(len(jobs), int(rng.integers(0, 4)),
                                                 replace=False)}
    pool = make_workload(n_jobs=4, seed=1000 + step)
    added = [
        JobSpec(job_id=f"arr{step}-{k}", app=j.app, input_gb=j.input_gb, n_maps=j.n_maps)
        for k, j in enumerate(pool.jobs[:int(rng.integers(0, 4))])
    ]
    sets = [
        ReuseSet(job_ids=rs.job_ids - gone, lifetime=rs.lifetime)
        for rs in workload.reuse_sets if rs.job_ids - gone
    ]
    if len(added) >= 2 and rng.random() < 0.5:
        sets.append(ReuseSet(job_ids=frozenset(j.job_id for j in added[:2]),
                             lifetime=ReuseLifetime.LONG))
    new_workload = WorkloadSpec(
        jobs=tuple(j for j in jobs if j.job_id not in gone) + tuple(added),
        reuse_sets=tuple(sets), name=workload.name,
    )
    tiers = list(provider.tiers)
    placements = {jid: p for jid, p in plan.placements.items() if jid not in gone}
    for job in added:
        mult = CAPACITY_MULTIPLIERS[rng.integers(len(CAPACITY_MULTIPLIERS))]
        placements[job.job_id] = Placement(
            tier=tiers[rng.integers(len(tiers))], capacity_gb=job.footprint_gb * mult
        )
    return new_workload, TieringPlan(placements=placements), added, tuple(gone)


@settings(max_examples=12, deadline=None)
@given(
    deployment=st.sampled_from(sorted(DEPLOYMENTS)),
    reuse_aware=st.booleans(),
    n_jobs=st.integers(min_value=60, max_value=150),
    walk_seed=st.integers(min_value=0, max_value=2**31 - 1),
    reorder=st.booleans(),
)
def test_property_large_workloads_with_reuse_and_deltas(
    deployment, reuse_aware, n_jobs, walk_seed, reorder
):
    """Every step kind the solvers and sessions drive, at scale.

    Random single-job and app-bulk moves, no-op and infeasible moves,
    proposals rejected between accepts, and workload deltas, on
    workloads with reuse sets and (``reorder``) a plan order that is
    not the workload order.  Each proposal's utility and every base
    evaluation must equal ``evaluate_plan`` bit for bit.
    """
    provider, matrix = DEPLOYMENTS[deployment]
    rng = np.random.default_rng(walk_seed)
    workload = reuse_workload(n_jobs, seed=walk_seed % 97)
    plan = seed_plan(workload, provider, seed=walk_seed % 89)
    if reorder:
        plan = shuffled(plan, rng)
    ev = PlanEvaluator(workload, CLUSTER, matrix, provider, reuse_aware=reuse_aware)
    ev.reset(plan)

    def naive(wl, p):
        return evaluate_plan(wl, p, CLUSTER, matrix, provider, reuse_aware=reuse_aware)

    for step in range(24):
        kind = rng.integers(8)
        if kind == 0:
            # No-op: re-assert existing placements.
            ids = [j.job_id for j in workload.jobs[:3]]
            changes = tuple((jid, plan.placements[jid]) for jid in ids)
            assert ev.propose(plan.with_placements(changes), PlanMove(changes)) \
                == naive(workload, plan).utility
            continue
        if kind == 1:
            # Infeasible: Eq. 3 violation or an unknown job; base intact.
            job = workload.jobs[int(rng.integers(len(workload.jobs)))]
            bad = ((job.job_id, Placement(tier=Tier.PERS_SSD, capacity_gb=0.5)),)
            if rng.random() < 0.5:
                bad = (("no-such-job", Placement(tier=Tier.PERS_SSD, capacity_gb=10.0)),)
            with pytest.raises(CastError):
                ev.propose(plan, PlanMove(bad))
            assert ev.base_utility == naive(workload, plan).utility
            continue
        if kind == 2:
            workload, plan, added, gone = delta_step(workload, plan, provider, rng, step)
            u = ev.apply_workload_delta(workload, plan, added, gone)
            assert u == naive(workload, plan).utility
            assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)
            continue
        changes = random_changes(workload, provider, plan, rng)
        neighbor = plan.with_placements(changes)
        ref = naive(workload, neighbor)
        assert ev.propose(neighbor, PlanMove(changes)) == ref.utility
        if rng.random() < 0.5:
            ev.accept()
            plan = neighbor
            assert ev.base_utility == ref.utility
            assert ev.base_makespan_s == ref.makespan_s
            # Aggregates feed the bandwidth lookup only after 1 GB
            # quantization, so check their plan-order sums directly.
            assert ev._base.agg == plan.aggregate_capacity_gb()
            assert_matches_naive(ev, workload, plan, matrix, provider, reuse_aware)


def test_castpp_solve_counters_are_pinned():
    """The evaluator's work counters for one seeded 100-job CAST++ solve.

    The counters (memo hits/misses, re-estimated and skipped jobs) are
    part of the solver's observable behaviour — the planner service
    reports them — so the incremental machinery may get cheaper but
    must not change what it counts.
    """
    provider, matrix = DEPLOYMENTS["google"]
    workload = synthesize_facebook_workload()
    solver = CastPlusPlus(
        cluster_spec=CLUSTER, matrix=matrix, provider=provider,
        schedule=AnnealingSchedule(iter_max=600), seed=7,
    )
    result = solver.solve(workload)
    assert (workload.n_jobs, len(workload.reuse_sets)) == (100, 5)
    assert result.best_utility.hex() == "0x1.4ec0e64d9cd13p-15"
    assert result.accepted == 573
    assert solver.last_evaluator.stats() == {
        "full_evaluations": 1,
        "incremental_evaluations": 600,
        "delta_rebases": 0,
        "cache_hits": 915,
        "cache_misses": 2758,
        "jobs_reestimated": 3573,
        "jobs_skipped": 56427,
        "cache_entries": 2758,
    }


# ---------------------------------------------------------------------------
# Solver-level parity: the acceptance criterion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("solver_cls", [CastSolver, CastPlusPlus])
class TestSolverParity:
    def test_incremental_solve_is_bit_identical(self, deployment, solver_cls):
        provider, matrix = DEPLOYMENTS[deployment]
        workload = make_workload(n_jobs=16)
        schedule = AnnealingSchedule(iter_max=400)
        kwargs = dict(
            cluster_spec=CLUSTER,
            matrix=matrix,
            provider=provider,
            schedule=schedule,
            seed=7,
        )
        fast = solver_cls(**kwargs)
        initial = fast.initial_plan(workload)
        r_naive = reference_solve(solver_cls(**kwargs), workload, initial=initial)
        r_fast = fast.solve(workload, initial=initial)
        assert r_fast.best_utility == r_naive.best_utility
        assert r_fast.best_state.to_dict() == r_naive.best_state.to_dict()
        assert r_fast.accepted == r_naive.accepted
        assert fast.last_evaluator is not None


# ---------------------------------------------------------------------------
# Cache counters
# ---------------------------------------------------------------------------


class TestCounters:
    def test_counter_lifecycle(self):
        provider, matrix = DEPLOYMENTS["google"]
        workload = make_workload(n_jobs=8)
        plan = seed_plan(workload, provider)
        ev = PlanEvaluator(workload, CLUSTER, matrix, provider)

        ev.reset(plan)
        stats = ev.stats()
        assert stats["full_evaluations"] == 1
        assert stats["incremental_evaluations"] == 0
        assert stats["cache_misses"] == len(workload.jobs)
        assert stats["cache_entries"] == stats["cache_misses"]

        job = workload.jobs[0]
        changes = (
            (job.job_id, Placement(tier=Tier.PERS_SSD, capacity_gb=job.footprint_gb * 2)),
        )
        neighbor = plan.with_placements(changes)
        ev.propose(neighbor, PlanMove(changes))
        stats = ev.stats()
        assert stats["incremental_evaluations"] == 1
        assert stats["jobs_reestimated"] + stats["jobs_skipped"] == len(workload.jobs)

        # Proposing the identical move again must hit the memo: the
        # number of distinct cached estimates stays put.
        entries = stats["cache_entries"]
        misses = stats["cache_misses"]
        ev.propose(neighbor, PlanMove(changes))
        stats = ev.stats()
        assert stats["cache_entries"] == entries
        assert stats["cache_misses"] == misses

    def test_saturated_tiers_invalidate_nothing(self):
        # ephSSD/objStore bandwidths are capacity-flat: resizing a job
        # there re-keys to the same bandwidth identity, so no member of
        # the tier is re-estimated.
        provider, matrix = DEPLOYMENTS["google"]
        workload = make_workload(n_jobs=8)
        plan = TieringPlan.exact_fit(
            workload, {j.job_id: Tier.OBJ_STORE for j in workload.jobs}
        )
        ev = PlanEvaluator(workload, CLUSTER, matrix, provider)
        ev.reset(plan)
        job = workload.jobs[0]
        changes = (
            (job.job_id, Placement(tier=Tier.OBJ_STORE, capacity_gb=job.footprint_gb * 4)),
        )
        ev.propose(plan.with_placements(changes), PlanMove(changes))
        stats = ev.stats()
        assert stats["jobs_reestimated"] == 0
        assert stats["jobs_skipped"] == len(workload.jobs)


# ---------------------------------------------------------------------------
# The per-matrix bandwidth-id table
# ---------------------------------------------------------------------------

_SHARED_TABLE_SOLVE = """
import json
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import CastPlusPlus
from repro.cloud.provider import google_cloud_2015
from repro.cloud.vm import ClusterSpec
from repro.profiler.profiler import build_model_matrix
from repro.workloads.swim import synthesize_facebook_workload

def shared_table_solve(provider, matrix, cluster):
    solver = CastPlusPlus(
        cluster_spec=cluster, matrix=matrix, provider=provider,
        schedule=AnnealingSchedule(iter_max=400), seed=11,
    )
    workload = synthesize_facebook_workload()
    result = solver.solve(workload)
    ev = solver.last_evaluator
    return {
        "best_utility": result.best_utility.hex(),
        "base_utility": ev.base_utility.hex(),
        "accepted": result.accepted,
        "plan": result.best_state.to_dict(),
        "stats": ev.stats(),
    }

if __name__ == "__main__":
    cluster = ClusterSpec(n_vms=25)
    provider = google_cloud_2015()
    matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
    print(json.dumps(shared_table_solve(provider, matrix, cluster)))
"""


def _shared_table_solve(provider, matrix, cluster):
    namespace = {}
    exec(_SHARED_TABLE_SOLVE, namespace)
    return namespace["shared_table_solve"](provider, matrix, cluster)


class TestSharedBandwidthTable:
    def test_warm_table_solve_equals_cold_subprocess_solve(self):
        """A solve reading a table other solves built answers exactly
        what a fresh process, building the table itself, answers."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-c", _SHARED_TABLE_SOLVE],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        cold = json.loads(out.stdout)
        # Warm the table: other workloads on google, and the aws matrix.
        for name in ("google", "aws"):
            provider, matrix = DEPLOYMENTS[name]
            for seed in (1, 2):
                CastPlusPlus(
                    cluster_spec=CLUSTER, matrix=matrix, provider=provider,
                    schedule=AnnealingSchedule(iter_max=200), seed=seed,
                ).solve(make_workload(n_jobs=40, seed=seed))
        provider, matrix = DEPLOYMENTS["google"]
        warm = _shared_table_solve(provider, matrix, CLUSTER)
        assert warm == cold

    def test_evaluators_over_one_matrix_share_one_table(self):
        provider, matrix = DEPLOYMENTS["google"]
        a = PlanEvaluator(make_workload(), CLUSTER, matrix, provider)
        b = PlanEvaluator(make_workload(n_jobs=30, seed=4), CLUSTER, matrix, provider)
        assert a._bw is b._bw
        aws_provider, aws_matrix = DEPLOYMENTS["aws"]
        c = PlanEvaluator(make_workload(), CLUSTER, aws_matrix, aws_provider)
        assert c._bw is not a._bw

    def test_thread_pool_restarts_match_serial_restarts(self, monkeypatch):
        """Two restarts racing on a cold table in thread mode give the
        restarts' serial answers, counters included."""
        request = {
            "op": "plan",
            "spec": workload_to_dict(synthesize_facebook_workload()),
            "provider": "google", "n_vms": 25, "iterations": 400,
            "seed": 5, "use_castpp": True,
        }
        # The restarts resolve a fresh copy of the memoized matrix, so
        # its tables start cold.
        provider = resolve_provider("google")
        cluster = provider.cluster(25)
        key = (sim_key_context(cluster, provider), 2)
        warm = build_model_matrix(provider=provider, cluster_spec=cluster)
        monkeypatch.setitem(profiler_mod._MATRIX_CACHE, key, _copy_matrix(warm))
        pool = SolverPool(processes=0, restarts=2)
        try:
            threaded = pool.solve_sync(request)
        finally:
            pool.shutdown()
        serial = [
            solve_restart(dict(request, seed=s))
            for s in threaded["restart_seeds"]
        ]
        assert threaded["restart_utilities"] == [r["utility"] for r in serial]
        best = serial[threaded["best_restart"]]
        assert threaded["plan"] == best["plan"]
        assert threaded["evaluator"] == {
            key: sum(r["evaluator"][key] for r in serial)
            for key in serial[0]["evaluator"]
        }

    def test_put_drops_the_derived_tables(self):
        """After a ``put``, the tensor and id tables read the new
        profile, as ``matrix.bandwidths`` does."""
        provider, matrix = DEPLOYMENTS["google"]
        tiers = tuple(provider.tiers)
        copy = _copy_matrix(matrix)
        apps = tuple(sorted({a for a, _ in copy.pairs}))
        old_tensor = bandwidth_tensor(copy, apps, tiers)
        old_ids = evaluator_mod.bandwidth_ids(copy, tiers)
        assert bandwidth_tensor(copy, apps, tiers) is old_tensor
        assert evaluator_mod.bandwidth_ids(copy, tiers) is old_ids

        a, t = apps.index("sort"), tiers.index(Tier.PERS_SSD)
        slow = CapacityProfile(anchors=tuple(
            (cap, PhaseBandwidths(bw.map_mb_s / 2, bw.shuffle_mb_s / 2,
                                  bw.reduce_mb_s / 2))
            for cap, bw in copy.get("sort", Tier.PERS_SSD).anchors
        ))
        copy.put("sort", Tier.PERS_SSD, slow)
        tensor = bandwidth_tensor(copy, apps, tiers)
        lo, hi, ids, rows = evaluator_mod.bandwidth_ids(copy, tiers)[
            ("sort", Tier.PERS_SSD)]
        for cap in (100, 350, 500, 1000):
            bw = copy.bandwidths("sort", Tier.PERS_SSD, cap)
            want = [bw.map_mb_s, bw.shuffle_mb_s, bw.reduce_mb_s]
            assert tensor.bw[a, t, cap - int(tensor.lo[a, t])].tolist() == want
            assert rows[ids[cap - lo]].tolist() == want
            assert want != old_tensor.bw[a, t, cap - int(old_tensor.lo[a, t])].tolist()

    def test_unprofiled_pair_is_a_catalog_error(self):
        provider, matrix = DEPLOYMENTS["google"]
        workload = make_workload()
        partial = _copy_matrix(matrix, skip_app=workload.jobs[0].app.name)
        ev = PlanEvaluator(workload, CLUSTER, partial, provider)
        with pytest.raises(CatalogError, match="no profile"):
            ev.reset(seed_plan(workload, provider))


def _copy_matrix(matrix, skip_app=None):
    """A new matrix object holding ``matrix``'s profiles."""
    copy = ModelMatrix()
    for app, tier in matrix.pairs:
        if app != skip_app:
            copy.put(app, tier, matrix.get(app, tier))
    return copy
