"""Greedy baselines (Algorithm 1)."""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cloud.storage import Tier
from repro.core import greedy
from repro.core.greedy import greedy_exact_fit, greedy_over_provisioned, greedy_plan
from repro.core.plan import Placement
from repro.profiler.profiler import Profiler
from repro.workloads.apps import APP_CATALOG, GREP, JOIN, KMEANS, SORT
from repro.workloads.spec import JobSpec, WorkloadSpec


@pytest.fixture()
def workload():
    return WorkloadSpec(
        jobs=(
            JobSpec(job_id="sort", app=SORT, input_gb=200.0, n_maps=200),
            JobSpec(job_id="grep", app=GREP, input_gb=300.0, n_maps=300),
            JobSpec(job_id="kmeans", app=KMEANS, input_gb=100.0, n_maps=100),
        )
    )


class TestGreedyExactFit:
    def test_capacities_are_footprints(self, workload, char_cluster, matrix, provider):
        plan = greedy_exact_fit(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            assert plan.placement(job.job_id).capacity_gb == pytest.approx(
                job.footprint_gb
            )

    def test_plan_is_valid(self, workload, char_cluster, matrix, provider):
        plan = greedy_exact_fit(workload, char_cluster, matrix, provider)
        plan.validate(workload, provider)

    def test_each_job_gets_its_solo_best_tier(self, workload, char_cluster, matrix, provider):
        from repro.core.greedy import _single_job_utility
        from repro.core.plan import Placement

        plan = greedy_exact_fit(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            chosen_u = _single_job_utility(
                job, plan.placement(job.job_id), char_cluster, matrix, provider
            )
            for tier in provider.tiers:
                u = _single_job_utility(
                    job, Placement(tier=tier, capacity_gb=job.footprint_gb),
                    char_cluster, matrix, provider,
                )
                assert chosen_u >= u - 1e-12, (job.job_id, tier)

    def test_deterministic(self, workload, char_cluster, matrix, provider):
        a = greedy_exact_fit(workload, char_cluster, matrix, provider)
        b = greedy_exact_fit(workload, char_cluster, matrix, provider)
        assert a.placements == b.placements


class TestGreedyOverProvisioned:
    def test_block_tiers_get_extra_capacity(self, workload, char_cluster, matrix, provider):
        plan = greedy_over_provisioned(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            p = plan.placement(job.job_id)
            if p.tier in (Tier.PERS_SSD, Tier.PERS_HDD):
                assert p.capacity_gb > job.footprint_gb

    def test_over_provisioning_never_shrinks_capacity(
        self, workload, char_cluster, matrix, provider
    ):
        exact = greedy_exact_fit(workload, char_cluster, matrix, provider)
        over = greedy_over_provisioned(workload, char_cluster, matrix, provider)
        for job in workload.jobs:
            assert (
                over.placement(job.job_id).capacity_gb
                >= exact.placement(job.job_id).capacity_gb
            )


class TestTierRestriction:
    def test_candidate_tiers_can_be_restricted(self, workload, char_cluster, matrix, provider):
        plan = greedy_plan(
            workload, char_cluster, matrix, provider,
            tiers=[Tier.PERS_HDD, Tier.OBJ_STORE],
        )
        for job in workload.jobs:
            assert plan.tier_of(job.job_id) in (Tier.PERS_HDD, Tier.OBJ_STORE)


def test_solo_score_is_the_one_job_evaluate_plan(char_cluster, matrix, provider):
    """Algorithm 1's score skips building a one-job workload and plan,
    but must stay bit-identical to evaluating exactly that."""
    from repro.core.greedy import _over_provisioned_capacity, _single_job_utility
    from repro.core.plan import Placement, TieringPlan
    from repro.core.utility import evaluate_plan
    from repro.workloads.apps import JOIN

    jobs = (
        JobSpec(job_id="sort", app=SORT, input_gb=200.0, n_maps=200),
        JobSpec(job_id="grep", app=GREP, input_gb=3.3),
        JobSpec(job_id="join", app=JOIN, input_gb=1700.0),
        JobSpec(job_id="kmeans", app=KMEANS, input_gb=11.9),
    )
    for job in jobs:
        for tier in provider.tiers:
            for cap in (
                job.footprint_gb,
                _over_provisioned_capacity(job, tier, char_cluster, provider),
            ):
                placement = Placement(tier=tier, capacity_gb=cap)
                solo = WorkloadSpec(jobs=(job,))
                plan = TieringPlan(placements={job.job_id: placement})
                ref = evaluate_plan(solo, plan, char_cluster, matrix, provider)
                got = _single_job_utility(job, placement, char_cluster, matrix, provider)
                assert got == ref.utility


# ---------------------------------------------------------------------------
# Per-shape scoring: the plan a per-job loop would give
# ---------------------------------------------------------------------------

#: An app outside the catalog, profiled alongside it.
CUSTOM = dataclasses.replace(
    SORT, name="custom", map_selectivity=0.4, cpu_map_mb_s=35.0
)
#: Sort's profile name with other data ratios: a different shape.
SORT_VARIANT = dataclasses.replace(SORT, map_selectivity=0.3, reduce_selectivity=0.5)


@pytest.fixture(scope="module")
def custom_matrix(provider, char_cluster):
    profiler = Profiler(provider=provider, cluster_spec=char_cluster)
    return profiler.profile_all(apps=[*APP_CATALOG.values(), CUSTOM])


def reference_plan(workload, cluster, matrix, provider, over_provision, tiers):
    """Algorithm 1 scored job by job: every job on every candidate tier."""
    candidates = list(tiers) if tiers is not None else list(provider.tiers)
    placements = {}
    for job in workload.jobs:
        greedy.solo_memo(matrix).clear()  # score this job, not a memoized shape
        best, best_u = None, float("-inf")
        for tier in candidates:
            cap = (
                greedy._over_provisioned_capacity(job, tier, cluster, provider)
                if over_provision else job.footprint_gb
            )
            placement = Placement(tier=tier, capacity_gb=cap)
            u = greedy._single_job_utility(job, placement, cluster, matrix, provider)
            if u > best_u:
                best, best_u = placement, u
        placements[job.job_id] = best
    return placements


#: Values per JobSpec field other than ``job_id``.
_FIELDS = (
    st.sampled_from([SORT, SORT_VARIANT, GREP, JOIN, KMEANS, CUSTOM]),
    st.sampled_from([3.3, 16.0, 64.0, 250.0, 1700.0]),
    st.sampled_from([None, 1, 8, 64, 400]),
    st.sampled_from([None, 1, 4, 16, 60]),
)


def _workload(shapes, picks):
    return WorkloadSpec(jobs=tuple(
        JobSpec(job_id=f"j{i:02d}", app=app, input_gb=gb, n_maps=m, n_reduces=r)
        for i, (app, gb, m, r) in enumerate(shapes[k] for k in picks)
    ))


@st.composite
def repeated_shape_workloads(draw):
    """Jobs over a few shapes, each shape one field away from another,
    so a shape key missing a field would merge two of them."""
    shapes = [draw(st.tuples(*_FIELDS))]
    for field in draw(st.lists(st.integers(0, 3), max_size=5)):
        variant = list(draw(st.sampled_from(shapes)))
        variant[field] = draw(_FIELDS[field])
        shapes.append(tuple(variant))
    picks = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=40))
    return _workload(shapes, picks)


#: Every field decides the best tier here: each variant of the 1.7 TB
#: sort gets a different tier than the sort itself.
_ONE_FIELD_APART = _workload(
    [(SORT, 1700.0, None, None), (SORT, 1700.0, None, 1), (SORT, 1700.0, 1, None),
     (CUSTOM, 1700.0, None, None), (SORT_VARIANT, 1700.0, None, None),
     (SORT, 3.3, None, None)],
    [0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0],
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(workload=_ONE_FIELD_APART, over_provision=False, tiers=None)
@given(
    workload=repeated_shape_workloads(),
    over_provision=st.booleans(),
    tiers=st.none() | st.lists(
        st.sampled_from([Tier.EPH_SSD, Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE]),
        min_size=1, max_size=4, unique=True,
    ),
)
def test_shape_scoring_matches_the_per_job_loop(
    workload, over_provision, tiers, custom_matrix, char_cluster, provider
):
    plan = greedy_plan(
        workload, char_cluster, custom_matrix, provider,
        over_provision=over_provision, tiers=tiers,
    )
    ref = reference_plan(
        workload, char_cluster, custom_matrix, provider, over_provision, tiers
    )
    assert plan.placements == ref


def test_solo_memo_holds_shapes_not_jobs(custom_matrix, char_cluster, provider):
    """A second workload of the same shapes under new job ids adds no
    memo entries."""
    shapes = [(SORT, 64.0, 64, None), (CUSTOM, 250.0, None, 7), (JOIN, 16.0, None, None)]

    def workload(prefix):
        return WorkloadSpec(jobs=tuple(
            JobSpec(job_id=f"{prefix}{i}", app=app, input_gb=gb, n_maps=m, n_reduces=r)
            for i, (app, gb, m, r) in enumerate(shapes * 4)
        ))

    memo = greedy.solo_memo(custom_matrix)
    memo.clear()
    for over_provision in (False, True):
        greedy_plan(workload("a"), char_cluster, custom_matrix, provider,
                    over_provision=over_provision)
    size = len(memo)
    assert size <= 2 * len(shapes) * len(provider.tiers)
    for over_provision in (False, True):
        greedy_plan(workload("b"), char_cluster, custom_matrix, provider,
                    over_provision=over_provision)
    assert len(memo) == size


def test_solo_memo_hits_across_requests():
    """Each named provider and its profiled matrix are one object per
    process, so a second identical request adds no memo entries."""
    from repro.cloud import resolve_provider
    from repro.core.solver import solve_workload_request
    from repro.profiler.profiler import build_model_matrix
    from repro.workloads.io import workload_to_dict
    from repro.workloads.swim import synthesize_small_workload

    google = resolve_provider("google")
    request = dict(
        workload=workload_to_dict(synthesize_small_workload(n_jobs=20)),
        provider="google", n_vms=6, iterations=50, seed=1,
    )
    solve_workload_request(**request)
    memo = greedy.solo_memo(
        build_model_matrix(provider=google, cluster_spec=google.cluster(6))
    )
    size = len(memo)
    assert size > 0
    solve_workload_request(**request)
    assert len(memo) == size
