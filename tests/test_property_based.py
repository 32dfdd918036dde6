"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.pricing import google_cloud_2015_pricebook
from repro.cloud.scaling import ScalingCurve
from repro.cloud.storage import Tier
from repro.core.perf_model import _effective_waves
from repro.core.regression import CapacitySpline
from repro.simulator.events import EventQueue
from repro.simulator.storage_backend import SharedChannel
from repro.units import seconds_to_hours_ceil
from repro.workloads.apps import APP_CATALOG
from repro.workloads.swim import synthesize_facebook_workload

from reference.solver import bare_neighbor

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

capacities = st.floats(min_value=1.0, max_value=20_000.0,
                       allow_nan=False, allow_infinity=False)


@st.composite
def monotone_curves(draw):
    """Random valid (points, cap) scaling-curve inputs."""
    n = draw(st.integers(min_value=1, max_value=6))
    xs = sorted(draw(st.lists(
        st.floats(min_value=10.0, max_value=5000.0, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )))
    steps = draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=n, max_size=n,
    ))
    ys = list(np.cumsum([5.0] + steps[1:]))
    cap = ys[-1] + draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    return ScalingCurve(points=tuple(zip(xs, ys)), cap=cap)


class TestScalingCurveProperties:
    @given(curve=monotone_curves(), a=capacities, b=capacities)
    @settings(max_examples=80, deadline=None)
    def test_monotone_everywhere(self, curve, a, b):
        lo, hi = sorted((a, b))
        assert curve(lo) <= curve(hi) + 1e-9

    @given(curve=monotone_curves(), c=capacities)
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_cap_and_stays_positive(self, curve, c):
        value = curve(c)
        assert 0.0 <= value <= curve.cap + 1e-12


class TestCapacitySplineProperties:
    @given(
        xs=st.lists(st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
                    min_size=2, max_size=8, unique=True),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolant_within_anchor_envelope_for_monotone_data(self, xs, data):
        xs = sorted(xs)
        ys = sorted(
            data.draw(st.lists(
                st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
                min_size=len(xs), max_size=len(xs),
            )),
            reverse=True,  # runtime falls with capacity
        )
        spline = CapacitySpline(points=tuple(zip(xs, ys)))
        query = data.draw(st.floats(min_value=xs[0], max_value=xs[-1]))
        value = spline(query)
        assert min(ys) - 1e-6 <= value <= max(ys) + 1e-6

    @given(x=st.floats(min_value=0.1, max_value=1e5, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_constant_extension_never_extrapolates(self, x):
        spline = CapacitySpline(points=((100.0, 50.0), (200.0, 25.0)))
        assert 25.0 <= spline(x) <= 50.0


class TestEventQueueProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_dispatch_order_is_sorted(self, times):
        q = EventQueue()
        fired = []
        for t in times:
            q.schedule_at(t, lambda t=t: fired.append(t))
        q.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestChannelProperties:
    @given(
        sizes=st.lists(st.floats(min_value=0.1, max_value=5000.0,
                                 allow_nan=False), min_size=1, max_size=12),
        bandwidth=st.floats(min_value=1.0, max_value=2000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_conservation_under_saturation(self, sizes, bandwidth):
        """Transfers all starting at t=0 keep the channel busy; the last
        completion must land exactly at total_bytes / bandwidth."""
        q = EventQueue()
        ch = SharedChannel(q, bandwidth)
        done = []
        for size in sizes:
            ch.start_transfer(size, lambda: done.append(q.now))
        q.run()
        assert len(done) == len(sizes)
        assert max(done) == pytest.approx(sum(sizes) / bandwidth, rel=1e-6)

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=1000.0,
                                 allow_nan=False), min_size=2, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_smaller_transfers_never_finish_later(self, sizes):
        q = EventQueue()
        ch = SharedChannel(q, 100.0)
        done = {}
        for i, size in enumerate(sizes):
            ch.start_transfer(size, lambda i=i: done.__setitem__(i, q.now))
        q.run()
        order = sorted(range(len(sizes)), key=lambda i: sizes[i])
        finish = [done[i] for i in order]
        assert all(a <= b + 1e-9 for a, b in zip(finish, finish[1:]))


class TestWaveProperties:
    @given(n=st.integers(min_value=0, max_value=100_000),
           slots=st.integers(min_value=1, max_value=1000),
           cpu=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_effective_waves_bounded_by_floor_and_ceil(self, n, slots, cpu):
        w = _effective_waves(n, slots, cpu)
        assert n // slots <= w <= math.ceil(n / slots) + 1e-9

    @given(slots=st.integers(min_value=1, max_value=500),
           k=st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_full_waves_agree_with_eq1(self, slots, k):
        assert _effective_waves(k * slots, slots, False) == float(k)
        assert _effective_waves(k * slots, slots, True) == float(k)


class TestPricingProperties:
    @given(seconds=st.floats(min_value=0.0, max_value=1e7, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_hour_ceiling_brackets_exact_hours(self, seconds):
        hours = seconds_to_hours_ceil(seconds)
        assert hours >= seconds / 3600.0 - 1e-9
        assert hours <= seconds / 3600.0 + 1.0

    @given(gb=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           seconds=st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_storage_cost_monotone_in_capacity(self, gb, seconds):
        prices = google_cloud_2015_pricebook()
        small = prices.storage_cost({Tier.PERS_SSD: gb}, seconds)
        big = prices.storage_cost({Tier.PERS_SSD: gb + 1.0}, seconds)
        assert big >= small


class TestWorkloadProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_swim_histogram_invariant_under_seed(self, seed):
        wl = synthesize_facebook_workload(rng=np.random.default_rng(seed))
        counts = sorted(j.map_tasks for j in wl.jobs)
        expected = sorted(
            [1] * 35 + [5] * 22 + [10] * 16 + [50] * 13 + [500] * 7 + [1500] * 4 + [3000] * 3
        )
        assert counts == expected

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           frac=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_reuse_sets_always_within_workload(self, seed, frac):
        wl = synthesize_facebook_workload(
            rng=np.random.default_rng(seed), reuse_fraction=frac
        )
        ids = {j.job_id for j in wl.jobs}
        for rs in wl.reuse_sets:
            assert rs.job_ids <= ids
            assert len(rs.job_ids) >= 2

    @given(gb=st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_footprint_at_least_input_for_every_app(self, gb):
        for app in APP_CATALOG.values():
            assert app.footprint_gb(gb) >= gb


# ---------------------------------------------------------------------------
# Solver-domain properties over random workloads
# ---------------------------------------------------------------------------


@st.composite
def random_workloads(draw):
    """Small random workloads with optional reuse structure."""
    from repro.workloads.apps import APP_CATALOG
    from repro.workloads.spec import JobSpec, ReuseSet, WorkloadSpec

    apps = sorted(APP_CATALOG)
    n = draw(st.integers(min_value=2, max_value=8))
    jobs = []
    for i in range(n):
        app = APP_CATALOG[apps[draw(st.integers(0, len(apps) - 1))]]
        gb = draw(st.floats(min_value=1.0, max_value=500.0, allow_nan=False))
        jobs.append(JobSpec(job_id=f"r{i}", app=app, input_gb=gb))
    reuse = ()
    if n >= 3 and draw(st.booleans()):
        reuse = (ReuseSet(job_ids=frozenset({"r0", "r1"})),)
    return WorkloadSpec(jobs=tuple(jobs), reuse_sets=reuse, name="rand")


class TestSolverMoveProperties:
    @given(wl=random_workloads(), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_neighbor_moves_preserve_eq3(self, wl, seed, provider, matrix,
                                         char_cluster):
        from repro.core.annealing import AnnealingSchedule
        from repro.core.plan import TieringPlan
        from repro.core.solver import CastSolver

        solver = CastSolver(cluster_spec=char_cluster, matrix=matrix,
                            provider=provider,
                            schedule=AnnealingSchedule(iter_max=1), seed=seed)
        move = bare_neighbor(solver, wl)
        plan = TieringPlan.uniform(wl, Tier.PERS_SSD)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            plan = move(plan, rng)
        plan.validate(wl, provider)

    @given(wl=random_workloads(), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_castpp_moves_keep_reuse_sets_together(self, wl, seed, provider,
                                                   matrix, char_cluster):
        from repro.core.annealing import AnnealingSchedule
        from repro.core.castpp import CastPlusPlus

        solver = CastPlusPlus(cluster_spec=char_cluster, matrix=matrix,
                              provider=provider,
                              schedule=AnnealingSchedule(iter_max=1), seed=seed)
        move = bare_neighbor(solver, wl)
        plan = solver.initial_plan(wl)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            plan = move(plan, rng)
            for rs in wl.reuse_sets:
                tiers = {plan.tier_of(j) for j in rs.job_ids}
                assert len(tiers) == 1


class TestHeatProperties:
    @given(wl=random_workloads())
    @settings(max_examples=25, deadline=None)
    def test_heat_plan_is_total_and_feasible(self, wl, provider):
        from repro.core.heat import heat_based_plan

        plan = heat_based_plan(wl, provider)
        plan.validate(wl, provider)
        assert set(plan.job_ids) == {j.job_id for j in wl.jobs}


class TestSerializationProperties:
    @given(wl=random_workloads())
    @settings(max_examples=25, deadline=None)
    def test_workload_json_round_trip(self, wl):
        from repro.workloads.io import workload_from_dict, workload_to_dict

        back = workload_from_dict(workload_to_dict(wl))
        assert [j.job_id for j in back.jobs] == [j.job_id for j in wl.jobs]
        assert all(
            back.job(j.job_id).input_gb == pytest.approx(j.input_gb)
            for j in wl.jobs
        )
        assert len(back.reuse_sets) == len(wl.reuse_sets)
