"""Job / reuse-set / workload specification invariants."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec, ReuseLifetime, ReuseSet, WorkloadSpec


def make_job(jid="j1", app=SORT, gb=100.0, **kw):
    return JobSpec(job_id=jid, app=app, input_gb=gb, **kw)


class TestJobSpec:
    def test_derived_task_counts(self):
        job = make_job(gb=25.0)
        assert job.map_tasks == SORT.map_tasks(25.0)
        assert job.reduce_tasks == SORT.reduce_tasks(job.map_tasks)

    def test_explicit_task_counts_win(self):
        job = make_job(gb=100.0, n_maps=7, n_reduces=3)
        assert job.map_tasks == 7
        assert job.reduce_tasks == 3

    def test_footprint_matches_eq3(self):
        job = make_job(gb=100.0)
        assert job.footprint_gb == pytest.approx(
            100.0 + job.intermediate_gb + job.output_gb
        )

    def test_non_positive_input_rejected(self):
        with pytest.raises(WorkloadError, match="non-positive"):
            make_job(gb=0.0)

    @pytest.mark.parametrize("gb", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input_rejected(self, gb):
        with pytest.raises(WorkloadError, match="non-finite"):
            make_job(gb=gb)

    def test_non_positive_maps_rejected(self):
        with pytest.raises(WorkloadError):
            make_job(n_maps=0)

    def test_make_resolves_app_by_name(self):
        job = JobSpec.make("x", "grep", 10.0)
        assert job.app is GREP

    def test_make_unknown_app(self):
        with pytest.raises(WorkloadError, match="unknown application"):
            JobSpec.make("x", "wordcount9000", 10.0)


class TestReuseSet:
    def test_lifetime_windows(self):
        assert ReuseLifetime.NONE.window_seconds == 0.0
        assert ReuseLifetime.SHORT.window_seconds == 3600.0
        assert ReuseLifetime.LONG.window_seconds == 7 * 24 * 3600.0

    def test_empty_set_rejected(self):
        with pytest.raises(WorkloadError):
            ReuseSet(job_ids=frozenset())

    def test_zero_accesses_rejected(self):
        with pytest.raises(WorkloadError):
            ReuseSet(job_ids=frozenset({"a"}), n_accesses=0)


class TestWorkloadSpec:
    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            WorkloadSpec(jobs=(make_job("a"), make_job("a")))

    def test_reuse_set_must_reference_jobs(self):
        with pytest.raises(WorkloadError, match="unknown jobs"):
            WorkloadSpec(
                jobs=(make_job("a"),),
                reuse_sets=(ReuseSet(job_ids=frozenset({"a", "ghost"})),),
            )

    def test_job_in_two_reuse_sets_rejected(self):
        jobs = (make_job("a"), make_job("b"), make_job("c"))
        with pytest.raises(WorkloadError, match="multiple reuse sets"):
            WorkloadSpec(
                jobs=jobs,
                reuse_sets=(
                    ReuseSet(job_ids=frozenset({"a", "b"})),
                    ReuseSet(job_ids=frozenset({"a", "c"})),
                ),
            )

    def test_lookup_and_membership(self):
        wl = WorkloadSpec(
            jobs=(make_job("a"), make_job("b")),
            reuse_sets=(ReuseSet(job_ids=frozenset({"a", "b"})),),
        )
        assert wl.job("a").job_id == "a"
        assert wl.reuse_set_of("a") is wl.reuse_sets[0]
        assert wl.reuse_set_of("b") is wl.reuse_sets[0]

    def test_lookup_missing_job(self):
        wl = WorkloadSpec(jobs=(make_job("a"),))
        with pytest.raises(WorkloadError, match="no job"):
            wl.job("zz")
        assert wl.reuse_set_of("a") is None

    def test_reuse_table_precomputes_set_constants(self):
        wl = WorkloadSpec(
            jobs=(make_job("c", gb=30.0), make_job("a", gb=80.0), make_job("b", gb=50.0)),
            reuse_sets=(
                ReuseSet(job_ids=frozenset({"c", "a"}), lifetime=ReuseLifetime.LONG),
                ReuseSet(job_ids=frozenset({"b"})),
            ),
        )
        (first, second) = wl.reuse_table
        assert first.members == ("a", "c")
        assert first.shared_gb == 80.0
        assert first.window_s == ReuseLifetime.LONG.window_seconds
        assert second == (("b",), 50.0, ReuseLifetime.SHORT.window_seconds)

    def test_lookups_are_cached_and_leave_equality_alone(self):
        jobs = (make_job("a"), make_job("b"))
        wl = WorkloadSpec(jobs=jobs)
        assert wl.job("b") is jobs[1]
        assert wl._job_index is wl._job_index
        assert wl == WorkloadSpec(jobs=jobs)
        assert hash(wl) == hash(WorkloadSpec(jobs=jobs))

    def test_shared_input_counted_once(self):
        wl = WorkloadSpec(
            jobs=(make_job("a", gb=100.0), make_job("b", gb=100.0), make_job("c", gb=50.0)),
            reuse_sets=(ReuseSet(job_ids=frozenset({"a", "b"})),),
        )
        assert wl.total_input_gb == pytest.approx(150.0)

    def test_total_footprint_sums_all_jobs(self):
        wl = WorkloadSpec(jobs=(make_job("a", gb=10.0), make_job("b", gb=20.0)))
        assert wl.total_footprint_gb == pytest.approx(
            wl.job("a").footprint_gb + wl.job("b").footprint_gb
        )

    def test_jobs_by_app_groups(self):
        wl = WorkloadSpec(
            jobs=(make_job("a", app=SORT), make_job("b", app=GREP), make_job("c", app=SORT))
        )
        groups = wl.jobs_by_app()
        assert {j.job_id for j in groups["sort"]} == {"a", "c"}
        assert len(groups["grep"]) == 1
