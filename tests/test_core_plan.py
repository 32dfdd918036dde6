"""Tiering plans: construction, aggregates, Eq. 3 validation."""

import pytest

from repro.cloud.storage import Tier
from repro.core.plan import Placement, TieringPlan
from repro.errors import PlanError
from repro.workloads.apps import GREP, SORT
from repro.workloads.spec import JobSpec, WorkloadSpec


@pytest.fixture()
def workload():
    return WorkloadSpec(
        jobs=(
            JobSpec(job_id="a", app=SORT, input_gb=100.0),
            JobSpec(job_id="b", app=GREP, input_gb=50.0),
        )
    )


class TestConstruction:
    def test_exact_fit_capacities_match_footprints(self, workload):
        plan = TieringPlan.exact_fit(
            workload, {"a": Tier.PERS_SSD, "b": Tier.OBJ_STORE}
        )
        assert plan.placement("a").capacity_gb == pytest.approx(
            workload.job("a").footprint_gb
        )
        assert plan.tier_of("b") is Tier.OBJ_STORE

    def test_uniform_places_everything_on_one_tier(self, workload):
        plan = TieringPlan.uniform(workload, Tier.PERS_HDD)
        assert all(p.tier is Tier.PERS_HDD for p in plan.placements.values())

    def test_with_placement_is_persistent_copy(self, workload):
        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        new = plan.with_placement("a", Placement(tier=Tier.EPH_SSD, capacity_gb=400.0))
        assert plan.tier_of("a") is Tier.PERS_SSD   # original untouched
        assert new.tier_of("a") is Tier.EPH_SSD
        assert new.tier_of("b") is Tier.PERS_SSD

    def test_with_placement_unknown_job(self, workload):
        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        with pytest.raises(PlanError):
            plan.with_placement("zz", Placement(tier=Tier.EPH_SSD, capacity_gb=1.0))

    def test_negative_capacity_rejected(self):
        with pytest.raises(PlanError):
            Placement(tier=Tier.PERS_SSD, capacity_gb=-1.0)

    @pytest.mark.parametrize("gb", [float("nan"), float("inf")])
    def test_non_finite_capacity_rejected(self, gb):
        with pytest.raises(PlanError, match="non-finite"):
            Placement(tier=Tier.PERS_SSD, capacity_gb=gb)


class TestAggregates:
    def test_aggregate_capacity_sums_by_tier(self, workload):
        plan = TieringPlan(
            placements={
                "a": Placement(tier=Tier.PERS_SSD, capacity_gb=300.0),
                "b": Placement(tier=Tier.PERS_SSD, capacity_gb=51.0),
            }
        )
        assert plan.aggregate_capacity_gb() == {Tier.PERS_SSD: 351.0}

    def test_billed_capacity_adds_eph_backing(self, workload, provider):
        plan = TieringPlan.exact_fit(
            workload, {"a": Tier.EPH_SSD, "b": Tier.EPH_SSD}
        )
        billed = plan.billed_capacity_gb(workload, provider)
        expected_backing = sum(
            j.input_gb + j.output_gb for j in workload.jobs
        )
        assert billed[Tier.OBJ_STORE] == pytest.approx(expected_backing)

    def test_billed_capacity_moves_objstore_shuffle_to_helper(self, workload, provider):
        plan = TieringPlan.exact_fit(
            workload, {"a": Tier.OBJ_STORE, "b": Tier.OBJ_STORE}
        )
        billed = plan.billed_capacity_gb(workload, provider)
        # Sort's shuffle data (100 GB) lands on the persSSD helper.
        assert billed[Tier.PERS_SSD] >= workload.job("a").intermediate_gb

    def test_billed_capacity_plain_for_block_tiers(self, workload, provider):
        plan = TieringPlan.exact_fit(
            workload, {"a": Tier.PERS_HDD, "b": Tier.PERS_HDD}
        )
        billed = plan.billed_capacity_gb(workload, provider)
        assert set(billed) == {Tier.PERS_HDD}


class TestValidation:
    def test_valid_plan_passes(self, workload, provider):
        TieringPlan.uniform(workload, Tier.PERS_SSD).validate(workload, provider)

    def test_missing_job_detected(self, workload, provider):
        plan = TieringPlan(
            placements={"a": Placement(tier=Tier.PERS_SSD, capacity_gb=301.0)}
        )
        with pytest.raises(PlanError, match="missing"):
            plan.validate(workload, provider)

    def test_extra_job_detected(self, workload, provider):
        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        plan = TieringPlan(
            placements={**plan.placements, "ghost": Placement(tier=Tier.PERS_SSD, capacity_gb=1.0)}
        )
        with pytest.raises(PlanError, match="extra"):
            plan.validate(workload, provider)

    def test_eq3_capacity_violation_detected(self, workload, provider):
        plan = TieringPlan(
            placements={
                "a": Placement(tier=Tier.PERS_SSD, capacity_gb=10.0),  # << footprint
                "b": Placement(tier=Tier.PERS_SSD, capacity_gb=51.0),
            }
        )
        with pytest.raises(PlanError, match="Eq. 3"):
            plan.validate(workload, provider)

    def test_placement_lookup_missing(self, workload):
        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        with pytest.raises(PlanError):
            plan.placement("nope")

    def test_job_ids(self, workload):
        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        assert set(plan.job_ids) == {"a", "b"}


class TestSerialization:
    def test_round_trip(self, workload):
        plan = TieringPlan.exact_fit(
            workload, {"a": Tier.EPH_SSD, "b": Tier.OBJ_STORE}
        )
        back = TieringPlan.from_dict(plan.to_dict())
        assert back.placements == plan.placements

    def test_dict_is_json_compatible(self, workload):
        import json

        plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
        text = json.dumps(plan.to_dict())
        back = TieringPlan.from_dict(json.loads(text))
        assert back.tier_of("a") is Tier.PERS_SSD

    def test_bad_header_rejected(self):
        with pytest.raises(PlanError, match="tiering-plan"):
            TieringPlan.from_dict({"version": 2, "kind": "tiering-plan"})

    def test_bad_tier_rejected(self):
        with pytest.raises(PlanError, match="bad tier"):
            TieringPlan.from_dict({
                "version": 1, "kind": "tiering-plan",
                "placements": {"a": {"tier": "tape", "capacity_gb": 1.0}},
            })

    def test_bad_capacity_rejected(self):
        with pytest.raises(PlanError, match="capacity"):
            TieringPlan.from_dict({
                "version": 1, "kind": "tiering-plan",
                "placements": {"a": {"tier": "persSSD", "capacity_gb": "much"}},
            })

    def test_cli_plan_out_writes_loadable_file(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "plan.json"
        assert main(["plan", "--workload", "small", "--vms", "5",
                     "--iterations", "50", "--out", str(out)]) == 0
        back = TieringPlan.from_dict(json.loads(out.read_text()))
        assert len(back.job_ids) == 16
