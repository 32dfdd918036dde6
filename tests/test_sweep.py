"""The cross-catalog sweep engine: grid, transfer, exactness, fan-out."""

import numpy as np
import pytest

from repro.cloud import resolve_provider
from repro.core.solver import rebase_plan
from repro.errors import SolverError
from repro.sweep import (
    SweepConfig,
    SweepEngine,
    plan_grid,
)
from repro.workloads.swim import synthesize_small_workload

PROVIDERS = ("google", "aws", "azure")


def small(n_jobs=6, name="sweep-w", seed=7):
    return synthesize_small_workload(
        n_jobs=n_jobs,
        total_dataset_gb=600.0,
        rng=np.random.default_rng(seed),
        name=name,
    )


def tiny_config(**overrides):
    base = dict(n_vms=6, iterations=150, seed=11)
    base.update(overrides)
    return SweepConfig(**base)


def grid(providers=PROVIDERS, workloads=None, knobs=({}, {}, {})):
    return plan_grid(
        providers,
        workloads or [small()],
        knobs,
        n_vms=6,
        iterations=150,
        seed=11,
        use_castpp=True,
        backend="anneal",
        replicas=8,
    )


class TestGrid:
    def test_row_major_and_deterministic(self):
        pts = grid()
        assert len(pts) == 9
        assert [p.index for p in pts] == list(range(9))
        again = grid()
        assert pts == again

    def test_donor_dag(self):
        pts = grid()
        by_cell = {(p.catalog_idx, p.knob_idx): p for p in pts}
        # Reference catalog's first knob is the only donor-less anchor.
        assert by_cell[(0, 0)].donor is None
        # Knob points transfer from the previous knob on the same catalog.
        assert by_cell[(0, 1)].donor == by_cell[(0, 0)].index
        assert by_cell[(2, 2)].donor == by_cell[(2, 1)].index
        assert not by_cell[(0, 1)].cross_catalog
        # Non-reference anchors transfer cross-catalog from catalog 0.
        assert by_cell[(1, 0)].donor == by_cell[(0, 0)].index
        assert by_cell[(1, 0)].cross_catalog

    def test_waves_respect_donors(self):
        pts = grid()
        for p in pts:
            if p.donor is not None:
                assert pts[p.donor].wave < p.wave

    def test_crn_seeds_shared_across_catalogs(self):
        pts = grid()
        by_cell = {(p.catalog_idx, p.knob_idx): p for p in pts}
        for k in range(3):
            seeds = {by_cell[(c, k)].seed for c in range(3)}
            assert len(seeds) == 1, "one seed per (workload, knob) cell"
        # ...and knob cells draw distinct seeds (cell 0 = request seed).
        assert by_cell[(0, 0)].seed == 11
        assert len({by_cell[(0, k)].seed for k in range(3)}) == 3

    def test_knob_overrides_and_validation(self):
        pts = grid(knobs=({}, {"n_vms": 9, "iterations": 77}))
        assert pts[1].n_vms == 9 and pts[1].iterations == 77
        with pytest.raises(SolverError):
            grid(knobs=({"n_vms": 0},))
        with pytest.raises(SolverError):
            grid(providers=())
        with pytest.raises(SolverError):
            plan_grid(
                PROVIDERS, [], [{}], n_vms=6, iterations=150, seed=11,
                use_castpp=True, backend="anneal", replicas=8,
            )

    def test_fingerprints_unique_per_cell(self):
        pts = grid()
        assert len({p.fingerprint for p in pts}) == len(pts)


class TestTransferPlan:
    def test_roundtrip_same_catalog_is_identity(self):
        from repro import plan_workload

        w = small()
        prov = resolve_provider("google")
        donor = plan_workload(w, n_vms=6, provider=prov, iterations=100).plan
        moved = rebase_plan(donor, w, prov, reuse_aware=True)
        assert moved.placements == donor.placements

    def test_cross_catalog_transfer_validates(self):
        from repro import plan_workload

        w = small()
        donor = plan_workload(
            w, n_vms=6, provider=resolve_provider("google"), iterations=100
        ).plan
        for name in ("aws", "azure"):
            prov = resolve_provider(name)
            moved = rebase_plan(donor, w, prov, reuse_aware=True)
            moved.validate(w, prov)  # must not raise
            for job in w.jobs:
                p = moved.placement(job.job_id)
                assert p.tier == donor.placement(job.job_id).tier
                assert p.capacity_gb + 1e-9 >= job.footprint_gb


class TestEngine:
    @pytest.fixture(scope="class")
    def sweep(self):
        engine = SweepEngine(
            PROVIDERS, [small()], knobs=[{}, {}, {}], config=tiny_config()
        )
        return engine.run()

    def test_every_point_has_bit_parity(self, sweep):
        assert all(r.parity_ok for r in sweep.points)

    def test_modes_cover_anchor_and_transfers(self, sweep):
        # One cold anchor; every other point either warms or falls back.
        assert sweep.modes.get("cold", 0) >= 1
        assert sum(sweep.modes.values()) == len(sweep.points)
        assert (
            sweep.modes.get("warm", 0) + sweep.modes.get("fallback", 0)
            == len(sweep.points) - sweep.modes.get("cold", 0)
            - sweep.modes.get("dedup", 0)
        )

    def test_warm_points_clear_the_seed_bar(self, sweep):
        for r in sweep.points:
            if r.mode == "warm":
                assert r.transfer_utility is not None
                # Accepted transfer, then annealed: never worse than it.
                assert r.utility >= r.transfer_utility * (1 - 1e-12)

    def test_ranking_sorted_with_relative(self, sweep):
        (block,) = sweep.ranking()
        utils = [e["mean_utility"] for e in block["ranking"]]
        assert utils == sorted(utils, reverse=True)
        assert block["ranking"][0]["relative"] == pytest.approx(1.0)

    def test_to_dict_shape(self, sweep):
        d = sweep.to_dict()
        assert d["kind"] == "sweep"
        assert d["parity_ok"] is True
        assert d["n_points"] == len(sweep.points)
        assert {p["mode"] for p in d["points"]} == set(sweep.modes)
        assert "plan" not in d["points"][0]
        assert "plan" in sweep.to_dict(include_plans=True)["points"][0]

    def test_duplicate_catalogs_dedup(self):
        engine = SweepEngine(
            ("google", "google"), [small()], knobs=[{}], config=tiny_config()
        )
        result = engine.run()
        assert result.modes == {"cold": 1, "dedup": 1}
        a, b = result.points
        assert b.utility == a.utility
        assert b.plan.placements == a.plan.placements
        assert b.solve_s == 0.0

    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(SolverError, match="duplicate workload name"):
            SweepEngine(PROVIDERS, [small(), small()], config=tiny_config())

    def test_cold_sweep_never_transfers(self):
        engine = SweepEngine(
            ("google", "aws"), [small()], knobs=[{}, {}],
            config=tiny_config(warm=False),
        )
        result = engine.run()
        assert set(result.modes) == {"cold"}
        assert all(r.transfer_utility is None for r in result.points)

    def test_warm_quality_tracks_cold(self):
        warm = SweepEngine(
            PROVIDERS, [small()], knobs=[{}, {}], config=tiny_config()
        ).run()
        cold = SweepEngine(
            PROVIDERS, [small()], knobs=[{}, {}],
            config=tiny_config(warm=False),
        ).run()
        for rw, rc in zip(warm.points, cold.points):
            assert rw.utility >= rc.utility * 0.95

    def test_serial_and_pooled_runs_identical(self):
        kwargs = dict(
            providers=("google", "aws"),
            workloads=[small()],
            knobs=[{}, {}],
            config=tiny_config(),
        )
        serial = SweepEngine(**kwargs).run()
        pooled = SweepEngine(**kwargs, workers=2).run()
        assert len(serial.points) == len(pooled.points)
        for rs, rp in zip(serial.points, pooled.points):
            assert rs.mode == rp.mode
            assert rs.utility == rp.utility  # bit-exact
            assert rs.plan.placements == rp.plan.placements

    def test_pooled_sweep_ships_spans_and_counters_home(self):
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.obs.tracing import span, trace_collector

        def observed(workers):
            reg = MetricsRegistry()
            trace_collector().clear()
            with use_registry(reg), span("test.sweep") as sp:
                SweepEngine(
                    PROVIDERS, [small(n_jobs=8)], knobs=[{"rep": 0}, {"rep": 1}],
                    config=tiny_config(iterations=60), workers=workers,
                ).run()
            spans = trace_collector().records(trace_id=sp.trace_id)
            counters = {
                name: entry["values"]
                for name, entry in reg.snapshot().items()
                if entry["kind"] == "counter"
                and name.startswith(("cast_solver_", "cast_sweep_"))
            }
            return [s.name for s in spans].count("solver.solve"), counters

        serial_solves, serial = observed(None)
        pooled_solves, pooled = observed(2)
        # 3 catalogs x 2 reps: every point is solved, and each solve's
        # span joins the caller's trace from whichever worker ran it.
        assert serial_solves == pooled_solves == 6
        assert "cast_solver_solves_total" in serial
        assert pooled == serial

    def test_metrics_recorded(self):
        from repro.obs.metrics import get_registry

        reg = get_registry()
        before = reg.counter("cast_sweep_runs_total", "Sweep grids executed").value()
        SweepEngine(("google",), [small()], config=tiny_config()).run()
        after = reg.counter("cast_sweep_runs_total", "Sweep grids executed").value()
        assert after == before + 1


class TestCrossCloudExperiment:
    def test_rows_cover_every_mix_and_provider(self):
        from repro.experiments import format_crosscloud, run_crosscloud

        rows = run_crosscloud(
            providers=("google", "aws"), n_jobs=4, n_vms=5,
            iterations=120, replications=1,
        )
        mixes = {r.mix for r in rows}
        assert mixes == {"balanced", "shuffle-heavy", "map-io-heavy", "cpu-heavy"}
        for mix in mixes:
            ranked = [r for r in rows if r.mix == mix]
            assert [r.rank for r in ranked] == [1, 2]
            assert ranked[0].relative == pytest.approx(1.0)
        text = format_crosscloud(rows)
        assert "balanced" in text and "vs best" in text
