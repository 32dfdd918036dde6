"""The SLO engine: objectives, burn windows, state machine, roll-up.

Everything here runs on a manual clock — explicit ``t=`` timestamps
into :meth:`SLOEngine.observe`/``evaluate`` — so the ok → warning →
page → ok cycle is deterministic and instant.
"""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    LATENCY_METRIC,
    REQUESTS_METRIC,
    BurnPolicy,
    Objective,
    SLOEngine,
    default_objectives,
    rollup_reports,
    worst_state,
)

# Small windows so test scenarios need seconds of simulated time, not
# hours: page on 14.4x over 10 s AND 60 s, warn on 6x over 30 s AND
# 120 s.
POLICY = BurnPolicy(
    fast_short_s=10.0, fast_long_s=60.0,
    slow_short_s=30.0, slow_long_s=120.0,
)

AVAIL = Objective("solve", ("plan", "plan_workflow"),
                  kind="availability", target=0.99)


def requests_snapshot(ok, err, op="plan"):
    """A registry-snapshot fragment with cumulative request counters."""
    return {
        REQUESTS_METRIC: {
            "kind": "counter",
            "values": [
                {"labels": {"op": op, "outcome": "ok"}, "value": ok},
                {"labels": {"op": op, "outcome": "error"}, "value": err},
            ],
        }
    }


def latency_snapshot(counts, bounds=(0.1, 1.0, 10.0), op="whatif"):
    """A snapshot fragment with a cumulative latency histogram."""
    return {
        LATENCY_METRIC: {
            "kind": "histogram",
            "buckets": list(bounds),
            "values": [
                {
                    "labels": {"op": op},
                    "value": {
                        "counts": list(counts),
                        "count": float(sum(counts)),
                        "sum": 0.0,
                    },
                }
            ],
        }
    }


class TestObjective:
    def test_budget_is_one_minus_target(self):
        assert AVAIL.budget == pytest.approx(0.01)

    def test_bad_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="kind"):
            Objective("x", ("plan",), kind="vibes")

    def test_target_must_be_a_fraction(self):
        with pytest.raises(ObservabilityError, match="target"):
            Objective("x", ("plan",), target=1.0)
        with pytest.raises(ObservabilityError, match="target"):
            Objective("x", ("plan",), target=0.0)

    def test_latency_needs_threshold(self):
        with pytest.raises(ObservabilityError, match="threshold"):
            Objective("x", ("plan",), kind="latency", target=0.95)

    def test_round_trip(self):
        obj = Objective("whatif", ("whatif",), kind="latency",
                        target=0.99, threshold_s=2.5)
        assert Objective.from_dict(obj.to_dict()) == obj

    def test_defaults_cover_the_serving_ops(self):
        names = {o.name for o in default_objectives()}
        assert names == {"solve", "whatif", "session_delta", "sweep"}


class TestWorstState:
    def test_ordering(self):
        assert worst_state([]) == "ok"
        assert worst_state(["ok", "warning"]) == "warning"
        assert worst_state(["warning", "page", "ok"]) == "page"


class TestStateMachine:
    def test_full_cycle_ok_warning_page_ok(self):
        """The acceptance-criteria cycle, on a unit clock."""
        engine = SLOEngine([AVAIL], policy=POLICY)
        seen = []
        engine.on_transition(lambda e: seen.append((e.old, e.new, e.at)))

        engine.observe(requests_snapshot(0, 0), t=0.0)
        assert engine.evaluate(t=0.0)["ops"]["solve"]["state"] == "ok"

        # 10% errors sustained over every window: burn 10x — above the
        # slow threshold (6) but under the fast one (14.4) -> warning.
        engine.observe(requests_snapshot(900, 100), t=121.0)
        report = engine.evaluate(t=121.0)
        assert report["ops"]["solve"]["state"] == "warning"
        assert report["state"] == "warning"

        # Total failure: burn 100x on both fast windows -> page.
        engine.observe(requests_snapshot(900, 1100), t=182.0)
        report = engine.evaluate(t=182.0)
        assert report["ops"]["solve"]["state"] == "page"
        burn = report["ops"]["solve"]["burn"]
        assert burn["fast_short"] >= POLICY.fast_burn
        assert burn["fast_long"] >= POLICY.fast_burn

        # Bleeding stops; once every window has slid past the incident
        # the state returns to ok.
        engine.observe(requests_snapshot(5900, 1100), t=303.0)
        report = engine.evaluate(t=303.0)
        assert report["ops"]["solve"]["state"] == "ok"

        assert [(old, new) for old, new, _ in seen] == [
            ("ok", "warning"), ("warning", "page"), ("page", "ok"),
        ]
        # The transition log in the report matches the callbacks.
        assert [(e["old"], e["new"]) for e in report["transitions"]] == [
            ("ok", "warning"), ("warning", "page"), ("page", "ok"),
        ]

    def test_short_window_alone_cannot_page(self):
        """A burst inside the fast window does not page while the long
        window is still diluted — the multi-window AND."""
        engine = SLOEngine([AVAIL], policy=POLICY)
        engine.observe(requests_snapshot(0, 0), t=0.0)
        # A long healthy stretch first.
        engine.observe(requests_snapshot(10_000, 0), t=49.0)
        # Then 5 straight errors in the last 10 s: fast_short burns
        # hot, but fast_long is ~0.05% bad -> no page.
        engine.observe(requests_snapshot(10_000, 5), t=59.0)
        report = engine.evaluate(t=59.0)
        assert report["ops"]["solve"]["state"] == "ok"
        burn = report["ops"]["solve"]["burn"]
        assert burn["fast_short"] >= POLICY.fast_burn
        assert burn["fast_long"] < POLICY.fast_burn

    def test_min_events_suppresses_thin_alerts(self):
        policy = BurnPolicy(
            fast_short_s=10.0, fast_long_s=60.0,
            slow_short_s=30.0, slow_long_s=120.0, min_events=10,
        )
        engine = SLOEngine([AVAIL], policy=policy)
        engine.observe(requests_snapshot(0, 0), t=0.0)
        engine.observe(requests_snapshot(0, 3), t=61.0)  # 100% of 3 events
        assert engine.evaluate(t=61.0)["ops"]["solve"]["state"] == "ok"

    def test_latency_objective_pages_on_slow_requests(self):
        obj = Objective("whatif", ("whatif",), kind="latency",
                        target=0.95, threshold_s=1.0)
        engine = SLOEngine([obj], policy=POLICY)
        engine.observe(latency_snapshot([0, 0, 0]), t=0.0)
        # Everything lands in the 10 s bucket: 100% bad, burn 20x.
        engine.observe(latency_snapshot([0, 0, 50]), t=61.0)
        report = engine.evaluate(t=61.0)
        assert report["ops"]["whatif"]["state"] == "page"

    def test_latency_objective_happy_under_threshold(self):
        obj = Objective("whatif", ("whatif",), kind="latency",
                        target=0.95, threshold_s=1.0)
        engine = SLOEngine([obj], policy=POLICY)
        engine.observe(latency_snapshot([0, 0, 0]), t=0.0)
        engine.observe(latency_snapshot([40, 10, 0]), t=61.0)
        assert engine.evaluate(t=61.0)["ops"]["whatif"]["state"] == "ok"

    def test_ops_aggregate_into_one_logical_op(self):
        """plan and plan_workflow pool their events under "solve"."""
        engine = SLOEngine([AVAIL], policy=POLICY)
        snap0 = {REQUESTS_METRIC: {"kind": "counter", "values": []}}
        engine.observe(snap0, t=0.0)
        snap = {
            REQUESTS_METRIC: {
                "kind": "counter",
                "values": [
                    {"labels": {"op": "plan", "outcome": "ok"},
                     "value": 99.0},
                    {"labels": {"op": "plan_workflow", "outcome": "error"},
                     "value": 1.0},
                ],
            }
        }
        engine.observe(snap, t=61.0)
        report = engine.evaluate(t=61.0)
        entry = report["ops"]["solve"]["objectives"][0]
        assert entry["bad_fraction"]["fast_long"] == pytest.approx(0.01)

    def test_counter_reset_clamps_to_new_value(self):
        """A shard restart zeroes its counters mid-stream; the window
        delta must clamp to the new total, never go negative."""
        engine = SLOEngine([AVAIL], policy=POLICY)
        engine.observe(requests_snapshot(1000, 10), t=0.0)
        # Restarted server: totals fall. 50 ok + 0 errors since boot.
        engine.observe(requests_snapshot(50, 0), t=61.0)
        report = engine.evaluate(t=61.0)
        entry = report["ops"]["solve"]["objectives"][0]
        assert entry["events"]["fast_long"] == pytest.approx(50.0)
        assert entry["bad_fraction"]["fast_long"] == 0.0
        assert report["ops"]["solve"]["state"] == "ok"

    def test_non_monotonic_observation_rejected(self):
        engine = SLOEngine([AVAIL], policy=POLICY)
        engine.observe(requests_snapshot(1, 0), t=10.0)
        with pytest.raises(ObservabilityError, match="monotonic"):
            engine.observe(requests_snapshot(2, 0), t=9.0)

    def test_evaluate_before_observe_rejected(self):
        with pytest.raises(ObservabilityError, match="observe"):
            SLOEngine([AVAIL], policy=POLICY).evaluate()

    def test_injected_clock_drives_timestamps(self):
        ticks = iter([5.0, 7.0, 7.0])
        engine = SLOEngine([AVAIL], policy=POLICY,
                           clock=lambda: next(ticks))
        assert engine.observe(requests_snapshot(1, 0)) == 5.0
        report = engine.evaluate(requests_snapshot(2, 0))
        assert report["clock"] == 7.0

    def test_history_pruned_past_longest_window(self):
        engine = SLOEngine([AVAIL], policy=POLICY)
        for i in range(500):
            engine.observe(requests_snapshot(i, 0), t=float(i))
        # 120 s longest window + one boundary entry.
        assert len(engine._history) <= 123

    def test_evaluate_from_registry_snapshot(self):
        reg = MetricsRegistry()
        counter = reg.counter(REQUESTS_METRIC, labelnames=("op", "outcome"))
        counter.inc(3, op="plan", outcome="ok")
        engine = SLOEngine([AVAIL], policy=POLICY)
        report = engine.evaluate(registry=reg, t=0.0)
        assert report["ops"]["solve"]["state"] == "ok"


class TestMetricsMirror:
    def test_report_mirrored_as_cast_slo_series(self):
        reg = MetricsRegistry()
        engine = SLOEngine([AVAIL], policy=POLICY, registry=reg)
        engine.observe(requests_snapshot(0, 0), t=0.0)
        engine.observe(requests_snapshot(0, 100), t=61.0)
        engine.evaluate(t=61.0)

        snap = reg.snapshot()
        states = {
            s["labels"]["op"]: s["value"]
            for s in snap["cast_slo_state"]["values"]
        }
        assert states["solve"] == 2  # page
        burns = {
            (s["labels"]["op"], s["labels"]["window"]): s["value"]
            for s in snap["cast_slo_burn_rate"]["values"]
        }
        assert burns[("solve", "fast_short")] >= POLICY.fast_burn
        transitions = {
            (s["labels"]["op"], s["labels"]["to"]): s["value"]
            for s in snap["cast_slo_transitions_total"]["values"]
        }
        assert transitions[("solve", "page")] == 1

    def test_mirror_is_inert_before_first_evaluation(self):
        reg = MetricsRegistry()
        SLOEngine([AVAIL], policy=POLICY, registry=reg)
        snap = reg.snapshot()
        assert snap.get("cast_slo_state", {}).get("values", []) == []


class TestRollup:
    def _report(self, state, burn=1.0, budget=0.9):
        return {
            "scope": "server",
            "state": state,
            "ops": {
                "solve": {
                    "state": state,
                    "burn": {"fast_short": burn},
                    "budget_remaining": budget,
                },
            },
        }

    def test_worst_shard_wins(self):
        rollup = rollup_reports({
            "s0": self._report("ok", burn=0.5, budget=0.99),
            "s1": self._report("page", burn=50.0, budget=0.0),
            "router": self._report("ok", burn=0.1),
        })
        assert rollup["scope"] == "fleet"
        assert rollup["state"] == "page"
        solve = rollup["ops"]["solve"]
        assert solve["state"] == "page"
        assert solve["shards"] == {"s0": "ok", "s1": "page", "router": "ok"}
        assert solve["burn"]["fast_short"] == 50.0
        assert solve["budget_remaining"] == 0.0
        assert rollup["shards"]["s1"] == "page"

    def test_all_ok_rolls_up_ok(self):
        rollup = rollup_reports({
            "s0": self._report("ok"), "s1": self._report("ok"),
        })
        assert rollup["state"] == "ok"
        assert rollup["ops"]["solve"]["state"] == "ok"

    def test_empty_fleet_is_ok(self):
        assert rollup_reports({})["state"] == "ok"
