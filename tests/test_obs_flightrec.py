"""The flight recorder: ring, slowest-K exemplars, postmortem bundles."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.flightrec import (
    BUNDLE_SCHEMA,
    FlightRecord,
    FlightRecorder,
    build_bundle,
    dump_bundle,
    load_bundle,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import LATENCY_METRIC


def fill(recorder, latencies, op="plan", **kwargs):
    for i, lat in enumerate(latencies):
        recorder.record(op=op, latency_s=lat, trace_id=f"t{i}",
                        t=float(i), **kwargs)


class TestRing:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ObservabilityError, match="capacity"):
            FlightRecorder(capacity=0)
        with pytest.raises(ObservabilityError, match="exemplars"):
            FlightRecorder(exemplars=0)

    def test_ring_wraps_but_recorded_keeps_counting(self):
        rec = FlightRecorder(capacity=4)
        fill(rec, [0.1] * 10)
        assert len(rec) == 4
        assert rec.stats()["recorded"] == 10
        # Oldest-first, and only the newest four survive.
        assert [r.trace_id for r in rec.records()] == ["t6", "t7", "t8", "t9"]
        assert rec.stats() == {
            "recorded": 10, "size": 4, "capacity": 4, "exemplar_k": 8,
        }

    def test_records_filter_by_op_and_count(self):
        rec = FlightRecorder()
        rec.record(op="plan", latency_s=0.1)
        rec.record(op="whatif", latency_s=0.2)
        rec.record(op="plan", latency_s=0.3)
        assert [r.latency_s for r in rec.records(op="plan")] == [0.1, 0.3]
        assert [r.latency_s for r in rec.records(n=1)] == [0.3]

    def test_record_round_trip(self):
        rec = FlightRecorder().record(
            op="plan", latency_s=1.5, ok=False, error="WorkloadError",
            tenant="acme", shard="s1", trace_id="abc", t=7.0,
        )
        assert FlightRecord.from_dict(rec.to_dict()) == rec


class TestExemplars:
    def test_slowest_k_survive_the_ring(self):
        """Exemplars outlive ring eviction: a slow request stays an
        exemplar even after hundreds of fast ones push it out."""
        rec = FlightRecorder(capacity=8, exemplars=2)
        rec.record(op="plan", latency_s=9.0, trace_id="slowest")
        fill(rec, [0.01] * 50)
        rec.record(op="plan", latency_s=3.0, trace_id="second")
        slow = rec.slowest(op="plan")
        assert [r.trace_id for r in slow] == ["slowest", "second"]
        assert all(r.trace_id != "slowest" for r in rec.records())

    def test_slowest_across_ops(self):
        rec = FlightRecorder(exemplars=4)
        rec.record(op="plan", latency_s=2.0, trace_id="a")
        rec.record(op="whatif", latency_s=5.0, trace_id="b")
        assert [r.trace_id for r in rec.slowest(k=1)] == ["b"]

    def test_attach_exemplars_to_metrics_json(self):
        reg = MetricsRegistry()
        hist = reg.histogram(LATENCY_METRIC, "latency", labelnames=("op",))
        hist.observe(0.2, op="plan")
        hist.observe(0.2, op="ping")

        rec = FlightRecorder(exemplars=2)
        rec.record(op="plan", latency_s=0.2, trace_id="tr-1", tenant="acme")
        payload = rec.attach_exemplars(reg.to_json())
        by_op = {
            s["labels"]["op"]: s
            for s in payload[LATENCY_METRIC]["values"]
        }
        assert [e["trace_id"] for e in by_op["plan"]["exemplars"]] == ["tr-1"]
        assert by_op["plan"]["exemplars"][0]["tenant"] == "acme"
        # Ops the recorder never saw stay unannotated.
        assert "exemplars" not in by_op["ping"]

    def test_attach_is_a_no_op_without_the_metric(self):
        rec = FlightRecorder()
        rec.record(op="plan", latency_s=0.1)
        assert rec.attach_exemplars({"other": 1}) == {"other": 1}

    def test_bind_metrics_mirrors_ring_state(self):
        reg = MetricsRegistry()
        rec = FlightRecorder(capacity=2, registry=reg)
        fill(rec, [0.1] * 3)
        snap = reg.snapshot()
        assert snap["cast_flightrec_records_total"]["values"][0]["value"] == 3
        ring = {
            s["labels"]["stat"]: s["value"]
            for s in snap["cast_flightrec_ring"]["values"]
        }
        assert ring == {"size": 2, "capacity": 2}


class TestBundles:
    def _bundle(self):
        reg = MetricsRegistry()
        reg.counter("cast_op_requests_total", labelnames=("op", "outcome"))\
            .inc(7, op="plan", outcome="ok")
        reg.histogram(LATENCY_METRIC, "latency", labelnames=("op",))\
            .observe(1.25, op="plan")
        rec = FlightRecorder()
        rec.record(op="plan", latency_s=1.25, trace_id="deadbeef", t=1.0)
        return build_bundle(
            registry=reg,
            recorder=rec,
            slo_report={"scope": "server", "state": "ok", "ops": {}},
            config={"role": "planner", "port": 4815},
            reason="unit-test",
        )

    def test_round_trip_preserves_metrics_and_exemplars(self, tmp_path):
        """The acceptance criterion: dump -> load gives back the same
        metric values and the same exemplar trace ids."""
        bundle = self._bundle()
        path = str(tmp_path / "dump.jsonl")
        assert dump_bundle(path, bundle) == path
        loaded = load_bundle(path)

        assert loaded["meta"]["schema"] == BUNDLE_SCHEMA
        assert loaded["meta"]["reason"] == "unit-test"
        assert loaded["config"] == {"role": "planner", "port": 4815}
        assert loaded["slo"]["state"] == "ok"
        # Metric values survive exactly (JSON-exact, not approx).
        assert loaded["metrics"]["cast_op_requests_total"] == \
            bundle["metrics"]["cast_op_requests_total"]
        series = loaded["metrics"][LATENCY_METRIC]["values"][0]
        assert [e["trace_id"] for e in series["exemplars"]] == ["deadbeef"]
        assert loaded["exemplars"]["plan"][0]["trace_id"] == "deadbeef"
        assert [r["trace_id"] for r in loaded["records"]] == ["deadbeef"]

    def test_bundle_file_is_one_section_per_line(self, tmp_path):
        path = str(tmp_path / "dump.jsonl")
        dump_bundle(path, self._bundle())
        with open(path) as fh:
            sections = [json.loads(line)["section"] for line in fh]
        assert sections[:5] == ["meta", "config", "metrics", "slo",
                                "exemplars"]
        assert sections.count("record") == 1

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"section": "mystery", "data": 1}\n')
        with pytest.raises(ObservabilityError, match="mystery"):
            load_bundle(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"section": "meta", "data": {"schema": 99}}\n')
        with pytest.raises(ObservabilityError, match="schema"):
            load_bundle(str(path))

    def test_garbage_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"section": "meta", "data": {"schema": 1}}\n{oops\n')
        with pytest.raises(ObservabilityError, match=":2:"):
            load_bundle(str(path))

    def test_empty_bundle_builds_and_round_trips(self, tmp_path):
        bundle = build_bundle(reason="bare")
        path = str(tmp_path / "bare.jsonl")
        dump_bundle(path, bundle)
        loaded = load_bundle(path)
        assert loaded["metrics"] == {}
        assert loaded["records"] == []
