"""Metrics registry: instruments, snapshots, merge, exposition."""

import math
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    snapshot_delta,
    use_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(2.0, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3.0
        assert c.value(kind="b") == 1.0
        assert c.value(kind="never") == 0.0

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("x").inc(-1)

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("y", labelnames=("op",))
        with pytest.raises(ObservabilityError):
            c.inc()  # missing label
        with pytest.raises(ObservabilityError):
            c.inc(op="plan", extra="nope")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("taken")
        with pytest.raises(ObservabilityError):
            reg.gauge("taken")
        with pytest.raises(ObservabilityError):
            reg.counter("taken", labelnames=("other",))

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c", labelnames=("a",)) is reg.counter(
            "c", labelnames=("a",)
        )


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4.0


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus `le` is inclusive: an observation exactly on a
        # bound belongs to that bound's bucket.
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(0.5)
        h.observe(10.0)  # overflow -> +Inf bucket
        ((labels, series),) = h.samples()
        assert labels == {}
        assert series["counts"] == [2, 1, 0, 1]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(13.5)

    def test_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            h.observe(v)
        assert 0.0 < h.quantile(0.25) <= 1.0
        assert 2.0 < h.quantile(0.9) <= 4.0
        # above the last finite bound clamps to it
        h2 = reg.histogram("lat2", buckets=(1.0,))
        h2.observe(100.0)
        assert h2.quantile(0.99) == 1.0

    def test_empty_quantile_is_nan(self):
        reg = MetricsRegistry()
        assert math.isnan(reg.histogram("empty").quantile(0.5))

    def test_bad_buckets_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            reg.histogram("bad2", buckets=())

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestPrometheusExposition:
    def test_counter_and_gauge_format(self):
        reg = MetricsRegistry()
        reg.counter("cast_reqs_total", "Requests", labelnames=("op",)).inc(
            3, op="plan"
        )
        reg.gauge("cast_depth", "Queue depth").set(2)
        text = reg.to_prometheus()
        assert "# HELP cast_reqs_total Requests" in text
        assert "# TYPE cast_reqs_total counter" in text
        assert 'cast_reqs_total{op="plan"} 3' in text
        assert "# TYPE cast_depth gauge" in text
        assert "cast_depth 2" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("cast_lat_seconds", "Latency", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = reg.to_prometheus()
        assert 'cast_lat_seconds_bucket{le="1"} 1' in text
        assert 'cast_lat_seconds_bucket{le="2"} 2' in text
        assert 'cast_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "cast_lat_seconds_count 3" in text
        assert "# TYPE cast_lat_seconds histogram" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", labelnames=("v",)).inc(v='a"b\\c')
        text = reg.to_prometheus()
        assert 'v="a\\"b\\\\c"' in text

    def test_help_text_escaped(self):
        # 0.0.4 format: HELP escapes backslash and newline (a raw
        # newline would truncate the comment and corrupt the scrape).
        reg = MetricsRegistry()
        reg.counter("c", "path C:\\tmp\nsecond line").inc()
        text = reg.to_prometheus()
        assert "# HELP c path C:\\\\tmp\\nsecond line" in text
        assert "\nsecond line" not in text.replace("\\nsecond", "")

    def test_json_exposition_has_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(0.3)
        payload = reg.to_json()
        q = payload["h"]["values"][0]["quantiles"]
        assert set(q) == {"p50", "p95", "p99"}


class TestSnapshotMerge:
    def test_round_trip(self):
        a = MetricsRegistry()
        a.counter("c", labelnames=("k",)).inc(2, k="x")
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        a.gauge("g").set(7)

        b = MetricsRegistry()
        b.counter("c", labelnames=("k",)).inc(1, k="x")
        b.merge(a.snapshot())
        assert b.counter("c", labelnames=("k",)).value(k="x") == 3.0
        assert b.gauge("g").value() == 7.0
        h = b.get("h")
        assert isinstance(h, Histogram)
        ((_, series),) = h.samples()
        assert series["count"] == 1

    def test_merge_is_additive_for_histograms(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        b.merge(a.snapshot())
        ((_, series),) = b.get("h").samples()
        assert series["counts"] == [1, 1]
        assert series["count"] == 2

    def test_snapshot_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(5)
        before = reg.snapshot()
        c.inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.1)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["c"]["values"][0]["value"] == 2.0
        assert delta["h"]["values"][0]["value"]["count"] == 1
        # unchanged series drop out of the delta entirely
        c2 = MetricsRegistry()
        c2.merge(delta)
        assert c2.counter("c").value() == 2.0

    def test_snapshot_delta_clamps_counter_reset(self):
        """A source restart mid-scrape (shard respawn) zeroes its
        counters; the delta clamps to the new total, never negative."""
        old = MetricsRegistry()
        old.counter("c").inc(100)
        before = old.snapshot()
        restarted = MetricsRegistry()
        restarted.counter("c").inc(7)
        delta = snapshot_delta(before, restarted.snapshot())
        assert delta["c"]["values"][0]["value"] == 7.0

    def test_snapshot_delta_clamps_histogram_reset(self):
        old = MetricsRegistry()
        h = old.histogram("h", buckets=(1.0,))
        for _ in range(50):
            h.observe(0.5)
        before = old.snapshot()
        restarted = MetricsRegistry()
        restarted.histogram("h", buckets=(1.0,)).observe(2.0)
        delta = snapshot_delta(before, restarted.snapshot())
        value = delta["h"]["values"][0]["value"]
        assert value["count"] == 1
        assert value["counts"] == [0, 1]
        assert all(c >= 0 for c in value["counts"])
        # And the clamped delta still merges cleanly elsewhere.
        sink = MetricsRegistry()
        sink.merge(delta)
        ((_, series),) = sink.get("h").samples()
        assert series["count"] == 1

    def test_reset_keeps_instruments_and_collectors(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(4)
        reg.register_collector("m", lambda r: r.gauge("mirrored").set(1))
        reg.reset()
        assert c.value() == 0.0
        assert "mirrored" in reg.to_prometheus()  # collector still runs

    def test_reset_keeps_counter_series_at_zero(self):
        reg = MetricsRegistry()
        reg.counter("events_total", labelnames=("event",)).inc(0, event="eviction")
        reg.counter("events_total", labelnames=("event",)).inc(3, event="hit")
        reg.histogram("h").observe(0.5)
        reg.reset()
        body = reg.to_prometheus()
        assert 'events_total{event="eviction"} 0' in body
        assert 'events_total{event="hit"} 0' in body
        assert reg.get("h").samples() == []


def _worker_task(n: int) -> dict:
    """Simulate a pool worker: record into the process-global registry
    and ship the snapshot delta home (the solve_restart protocol)."""
    reg = get_registry()
    before = reg.snapshot()
    reg.counter("work_done_total").inc(n)
    reg.histogram("work_seconds", buckets=(1.0, 10.0)).observe(0.5 * n)
    return snapshot_delta(before, reg.snapshot())


class TestCrossProcessRollUp:
    def test_deltas_from_real_workers_merge(self):
        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for delta in pool.map(_worker_task, [1, 2, 3]):
                parent.merge(delta)
        assert parent.counter("work_done_total").value() == 6.0
        ((_, series),) = parent.get("work_seconds").samples()
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(3.0)

    def test_delta_excludes_preexisting_totals(self):
        # A worker that already had history only ships what the task
        # itself did — the parent can merge many tasks from one
        # process without double counting.
        with ProcessPoolExecutor(max_workers=1) as pool:
            first = pool.submit(_worker_task, 5).result()
            second = pool.submit(_worker_task, 1).result()
        assert first["work_done_total"]["values"][0]["value"] == 5.0
        assert second["work_done_total"]["values"][0]["value"] == 1.0


class TestAmbientRegistry:
    def test_use_registry_rebinds_and_restores(self):
        mine = MetricsRegistry()
        default = get_registry()
        with use_registry(mine):
            assert get_registry() is mine
            get_registry().counter("scoped").inc()
        assert get_registry() is default
        assert mine.counter("scoped").value() == 1.0
