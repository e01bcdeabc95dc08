"""Tests for the metrics registry: kinds, keys, snapshots, merging."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metric_key,
    split_key,
)
from repro.obs.observation import (
    Observation,
    current,
    observing,
    suppressed,
)


class TestMetricKinds:
    def test_counter_merges_by_addition(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge_dict(b.to_dict())
        assert a.value == 7

    def test_gauge_tracks_high_watermark(self):
        g = Gauge()
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.max == 5

    def test_gauge_merge_is_order_independent(self):
        a, b = Gauge(), Gauge()
        a.set(3)
        b.set(7)
        b.set(1)
        forward, backward = Gauge(), Gauge()
        forward.merge_dict(a.to_dict())
        forward.merge_dict(b.to_dict())
        backward.merge_dict(b.to_dict())
        backward.merge_dict(a.to_dict())
        assert forward.to_dict() == backward.to_dict()
        assert forward.max == 7

    def test_histogram_buckets_have_inclusive_upper_edges(self):
        h = Histogram((10, 20))
        for v in (5, 10, 11, 20, 21):
            h.observe(v)
        assert h.counts == [2, 2, 1]  # <=10, <=20, overflow
        assert h.count == 5
        assert h.sum == 67

    def test_histogram_merge_requires_equal_bounds(self):
        h = Histogram((1, 2))
        with pytest.raises(ValueError):
            h.merge_dict(Histogram((1, 3)).to_dict())

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram((3, 1))

    def test_histogram_quantile_reports_covering_bucket(self):
        h = Histogram((10, 20, 30))
        for v in (1, 1, 1, 25):
            h.observe(v)
        assert h.quantile(0.5) == 10
        assert h.quantile(1.0) == 30
        assert Histogram((1,)).quantile(0.5) == 0.0


class TestMetricKeys:
    def test_unlabeled_key_is_the_name(self):
        assert metric_key("mc.requests") == "mc.requests"

    def test_labeled_round_trip(self):
        key = metric_key("dram.bank.acts", subch=1, bank=17)
        assert key == "dram.bank.acts{subch=1,bank=17}"
        assert split_key(key) == ("dram.bank.acts",
                                  {"subch": 1, "bank": 17})

    def test_split_unlabeled(self):
        assert split_key("abo.alerts") == ("abo.alerts", {})


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x", (1, 2))

    def test_snapshot_is_sorted_and_json_able(self):
        import json
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.histogram("h", (1, 2)).observe(1)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must not raise

    def test_merge_snapshot_creates_and_accumulates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(1)
        b.counter("n").inc(2)
        b.gauge("g").set(9)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["n"]["value"] == 3
        assert snap["g"]["max"] == 9

    def test_merge_snapshots_skips_none(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(5)
        merged = merge_snapshots([None, reg.snapshot(), None,
                                  reg.snapshot()])
        assert merged["n"]["value"] == 10

    def test_merge_is_order_independent(self):
        snaps = []
        for value in (1, 10, 100):
            reg = MetricsRegistry()
            reg.counter("c").inc(value)
            reg.gauge("g").set(value)
            reg.histogram("h", (50,)).observe(value)
            snaps.append(reg.snapshot())
        assert merge_snapshots(snaps) == merge_snapshots(snaps[::-1])


class TestCollectingScope:
    def test_nested_scopes_merge_outward(self):
        with observing(metrics=True) as outer:
            with observing(metrics=True) as inner:
                inner.metrics.counter("n").inc(2)
            outer.metrics.counter("n").inc(1)
        assert outer.metrics.snapshot()["n"]["value"] == 3

    def test_install_restored_after_scope(self):
        previous = current()
        with observing(metrics=True) as outer:
            with observing(metrics=True) as inner:
                assert current() is inner
            assert current() is outer
        assert current() is previous

    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert Observation.from_env().metrics is None
        assert Observation.from_env(metrics=True).metrics is not None
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert Observation.from_env().metrics is not None
        monkeypatch.setenv("REPRO_METRICS", "0")
        assert Observation.from_env().metrics is None


class TestSuppressed:
    def test_suppressed_hides_installed_sinks(self):
        with observing(metrics=True, trace=True, profile=True) as outer:
            with suppressed():
                hidden = current()
                assert hidden.metrics is None
                assert hidden.trace is None
                assert hidden.spans is None
                assert hidden.profile is None
            assert current() is outer
