"""SLO burn-rate engine: ring sums, burn math, multi-window alerts."""

from __future__ import annotations

import random

import pytest

from repro.obs.events import global_events
from repro.obs.slo import DEFAULT_WINDOWS, SLOEngine, SLOObjectives, SLOTracker, _BucketRing


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


WINDOWS = (("10s", 10), ("1m", 60), ("5m", 300))


def make_tracker(clock, **objective_kwargs):
    defaults = dict(
        availability_target=0.99,
        latency_threshold_ms=100.0,
        latency_target=0.9,
        alert_burn=10.0,
        alert_burn_long=2.0,
        alert_cooldown_seconds=60.0,
    )
    defaults.update(objective_kwargs)
    return SLOTracker(
        "query", SLOObjectives(**defaults), windows=WINDOWS, clock=clock
    )


class TestObjectives:
    @pytest.mark.parametrize("field", ["availability_target", "latency_target"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.5])
    def test_targets_must_be_a_fraction(self, field, value):
        with pytest.raises(ValueError):
            SLOObjectives(**{field: value})

    def test_default_windows_are_sorted_short_to_long(self):
        labels = [label for label, _ in DEFAULT_WINDOWS]
        seconds = [s for _, s in DEFAULT_WINDOWS]
        assert labels == ["1m", "5m", "1h"]
        assert seconds == sorted(seconds)


class TestBurnMath:
    def test_empty_windows_burn_zero(self):
        tracker = make_tracker(FakeClock())
        burns = tracker.burn_rates()
        assert all(b == 0.0 for b in burns["availability"].values())
        assert all(b == 0.0 for b in burns["latency"].values())

    def test_availability_burn_is_bad_fraction_over_budget(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        for _ in range(98):
            tracker.record(True, 0.010)
        for _ in range(2):
            tracker.record(False, 0.010)
        burns = tracker.burn_rates()
        # 2% failures against a 1% budget: burn 2.0 in every live window.
        assert burns["availability"]["10s"] == pytest.approx(2.0)
        assert burns["availability"]["1m"] == pytest.approx(2.0)

    def test_latency_burn_counts_slow_successes_over_good_only(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        for _ in range(30):
            tracker.record(True, 0.010)
        for _ in range(10):
            tracker.record(True, 0.500)  # slow but ok
        for _ in range(60):
            tracker.record(False, 0.500)  # failures never count as slow
        burns = tracker.burn_rates()
        # 10 slow of 40 good against a 10% budget: burn 2.5.
        assert burns["latency"]["10s"] == pytest.approx(2.5)

    def test_old_traffic_ages_out_of_short_windows(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        tracker.record(False, 0.010)
        clock.advance(30.0)
        burns = tracker.burn_rates()
        assert burns["availability"]["10s"] == 0.0
        assert burns["availability"]["1m"] > 0.0

    def test_ring_lap_does_not_resurrect_stale_buckets(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        tracker.record(False, 0.010)
        clock.advance(300.0)  # exactly one full lap of the longest window
        tracker.record(True, 0.010)
        burns = tracker.burn_rates()
        # The lapped failure bucket was overwritten, not double counted.
        assert burns["availability"]["5m"] == 0.0

    def test_snapshot_totals_and_attainment(self):
        tracker = make_tracker(FakeClock())
        for _ in range(8):
            tracker.record(True, 0.010)
        tracker.record(True, 0.500)
        tracker.record(False, 0.010)
        snapshot = tracker.snapshot()
        assert snapshot["total"] == 10
        assert snapshot["errors"] == 1
        assert snapshot["slow"] == 1
        assert snapshot["availability"] == pytest.approx(0.9)
        assert snapshot["latency_attainment"] == pytest.approx(8 / 9)
        assert snapshot["objectives"]["latency_threshold_ms"] == 100.0


def slo_burn_events():
    return [e for e in global_events().tail(64) if e["kind"] == "slo_burn"]


class TestMultiWindowAlert:
    def test_alert_needs_short_and_long_window_burning(self):
        clock = FakeClock()
        tracker = make_tracker(clock, alert_burn=5.0)
        before = len(slo_burn_events())
        # One failure in 10 requests = 10% bad = burn ~10 on a 1% budget
        # in both the 10s and 1m windows — past the 5.0 alert threshold.
        for _ in range(9):
            tracker.record(True, 0.010)
        tracker.record(False, 0.010)
        events = slo_burn_events()[before:]
        assert len(events) == 1
        event = events[0]
        assert event["op"] == "query"
        assert event["objective"] == "availability"
        assert event["burn_short"] == pytest.approx(10.0, rel=1e-3)
        assert event["window_short"] == "10s"
        assert event["window_long"] == "1m"

    def test_short_spike_alone_does_not_alert(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        # Dilute the 1m window with old successes so only 10s burns hot.
        for _ in range(400):
            tracker.record(True, 0.010)
        clock.advance(30.0)
        before = len(slo_burn_events())
        tracker.record(False, 0.010)
        burns = tracker.burn_rates()
        assert burns["availability"]["10s"] >= 10.0
        assert burns["availability"]["1m"] < 2.0
        assert len(slo_burn_events()) == before

    def test_cooldown_suppresses_repeat_alerts(self):
        clock = FakeClock()
        tracker = make_tracker(clock, alert_cooldown_seconds=60.0)
        before = len(slo_burn_events())
        for _ in range(5):
            tracker.record(False, 0.010)
        assert len(slo_burn_events()) == before + 1
        assert tracker.snapshot()["alerts"] == 1
        clock.advance(61.0)
        tracker.record(False, 0.010)
        assert len(slo_burn_events()) == before + 2
        assert tracker.snapshot()["alerts"] == 2


class TestRecordCost:
    """``record`` is O(1) amortised: it never sums a window, least of all 1 h."""

    def test_record_never_reads_the_hour_window(self):
        read: list[int] = []

        class SpyRing(_BucketRing):
            def sums(self, now_second, window):
                read.extend(range(now_second - window + 1, now_second + 1))
                return super().sums(now_second, window)

        clock = FakeClock()
        tracker = SLOTracker("query", windows=DEFAULT_WINDOWS, clock=clock)
        tracker._ring = SpyRing(DEFAULT_WINDOWS[-1][1])
        for step in range(2000):
            at = int(clock.now)
            tracker.record(step % 7 != 0, 0.010)
            # Only the few seconds that slid out of the 1m and 5m windows
            # since the last request (1.7 s ago) are read.
            assert all(at - 302 <= second <= at - 60 for second in read)
            assert len(read) <= 6
            read.clear()
            clock.advance(1.7)
        assert tracker.burn_rates()["availability"]["1h"] > 0  # the ring still has the hour

    def test_running_sums_equal_the_ring(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        rng = random.Random(5)
        for _ in range(3000):
            clock.advance(rng.choice([0.0, 0.0, 0.3, 1.0, 7.0, 45.0, 400.0]))
            tracker.record(rng.random() > 0.1, rng.choice([0.01, 0.5]))
            for sums, (_label, seconds) in zip(tracker._alert_sums, WINDOWS):
                assert tuple(sums) == tracker._ring.sums(int(clock.now), seconds)


class TestEngine:
    def test_snapshot_skips_idle_ops(self):
        clock = FakeClock()
        engine = SLOEngine(windows=WINDOWS, clock=clock)
        engine.record("query", True, 0.010)
        engine.record("unknown-op", True, 0.010)  # silently ignored
        snapshot = engine.snapshot()
        assert set(snapshot) == {"query"}

    def test_per_op_objectives(self):
        clock = FakeClock()
        engine = SLOEngine(
            {"update": SLOObjectives(latency_threshold_ms=5.0)},
            windows=WINDOWS,
            clock=clock,
        )
        engine.record("update", True, 0.010)
        engine.record("query", True, 0.010)
        snapshot = engine.snapshot()
        assert snapshot["update"]["slow"] == 1  # 10ms > 5ms threshold
        assert snapshot["query"]["slow"] == 0  # default 250ms threshold

    def test_sync_gauges_names(self):
        class Gauges:
            def __init__(self):
                self.values = {}

            def observe_gauge(self, name, value):
                self.values[name] = value

        clock = FakeClock()
        engine = SLOEngine(windows=WINDOWS, clock=clock)
        for _ in range(99):
            engine.record("query", True, 0.010)
        engine.record("query", False, 0.010)
        gauges = Gauges()
        engine.sync_gauges(gauges)
        # 1% bad against the default 0.1% budget: burn 10.
        assert gauges.values["slo_query_availability_burn_10s"] == pytest.approx(10.0)
        assert "slo_update_latency_burn_5m" in gauges.values
