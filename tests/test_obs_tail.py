"""Tail-based retention: token buckets, dynamic threshold, policy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.tail import LatencyThreshold, RetentionPolicy, TokenBucket


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_from_elapsed_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(0.5)  # 2 tokens/s * 0.5s = 1 token back
        assert not bucket.try_take(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        for _ in range(2):
            assert bucket.try_take(0.0)
        # A long idle period banks at most `burst` tokens.
        assert [bucket.try_take(1000.0) for _ in range(3)] == [True, True, False]

    def test_clock_going_backwards_is_harmless(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(10.0)
        assert not bucket.try_take(5.0)

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive_parameters(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate, burst)


class TestLatencyThreshold:
    def test_floor_decides_alone_while_warming(self):
        threshold = LatencyThreshold(100.0, min_samples=10)
        assert threshold.p99_ms() is None
        assert threshold.is_slow(0.2)  # 200ms >= 100ms floor
        assert not threshold.is_slow(0.05)

    def test_p99_gate_engages_after_min_samples(self):
        threshold = LatencyThreshold(1000.0, min_samples=100)
        for _ in range(99):
            threshold.observe(0.010)
        assert threshold.p99_ms() is None
        threshold.observe(0.010)
        p99 = threshold.p99_ms()
        assert p99 == pytest.approx(10.0)
        # Above the windowed p99 but far under the floor: still slow.
        assert threshold.is_slow(0.020)
        assert not threshold.is_slow(0.010)

    def test_floor_still_bites_with_a_fast_window(self):
        threshold = LatencyThreshold(50.0, min_samples=10)
        for _ in range(20):
            threshold.observe(0.001)
        assert threshold.is_slow(0.060)

    def test_window_is_a_ring(self):
        threshold = LatencyThreshold(10_000.0, window=100, min_samples=10)
        for _ in range(100):
            threshold.observe(1.0)
        for _ in range(100):  # the slow regime must age out entirely
            threshold.observe(0.001)
        assert threshold.p99_ms() == pytest.approx(1.0)


def sorted_window_p99_ms(window: list[float]) -> float:
    """The reference: sort the whole window, read the p99 index."""
    ordered = sorted(window)
    index = min(len(ordered) - 1, max(0, round(0.99 * len(ordered)) - 1))
    return ordered[index] * 1000.0


# Few distinct values (duplicates are the common case) mixed with arbitrary ones.
_latencies = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.001, 0.002, 0.5, 3.0]),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    max_size=400,
)


class TestP99MatchesSortedWindow:
    """The incrementally sorted window reads exactly what a full sort would."""

    @settings(max_examples=200, deadline=None)
    @given(
        samples=_latencies,
        window=st.integers(min_value=1, max_value=64),
        min_samples=st.integers(min_value=0, max_value=80),
    )
    def test_p99_ms(self, samples, window, min_samples):
        threshold = LatencyThreshold(5.0, window=window, min_samples=min_samples)
        recent: list[float] = []
        for sample in samples:
            threshold.observe(sample)
            recent = (recent + [sample])[-window:]  # the ring, as a plain list
            expected = (
                None if len(recent) < min_samples else sorted_window_p99_ms(recent)
            )
            assert threshold.p99_ms() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        samples=_latencies,
        window=st.integers(min_value=1, max_value=48),
        min_samples=st.integers(min_value=1, max_value=60),
    )
    def test_snapshot_slow_threshold(self, samples, window, min_samples):
        policy = make_policy(FakeClock(), slow_ms=250.0)
        policy.threshold = LatencyThreshold(250.0, window=window, min_samples=min_samples)
        recent: list[float] = []
        for sample in samples:
            policy.decide(sample)
            recent = (recent + [sample])[-window:]
            p99 = None if len(recent) < min_samples else sorted_window_p99_ms(recent)
            assert policy.snapshot()["slow_threshold_ms"] == (p99 or 250.0)

    def test_default_window_through_two_wraps(self):
        """The serving shape: 2,048 samples, p99 index 2,026, many ties."""
        rng = random.Random(99)
        threshold = LatencyThreshold(250.0)
        recent: list[float] = []
        for step in range(5000):
            sample = rng.choice([0.001, 0.002, 0.004]) if step % 3 else rng.random() / 100
            threshold.observe(sample)
            recent.append(sample)
            del recent[:-2048]
            if step % 7 == 0 or step > 4900:
                expected = None if len(recent) < 100 else sorted_window_p99_ms(recent)
                assert threshold.p99_ms() == expected

    def test_min_samples_boundary_and_wrap(self):
        threshold = LatencyThreshold(5.0, window=4, min_samples=4)
        for sample in (0.003, 0.001, 0.003):
            threshold.observe(sample)
        assert threshold.p99_ms() is None  # one short of min_samples
        threshold.observe(0.002)
        assert threshold.p99_ms() == sorted_window_p99_ms([0.003, 0.001, 0.003, 0.002])
        for sample in (0.004, 0.004, 0.0005):  # evicts 0.003, 0.001, 0.003
            threshold.observe(sample)
        assert threshold.p99_ms() == sorted_window_p99_ms([0.002, 0.004, 0.004, 0.0005])


def make_policy(clock, **kwargs):
    defaults = dict(
        slow_ms=100.0,
        normal_rate=0.0,
        clock=clock,
        rng=random.Random(7),
    )
    defaults.update(kwargs)
    return RetentionPolicy(**defaults)


class TestRetentionPolicy:
    def test_slow_query_is_retained(self):
        policy = make_policy(FakeClock())
        assert policy.decide(0.250) == ("slow",)
        assert policy.decide(0.010) == ()

    def test_error_and_degraded_are_retained(self):
        policy = make_policy(FakeClock())
        assert policy.decide(0.010, error=True) == ("error",)
        assert policy.decide(0.010, degraded=True) == ("error",)

    def test_errors_do_not_feed_the_latency_window(self):
        policy = make_policy(FakeClock(), slow_ms=10_000.0)
        # A storm of 10s timeouts must not drag the p99 up to 10s.
        for _ in range(200):
            policy.decide(10.0, error=True)
        assert policy.threshold.p99_ms() is None

    def test_rerouted_and_cache_stale(self):
        policy = make_policy(FakeClock())
        assert policy.decide(0.010, attempt=1) == ("rerouted",)
        assert policy.decide(0.010, cache_stale=True) == ("cache_stale",)

    def test_epoch_adjacent_window(self):
        policy = make_policy(FakeClock(), epoch_window_seconds=1.0)
        assert policy.decide(0.010, seconds_since_swap=0.5) == ("epoch_adjacent",)
        assert policy.decide(0.010, seconds_since_swap=2.0) == ()
        assert policy.decide(0.010, seconds_since_swap=None) == ()

    def test_multiple_categories_stack(self):
        policy = make_policy(FakeClock())
        kept = policy.decide(0.250, attempt=2, cache_stale=True)
        assert kept == ("slow", "rerouted", "cache_stale")

    def test_normal_reservoir_is_probabilistic(self):
        policy = make_policy(
            FakeClock(),
            normal_rate=0.5,
            category_rates={"normal": (1000.0, 1000.0)},
            rng=random.Random(0),
        )
        kept = sum(policy.decide(0.001) == ("normal",) for _ in range(1000))
        assert 400 < kept < 600

    def test_token_bucket_bounds_a_burst(self):
        clock = FakeClock()
        policy = make_policy(clock, category_rates={"slow": (1.0, 5.0)})
        kept = sum(bool(policy.decide(0.500)) for _ in range(100))
        assert kept == 5  # burst exhausted, no time passes
        clock.advance(2.0)
        assert policy.decide(0.500) == ("slow",)  # refilled

    def test_snapshot_counters_audit_the_bias(self):
        clock = FakeClock()
        policy = make_policy(clock, category_rates={"slow": (1.0, 2.0)})
        for _ in range(5):
            policy.decide(0.500)
        policy.decide(0.010, error=True)
        policy.decide(0.001)
        snapshot = policy.snapshot()
        assert snapshot["seen"] == 7
        assert snapshot["kept"] == 3  # 2 slow (burst) + 1 error
        assert snapshot["triggered"]["slow"] == 5
        assert snapshot["retained"]["slow"] == 2
        assert snapshot["shed"]["slow"] == 3
        assert snapshot["retained"]["error"] == 1
        assert snapshot["slow_threshold_ms"] == 100.0
