"""Tail-based trace retention: decide *after* the query completes.

Head sampling (PR 4's ``trace_sample_rate``) flips a coin before
dispatch, so at serving rates the interesting 1% — the slow tail,
failovers, degraded answers — is exactly what a 1% sample misses.
Tail-based retention inverts the decision: every query is traced (the
spans ride replies that were being sent anyway), and once the outcome
is known a :class:`RetentionPolicy` decides whether the buffered spans
are worth keeping:

* **slow** — above a dynamic threshold that tracks the p99 of recent
  latencies (with the configured ``slow_query_ms`` as the warm-up
  floor and ceiling: until the window fills, and for absolute
  regressions, the static knob still bites);
* **error** — the query failed, timed out, or returned degraded;
* **rerouted** — an HA failover re-dispatched part of it
  (``response.attempt > 0``);
* **cache_stale** — its cache admission was rejected by the epoch
  recheck (the race window worth inspecting);
* **epoch_adjacent** — it completed within a short window of an epoch
  swap, where apply/swap interference shows up;
* **normal** — a small uniform reservoir of unremarkable queries, so
  the baseline shape stays observable.

Every category sits behind its own token bucket: a pathological burst
(every query slow during an incident) keeps a bounded trace rate
instead of evicting the store, and the per-category ``kept`` /
``triggered`` counters make the sampling bias auditable.
"""

from __future__ import annotations

import random
import threading
import time
from bisect import bisect_left, insort

__all__ = ["TokenBucket", "LatencyThreshold", "RetentionPolicy"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, up to ``burst`` banked."""

    __slots__ = ("rate", "burst", "_tokens", "_refilled")

    def __init__(self, rate: float, burst: float, *, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._refilled = now

    def try_take(self, now: float) -> bool:
        """Spend one token if available; refills lazily from elapsed time."""
        elapsed = max(0.0, now - self._refilled)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class LatencyThreshold:
    """Dynamic slow threshold: the p99 of a sliding latency window.

    Until ``min_samples`` latencies have been seen the configured floor
    (``slow_ms``) decides alone; afterwards a query is slow if it
    exceeds *either* the windowed p99 (relative tail) or the floor
    (absolute regression).  The window is a ring so the threshold
    follows load shifts instead of averaging over the process lifetime.
    A sorted copy of the ring is kept beside it (``insort`` in, bisect
    and delete the evicted value out), so reading the p99 is one index,
    not a sort of the window per query.
    """

    def __init__(
        self, slow_ms: float, *, window: int = 2048, min_samples: int = 100
    ) -> None:
        self.slow_ms = slow_ms
        self._window: list[float] = []
        self._sorted: list[float] = []
        self._cursor = 0
        self._capacity = window
        self._min_samples = min_samples

    def observe(self, latency_seconds: float) -> None:
        """Feed one latency sample into the sliding window."""
        if len(self._window) < self._capacity:
            self._window.append(latency_seconds)
        else:
            evicted = self._window[self._cursor]
            del self._sorted[bisect_left(self._sorted, evicted)]
            self._window[self._cursor] = latency_seconds
            self._cursor = (self._cursor + 1) % self._capacity
        insort(self._sorted, latency_seconds)

    def p99_ms(self) -> float | None:
        """The windowed p99 in ms, or None while warming up."""
        size = len(self._sorted)
        if size < self._min_samples:
            return None
        index = min(size - 1, max(0, round(0.99 * size) - 1))
        return self._sorted[index] * 1000.0

    def is_slow(self, latency_seconds: float) -> bool:
        """True if the latency exceeds the floor or the windowed p99."""
        latency_ms = latency_seconds * 1000.0
        if latency_ms >= self.slow_ms:
            return True
        p99 = self.p99_ms()
        return p99 is not None and latency_ms > p99


class RetentionPolicy:
    """The decide-after-completion keep/drop policy.

    ``decide`` returns the tuple of categories that retained the trace
    (empty = drop the spans).  ``category_rates`` maps category name to
    ``(tokens_per_second, burst)``; ``normal_rate`` is the uniform
    probability an unremarkable query enters the reservoir (itself
    bucketed, so the reservoir stays small at any qps).
    """

    CATEGORIES = (
        "slow",
        "error",
        "rerouted",
        "cache_stale",
        "epoch_adjacent",
        "normal",
    )

    def __init__(
        self,
        *,
        slow_ms: float = 250.0,
        category_rates: dict[str, tuple[float, float]] | None = None,
        normal_rate: float = 0.01,
        epoch_window_seconds: float = 1.0,
        clock=time.monotonic,
        rng: random.Random | None = None,
    ) -> None:
        rates = {
            "slow": (20.0, 40.0),
            "error": (20.0, 40.0),
            "rerouted": (20.0, 40.0),
            "cache_stale": (5.0, 10.0),
            "epoch_adjacent": (5.0, 10.0),
            "normal": (1.0, 5.0),
        }
        rates.update(category_rates or {})
        self._clock = clock
        self._rng = rng or random.Random()
        now = clock()
        self._buckets = {
            name: TokenBucket(rate, burst, now=now)
            for name, (rate, burst) in rates.items()
        }
        self.threshold = LatencyThreshold(slow_ms)
        self.normal_rate = normal_rate
        self.epoch_window_seconds = epoch_window_seconds
        self._lock = threading.Lock()
        self._seen = 0
        self._kept = 0
        self._triggered = {name: 0 for name in self.CATEGORIES}
        self._retained = {name: 0 for name in self.CATEGORIES}
        self._shed = {name: 0 for name in self.CATEGORIES}

    def decide(
        self,
        latency_seconds: float,
        *,
        error: bool = False,
        degraded: bool = False,
        attempt: int = 0,
        cache_stale: bool = False,
        seconds_since_swap: float | None = None,
    ) -> tuple[str, ...]:
        """Categorise one completed query; returns the retaining categories.

        Also feeds the latency window — callers make exactly one call
        per query, successful or not (errors are excluded from the
        latency window so a timeout storm cannot inflate the p99 into
        retaining nothing).
        """
        now = self._clock()
        with self._lock:
            self._seen += 1
            triggered: list[str] = []
            if error or degraded:
                triggered.append("error")
            if not error:
                if self.threshold.is_slow(latency_seconds):
                    triggered.append("slow")
                self.threshold.observe(latency_seconds)
            if attempt > 0:
                triggered.append("rerouted")
            if cache_stale:
                triggered.append("cache_stale")
            if (
                seconds_since_swap is not None
                and 0.0 <= seconds_since_swap <= self.epoch_window_seconds
            ):
                triggered.append("epoch_adjacent")
            if not triggered and self._rng.random() < self.normal_rate:
                triggered.append("normal")
            kept: list[str] = []
            for name in triggered:
                self._triggered[name] += 1
                if self._buckets[name].try_take(now):
                    self._retained[name] += 1
                    kept.append(name)
                else:
                    self._shed[name] += 1
            if kept:
                self._kept += 1
            return tuple(kept)

    def snapshot(self) -> dict[str, object]:
        """Counters for the ``tracing.retention`` stats block."""
        with self._lock:
            return {
                "seen": self._seen,
                "kept": self._kept,
                "slow_threshold_ms": self.threshold.p99_ms()
                or self.threshold.slow_ms,
                "triggered": dict(self._triggered),
                "retained": dict(self._retained),
                "shed": dict(self._shed),
            }
