"""SLO objectives, multi-window burn rates, and ``slo_burn`` alerts.

An SLO here is two objectives per operation (query / update /
subscribe):

* **availability** — the fraction of requests that succeed (not shed,
  not timed out, not errored) must stay above a target, e.g. 99.9%;
* **latency** — the fraction of *successful* requests answered under a
  threshold must stay above a target, e.g. 99% under 250 ms.

Each objective grants an error budget ``1 - target``.  The **burn
rate** over a window is ``bad_fraction / error_budget`` — 1.0 means the
budget is being consumed exactly as provisioned; 10 means it will be
gone in a tenth of the period.  Burn is computed over three windows
(1m / 5m / 1h by default) from a ring of per-second buckets, so a
long-running server pays O(window) integer sums per read.  Recording a
request is O(1) amortised: the two alert windows keep running sums that
retire each second once as it slides out, and the longest window is
never read on that path.

Alerting follows the multi-window rule: an alert fires only when
*both* a short and a long window burn fast (the short window proves
the problem is current, the long one proves it is material), emitted
as an ``slo_burn`` event through :func:`repro.obs.events.emit` with a
per-objective cooldown so a sustained incident does not flood the log.

The module is clock-injectable and dependency-free below ``serve``;
:class:`~repro.serve.server.DisksServer` feeds it from the query
path's two halves (``_begin`` / ``_finish``) and mirrors burn rates
into ``repro_slo_*`` gauges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.events import emit

__all__ = ["SLOObjectives", "SLOTracker", "SLOEngine", "DEFAULT_WINDOWS"]

# (label, seconds); the first two drive the multi-window alert rule.
DEFAULT_WINDOWS: tuple[tuple[str, int], ...] = (
    ("1m", 60),
    ("5m", 300),
    ("1h", 3600),
)


@dataclass(frozen=True)
class SLOObjectives:
    """Targets for one operation.

    ``availability_target`` bounds the failure fraction;
    ``latency_target`` bounds the fraction of successes slower than
    ``latency_threshold_ms``.  ``alert_burn`` is the short-window burn
    that (together with ``alert_burn_long`` on the next-longer window)
    fires an ``slo_burn`` event.
    """

    availability_target: float = 0.999
    latency_threshold_ms: float = 250.0
    latency_target: float = 0.99
    alert_burn: float = 10.0
    alert_burn_long: float = 2.0
    alert_cooldown_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in ("availability_target", "latency_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")


class _BucketRing:
    """Per-second (total, avail_bad, latency_bad) buckets, ring-indexed.

    Sized to the longest window; a bucket is valid only if its stamp
    matches the second being read, so stale laps cost nothing to skip.
    """

    __slots__ = ("_size", "_stamp", "_total", "_avail_bad", "_latency_bad")

    def __init__(self, size: int) -> None:
        self._size = size
        self._stamp = [-1] * size
        self._total = [0] * size
        self._avail_bad = [0] * size
        self._latency_bad = [0] * size

    def record(self, second: int, avail_bad: bool, latency_bad: bool) -> None:
        index = second % self._size
        if self._stamp[index] != second:
            self._stamp[index] = second
            self._total[index] = 0
            self._avail_bad[index] = 0
            self._latency_bad[index] = 0
        self._total[index] += 1
        if avail_bad:
            self._avail_bad[index] += 1
        if latency_bad:
            self._latency_bad[index] += 1

    def sums(self, now_second: int, window: int) -> tuple[int, int, int]:
        """``(total, avail_bad, latency_bad)`` over the last ``window`` s."""
        total = avail_bad = latency_bad = 0
        span = min(window, self._size)
        for second in range(now_second - span + 1, now_second + 1):
            index = second % self._size
            if self._stamp[index] == second:
                total += self._total[index]
                avail_bad += self._avail_bad[index]
                latency_bad += self._latency_bad[index]
        return total, avail_bad, latency_bad


class SLOTracker:
    """Burn-rate accounting for one operation's objectives."""

    def __init__(
        self,
        op: str,
        objectives: SLOObjectives | None = None,
        *,
        windows: tuple[tuple[str, int], ...] = DEFAULT_WINDOWS,
        clock=time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("at least one window is required")
        self.op = op
        self.objectives = objectives or SLOObjectives()
        self.windows = tuple(sorted(windows, key=lambda w: w[1]))
        self._clock = clock
        self._lock = threading.Lock()
        self._ring = _BucketRing(self.windows[-1][1])
        # (total, avail_bad, latency_bad): lifetime, and running over the
        # two alert windows.
        self._counts = [0, 0, 0]
        self._alert_sums = [[0, 0, 0] for _window in self.windows[:2]]
        self._second = float("-inf")  # the newest second recorded
        self._alerts = 0
        self._last_alert: dict[str, float] = {}

    def record(self, ok: bool, latency_seconds: float) -> None:
        """Account one completed request (any protocol, any outcome)."""
        latency_bad = ok and (
            latency_seconds * 1000.0 > self.objectives.latency_threshold_ms
        )
        now = self._clock()
        with self._lock:
            second = max(int(now), self._second)
            self._slide(second)
            self._ring.record(second, not ok, latency_bad)
            for sums in (self._counts, *self._alert_sums):
                sums[0] += 1
                sums[1] += not ok
                sums[2] += latency_bad
            alert_sums = [tuple(sums) for sums in self._alert_sums]
        if len(alert_sums) == 2:
            self._maybe_alert(now, *alert_sums)

    def _slide(self, second: int) -> None:
        """Retire from the alert sums the seconds that left their windows.

        Each second is retired once, before the ring reuses its bucket,
        so the cost is O(seconds since the last request), not O(window).
        """
        last, self._second = self._second, second
        for (_label, window), sums in zip(self.windows, self._alert_sums):
            if second - last >= window:
                sums[:] = (0, 0, 0)
            elif second > last:
                for i, gone in enumerate(self._ring.sums(second - window, second - last)):
                    sums[i] -= gone

    # ------------------------------------------------------------------
    # Burn computation
    # ------------------------------------------------------------------
    def _burns(self, total: int, avail_bad: int, latency_bad: int) -> tuple[float, float]:
        """``(availability, latency)`` burn of one window's sums; 0.0 when empty."""
        if total == 0:
            return 0.0, 0.0
        good = total - avail_bad
        avail = (avail_bad / total) / (1.0 - self.objectives.availability_target)
        return avail, (latency_bad / good) / (1.0 - self.objectives.latency_target) if good else 0.0

    def burn_rates(self, now: float | None = None) -> dict[str, dict[str, float]]:
        """``{objective: {window_label: burn}}`` over every window.

        An empty window burns 0.0 — no traffic consumes no budget.
        """
        now = self._clock() if now is None else now
        burns: dict[str, dict[str, float]] = {"availability": {}, "latency": {}}
        with self._lock:
            for label, seconds in self.windows:
                avail, latency = self._burns(*self._ring.sums(int(now), seconds))
                burns["availability"][label] = avail
                burns["latency"][label] = latency
        return burns

    def _maybe_alert(self, now: float, short_sums: tuple, long_sums: tuple) -> None:
        """Multi-window alert: short AND long window both burning hot."""
        short_label, long_label = self.windows[0][0], self.windows[1][0]
        for objective, short, long in zip(
            ("availability", "latency"), self._burns(*short_sums), self._burns(*long_sums)
        ):
            if (
                short < self.objectives.alert_burn
                or long < self.objectives.alert_burn_long
            ):
                continue
            with self._lock:
                last = self._last_alert.get(objective)
                if (
                    last is not None
                    and now - last < self.objectives.alert_cooldown_seconds
                ):
                    continue
                self._last_alert[objective] = now
                self._alerts += 1
            emit(
                "slo_burn",
                op=self.op,
                objective=objective,
                burn_short=round(short, 3),
                burn_long=round(long, 3),
                window_short=short_label,
                window_long=long_label,
            )

    def snapshot(self) -> dict[str, object]:
        """JSON-able state for the ``slo`` stats block."""
        with self._lock:
            total, avail_bad, latency_bad = self._counts
            alerts = self._alerts
        good = total - avail_bad
        return {
            "total": total,
            "errors": avail_bad,
            "slow": latency_bad,
            "availability": (good / total) if total else 1.0,
            "latency_attainment": ((good - latency_bad) / good) if good else 1.0,
            "objectives": {
                "availability_target": self.objectives.availability_target,
                "latency_threshold_ms": self.objectives.latency_threshold_ms,
                "latency_target": self.objectives.latency_target,
            },
            "burn": self.burn_rates(),
            "alerts": alerts,
        }


class SLOEngine:
    """One tracker per operation; the server feeds and exports it."""

    def __init__(
        self,
        objectives: dict[str, SLOObjectives] | None = None,
        *,
        windows: tuple[tuple[str, int], ...] = DEFAULT_WINDOWS,
        clock=time.monotonic,
    ) -> None:
        objectives = objectives or {}
        self.trackers: dict[str, SLOTracker] = {
            op: SLOTracker(
                op, objectives.get(op), windows=windows, clock=clock
            )
            for op in ("query", "update", "subscribe")
        }

    def record(self, op: str, ok: bool, latency_seconds: float) -> None:
        """Route one completed request to its op's tracker (unknown ops: no-op)."""
        tracker = self.trackers.get(op)
        if tracker is not None:
            tracker.record(ok, latency_seconds)

    def snapshot(self) -> dict[str, object]:
        """Only ops that saw traffic — an idle tracker is noise."""
        blocks: dict[str, object] = {}
        for op, tracker in self.trackers.items():
            block = tracker.snapshot()
            if block["total"]:
                blocks[op] = block
        return blocks

    def sync_gauges(self, metrics) -> None:
        """Mirror burn rates into ``repro_slo_*`` gauges."""
        for op, tracker in self.trackers.items():
            burns = tracker.burn_rates()
            for objective, by_window in burns.items():
                for label, burn in by_window.items():
                    metrics.observe_gauge(
                        f"slo_{op}_{objective}_burn_{label}", burn
                    )
