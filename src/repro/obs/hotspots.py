"""Heavy-hitter attribution: Space-Saving sketches over eval spans.

The paper's coverage search cost is dominated by a skewed tail — a few
keyword × fragment combinations account for most of the eval seconds.
This module answers "which ones?" with bounded memory: a
**Space-Saving** sketch (Metwally et al.) keeps at most ``capacity``
counters per dimension; a new key evicts the minimum counter and
inherits its count, recording that count as the entry's ``error``
bound.  The classic guarantees carry over to weighted updates: every
tracked key's estimate overcounts by at most its ``error``, and any
key whose true weight exceeds ``total / capacity`` is tracked.

:class:`HotSpotSketch` runs six sketches — keywords, fragments and
keyword × fragment pairs, each by eval-seconds and by eval count — fed
from the ``eval`` spans workers already piggyback on traced replies
(tags ``source`` and duration; see
:func:`repro.core.coverage.settle_terms`).  The top-k surfaces
in the ``stats`` op, as bounded-cardinality Prometheus series, and as
the per-fragment feature feed the ROADMAP's learned-pruning item
consumes.
"""

from __future__ import annotations

import threading

from repro.obs.prometheus import escape_label_value

__all__ = ["SpaceSaving", "HotSpotSketch", "render_hotspots"]


class SpaceSaving:
    """Bounded top-k counter sketch with per-entry error bounds.

    ``offer(key, weight)`` is O(capacity) worst case (the evict-min
    scan); capacities here are tens, not thousands, so a scan beats
    the bookkeeping of the textbook stream-summary structure.
    """

    __slots__ = ("capacity", "_counts", "_errors", "total")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: dict[object, float] = {}
        self._errors: dict[object, float] = {}
        self.total = 0.0

    def offer(self, key: object, weight: float = 1.0) -> None:
        """Add ``weight`` to ``key``'s estimate (evicting the min if full)."""
        if weight <= 0.0:
            return
        self.total += weight
        if key in self._counts:
            self._counts[key] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = weight
            self._errors[key] = 0.0
            return
        victim = min(self._counts, key=self._counts.__getitem__)
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + weight
        self._errors[key] = floor

    def top(self, n: int) -> list[tuple[object, float, float]]:
        """The ``n`` largest estimates as ``(key, estimate, error)``.

        The true weight of ``key`` lies in ``[estimate - error,
        estimate]``.
        """
        ordered = sorted(
            self._counts.items(), key=lambda item: item[1], reverse=True
        )
        return [
            (key, count, self._errors[key]) for key, count in ordered[:n]
        ]

    def __len__(self) -> int:
        return len(self._counts)


class HotSpotSketch:
    """Keyword / fragment / pair attribution by eval-seconds and count."""

    DIMENSIONS = ("keyword", "fragment", "pair")

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seconds = {dim: SpaceSaving(capacity) for dim in self.DIMENSIONS}
        self._counts = {dim: SpaceSaving(capacity) for dim in self.DIMENSIONS}
        self._evals = 0
        self._eval_seconds = 0.0

    def observe_eval(
        self, source: str, fragment_id: int | None, seconds: float
    ) -> None:
        """Attribute one per-term evaluation to its keyword and fragment."""
        with self._lock:
            self._evals += 1
            self._eval_seconds += seconds
            self._seconds["keyword"].offer(source, seconds)
            self._counts["keyword"].offer(source, 1.0)
            if fragment_id is not None:
                self._seconds["fragment"].offer(fragment_id, seconds)
                self._counts["fragment"].offer(fragment_id, 1.0)
                pair = (source, fragment_id)
                self._seconds["pair"].offer(pair, seconds)
                self._counts["pair"].offer(pair, 1.0)

    def feed_spans(self, spans) -> None:
        """Ingest a response's span tree: every closed ``eval`` span.

        The ``source`` tag is the term's keyword (or ``#<node>`` for
        RKQ location terms — those are load too).
        """
        for span in spans:
            if span.name != "eval" or span.end is None:
                continue
            source = span.tags.get("source")
            if source is None:
                continue
            self.observe_eval(
                str(source), span.fragment_id, span.duration_seconds
            )

    def snapshot(self, k: int = 10) -> dict[str, object]:
        """Top-k per dimension for the ``hotspots`` stats block."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "evals": self._evals,
                "eval_seconds": round(self._eval_seconds, 6),
                "by_seconds": {
                    dim: [
                        {
                            "key": _render_key(key),
                            "seconds": round(count, 6),
                            "error": round(error, 6),
                        }
                        for key, count, error in sketch.top(k)
                    ]
                    for dim, sketch in self._seconds.items()
                },
                "by_count": {
                    dim: [
                        {
                            "key": _render_key(key),
                            "count": int(count),
                            "error": int(error),
                        }
                        for key, count, error in sketch.top(k)
                    ]
                    for dim, sketch in self._counts.items()
                },
            }

    def features(self, k: int | None = None) -> list[dict[str, object]]:
        """The learned-pruning feature feed: per keyword × fragment load.

        One row per tracked pair with its eval count and seconds (each
        with the sketch's overcount bound) — exactly the per-fragment
        cost signal a dispatch-pruning model trains on.
        """
        k = k if k is not None else self.capacity
        with self._lock:
            seconds = {
                key: (count, error)
                for key, count, error in self._seconds["pair"].top(k)
            }
            counts = {
                key: (count, error)
                for key, count, error in self._counts["pair"].top(k)
            }
        rows = []
        for key, (secs, secs_error) in seconds.items():
            keyword, fragment = key
            count, count_error = counts.get(key, (0.0, 0.0))
            rows.append(
                {
                    "keyword": keyword,
                    "fragment": fragment,
                    "seconds": round(secs, 6),
                    "seconds_error": round(secs_error, 6),
                    "count": int(count),
                    "count_error": int(count_error),
                }
            )
        return rows


def _render_key(key: object) -> str:
    if isinstance(key, tuple):
        source, fragment = key
        return f"{source}×f{fragment}"
    if isinstance(key, int):
        return f"f{key}"
    return str(key)


def render_hotspots(
    snapshot: dict, *, namespace: str = "repro", k: int = 10
) -> str:
    """Bounded Prometheus series for a :meth:`HotSpotSketch.snapshot`.

    At most ``k`` series per (dimension, measure) — the cardinality
    cap holds no matter how many distinct keywords the workload has.
    Label values are escaped with the exposition-format rules so
    adversarial keywords round-trip through
    :func:`repro.obs.prometheus.parse_prometheus_text`.
    """
    lines: list[str] = []
    seconds_metric = f"{namespace}_hotspot_eval_seconds_total"
    count_metric = f"{namespace}_hotspot_evals_total"
    for metric, block, field in (
        (seconds_metric, snapshot.get("by_seconds", {}), "seconds"),
        (count_metric, snapshot.get("by_count", {}), "count"),
    ):
        lines.append(f"# TYPE {metric} counter")
        for dim in sorted(block):
            for entry in block[dim][:k]:
                key = escape_label_value(str(entry["key"]))
                lines.append(
                    f'{metric}{{dim="{dim}",key="{key}"}} '
                    f'{float(entry[field])!r}'
                )
    return "\n".join(lines) + "\n" if lines else ""
