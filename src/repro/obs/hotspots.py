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
from the ``eval`` timings workers already pack into traced replies
(:meth:`HotSpotSketch.feed_rows`; a span tree's ``eval`` spans feed the
same path through :meth:`HotSpotSketch.feed_spans`).  The top-k surfaces
in the ``stats`` op, as bounded-cardinality Prometheus series, and as
the per-fragment feature feed the ROADMAP's learned-pruning item
consumes.
"""

from __future__ import annotations

import threading
from heapq import heapify, heappop, heappush

from repro.obs.prometheus import escape_label_value

__all__ = ["SpaceSaving", "HotSpotSketch", "render_hotspots"]


class SpaceSaving:
    """Bounded top-k counter sketch with per-entry error bounds.

    ``offer(key, weight)`` is O(log capacity) amortised: the evict-min
    victim comes off a lazy min-heap of ``(count, insertion seq, key)``
    entries — an update pushes a fresh entry, stale ones are skipped on
    pop and swept out once the heap outgrows the table.  Ties go to the
    earliest-inserted key, as a scan of the insertion-ordered table
    would pick.
    """

    __slots__ = ("capacity", "_entries", "_heap", "_next_seq", "total")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # key -> [estimate, error, insertion seq]
        self._entries: dict[object, list] = {}
        self._heap: list[tuple[float, int, object]] = []
        self._next_seq = 0
        self.total = 0.0

    def offer(self, key: object, weight: float = 1.0) -> None:
        """Add ``weight`` to ``key``'s estimate (evicting the min if full)."""
        self.offer_all(((key, weight),))

    def offer_all(self, weights) -> None:
        """:meth:`offer` for each ``(key, weight)`` pair, in order."""
        entries, heap, capacity = self._entries, self._heap, self.capacity
        for key, weight in weights:
            if weight <= 0.0:
                continue
            self.total += weight
            entry = entries.get(key)
            if entry is not None:
                entry[0] += weight
                heappush(heap, (entry[0], entry[2], key))
                continue
            floor = 0.0
            if len(entries) >= capacity:
                while True:  # pop to the smallest live, current estimate
                    count, seq, victim = heappop(heap)
                    found = entries.get(victim)
                    if found is not None and found[2] == seq and found[0] == count:
                        del entries[victim]
                        floor = count
                        break
            seq = self._next_seq
            self._next_seq = seq + 1
            entries[key] = [floor + weight, floor, seq]
            heappush(heap, (floor + weight, seq, key))
        if len(heap) > 4 * capacity + 64:
            # Sweep out superseded entries: one live entry per key.
            heap[:] = [(count, seq, key) for key, (count, _error, seq) in entries.items()]
            heapify(heap)

    def top(self, n: int) -> list[tuple[object, float, float]]:
        """The ``n`` largest estimates as ``(key, estimate, error)``.

        The true weight of ``key`` lies in ``[estimate - error,
        estimate]``.
        """
        ordered = sorted(
            self._entries.items(), key=lambda item: item[1][0], reverse=True
        )
        return [(key, count, error) for key, (count, error, _seq) in ordered[:n]]

    def __len__(self) -> int:
        return len(self._entries)


class HotSpotSketch:
    """Keyword / fragment / pair attribution by eval-seconds and count.

    Rows are buffered and folded into the sketches once
    :attr:`FLUSH_ROWS` have gathered, and before every read: a batch is
    summed per key first, so a key that recurs across the batch's
    responses costs one weighted offer, not one per eval.
    """

    DIMENSIONS = ("keyword", "fragment", "pair")
    FLUSH_ROWS = 2048

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seconds = {dim: SpaceSaving(capacity) for dim in self.DIMENSIONS}
        self._counts = {dim: SpaceSaving(capacity) for dim in self.DIMENSIONS}
        self._pending: list[tuple[str, int | None, float]] = []
        self._evals = 0
        self._eval_seconds = 0.0

    def observe_eval(
        self, source: str, fragment_id: int | None, seconds: float
    ) -> None:
        """Attribute one per-term evaluation to its keyword and fragment."""
        self.feed_rows(((source, fragment_id, seconds),))

    def feed_rows(self, rows) -> None:
        """Ingest evals as ``(source, fragment_id, seconds)`` rows.

        ``fragment_id`` ``None`` attributes to the keyword only.  The
        rows wait in a bounded buffer; Space-Saving's bounds hold for
        the weighted offers a batch turns into, and ``evals`` /
        ``eval_seconds`` stay exact.
        """
        with self._lock:
            self._pending.extend(rows)
            if len(self._pending) >= self.FLUSH_ROWS:
                self._flush()

    def _flush(self) -> None:
        """Fold the buffered rows into the sketches (``_lock`` held)."""
        rows, self._pending = self._pending, []
        pair_seconds: dict[tuple, float] = {}
        pair_counts: dict[tuple, int] = {}
        for source, fragment_id, seconds in rows:
            self._eval_seconds += seconds
            key = (source, fragment_id)
            if key in pair_counts:
                pair_seconds[key] += seconds
                pair_counts[key] += 1
            else:
                pair_seconds[key] = seconds
                pair_counts[key] = 1
        self._evals += len(rows)
        seconds_by: dict[str, dict] = {dim: {} for dim in self.DIMENSIONS}
        counts_by: dict[str, dict] = {dim: {} for dim in self.DIMENSIONS}
        for key, seconds in pair_seconds.items():
            source, fragment_id = key
            keys = (("keyword", source),)
            if fragment_id is not None:
                keys += (("fragment", fragment_id), ("pair", key))
            for dim, dim_key in keys:
                seconds_by[dim][dim_key] = seconds_by[dim].get(dim_key, 0.0) + seconds
                counts_by[dim][dim_key] = counts_by[dim].get(dim_key, 0) + pair_counts[key]
        for dim in self.DIMENSIONS:
            self._seconds[dim].offer_all(seconds_by[dim].items())
            self._counts[dim].offer_all(
                (key, float(count)) for key, count in counts_by[dim].items()
            )

    def feed_spans(self, spans) -> None:
        """Ingest a response's span tree: every closed ``eval`` span.

        The ``source`` tag is the term's keyword (or ``#<node>`` for
        RKQ location terms — those are load too).  Same path as
        :meth:`feed_rows`.
        """
        self.feed_rows(
            (str(span.tags["source"]), span.fragment_id, span.duration_seconds)
            for span in spans
            if span.name == "eval"
            and span.end is not None
            and span.tags.get("source") is not None
        )

    def snapshot(self, k: int = 10) -> dict[str, object]:
        """Top-k per dimension for the ``hotspots`` stats block."""
        with self._lock:
            self._flush()
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
            self._flush()
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
