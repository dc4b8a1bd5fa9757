"""Heavy-hitter attribution: Space-Saving bounds, sketch, exposition."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.obs.hotspots import HotSpotSketch, SpaceSaving, render_hotspots
from repro.obs.prometheus import parse_prometheus_text
from repro.obs.trace import Span, SpanCollector


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for key, weight in [("a", 3.0), ("b", 1.0), ("a", 2.0)]:
            sketch.offer(key, weight)
        assert sketch.top(8) == [("a", 5.0, 0.0), ("b", 1.0, 0.0)]
        assert sketch.total == 6.0

    def test_eviction_inherits_the_minimum_as_error(self):
        sketch = SpaceSaving(capacity=2)
        sketch.offer("a", 10.0)
        sketch.offer("b", 1.0)
        sketch.offer("c", 1.0)  # evicts b (count 1): c = 1 + 1, error 1
        assert len(sketch) == 2
        top = dict((k, (c, e)) for k, c, e in sketch.top(2))
        assert top["a"] == (10.0, 0.0)
        assert top["c"] == (2.0, 1.0)

    def test_nonpositive_weights_are_ignored(self):
        sketch = SpaceSaving(capacity=2)
        sketch.offer("a", 0.0)
        sketch.offer("a", -1.0)
        assert len(sketch) == 0 and sketch.total == 0.0

    def test_zipf_stream_bounds_hold(self):
        """The classic guarantees on a skewed stream.

        For every tracked key: ``estimate - error <= true <= estimate``,
        and every key with true weight above ``total / capacity`` is
        tracked (so the top hitters cannot be missed).
        """
        rng = random.Random(42)
        capacity = 16
        keys = [f"kw{i:03d}" for i in range(200)]
        # Zipf-ish: key i drawn with probability proportional to 1/(i+1).
        weights = [1.0 / (i + 1) for i in range(len(keys))]
        sketch = SpaceSaving(capacity)
        exact: Counter = Counter()
        for _ in range(20_000):
            key = rng.choices(keys, weights)[0]
            sketch.offer(key, 1.0)
            exact[key] += 1.0

        tracked = {key: (count, error) for key, count, error in sketch.top(capacity)}
        for key, (count, error) in tracked.items():
            true = exact.get(key, 0.0)
            assert count - error <= true <= count, key
        guarantee = sketch.total / capacity
        for key, true in exact.items():
            if true > guarantee:
                assert key in tracked, (key, true, guarantee)

    def test_top_k_matches_exact_heads_on_skew(self):
        """With real skew the sketch's head IS the exact head."""
        rng = random.Random(7)
        keys = [f"kw{i}" for i in range(50)]
        weights = [1.0 / (i + 1) ** 1.5 for i in range(len(keys))]
        sketch = SpaceSaving(32)
        exact: Counter = Counter()
        for _ in range(30_000):
            key = rng.choices(keys, weights)[0]
            sketch.offer(key)
            exact[key] += 1
        top_sketch = [key for key, _, _ in sketch.top(5)]
        top_exact = [key for key, _ in exact.most_common(5)]
        assert top_sketch == top_exact


class _ScanSpaceSaving:
    """The textbook sketch with an evict-min scan: the reference."""

    def __init__(self, capacity):
        self.capacity, self.counts, self.errors = capacity, {}, {}

    def offer(self, key, weight):
        if weight <= 0.0:
            return
        if key in self.counts:
            self.counts[key] += weight
        elif len(self.counts) < self.capacity:
            self.counts[key], self.errors[key] = weight, 0.0
        else:
            victim = min(self.counts, key=self.counts.__getitem__)
            floor = self.counts.pop(victim)
            del self.errors[victim]
            self.counts[key], self.errors[key] = floor + weight, floor


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0])),
        max_size=300,
    ),
    capacity=st.integers(min_value=1, max_value=10),
)
def test_heap_eviction_matches_the_min_scan(stream, capacity):
    """Same victims, ties included (small integer weights tie often)."""
    sketch, reference = SpaceSaving(capacity), _ScanSpaceSaving(capacity)
    for key, weight in stream:
        sketch.offer(key, weight)
        reference.offer(key, weight)
    assert sketch.top(capacity) == [
        (key, count, reference.errors[key])
        for key, count in sorted(reference.counts.items(), key=lambda item: item[1], reverse=True)
    ]


class TestHotSpotSketch:
    def test_observe_eval_feeds_all_dimensions(self):
        sketch = HotSpotSketch(capacity=8)
        sketch.observe_eval("cafe", 3, 0.5)
        sketch.observe_eval("cafe", 4, 0.25)
        sketch.observe_eval("bar", 3, 0.125)
        snapshot = sketch.snapshot()
        assert snapshot["evals"] == 3
        assert snapshot["eval_seconds"] == 0.875
        by_seconds = {
            dim: {e["key"]: e["seconds"] for e in entries}
            for dim, entries in snapshot["by_seconds"].items()
        }
        assert by_seconds["keyword"] == {"cafe": 0.75, "bar": 0.125}
        assert by_seconds["fragment"] == {"f3": 0.625, "f4": 0.25}
        assert by_seconds["pair"]["cafe×f3"] == 0.5

    def test_feed_spans_filters_to_closed_eval_spans(self):
        collector = SpanCollector("t1")
        with collector.span("eval", parent_id=None, fragment_id=2, source="cafe"):
            pass
        with collector.span("union", parent_id=None, fragment_id=2):
            pass
        open_span = collector.start("eval", parent_id=None, fragment_id=2, source="x")
        assert open_span.end is None
        untagged = collector.start("eval", parent_id=None, fragment_id=2)
        untagged.finish()

        sketch = HotSpotSketch(capacity=8)
        sketch.feed_spans(collector.spans)
        snapshot = sketch.snapshot()
        assert snapshot["evals"] == 1
        assert [e["key"] for e in snapshot["by_count"]["keyword"]] == ["cafe"]

    def test_features_rows_pair_keyword_with_fragment(self):
        sketch = HotSpotSketch(capacity=8)
        for _ in range(3):
            sketch.observe_eval("cafe", 1, 0.2)
        sketch.observe_eval("bar", 2, 0.1)
        rows = {(row["keyword"], row["fragment"]): row for row in sketch.features()}
        assert rows[("cafe", 1)]["count"] == 3
        assert rows[("cafe", 1)]["seconds"] == 0.6
        assert rows[("cafe", 1)]["seconds_error"] == 0.0
        assert rows[("bar", 2)]["count"] == 1

    def test_location_terms_need_no_fragment(self):
        sketch = HotSpotSketch(capacity=8)
        sketch.observe_eval("#17", None, 0.3)
        snapshot = sketch.snapshot()
        assert snapshot["by_seconds"]["keyword"][0]["key"] == "#17"
        assert snapshot["by_seconds"]["fragment"] == []
        assert snapshot["by_seconds"]["pair"] == []


# One response's eval rows.  Seconds are multiples of 1/64, so every sum
# is exact in binary floating point and survives the snapshot's rounding
# to six decimals: the bounds below are checked without tolerance.
_rows = st.lists(
    st.tuples(
        st.sampled_from([f"kw{i}" for i in range(12)] + ["#17", "#42"]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
        st.integers(min_value=0, max_value=256).map(lambda n: n / 64),
    ),
    max_size=24,
)


def _true_weights(responses):
    """Exact per-dimension ``{rendered key: (seconds, count)}``."""
    truth = {dim: Counter() for dim in HotSpotSketch.DIMENSIONS}
    counts = {dim: Counter() for dim in HotSpotSketch.DIMENSIONS}
    for rows in responses:
        for source, fragment_id, seconds in rows:
            keys = [("keyword", source)]
            if fragment_id is not None:
                keys += [("fragment", f"f{fragment_id}"), ("pair", f"{source}×f{fragment_id}")]
            for dim, key in keys:
                truth[dim][key] += seconds
                counts[dim][key] += 1
    return truth, counts


def _as_spans(rows):
    return [
        Span("t", f"s{i}", None, "eval", 0.0, seconds, fragment_id=fragment_id, tags={"source": source})
        for i, (source, fragment_id, seconds) in enumerate(rows)
    ]


class TestRowFeedProperties:
    @settings(max_examples=150, deadline=None)
    @given(responses=st.lists(_rows, max_size=30), capacity=st.integers(min_value=1, max_value=8))
    def test_space_saving_bounds_on_every_sketch(self, responses, capacity):
        sketch = HotSpotSketch(capacity=capacity)
        for rows in responses:
            sketch.feed_rows(rows)
        snapshot = sketch.snapshot(k=capacity)
        truth = dict(zip(("seconds", "count"), _true_weights(responses)))
        for measure, block in (("seconds", "by_seconds"), ("count", "by_count")):
            for dim in HotSpotSketch.DIMENSIONS:
                exact = truth[measure][dim]
                tracked = {e["key"]: (e[measure], e["error"]) for e in snapshot[block][dim]}
                for key, (estimate, error) in tracked.items():
                    assert estimate - error <= exact[key] <= estimate, (measure, dim, key)
                total = sum(exact.values())
                for key, weight in exact.items():
                    if weight > total / capacity:
                        assert key in tracked, (measure, dim, key)

    @settings(max_examples=100, deadline=None)
    @given(responses=st.lists(_rows, max_size=20))
    def test_evals_and_eval_seconds_are_exact(self, responses):
        sketch = HotSpotSketch(capacity=2)
        for rows in responses:
            sketch.feed_rows(rows)
        snapshot = sketch.snapshot()
        everything = [row for rows in responses for row in rows]
        assert snapshot["evals"] == len(everything)
        assert snapshot["eval_seconds"] == sum(seconds for _s, _f, seconds in everything)

    @settings(max_examples=100, deadline=None)
    @given(responses=st.lists(_rows, max_size=20), capacity=st.integers(min_value=1, max_value=6))
    def test_feed_spans_and_feed_rows_agree(self, responses, capacity):
        from_rows, from_spans = HotSpotSketch(capacity), HotSpotSketch(capacity)
        for rows in responses:
            from_rows.feed_rows(rows)
            from_spans.feed_spans(_as_spans(rows))
        assert from_spans.snapshot(k=capacity) == from_rows.snapshot(k=capacity)
        assert from_spans.features() == from_rows.features()


class TestRenderHotspots:
    def test_cardinality_is_capped_at_k_per_dimension(self):
        sketch = HotSpotSketch(capacity=32)
        for i in range(30):
            sketch.observe_eval(f"kw{i}", i, float(30 - i))
        text = render_hotspots(sketch.snapshot(k=30), k=4)
        samples = parse_prometheus_text(text)
        for metric in (
            "repro_hotspot_eval_seconds_total",
            "repro_hotspot_evals_total",
        ):
            for dim in HotSpotSketch.DIMENSIONS:
                count = sum(
                    1
                    for (name, labels) in samples
                    if name == metric and ("dim", dim) in labels
                )
                assert count == 4, (metric, dim)

    def test_adversarial_keywords_round_trip(self):
        sketch = HotSpotSketch(capacity=8)
        hostile = 'kw"quote\\slash\nnewline}brace'
        sketch.observe_eval(hostile, 0, 1.5)
        text = render_hotspots(sketch.snapshot())
        samples = parse_prometheus_text(text)
        keys = {
            dict(labels).get("key")
            for (name, labels) in samples
            if name == "repro_hotspot_eval_seconds_total"
        }
        assert hostile in keys
        assert f"{hostile}×f0" in keys

    def test_empty_snapshot_renders_headers_only(self):
        sketch = HotSpotSketch(capacity=4)
        text = render_hotspots(sketch.snapshot())
        assert parse_prometheus_text(text) == {}
