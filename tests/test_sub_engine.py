"""Tests for delta-driven incremental re-evaluation (`repro.sub.engine`).

The gold standard mirrors `tests/test_live_epochs.py`: after any update
sequence, every subscription's incrementally maintained result must be
bit-identical to evaluating its query from scratch against the published
epoch — and the engine must have *re-evaluated* a subscription only when
the delta could actually have touched it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.executor import (
    execute_fragment_task,
    execute_fragment_task_explained,
    explanations,
)
from repro.core.queries import rkq, sgkq
from repro.exceptions import DisksError
from repro.live import AddKeyword, EpochManager, RemoveKeyword, SetEdgeWeight
from repro.obs.events import global_events
from repro.partition import BfsPartitioner
from repro.serve.metrics import MetricsRegistry
from repro.sub import SubscriptionEngine
from repro.workloads import (
    QueryGenConfig,
    QueryGenerator,
    UpdateGenConfig,
    UpdateStreamGenerator,
)

from helpers import make_random_network


def make_manager(seed: int, k: int = 3, max_radius: float = math.inf) -> EpochManager:
    net = make_random_network(seed=seed, num_junctions=18, num_objects=10, vocabulary=4)
    partition = BfsPartitioner(seed=seed).partition(net, k)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=max_radius))
    return EpochManager(
        network=net,
        partition=partition,
        fragments=fragments,
        indexes=list(indexes),
    )


def fresh_answer(manager: EpochManager, query) -> frozenset[int]:
    """From-scratch evaluation on the published epoch (the oracle)."""
    merged: set[int] = set()
    for runtime in manager.state.runtimes():
        merged |= execute_fragment_task(runtime, query).local_result
    return frozenset(merged)


def fresh_scores(manager: EpochManager, query) -> dict:
    merged: dict = {}
    for runtime in manager.state.runtimes():
        _task, partial = execute_fragment_task_explained(runtime, query)
        merged.update(explanations(query, partial))
    return merged


def record_reevaluations(engine: SubscriptionEngine) -> list[str]:
    """Instrument the engine to log which subscriptions it re-runs."""
    calls: list[str] = []
    original = engine._reevaluate

    def recording(subscription, fragment_ids):
        calls.append(subscription.sub_id)
        return original(subscription, fragment_ids)

    engine._reevaluate = recording
    return calls


class TestRegistration:
    def test_initial_result_matches_from_scratch(self):
        manager = make_manager(seed=80)
        engine = SubscriptionEngine(manager)
        keywords = sorted(manager.state.network.all_keywords())[:2]
        query = sgkq(keywords, 3.0)
        sub = engine.register(query)
        assert sub.sub_id == "s1"
        assert sub.epoch == 0
        assert sub.result == fresh_answer(manager, query)
        assert engine.snapshot("s1") == {
            "sub": "s1",
            "epoch": 0,
            "nodes": sorted(sub.result),
        }

    def test_unregister_and_unknown_lookups(self):
        manager = make_manager(seed=81)
        engine = SubscriptionEngine(manager)
        sub = engine.register(sgkq(["w0"], 2.0))
        assert engine.unregister(sub.sub_id) is True
        assert engine.unregister(sub.sub_id) is False
        with pytest.raises(DisksError, match="unknown subscription"):
            engine.snapshot(sub.sub_id)
        with pytest.raises(DisksError, match="unknown subscription"):
            engine.set_sink(sub.sub_id, lambda notice: None)

    def test_register_after_swaps_sees_current_epoch(self):
        manager = make_manager(seed=82)
        engine = SubscriptionEngine(manager)
        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "late")])
        sub = engine.register(sgkq(["late"], 2.0))
        assert sub.epoch == 1
        assert node in sub.result

    def test_closed_engine_ignores_swaps(self):
        manager = make_manager(seed=83)
        with SubscriptionEngine(manager) as engine:
            engine.register(sgkq(["w0"], 2.0))
        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "w0")])
        assert engine.epoch == 0  # detached before the swap


class TestNotices:
    def test_added_and_removed_membership_changes(self):
        manager = make_manager(seed=90)
        engine = SubscriptionEngine(manager)
        notices = []
        sub = engine.register(sgkq(["fresh-kw"], 2.5), sink=notices.append)
        assert sub.result == frozenset()

        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "fresh-kw")])
        assert len(notices) == 1
        assert notices[0].epoch == 1
        assert node in notices[0].added
        assert notices[0].removed == ()
        assert engine.registry.get(sub.sub_id).result == fresh_answer(
            manager, sub.query
        )

        manager.apply([RemoveKeyword(node, "fresh-kw")])
        assert len(notices) == 2
        assert notices[1].removed == tuple(sorted(notices[0].added))
        assert engine.registry.get(sub.sub_id).result == frozenset()

    def test_no_notice_when_nothing_observable_changed(self):
        manager = make_manager(seed=91)
        engine = SubscriptionEngine(manager)
        notices = []
        engine.register(sgkq(["nobody-has-this"], 1.0), sink=notices.append)
        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "some-other-kw")])
        assert notices == []

    def test_rescored_without_membership_change(self):
        manager = make_manager(seed=92)
        engine = SubscriptionEngine(manager)
        net = manager.state.network
        keyword = sorted(net.all_keywords())[0]
        notices = []
        sub = engine.register(sgkq([keyword], 1000.0), sink=notices.append, scored=True)
        assert sub.result  # everything is within the huge radius
        before = dict(sub.scores)
        assert any(d and d[0] > 0 for d in before.values())

        # Halve every edge: distances shrink, membership cannot change.
        ops = [
            SetEdgeWeight(u, v, w / 2.0)
            for u in net.nodes()
            for v, w in net.neighbors(u)
            if u < v
        ]
        manager.apply(ops)
        assert len(notices) == 1
        notice = notices[0]
        assert notice.added == () and notice.removed == ()
        assert notice.rescored
        after = engine.registry.get(sub.sub_id)
        assert after.result == sub.result
        assert after.scores == fresh_scores(manager, sub.query)

    def test_sink_exceptions_are_non_fatal(self):
        manager = make_manager(seed=93)
        engine = SubscriptionEngine(manager)

        def broken(notice):
            raise RuntimeError("subscriber went away")

        sub = engine.register(sgkq(["boom-kw"], 2.0), sink=broken)
        node = next(iter(manager.state.network.object_nodes()))
        swap = manager.apply([AddKeyword(node, "boom-kw")])
        assert swap.epoch == 1  # the swap itself survived
        assert node in engine.registry.get(sub.sub_id).result
        kinds = [event["kind"] for event in global_events().tail(64)]
        assert "sub_sink_error" in kinds


class TestRoutingSelectivity:
    """A subscription is re-evaluated iff its term or a fragment
    intersecting its radius changed."""

    def test_keyword_delta_only_touches_matching_terms(self):
        manager = make_manager(seed=95)
        engine = SubscriptionEngine(manager)
        sub_a = engine.register(sgkq(["kw-a"], 2.0))
        sub_b = engine.register(sgkq(["kw-b"], 2.0))
        calls = record_reevaluations(engine)

        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "kw-a")])
        assert calls == [sub_a.sub_id]

        calls.clear()
        manager.apply([AddKeyword(node, "kw-b")])
        assert calls == [sub_b.sub_id]

    def test_scoped_sub_ignores_out_of_scope_keyword_changes(self):
        # A finite maxR keeps keyword maintenance fragment-local, so a
        # far-away keyword change produces a delta disjoint from a tight
        # RKQ's scope.  (With maxR=∞ every fragment's DL can reference
        # every carrier, and keyword deltas go global.)
        manager = make_manager(seed=96, max_radius=2.0)
        engine = SubscriptionEngine(manager)
        net = manager.state.network
        num_fragments = len(manager.state.fragments)
        # A tightly scoped RKQ on a keyword nobody carries yet.
        sub = None
        for location in sorted(net.object_nodes()):
            candidate = engine.register(rkq(location, ["scoped-kw"], 1.0))
            assert candidate.scope is not None
            if len(candidate.scope) < num_fragments:
                sub = candidate
                break
            engine.unregister(candidate.sub_id)
        assert sub is not None, "no location produced a partial scope"

        calls = record_reevaluations(engine)
        skipped = reevaluated = 0
        for node in sorted(net.object_nodes()):
            calls.clear()
            swap = manager.apply([AddKeyword(node, "scoped-kw")])
            # The iff-contract: the sub's own keyword changed, so it is
            # re-evaluated exactly when the delta intersects its scope.
            hit = bool(set(swap.changed_fragments) & sub.scope)
            assert (sub.sub_id in calls) == hit
            if hit:
                reevaluated += 1
            else:
                skipped += 1
            # Skipping was sound: the result still matches from scratch.
            assert engine.registry.get(sub.sub_id).result == fresh_answer(
                manager, sub.query
            )
        assert reevaluated, "no keyword change ever intersected the scope"
        assert skipped, "every keyword change intersected the scope"

    def test_topology_delta_reevaluates_regardless_of_keywords(self):
        manager = make_manager(seed=97)
        engine = SubscriptionEngine(manager)
        sub = engine.register(sgkq(["unrelated-kw"], 2.0))
        calls = record_reevaluations(engine)
        net = manager.state.network
        u, (v, w) = 0, next(iter(net.neighbors(0)))
        manager.apply([SetEdgeWeight(u, v, w * 1.5)])
        assert calls == [sub.sub_id]


class TestObservability:
    def test_metrics_gauge_counter_histogram(self):
        manager = make_manager(seed=98)
        metrics = MetricsRegistry()
        engine = SubscriptionEngine(manager, metrics=metrics)
        engine.register(sgkq(["obs-kw"], 2.0), sink=lambda notice: None)
        assert metrics.gauge("subscriptions")["current"] == 1

        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "obs-kw")])
        assert metrics.counter("sub_notifications") == 1
        assert metrics.histogram("sub_reeval_seconds").count == 1

        engine.unregister("s1")
        assert metrics.gauge("subscriptions")["current"] == 0

    def test_stats_surface_registry_shape(self):
        manager = make_manager(seed=99)
        engine = SubscriptionEngine(manager)
        engine.register(sgkq(["w0"], 2.0))
        location = next(iter(manager.state.network.object_nodes()))
        engine.register(rkq(location, ["w1"], 2.0))
        stats = engine.stats()
        assert stats["subscriptions"] == 2
        assert stats["unscoped"] == 1
        assert stats["scoped"] == 1


class TestDifferential:
    """Acceptance: incremental == from-scratch after any update sequence."""

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(seed=st.integers(0, 400), batch_size=st.integers(2, 6))
    def test_incremental_matches_from_scratch(self, seed, batch_size):
        manager = make_manager(seed=seed)
        engine = SubscriptionEngine(manager)
        net = manager.state.network
        generator = QueryGenerator(net, QueryGenConfig(seed=seed))
        queries = [generator.sgkq(2, 3.0) for _ in range(2)]
        queries += [generator.rkq(2, 4.0) for _ in range(2)]
        subs = [
            engine.register(query, scored=(i % 3 == 2))
            for i, query in enumerate(queries)
        ]

        stream = UpdateStreamGenerator(net, UpdateGenConfig(seed=seed))
        for batch in stream.batches(4, batch_size):
            manager.apply(batch)
            for sub in subs:
                live = engine.registry.get(sub.sub_id)
                # Unaffected subs keep their (still valid) older epoch.
                assert live.epoch <= manager.epoch
                assert live.result == fresh_answer(manager, sub.query)
                if sub.scored:
                    assert live.scores == fresh_scores(manager, sub.query)

        # Self-check: the naive full re-run finds nothing the
        # incremental path missed.
        assert engine.reevaluate_all() == []
