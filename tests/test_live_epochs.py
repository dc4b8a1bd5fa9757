"""Tests for the epoch-versioned update pipeline (`repro.live.epochs`).

The gold standard throughout: after any batch sequence, queries against
the published epoch must match both a centralized oracle on the updated
network and a from-scratch index rebuild.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, sgkq
from repro.core.executor import execute_fragment_task
from repro.exceptions import LiveUpdateError
from repro.live import (
    AddKeyword,
    EpochManager,
    EpochState,
    RemoveKeyword,
    SetEdgeWeight,
    UpdateLog,
)
from repro.partition import BfsPartitioner
from repro.workloads import UpdateGenConfig, UpdateStreamGenerator

from helpers import make_random_network


def build_base(seed: int, k: int = 3, max_radius: float = math.inf):
    net = make_random_network(seed=seed, num_junctions=18, num_objects=10, vocabulary=4)
    partition = BfsPartitioner(seed=seed).partition(net, k)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=max_radius))
    return net, partition, fragments, list(indexes)


def make_manager(seed: int, log: UpdateLog | None = None) -> EpochManager:
    net, partition, fragments, indexes = build_base(seed)
    return EpochManager(
        network=net, partition=partition, fragments=fragments, indexes=indexes, log=log
    )


def state_answers(state: EpochState, query) -> frozenset[int]:
    merged: set[int] = set()
    for runtime in state.runtimes():
        merged |= execute_fragment_task(runtime, query).local_result
    return frozenset(merged)


def probe_queries(state: EpochState):
    keywords = sorted(state.network.all_keywords())[:2]
    for radius in (1.5, 4.0):
        yield sgkq(keywords, radius)


class TestApply:
    def test_apply_advances_epoch_and_matches_oracle(self):
        manager = make_manager(seed=100)
        node = next(iter(manager.state.network.object_nodes()))
        u, (v, w) = 0, next(iter(manager.state.network.neighbors(0)))
        swap = manager.apply(
            [AddKeyword(node, "pop"), SetEdgeWeight(u, v, w * 1.7)]
        )
        assert swap.epoch == 1
        assert manager.epoch == 1
        assert swap.num_ops == 2
        assert swap.ops_by_kind == {"add_keyword": 1, "set_edge_weight": 1}
        assert swap.changed_fragments  # something must have changed
        oracle = CentralizedEvaluator(manager.state.network)
        for query in probe_queries(manager.state):
            assert state_answers(manager.state, query) == oracle.results(query)

    def test_apply_matches_from_scratch_rebuild(self):
        manager = make_manager(seed=101)
        gen = UpdateStreamGenerator(manager.state.network, UpdateGenConfig(seed=101))
        for batch in gen.batches(3, 5):
            manager.apply(batch)
        state = manager.state
        assert state.epoch == 3

        rebuilt_fragments = build_fragments(state.network, state.partition)
        rebuilt, _ = build_all_indexes(
            state.network, rebuilt_fragments, NPDBuildConfig(max_radius=math.inf)
        )
        rebuilt_state = EpochState(
            epoch=state.epoch,
            network=state.network,
            partition=state.partition,
            fragments=tuple(rebuilt_fragments),
            indexes=tuple(rebuilt),
        )
        for query in probe_queries(state):
            assert state_answers(state, query) == state_answers(rebuilt_state, query)

    def test_row_view_outlives_keyword_batches_not_edge_weights(self):
        """One view per topology across applies, though each apply makes
        its own maintainer: keyword epochs share adjacency."""
        manager = make_manager(seed=104)
        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "pop")])
        view = manager._search
        assert view is not None
        manager.apply([RemoveKeyword(node, "pop")])
        assert manager._search is view
        u, (v, w) = 0, next(iter(manager.state.network.neighbors(0)))
        manager.apply([SetEdgeWeight(u, v, w * 1.7)])
        assert manager._search is not view
        assert dict(manager._search.rows[u])[v] == manager.state.network.edge_weight(u, v)

    def test_empty_batch_rejected(self):
        manager = make_manager(seed=102)
        with pytest.raises(LiveUpdateError, match="empty"):
            manager.apply([])

    def test_invalid_op_rejects_whole_batch(self):
        """All-or-nothing: a bad op leaves the current epoch untouched."""
        manager = make_manager(seed=103)
        node = next(iter(manager.state.network.object_nodes()))
        before = manager.state
        with pytest.raises(LiveUpdateError):
            manager.apply(
                [AddKeyword(node, "ok"), AddKeyword(before.network.num_nodes + 1, "bad")]
            )
        assert manager.state is before
        assert manager.epoch == 0
        assert manager.history == ()

    def test_old_epoch_drains_untouched(self):
        """Readers holding epoch N keep answering on N during/after a swap."""
        manager = make_manager(seed=104)
        old_state = manager.state
        query = sgkq(sorted(old_state.network.all_keywords())[:1], 3.0)
        before = state_answers(old_state, query)

        carriers = [
            n
            for n in old_state.network.object_nodes()
            if sorted(old_state.network.all_keywords())[0]
            in old_state.network.keywords(n)
        ]
        ops = [
            RemoveKeyword(n, sorted(old_state.network.all_keywords())[0])
            for n in carriers
        ]
        manager.apply(ops)

        # The old reference is frozen: same epoch, same answers.
        assert old_state.epoch == 0
        assert state_answers(old_state, query) == before
        # The new epoch sees the change.
        assert manager.state.epoch == 1
        assert state_answers(manager.state, query) != before

    def test_subscribers_receive_minimal_delta(self):
        manager = make_manager(seed=105)
        seen: list[tuple[int, set[int]]] = []
        manager.subscribe(lambda state, delta: seen.append((state.epoch, set(delta))))
        node = next(iter(manager.state.network.object_nodes()))
        swap = manager.apply([AddKeyword(node, "delta-probe")])
        assert seen == [(1, set(swap.changed_fragments))]
        # Delta pairs are the published epoch's objects.
        manager.subscribe(
            lambda state, delta: [
                state.indexes[fid] is pair[1] for fid, pair in delta.items()
            ]
        )


class TestDeltaFrom:
    """Satellite: `EpochState.delta_from` edge cases."""

    def test_empty_change_set_yields_empty_delta(self):
        manager = make_manager(seed=120)
        assert manager.state.delta_from([]) == {}

    def test_all_fragments_delta_is_the_identity_pairing(self):
        manager = make_manager(seed=121)
        state = manager.state
        delta = state.delta_from(range(len(state.fragments)))
        assert set(delta) == set(range(len(state.fragments)))
        for fid, (fragment, index) in delta.items():
            assert state.fragments[fid] is fragment
            assert state.indexes[fid] is index

    def test_remove_keyword_only_delta(self):
        """A RemoveKeyword-only batch is a keyword delta: the swap names
        the keyword, no topology flag, and the delta pairs are the new
        epoch's objects for exactly the changed fragments."""
        manager = make_manager(seed=122)
        net = manager.state.network
        keyword = sorted(net.all_keywords())[0]
        carrier = next(
            n for n in net.object_nodes() if keyword in net.keywords(n)
        )
        seen: list[dict] = []
        manager.subscribe(lambda state, delta: seen.append(delta))
        swap = manager.apply([RemoveKeyword(carrier, keyword)])
        assert swap.ops_by_kind == {"remove_keyword": 1}
        assert swap.changed_keywords == (keyword,)
        assert swap.topology_changed is False
        [delta] = seen
        assert set(delta) == set(swap.changed_fragments)
        state = manager.state
        for fid, (fragment, index) in delta.items():
            assert state.fragments[fid] is fragment
            assert state.indexes[fid] is index

    def test_edge_op_sets_topology_flag(self):
        manager = make_manager(seed=123)
        u, (v, w) = 0, next(iter(manager.state.network.neighbors(0)))
        node = next(iter(manager.state.network.object_nodes()))
        swap = manager.apply([AddKeyword(node, "both"), SetEdgeWeight(u, v, w * 2)])
        assert swap.topology_changed is True
        assert swap.changed_keywords == ("both",)
        assert swap.to_dict()["topology_changed"] is True
        assert swap.to_dict()["changed_keywords"] == ["both"]


class TestSubscriberChannel:
    """Satellite: unsubscribe + non-fatal subscriber failures."""

    def test_unsubscribe_stops_deliveries(self):
        manager = make_manager(seed=130)
        node = next(iter(manager.state.network.object_nodes()))
        calls: list[int] = []
        subscriber = lambda state, delta: calls.append(state.epoch)  # noqa: E731
        manager.subscribe(subscriber)
        manager.apply([AddKeyword(node, "one")])
        assert calls == [1]
        assert manager.unsubscribe(subscriber) is True
        assert manager.unsubscribe(subscriber) is False  # idempotent
        manager.apply([AddKeyword(node, "two")])
        assert calls == [1]

    def test_unsubscribe_swap_subscriber(self):
        manager = make_manager(seed=131)
        node = next(iter(manager.state.network.object_nodes()))
        swaps: list[tuple[int, bool]] = []
        subscriber = lambda state, delta, swap: swaps.append(  # noqa: E731
            (swap.epoch, swap.topology_changed)
        )
        manager.subscribe_swaps(subscriber)
        manager.apply([AddKeyword(node, "swap-probe")])
        assert swaps == [(1, False)]
        assert manager.unsubscribe(subscriber) is True
        manager.apply([AddKeyword(node, "swap-probe-2")])
        assert swaps == [(1, False)]

    def test_broken_subscriber_is_non_fatal(self):
        from repro.obs.events import global_events

        manager = make_manager(seed=132)
        node = next(iter(manager.state.network.object_nodes()))

        def broken(state, delta):
            raise RuntimeError("subscriber crashed")

        healthy: list[int] = []
        manager.subscribe(broken)
        manager.subscribe(lambda state, delta: healthy.append(state.epoch))
        swap = manager.apply([AddKeyword(node, "resilient")])
        # The swap published, later subscribers still ran...
        assert swap.epoch == 1
        assert manager.epoch == 1
        assert healthy == [1]
        # ...and the failure surfaced as an obs event, not an exception.
        errors = [
            event
            for event in global_events().tail(64)
            if event["kind"] == "subscriber_error"
        ]
        assert errors and "subscriber crashed" in errors[-1]["error"]


class TestRecovery:
    def test_recover_replays_committed_prefix(self, tmp_path):
        log = UpdateLog(tmp_path / "wal.jsonl")
        manager = make_manager(seed=110, log=log)
        gen = UpdateStreamGenerator(manager.state.network, UpdateGenConfig(seed=110))
        for batch in gen.batches(3, 4):
            manager.apply(batch)
        log.close()

        net, partition, fragments, indexes = build_base(seed=110)
        recovered, pending = EpochManager.recover(
            net, partition, fragments, indexes, UpdateLog(tmp_path / "wal.jsonl")
        )
        assert pending == []
        assert recovered.epoch == manager.epoch == 3
        assert recovered.state.indexes == manager.state.indexes
        for query in probe_queries(manager.state):
            assert state_answers(recovered.state, query) == state_answers(
                manager.state, query
            )

    def test_recover_surfaces_pending_tail(self, tmp_path):
        log = UpdateLog(tmp_path / "wal.jsonl")
        manager = make_manager(seed=111, log=log)
        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "committed")])
        # Simulate a crash between append and commit.
        log.append(AddKeyword(node, "in-flight"))
        log.close()

        net, partition, fragments, indexes = build_base(seed=111)
        with UpdateLog(tmp_path / "wal.jsonl") as wal:
            recovered, pending = EpochManager.recover(net, partition, fragments, indexes, wal)
            assert recovered.epoch == 1
            assert pending == [AddKeyword(node, "in-flight")]
            # The tail is re-submittable: applying it continues the history.
            swap = recovered.apply(pending)
        assert swap.epoch == 2

    def test_recovered_manager_logs_new_batches(self, tmp_path):
        log = UpdateLog(tmp_path / "wal.jsonl")
        manager = make_manager(seed=112, log=log)
        node = next(iter(manager.state.network.object_nodes()))
        manager.apply([AddKeyword(node, "first")])
        log.close()

        net, partition, fragments, indexes = build_base(seed=112)
        with UpdateLog(tmp_path / "wal.jsonl") as wal:
            recovered, _ = EpochManager.recover(net, partition, fragments, indexes, wal)
            recovered.apply([AddKeyword(node, "second")])
        committed, _ = UpdateLog(tmp_path / "wal.jsonl").replay()
        # Replay did not double-log epoch 1; the new batch is epoch 2.
        assert [record.epoch for record in committed] == [1, 2]


class TestRandomInterleavings:
    """Satellite: random update/query interleavings match a full rebuild."""

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(seed=st.integers(0, 400), batch_size=st.integers(2, 6))
    def test_stream_with_interleaved_queries_matches_rebuild(self, seed, batch_size):
        manager = make_manager(seed=seed)
        gen = UpdateStreamGenerator(
            manager.state.network, UpdateGenConfig(seed=seed)
        )
        for batch in gen.batches(3, batch_size):
            manager.apply(batch)
            # Interleaved queries: after every batch the published epoch
            # agrees with the centralized oracle on its own network.
            state = manager.state
            oracle = CentralizedEvaluator(state.network)
            for query in probe_queries(state):
                assert state_answers(state, query) == oracle.results(query)

        # Final state also matches a from-scratch index rebuild.
        state = manager.state
        rebuilt_fragments = build_fragments(state.network, state.partition)
        rebuilt, _ = build_all_indexes(
            state.network, rebuilt_fragments, NPDBuildConfig(max_radius=math.inf)
        )
        rebuilt_state = EpochState(
            epoch=state.epoch,
            network=state.network,
            partition=state.partition,
            fragments=tuple(rebuilt_fragments),
            indexes=tuple(rebuilt),
        )
        for query in probe_queries(state):
            assert state_answers(state, query) == state_answers(rebuilt_state, query)
