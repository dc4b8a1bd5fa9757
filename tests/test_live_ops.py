"""Tests for typed update ops, the write-ahead log, and the stream generator."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import GraphError, LiveUpdateError
from repro.graph.road_network import RoadNetwork
from repro.live import (
    AddKeyword,
    RemoveKeyword,
    SetEdgeWeight,
    UpdateLog,
    op_from_record,
    write_ops,
)
from repro.workloads import UpdateGenConfig, UpdateStreamGenerator

from helpers import make_random_network


@pytest.fixture(scope="module")
def net() -> RoadNetwork:
    return make_random_network(seed=700, num_junctions=18, num_objects=10, vocabulary=4)


class TestOpRecords:
    def test_round_trip_every_kind(self):
        ops = [
            AddKeyword(node=3, keyword="cafe"),
            RemoveKeyword(node=7, keyword="fuel"),
            SetEdgeWeight(u=1, v=2, weight=3.25),
        ]
        for op in ops:
            record = op.to_record()
            # Records must be JSON-serialisable and lossless.
            assert op_from_record(json.loads(json.dumps(record))) == op

    def test_record_kinds_are_stable(self):
        assert AddKeyword(0, "x").to_record()["op"] == "add_keyword"
        assert RemoveKeyword(0, "x").to_record()["op"] == "remove_keyword"
        assert SetEdgeWeight(0, 1, 1.0).to_record()["op"] == "set_edge_weight"

    def test_unknown_kind_rejected(self):
        with pytest.raises(LiveUpdateError, match="unknown"):
            op_from_record({"op": "drop_table", "node": 0})

    def test_malformed_record_rejected(self):
        with pytest.raises(LiveUpdateError, match="malformed"):
            op_from_record({"op": "add_keyword", "node": 0})  # missing keyword
        with pytest.raises(LiveUpdateError, match="malformed"):
            op_from_record({"op": "set_edge_weight", "u": 0, "v": "not-a-node"})


class TestValidation:
    def test_add_to_junction_rejected(self, net):
        junction = next(n for n in net.nodes() if not net.is_object(n))
        with pytest.raises(LiveUpdateError, match="junction"):
            AddKeyword(node=junction, keyword="x").validate(net)

    def test_add_empty_keyword_rejected(self, net):
        node = next(iter(net.object_nodes()))
        with pytest.raises(LiveUpdateError, match="invalid keyword"):
            AddKeyword(node=node, keyword="").validate(net)

    def test_unknown_node_rejected(self, net):
        with pytest.raises(LiveUpdateError, match="does not exist"):
            AddKeyword(node=net.num_nodes + 5, keyword="x").validate(net)
        with pytest.raises(LiveUpdateError, match="does not exist"):
            RemoveKeyword(node=-1, keyword="x").validate(net)

    def test_missing_edge_rejected(self, net):
        # Find a non-adjacent pair.
        u = 0
        neighbors = {v for v, _w in net.neighbors(u)}
        v = next(n for n in net.nodes() if n != u and n not in neighbors)
        with pytest.raises(LiveUpdateError, match="no edge"):
            SetEdgeWeight(u=u, v=v, weight=1.0).validate(net)

    def test_bad_weights_rejected(self, net):
        u, (v, _w) = 0, next(iter(net.neighbors(0)))
        for weight in (0.0, -1.0, float("inf"), float("nan"), True, "2.0"):
            with pytest.raises(LiveUpdateError):
                SetEdgeWeight(u=u, v=v, weight=weight).validate(net)

    def test_valid_ops_pass(self, net):
        node = next(iter(net.object_nodes()))
        AddKeyword(node=node, keyword="fresh").validate(net)
        RemoveKeyword(node=node, keyword="whatever").validate(net)
        u, (v, w) = 0, next(iter(net.neighbors(0)))
        SetEdgeWeight(u=u, v=v, weight=w * 2).validate(net)


class TestUpdateLog:
    def test_append_commit_replay(self, tmp_path):
        log = UpdateLog(tmp_path / "wal.jsonl")
        batch1 = [AddKeyword(1, "a"), SetEdgeWeight(0, 1, 2.0)]
        batch2 = [RemoveKeyword(1, "a")]
        for op in batch1:
            log.append(op)
        log.commit(1, len(batch1))
        for op in batch2:
            log.append(op)
        log.commit(2, len(batch2))
        log.close()

        committed, pending = UpdateLog(tmp_path / "wal.jsonl").replay()
        assert pending == []
        assert [record.epoch for record in committed] == [1, 2]
        assert list(committed[0].ops) == batch1
        assert list(committed[1].ops) == batch2

    def test_sequence_numbers_survive_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = UpdateLog(path)
        assert log.append(AddKeyword(1, "a")) == 0
        assert log.append(AddKeyword(1, "b")) == 1
        log.commit(1, 2)
        log.close()
        with UpdateLog(path) as reopened:
            assert reopened.append(AddKeyword(1, "c")) == 2

    def test_pending_tail_surfaced(self, tmp_path):
        log = UpdateLog(tmp_path / "wal.jsonl")
        log.append(AddKeyword(1, "a"))
        log.commit(1, 1)
        log.append(AddKeyword(2, "b"))  # never committed
        log.close()
        committed, pending = log.replay()
        assert len(committed) == 1
        assert pending == [AddKeyword(2, "b")]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        write_ops(path, [[AddKeyword(1, "a")]])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "op": "add_key')  # crash mid-append
        committed, pending = UpdateLog(path).replay()
        assert [record.epoch for record in committed] == [1]
        assert pending == []

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        lines = [
            '{"seq": 0, "op": "add_keyword", "node": 1, "keyword": "a"}',
            "garbage not json",
            '{"commit": 1, "ops": 1}',
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LiveUpdateError, match="corrupt"):
            UpdateLog(path).replay()

    def test_overreaching_commit_marker_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"seq": 0, "op": "add_keyword", "node": 1, "keyword": "a"}\n'
            '{"commit": 1, "ops": 5}\n',
            encoding="utf-8",
        )
        with pytest.raises(LiveUpdateError, match="commit marker"):
            UpdateLog(path).replay()

    def test_committed_ops_flattened_in_order(self, tmp_path):
        path = write_ops(
            tmp_path / "wal.jsonl",
            [[AddKeyword(1, "a"), AddKeyword(2, "b")], [RemoveKeyword(1, "a")]],
        )
        assert UpdateLog(path).committed_ops() == [
            AddKeyword(1, "a"),
            AddKeyword(2, "b"),
            RemoveKeyword(1, "a"),
        ]

    def test_missing_file_replays_empty(self, tmp_path):
        assert UpdateLog(tmp_path / "never-written.jsonl").replay() == ([], [])


class TestUpdateStreamGenerator:
    def test_deterministic_per_seed(self, net):
        a = UpdateStreamGenerator(net, UpdateGenConfig(seed=9)).ops(30)
        b = UpdateStreamGenerator(net, UpdateGenConfig(seed=9)).ops(30)
        assert [op.to_record() for op in a] == [op.to_record() for op in b]
        c = UpdateStreamGenerator(net, UpdateGenConfig(seed=10)).ops(30)
        assert [op.to_record() for op in a] != [op.to_record() for op in c]

    def test_stream_is_valid_in_sequence(self, net):
        """Every op validates against the network state at its position."""
        stream = UpdateStreamGenerator(net, UpdateGenConfig(seed=4)).ops(60)
        current = net
        for op in stream:
            op.validate(current)
            if isinstance(op, AddKeyword):
                assert op.keyword not in current.keywords(op.node)
                current = current.with_node_keywords(
                    op.node, current.keywords(op.node) | {op.keyword}
                )
            elif isinstance(op, RemoveKeyword):
                assert op.keyword in current.keywords(op.node)
                current = current.with_node_keywords(
                    op.node, current.keywords(op.node) - {op.keyword}
                )
            else:
                assert isinstance(op, SetEdgeWeight)
                current = current.with_edge_weight(op.u, op.v, op.weight)

    def test_mix_covers_all_kinds(self, net):
        stream = UpdateStreamGenerator(net, UpdateGenConfig(seed=2)).ops(60)
        kinds = {op.kind for op in stream}
        assert kinds == {"add_keyword", "remove_keyword", "set_edge_weight"}

    def test_single_kind_mix(self, net):
        config = UpdateGenConfig(seed=3, add_fraction=1.0, remove_fraction=0.0, edge_fraction=0.0)
        stream = UpdateStreamGenerator(net, config).ops(20)
        assert all(op.kind == "add_keyword" for op in stream)

    def test_batches_shape(self, net):
        batches = UpdateStreamGenerator(net, UpdateGenConfig(seed=5)).batches(4, 7)
        assert len(batches) == 4
        assert all(len(batch) == 7 for batch in batches)

    def test_bad_config_rejected(self, net):
        with pytest.raises(GraphError, match="mix weights"):
            UpdateStreamGenerator(
                net,
                UpdateGenConfig(add_fraction=0.0, remove_fraction=0.0, edge_fraction=0.0),
            )
        with pytest.raises(GraphError, match="weight_scale_range"):
            UpdateStreamGenerator(net, UpdateGenConfig(weight_scale_range=(0.0, 2.0)))
