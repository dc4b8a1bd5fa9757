"""Tests for the extension features: strict Rules 3/4, top-k, batches, CLI."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import DisksEngine, EngineConfig, sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import (
    KeywordSource,
    NodeSource,
    NPDBuildConfig,
    TopKQuery,
    build_all_indexes,
    build_fragments,
)
from repro.core.topk import merge_topk
from repro.exceptions import QueryError, RadiusExceededError, UnknownKeywordError
from repro.graph import RoadNetworkBuilder
from repro.partition import BfsPartitioner
from repro.search import shortest_path_distances

from helpers import make_random_network, oracle_distances


def tied_network():
    """A graph with deliberate shortest-path ties (integer weights)."""
    b = RoadNetworkBuilder()
    nodes = [b.add_object({f"w{i}"}) if i % 2 == 0 else b.add_junction() for i in range(8)]
    edges = [
        (0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 2, 1.0),  # two 0->2 paths of length 2
        (2, 4, 1.0), (4, 5, 1.0), (2, 6, 1.0), (6, 5, 1.0),  # two 2->5 paths of length 2
        (5, 7, 1.0),
    ]
    for u, v, w in edges:
        b.add_edge(u, v, w)
    return b.build()


class TestStrictTieRules:
    def _indexes(self, net, partition, strict: bool):
        fragments = build_fragments(net, partition)
        config = NPDBuildConfig(max_radius=math.inf, strict_tie_rules=strict)
        indexes, _ = build_all_indexes(net, fragments, config)
        return fragments, indexes

    def test_strict_is_subset_of_relaxed(self):
        net = tied_network()
        partition = BfsPartitioner(seed=1).partition(net, 3)
        _f1, relaxed = self._indexes(net, partition, strict=False)
        _f2, strict = self._indexes(net, partition, strict=True)
        for rel, str_ in zip(relaxed, strict):
            assert set(str_.shortcuts) <= set(rel.shortcuts)
            for kw, pairs in str_.keyword_entries.items():
                strict_pairs = set(zip(*pairs))
                relaxed_pairs = set(zip(*rel.keyword_entries.get(kw, ())))
                assert strict_pairs <= relaxed_pairs

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 800), k=st.integers(2, 4))
    def test_strict_mode_remains_exact(self, seed, k):
        """Rule 3/4 strictness must not break Theorem 1/3 exactness."""
        net = make_random_network(seed=seed, num_junctions=16, num_objects=8, vocabulary=4)
        engine = DisksEngine.build(
            net,
            EngineConfig(
                num_fragments=k,
                lambda_factor=None,
                max_radius=math.inf,
                partitioner=BfsPartitioner(seed=seed),
            ),
        )
        # Rebuild the same fragments strictly and compare answers.
        from repro.core.coverage import FragmentRuntime
        from repro.core.executor import execute_fragment_task

        fragments, strict_indexes = self._indexes(net, engine.partition, strict=True)
        oracle = CentralizedEvaluator(net)
        keywords = sorted(net.all_keywords())[:2]
        for radius in (1.5, 4.0):
            query = sgkq(keywords, radius)
            merged: set[int] = set()
            for fragment, index in zip(fragments, strict_indexes):
                runtime = FragmentRuntime(fragment, index)
                merged |= execute_fragment_task(runtime, query).local_result
            assert merged == oracle.results(query)

    def test_strict_mode_exact_on_tied_graph(self):
        net = tied_network()
        partition = BfsPartitioner(seed=2).partition(net, 3)
        fragments, indexes = self._indexes(net, partition, strict=True)
        from repro.core.coverage import FragmentRuntime

        oracle = oracle_distances(net, [0])
        for fragment, index in zip(fragments, indexes):
            runtime = FragmentRuntime(fragment, index)
            if 0 in fragment.members:
                local = shortest_path_distances(runtime.adjacency, [0])
                for member in fragment.members:
                    assert local.get(member, math.inf) == pytest.approx(
                        oracle.get(member, math.inf)
                    )


@pytest.fixture(scope="module")
def topk_engine():
    net = make_random_network(seed=900, num_junctions=30, num_objects=15, vocabulary=5)
    return net, DisksEngine.build(
        net,
        EngineConfig(
            num_fragments=4,
            lambda_factor=None,
            max_radius=math.inf,
            partitioner=BfsPartitioner(seed=9),
        ),
    )


class TestTopK:
    def test_validation(self):
        with pytest.raises(QueryError):
            TopKQuery(KeywordSource("a"), 0, 1.0)
        with pytest.raises(QueryError):
            TopKQuery(KeywordSource("a"), 1, -1.0)

    def test_keyword_topk_matches_brute_force(self, topk_engine):
        net, engine = topk_engine
        seeds = [n for n in net.nodes() if "w0" in net.keywords(n)]
        oracle = oracle_distances(net, seeds)
        expected = sorted(oracle.items(), key=lambda kv: (kv[1], kv[0]))[:5]
        result = engine.top_k(TopKQuery(KeywordSource("w0"), 5, 50.0))
        assert result.saturated
        assert [n for n, _ in result.ranking] == [n for n, _ in expected]
        for (node, dist), (_enode, edist) in zip(result.ranking, expected):
            assert dist == pytest.approx(edist)

    def test_node_topk_is_knn(self, topk_engine):
        net, engine = topk_engine
        location = next(iter(net.object_nodes()))
        oracle = oracle_distances(net, [location])
        expected = sorted(oracle.items(), key=lambda kv: (kv[1], kv[0]))[:4]
        result = engine.top_k(TopKQuery(NodeSource(location), 4, 50.0))
        assert [n for n, _ in result.ranking] == [n for n, _ in expected]

    def test_radius_limits_candidates(self, topk_engine):
        net, engine = topk_engine
        result = engine.top_k(TopKQuery(KeywordSource("w0"), 10_000, 2.0))
        assert not result.saturated
        assert all(dist <= 2.0 for _n, dist in result.ranking)

    def test_unknown_keyword(self, topk_engine):
        _net, engine = topk_engine
        with pytest.raises(UnknownKeywordError):
            engine.top_k(TopKQuery(KeywordSource("missing"), 3, 1.0))

    def test_radius_beyond_maxr(self):
        net = make_random_network(seed=901, num_junctions=15, num_objects=8)
        engine = DisksEngine.build(
            net, EngineConfig(num_fragments=2, lambda_factor=2.0)
        )
        with pytest.raises(RadiusExceededError):
            engine.top_k(TopKQuery(KeywordSource("w0"), 3, engine.max_radius * 2))

    def test_merge_handles_duplicate_free_fragments(self):
        from repro.core.topk import TopKTaskResult

        query = TopKQuery(KeywordSource("w"), 3, 10.0)
        results = [
            TopKTaskResult(0, ((1, 1.0), (2, 3.0)), 0.0),
            TopKTaskResult(1, ((3, 2.0),), 0.0),
        ]
        merged = merge_topk(query, results)
        assert merged.ranking == ((1, 1.0), (3, 2.0), (2, 3.0))
        assert merged.saturated


class TestBatchReport:
    def test_throughput_accounting(self, topk_engine):
        net, engine = topk_engine
        batch = [sgkq(["w0"], 2.0), sgkq(["w1", "w2"], 3.0)]
        report = engine.execute_many(batch)
        assert len(report.reports) == 2
        assert report.total_response_seconds == pytest.approx(
            sum(r.response_seconds for r in report.reports)
        )
        assert report.queries_per_second > 0
        assert report.total_message_bytes == sum(
            r.total_message_bytes for r in report.reports
        )

    def test_empty_batch_rejected(self, topk_engine):
        _net, engine = topk_engine
        from repro.exceptions import DisksError

        with pytest.raises(DisksError):
            engine.execute_many([])


class TestCLI:
    def test_demo(self, capsys):
        from repro.cli import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "B, E" in out
        assert "D" in out

    def test_info(self, capsys):
        from repro.cli import main

        assert main(["info", "--dataset", "aus_tiny"]) == 0
        assert "aus_tiny" in capsys.readouterr().out

    def test_build_then_query(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "deploy"
        assert main([
            "build", "--dataset", "aus_tiny", "--fragments", "3",
            "--lambda-factor", "10", "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "fragment-2.npf").exists()
        assert main([
            "query", "--dir", str(out_dir), "--keywords", "kw0000", "--radius", "4",
        ]) == 0
        assert "results" in capsys.readouterr().out

    def test_query_radius_over_maxr(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "deploy"
        main(["build", "--dataset", "aus_tiny", "--fragments", "2",
              "--lambda-factor", "5", "--out", str(out_dir)])
        code = main(["query", "--dir", str(out_dir),
                     "--keywords", "kw0000", "--radius", "9999"])
        assert code == 2

    def test_query_missing_manifest(self, tmp_path):
        from repro.cli import main

        assert main(["query", "--dir", str(tmp_path),
                     "--keywords", "a", "--radius", "1"]) == 1

    def test_cli_query_matches_engine(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import load_dataset

        out_dir = tmp_path / "deploy"
        main(["build", "--dataset", "aus_tiny", "--fragments", "4",
              "--lambda-factor", "10", "--out", str(out_dir)])
        assert main(["query", "--dir", str(out_dir),
                     "--keywords", "kw0000,kw0001", "--radius", "5"]) == 0
        out = capsys.readouterr().out
        result_line = next(line for line in out.splitlines() if " results (" in line)
        count = int(result_line.split(":")[-1].strip().split()[0])
        dataset = load_dataset("aus_tiny")
        expected = CentralizedEvaluator(dataset.network).results(
            sgkq(["kw0000", "kw0001"], 5.0)
        )
        assert count == len(expected)

    def test_serve_refuses_a_foreign_index_file(self, tmp_path, capsys, monkeypatch):
        """An index built for another partition is refused before any worker forks."""
        from repro.cli import _load_built, main
        from repro.dist import process_cluster
        from repro.exceptions import IndexBuildError
        from repro.partition import MultilevelPartitioner
        from repro.storage import write_index_file
        from repro.workloads import load_dataset

        out_dir = tmp_path / "deploy"
        main(["build", "--dataset", "aus_tiny", "--fragments", "3",
              "--lambda-factor", "10", "--out", str(out_dir)])
        network = load_dataset("aus_tiny").network
        foreign = DisksEngine.build(
            network,
            EngineConfig(
                num_fragments=3, lambda_factor=10, partitioner=MultilevelPartitioner(seed=1)
            ),
        )
        write_index_file(foreign.indexes[1], out_dir / "index-1.npd")

        with pytest.raises(IndexBuildError):
            _load_built(out_dir)

        def no_fork(*args, **kwargs):
            raise AssertionError("workers forked for an unvalidated deployment")

        monkeypatch.setattr(process_cluster, "spawn_workers", no_fork)
        assert main(["serve", "--dir", str(out_dir), "--machines", "2"]) == 1
        assert "index validation failed" in capsys.readouterr().err
