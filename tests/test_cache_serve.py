"""The semantic result cache wired into the serving layer.

Every test drives a real process-backed :class:`PipelinedCluster`
through ``serve_in_thread`` with ``ServeConfig(cache=True)`` — the
exact production wiring — and checks that cached answers (exact *and*
subsumption-served) are bit-identical to an independent
:class:`SimulatedCluster` reference, on both the NDJSON and binary
wire protocols.
"""

from __future__ import annotations

import math

import pytest

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.dist import SimulatedCluster
from repro.live import AddKeyword, EpochManager
from repro.partition import BfsPartitioner
from repro.serve import (
    BinaryServeClient,
    MetricsRegistry,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    serve_in_thread,
)

from helpers import make_random_network


def build_state(seed: int = 650):
    net = make_random_network(seed=seed, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, partition, fragments, indexes


@pytest.fixture()
def deployment():
    """(server, manager, metrics) — cache on, updater wired to the cluster.

    Function-scoped: :meth:`EpochManager.apply` mutates the network in
    place, so deployments cannot be shared across tests.
    """
    net, partition, fragments, indexes = build_state()
    cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
    manager = EpochManager(
        network=net,
        partition=partition,
        fragments=list(fragments),
        indexes=list(indexes),
    )
    manager.subscribe(
        lambda state, delta: cluster.apply_updates(state.epoch, list(delta.values()))
    )
    metrics = MetricsRegistry()
    try:
        with serve_in_thread(
            cluster, ServeConfig(max_inflight=16, cache=True), metrics, updater=manager
        ) as server:
            yield server, manager, metrics
    finally:
        cluster.shutdown()


def reference_answers(manager, expressions):
    """From-scratch answers on the manager's *current* epoch state."""
    state = manager.state
    reference = SimulatedCluster.from_fragments(
        list(state.fragments), list(state.indexes)
    )
    return {
        expression: set(reference.execute(parse_query(expression)).result_nodes)
        for expression in expressions
    }


EXPRESSIONS = [
    "NEAR(w0, 2) AND NEAR(w1, 2)",
    "HAS(w2) OR NEAR(w3, 1)",
    "NEAR(w0, 5) NOT NEAR(w2, 1)",
    "NEAR(w1, 4)",
    "NEAR(w0, 6) AND NEAR(w1, 6)",
]


class TestCachedServing:
    def test_repeat_and_commuted_queries_hit_on_both_protocols(self, deployment):
        server, manager, _metrics = deployment
        expected = reference_answers(manager, EXPRESSIONS)
        with ServeClient(server.host, server.port) as ndjson, BinaryServeClient(
            server.host, server.port
        ) as binary:
            for expression in EXPRESSIONS:  # misses: populate
                reply = ndjson.query(expression)
                assert reply["ok"], reply
                assert set(reply["nodes"]) == expected[expression]
            for expression in EXPRESSIONS:  # exact hits, NDJSON
                assert set(ndjson.query(expression)["nodes"]) == expected[expression]
            for expression in EXPRESSIONS:  # exact hits, binary wire
                assert set(binary.query(expression)["nodes"]) == expected[expression]
            # Commuted form canonicalizes onto the same key.
            commuted = ndjson.query("NEAR(w1, 2) AND NEAR(w0, 2)")
            assert set(commuted["nodes"]) == expected["NEAR(w0, 2) AND NEAR(w1, 2)"]
            cache = ndjson.stats()["result_cache"]
        assert cache["misses"] == len(EXPRESSIONS)
        assert cache["hits"] >= 2 * len(EXPRESSIONS) + 1
        assert cache["entries"] == len(EXPRESSIONS)

    def test_subsumption_served_answers_are_exact(self, deployment):
        server, manager, _metrics = deployment
        wide = "NEAR(w0, 6) OR NEAR(w1, 6)"
        narrow = "NEAR(w1, 2) OR NEAR(w0, 2)"
        expected = reference_answers(manager, [wide, narrow])
        with ServeClient(server.host, server.port) as client:
            assert set(client.query(wide)["nodes"]) == expected[wide]
            assert set(client.query(narrow)["nodes"]) == expected[narrow]
            cache = client.stats()["result_cache"]
        assert cache["subsumption_hits"] == 1
        assert cache["entries"] == 2  # the narrow answer was derived once and stored

    def test_stats_sections_identical_on_both_protocols(self, deployment):
        server, _manager, _metrics = deployment
        with ServeClient(server.host, server.port) as ndjson, BinaryServeClient(
            server.host, server.port
        ) as binary:
            ndjson.query(EXPRESSIONS[0])
            a, b = ndjson.stats(), binary.stats()
        for snapshot in (a, b):
            assert set(snapshot["coverage_cache"]) == {"hits", "misses"}
            for value in snapshot["coverage_cache"].values():
                assert isinstance(value, int)
            cache = snapshot["result_cache"]
            assert cache["entries"] == 1 and cache["epoch"] == 0
        assert a["coverage_cache"] == b["coverage_cache"]
        assert a["result_cache"] == b["result_cache"]

    def test_prometheus_exposition_carries_cache_series(self, deployment):
        server, _manager, _metrics = deployment
        with ServeClient(server.host, server.port) as client:
            client.query(EXPRESSIONS[0])
            client.query(EXPRESSIONS[0])
            text = client.metrics_text()
        for series in ("cache_hits", "cache_misses", "cache_entries", "cache_bytes"):
            assert f"repro_{series}" in text, series

    def test_update_invalidates_and_tracks_rebuild(self, deployment):
        server, manager, _metrics = deployment
        expression = "NEAR(w0, 1)"
        network = manager.state.network
        reference_before = reference_answers(manager, [expression])[expression]
        # An object outside the current answer: adding w0 to it must
        # visibly change the served result — proving the cached entry
        # did not survive the swap.
        target = next(
            node
            for node in network.nodes()
            if network.is_object(node) and node not in reference_before
        )
        with ServeClient(server.host, server.port) as client:
            before = set(client.query(expression)["nodes"])
            assert before == reference_answers(manager, [expression])[expression]
            reply = client.update([AddKeyword(target, "w0")])
            assert reply["ok"] and reply["epoch"] == 1
            after = set(client.query(expression)["nodes"])
            cache = client.stats()["result_cache"]
        # The update landed before the second query was served...
        assert after == reference_answers(manager, [expression])[expression]
        assert target in after and target not in before
        # ...because the swap evicted the entry rather than serving it.
        assert cache["invalidations"] >= 1
        assert cache["epoch"] == 1

    def test_cache_off_replies_are_identical(self, deployment):
        server, manager, _metrics = deployment
        expected = reference_answers(manager, EXPRESSIONS)
        with ServeClient(server.host, server.port) as client:
            cached = {e: set(client.query(e)["nodes"]) for e in EXPRESSIONS}
            cached_again = {e: set(client.query(e)["nodes"]) for e in EXPRESSIONS}
        assert cached == expected and cached_again == expected


class TestClusterStatsRoundTrip:
    def test_pipelined_coverage_cache_stats(self):
        _net, _partition, fragments, indexes = build_state(seed=707)
        with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
            for _ in range(2):
                cluster.execute(parse_query("NEAR(w0, 3)"))
            totals = cluster.coverage_cache_stats()
        # Workers cache term masks: one lookup per (term, fragment), so the
        # first run misses on every fragment and the repeat hits.
        assert totals == {"hits": len(fragments), "misses": len(fragments)}


class TestReplicatedSubsumption:
    def test_narrow_sibling_is_a_subsumption_hit_over_replicas(self):
        """Explain mode rides the replica tier too, so --replicas keeps subsumption."""
        from repro.baselines import CentralizedEvaluator
        from repro.ha import HACluster

        net, _partition, fragments, indexes = build_state()
        oracle = CentralizedEvaluator(net)
        wide = "NEAR(w0, 6) OR NEAR(w1, 6)"
        narrow = "NEAR(w1, 2) OR NEAR(w0, 2)"
        with HACluster.start(
            fragments, indexes, num_machines=3, replication_factor=2
        ) as cluster:
            with serve_in_thread(cluster, ServeConfig(max_inflight=16, cache=True)) as server:
                with ServeClient(server.host, server.port) as client:
                    for expression in (wide, narrow):
                        reply = client.query(expression)
                        assert reply["ok"], reply
                        assert set(reply["nodes"]) == oracle.results(parse_query(expression))
                    cache = client.stats()["result_cache"]
        assert cache["misses"] == 1
        assert cache["subsumption_hits"] >= 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
