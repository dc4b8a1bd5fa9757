"""One differential over the real stacks for the dense-id answer path.

An answer leaves the kernel as a sorted ``array('Q')`` run and stays one
through the worker pipe, the coordinator's merge, the result cache and
the reply encoders.  Every process-backed cluster — lockstep and
pipelined, shared memory on and off, replica groups with a worker killed mid-run —
must return, for ≥50 generated SGKQ/RKQ/Q-class expressions, exactly
the answer of :class:`CentralizedEvaluator` and :class:`SimulatedCluster`
(which share none of that path), as a run in ascending order; and a
served cache hit (exact or by subsumption) must carry the same node
block as the miss that computed it.
"""

from __future__ import annotations

import math
import time
from array import array

import pytest

from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.dist import SimulatedCluster
from repro.ha import HACluster
from repro.obs.trace import TraceContext, new_trace_id
from repro.partition import BfsPartitioner
from repro.serve import (
    BinaryServeClient,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    generate_expressions,
    serve_in_thread,
)

from helpers import make_random_network

Q_CLASS_TEMPLATES = (
    "(NEAR({a}, 4) OR NEAR({b}, 2)) NOT (NEAR({c}, 3) NOT NEAR({a}, 1))",
    "NEAR({a}, 5) NOT (NEAR({b}, 5) NOT (NEAR({c}, 5) NOT HAS({a})))",
    "(HAS({a}) OR HAS({b})) AND (NEAR({c}, 2.5) OR NEAR({a}, 0.5))",
    "NEAR({a}, 3) AND NEAR({a}, 3) NOT NEAR(no-such-keyword, 9)",
    "NEAR(no-such-keyword, 9) OR (NEAR({b}, 1.5) AND NEAR({c}, 6))",
)


@pytest.fixture(scope="module")
def deployment():
    """``(fragments, indexes, {expression: expected frozenset})``."""
    net = make_random_network(seed=1404, num_junctions=40, num_objects=20, vocabulary=8)
    partition = BfsPartitioner(seed=4).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    expressions = []
    for seed, (radius, num_keywords) in enumerate([(1.5, 2), (3.0, 2), (3.0, 3), (6.0, 3), (9.0, 2)]):
        expressions += generate_expressions(
            net, count=14, radius=radius, num_keywords=num_keywords, rkq_fraction=0.35, seed=seed
        )
    keywords = sorted(net.all_keywords())
    for i, template in enumerate(Q_CLASS_TEMPLATES * 3):
        a, b, c = (keywords[(i + shift) % len(keywords)] for shift in (0, 1, 3))
        expressions.append(template.format(a=a, b=b, c=c))
    expressions = list(dict.fromkeys(expressions))
    assert len(expressions) >= 50
    oracle = CentralizedEvaluator(net, strict_keywords=False)  # templates name an absent keyword
    simulated = SimulatedCluster.from_fragments(fragments, indexes)
    expected = {}
    for expression in expressions:
        query = parse_query(expression)
        expected[expression] = oracle.results(query)
        assert simulated.execute(query).result_nodes == expected[expression]
    assert sum(1 for nodes in expected.values() if nodes) > len(expected) // 2
    assert any(not nodes for nodes in expected.values())  # the empty-run path too
    return fragments, indexes, expected


def evaluated_terms(expressions, num_fragments: int) -> int:
    """Coverage-cache lookups of set-valued reads: distinct terms × fragments."""
    return num_fragments * sum(len(set(parse_query(e).terms)) for e in expressions)


def assert_exact(response, expected: frozenset[int]) -> None:
    run = response.result_run
    assert isinstance(run, array) and run.typecode == "Q"
    assert run.tolist() == sorted(expected)  # ascending, no duplicates, nothing missing
    assert response.result_nodes == expected


@pytest.mark.parametrize("use_shm", [False, True])
@pytest.mark.parametrize("pipe_wire", ["binary"])
def test_pipelined_cluster(deployment, pipe_wire, use_shm):
    fragments, indexes, expected = deployment
    with PipelinedCluster.start(
        fragments, indexes, num_machines=2, use_shm=use_shm, pipe_wire=pipe_wire
    ) as cluster:
        pending = [(e, cluster.submit(parse_query(e))) for e in expected]  # all in flight
        for expression, handle in pending:
            response = handle.future.result(timeout=60)
            assert_exact(response, expected[expression])
            assert not response.degraded
        for expression in list(expected)[::5]:
            query = parse_query(expression)
            explained = cluster.execute(query, explain=True)
            assert_exact(explained, expected[expression])
            partial_nodes = {n for run, _ in (explained.partials or {}).values() for n in run}
            assert partial_nodes == expected[expression]
            traced = cluster.execute(query, trace=TraceContext(trace_id=new_trace_id()))
            assert_exact(traced, expected[expression])
            settled = [s.tags["settled"] for s in traced.spans if s.name == "eval"]
            assert settled and all(isinstance(count, int) for count in settled)
        # Set-valued reads (plain and traced) look each distinct term up
        # once per fragment; explain reads settle afresh and look nothing up.
        totals = cluster.coverage_cache_stats()
        assert totals["hits"] + totals["misses"] == evaluated_terms(
            list(expected) + list(expected)[::5], len(fragments)
        )
        assert totals["hits"] > 0


@pytest.mark.parametrize("use_shm", [False, True])
def test_process_cluster(deployment, use_shm):
    """Lockstep use of the process-cluster core: one query at a time."""
    fragments, indexes, expected = deployment
    with PipelinedCluster.start(fragments, indexes, num_machines=2, use_shm=use_shm) as cluster:
        for expression, nodes in expected.items():
            assert_exact(cluster.execute(parse_query(expression)), nodes)
        traced = cluster.execute(
            parse_query(next(iter(expected))), trace=TraceContext(trace_id=new_trace_id())
        )
        assert_exact(traced, expected[next(iter(expected))])


@pytest.mark.parametrize("use_shm", [False, True])
def test_ha_cluster_with_a_reroute_mid_run(deployment, use_shm):
    """A re-answered fragment replaces its run: no node twice, none lost."""
    fragments, indexes, expected = deployment
    with HACluster.start(
        fragments,
        indexes,
        num_machines=3,
        replication_factor=2,
        use_shm=use_shm,
        machine_delays={1: 0.02},  # machine 1 still owes tasks when it is killed
    ) as cluster:
        expressions = list(expected)
        for expression in expressions[:10]:
            assert_exact(cluster.execute(parse_query(expression)), expected[expression])
        pending = [(e, cluster.submit(parse_query(e))) for e in expressions]
        assert cluster.kill_worker(1)
        responses = [(e, handle.future.result(timeout=60)) for e, handle in pending]
        for expression, response in responses:
            assert_exact(response, expected[expression])
            assert not response.degraded  # every fragment kept a live replica
        stats = cluster.ha_stats()
        assert stats["dead_machines"] == [1]
        assert stats["reroutes"] > 0 and any(r.attempt > 0 for _e, r in responses)
        deadline = time.monotonic() + 10
        while 1 not in cluster.dead_machines and time.monotonic() < deadline:
            time.sleep(0.01)
        before = cluster.coverage_cache_stats()
        for expression in expressions[::3]:  # and on the survivors afterwards
            assert_exact(cluster.execute(parse_query(expression)), expected[expression])
        after = cluster.coverage_cache_stats()
        # Each fragment task now runs once, on one survivor.
        assert sum(after.values()) - sum(before.values()) == evaluated_terms(
            expressions[::3], len(fragments)
        )


@pytest.mark.parametrize("use_shm", [False, True])
def test_cache_hits_carry_the_same_node_block_as_misses(deployment, use_shm):
    fragments, indexes, expected = deployment
    wide = "NEAR(w0, 6) OR NEAR(w1, 6)"
    narrow = "NEAR(w1, 2) OR NEAR(w0, 2)"  # answerable from the wide entry's distances
    oracle_cluster = SimulatedCluster.from_fragments(fragments, indexes)
    sibling_expected = {
        e: sorted(oracle_cluster.execute(parse_query(e)).result_nodes) for e in (wide, narrow)
    }
    with PipelinedCluster.start(fragments, indexes, num_machines=2, use_shm=use_shm) as cluster:
        with serve_in_thread(cluster, ServeConfig(max_inflight=16, cache=True)) as server:
            with ServeClient(server.host, server.port) as ndjson, BinaryServeClient(
                server.host, server.port
            ) as binary:
                for expression, nodes in expected.items():
                    miss = binary.query(expression)
                    exact_hit = binary.query(expression)
                    ndjson_hit = ndjson.query(expression)
                    assert miss["ok"] and exact_hit["ok"] and ndjson_hit["ok"]
                    assert miss["nodes"] == exact_hit["nodes"] == ndjson_hit["nodes"] == sorted(nodes)
                assert binary.query(wide)["nodes"] == sibling_expected[wide]
                assert binary.query(narrow)["nodes"] == sibling_expected[narrow]
                assert ndjson.query(narrow)["nodes"] == sibling_expected[narrow]
                cache = ndjson.stats()["result_cache"]
    assert cache["misses"] == len(expected) + 1
    assert cache["hits"] >= 2 * len(expected)
    assert cache["subsumption_hits"] == 1  # derived once; the NDJSON read is an exact hit
