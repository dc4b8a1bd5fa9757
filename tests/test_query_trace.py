"""Span trees built on read, across HA failover, over the in-process transport.

The coordinator keeps a traced query's dispatch times and the workers'
stage blocks raw and builds the tree only when ``response.spans`` is
read.  A reroute must hang each reply's spans under the dispatch that
sent its frame, and a restart must drop everything the discarded
attempt recorded.
"""

from __future__ import annotations

import math

import pytest

from repro import sgkq
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.dist import ReplicaPlacement
from repro.dist.cluster import InProcessTransport
from repro.dist.process_cluster import WorkerHandler, build_worker_runtimes
from repro.ha import HACluster
from repro.obs import TraceContext, assemble_tree, new_trace_id
from repro.partition import BfsPartitioner

from helpers import make_random_network

SAFE_KILLS = (1, 3)  # m=4, R=2 chained: either loss leaves every fragment a replica


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=651, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


def ha_over_handlers(fragments, indexes):
    placement = ReplicaPlacement.chained(len(fragments), 4, 2)
    handlers = [
        WorkerHandler(
            *build_worker_runtimes("pickle", [(fragments[i], indexes[i]) for i in hosted])
        )
        for hosted in placement.assignments()
    ]
    transport = InProcessTransport(handlers)
    cluster = HACluster(transport, placement.assignments(), placement=placement, routing="load")
    return cluster, transport


def traced_with_a_death(built, apply_first: bool):
    """Submit one traced query, optionally fan an apply out, kill a worker it awaits."""
    net, fragments, indexes = built
    cluster, transport = ha_over_handlers(fragments, indexes)
    query = sgkq(sorted(net.all_keywords())[:2], 4.0)
    expected = cluster.execute(query).result_nodes
    pending = cluster.submit(query, trace=TraceContext(new_trace_id()))
    # The victim must owe the traced query a task; an apply would put a
    # frame in every inbox, so pick it before the apply is submitted.
    holders = [m for m in SAFE_KILLS if transport.inboxes[m]]
    assert holders, "routing left every safe-to-kill machine without a task"
    victim = holders[0]
    if apply_first:
        cluster.submit_updates(1, list(zip(fragments, indexes)))
    cluster.kill_worker(victim)
    transport.run()
    response = pending.future.result(timeout=0)
    assert response.result_nodes == expected and not response.degraded
    return response, victim, len(fragments)


def check_tree(response, num_fragments):
    spans = response.spans
    assert all(span.end is not None for span in spans)
    (root,) = assemble_tree(spans)
    assert root["name"] == "query"
    tasks = []
    for dispatch in root["children"]:
        assert dispatch["name"] == "dispatch"
        for child in dispatch["children"]:
            if child["name"] == "task":
                # A reply's spans sit under the dispatch that sent its frame.
                assert child["machine"] == dispatch["machine"]
                tasks.append(child)
    assert sorted(task["fragment"] for task in tasks) == list(range(num_fragments))
    return root


def test_reroute_parents_each_reply_under_its_own_dispatch(built):
    response, victim, num_fragments = traced_with_a_death(built, apply_first=False)
    assert response.attempt == 1
    root = check_tree(response, num_fragments)
    # The hot-spot rows read the same evals the tree shows, without building it.
    assert sorted(response.eval_rows) == sorted(
        (span.tags["source"], span.fragment_id, span.duration_seconds)
        for span in response.spans
        if span.name == "eval"
    )
    rerouted = [d for d in root["children"] if d["tags"].get("rerouted")]
    assert rerouted and all(d["tags"]["attempt"] == 1 for d in rerouted)
    # Every frame a survivor was sent came back with its tasks under it.
    for dispatch in root["children"]:
        names = {child["name"] for child in dispatch["children"]}
        if dispatch["machine"] == victim:
            assert names == set()
        else:
            assert names == {"queue-wait", "task", "serialize"}


def test_restart_drops_the_discarded_attempt(built):
    response, victim, num_fragments = traced_with_a_death(built, apply_first=True)
    assert response.attempt == 1
    root = check_tree(response, num_fragments)
    assert all(d["tags"]["attempt"] == 1 for d in root["children"])
    assert all(d["machine"] != victim for d in root["children"])


def test_untraced_response_builds_nothing(built):
    _net, fragments, indexes = built
    cluster, _transport = ha_over_handlers(fragments, indexes)
    response = cluster.execute(sgkq(["w0"], 2.0))
    assert response.query_trace is None
    assert response.spans == () and response.eval_rows == []
