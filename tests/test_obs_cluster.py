"""Differential tracing tests across the cluster implementations.

Two properties:

* the span tree recorded on the process clusters has the *same
  structure* (same stage names, same fragments, same nesting) as
  :class:`SimulatedCluster` — only the durations differ (modelled vs
  measured);
* answers are identical with tracing on vs off, on every cluster.
"""

from __future__ import annotations

import math

import pytest

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.dist import SimulatedCluster
from repro.obs import SpanCollector, TraceContext, assemble_tree, new_trace_id
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster

from helpers import make_random_network

NUM_FRAGMENTS = 4


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=909, num_junctions=22, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=9).partition(net, NUM_FRAGMENTS)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


QUERIES = [
    "NEAR(w0, 3) AND NEAR(w1, 4)",
    "HAS(w2) OR NEAR(w3, 2)",
    "NEAR(w0, 5) NOT NEAR(w2, 1)",
]


def shape(spans):
    """A trace tree reduced to comparable structure: names + fragments."""

    def node_shape(node):
        label = (node["name"], node.get("fragment"))
        return (label, sorted(node_shape(child) for child in node["children"]))

    return sorted(node_shape(root) for root in assemble_tree(spans))


def simulated_reference(built, text):
    _net, fragments, indexes = built
    cluster = SimulatedCluster.from_fragments(fragments, indexes)
    query = parse_query(text)
    plain = cluster.execute(query)
    traced = cluster.execute(query, trace=TraceContext(new_trace_id()))
    return plain, traced


class TestSimulatedClusterTracing:
    def test_untraced_response_has_no_spans(self, built):
        plain, traced = simulated_reference(built, QUERIES[0])
        assert plain.spans == ()
        assert len(traced.spans) > 0

    def test_tracing_does_not_change_the_answer(self, built):
        for text in QUERIES:
            plain, traced = simulated_reference(built, text)
            assert plain.result_nodes == traced.result_nodes

    def test_every_fragment_contributes_a_task_span(self, built):
        _plain, traced = simulated_reference(built, QUERIES[0])
        task_fragments = {
            span.fragment_id for span in traced.spans if span.name == "task"
        }
        assert task_fragments == set(range(NUM_FRAGMENTS))

    def test_stage_names_and_nesting(self, built):
        _plain, traced = simulated_reference(built, QUERIES[0])
        roots = assemble_tree(traced.spans)
        assert len(roots) == 1
        assert roots[0]["name"] == "query"
        dispatches = roots[0]["children"]
        assert {d["name"] for d in dispatches} == {"dispatch"}
        assert len(dispatches) == NUM_FRAGMENTS  # one machine per fragment
        for dispatch in dispatches:
            child_names = {c["name"] for c in dispatch["children"]}
            assert child_names == {"queue-wait", "task", "serialize"}

    def test_eval_spans_carry_cache_annotations(self, built):
        _plain, traced = simulated_reference(built, QUERIES[0])
        evals = [span for span in traced.spans if span.name == "eval"]
        assert evals
        for span in evals:
            assert span.tags.get("cache") in {"hit", "miss", "skip", "off"}
            assert "settled" in span.tags
            assert span.fragment_id is not None

    def test_cache_annotations_flip_to_hits_on_repeat(self, built):
        _net, fragments, indexes = built
        cluster = SimulatedCluster.from_fragments(fragments, indexes, cache_capacity=8)
        query = parse_query(QUERIES[0])
        first = cluster.execute(query, trace=TraceContext(new_trace_id()))
        second = cluster.execute(query, trace=TraceContext(new_trace_id()))
        first_tags = {s.tags["cache"] for s in first.spans if s.name == "eval"}
        second_tags = {s.tags["cache"] for s in second.spans if s.name == "eval"}
        assert "miss" in first_tags or "skip" in first_tags
        assert second_tags <= {"hit", "skip"}

    def test_all_spans_are_closed_and_share_the_trace_id(self, built):
        _plain, traced = simulated_reference(built, QUERIES[0])
        trace_ids = {span.trace_id for span in traced.spans}
        assert len(trace_ids) == 1
        assert all(span.end is not None for span in traced.spans)


class TestProcessClusterDifferential:
    """Lockstep use of the process-cluster core: one traced execute at a time."""

    def test_worker_spans_carry_machine_ids(self, built):
        _net, fragments, indexes = built
        with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
            traced = cluster.execute(
                parse_query(QUERIES[0]), trace=TraceContext(new_trace_id())
            )
        machines = {span.machine_id for span in traced.spans if span.name == "task"}
        assert machines == {0, 1}
        # queue-wait durations are measured, not modelled
        queue_waits = [span for span in traced.spans if span.name == "queue-wait"]
        assert queue_waits
        assert all("modelled" not in span.tags for span in queue_waits)


class TestPipelinedClusterDifferential:
    def test_matches_simulated_structure_and_answers(self, built):
        _net, fragments, indexes = built
        with PipelinedCluster.start(fragments, indexes, num_machines=NUM_FRAGMENTS) as cluster:
            for text in QUERIES:
                query = parse_query(text)
                sim_plain, sim_traced = simulated_reference(built, text)
                plain = cluster.execute(query)
                traced = cluster.execute(query, trace=TraceContext(new_trace_id()))
                assert plain.result_nodes == traced.result_nodes
                assert traced.result_nodes == sim_plain.result_nodes
                assert plain.spans == ()
                assert shape(
                    [span.to_dict() for span in traced.spans]
                ) == shape([span.to_dict() for span in sim_traced.spans])

    def test_concurrent_traced_queries_keep_their_spans_apart(self, built):
        _net, fragments, indexes = built
        with PipelinedCluster.start(fragments, indexes, num_machines=NUM_FRAGMENTS) as cluster:
            contexts = [TraceContext(new_trace_id()) for _ in range(3)]
            pending = [
                cluster.submit(parse_query(text), trace=context)
                for text, context in zip(QUERIES, contexts)
            ]
            responses = [p.future.result(timeout=60.0) for p in pending]
        for context, response in zip(contexts, responses):
            trace_ids = {span.trace_id for span in response.spans}
            assert trace_ids == {context.trace_id}
            roots = assemble_tree(response.spans)
            assert len(roots) == 1 and roots[0]["name"] == "query"

    def test_mixed_traced_and_untraced_in_flight(self, built):
        _net, fragments, indexes = built
        with PipelinedCluster.start(fragments, indexes, num_machines=NUM_FRAGMENTS) as cluster:
            query = parse_query(QUERIES[0])
            traced_pending = cluster.submit(query, trace=TraceContext(new_trace_id()))
            plain_pending = cluster.submit(query)
            traced = traced_pending.future.result(timeout=60.0)
            plain = plain_pending.future.result(timeout=60.0)
        assert plain.spans == ()
        assert traced.spans
        assert plain.result_nodes == traced.result_nodes


class TestHAClusterTracing:
    def test_traced_answers_and_structure(self, built):
        from repro.ha import HACluster

        _net, fragments, indexes = built
        with HACluster.start(
            fragments, indexes, num_machines=NUM_FRAGMENTS, replication_factor=2
        ) as cluster:
            for text in QUERIES:
                sim_plain, _ = simulated_reference(built, text)
                query = parse_query(text)
                plain = cluster.execute(query)
                traced = cluster.execute(query, trace=TraceContext(new_trace_id()))
                assert plain.result_nodes == traced.result_nodes
                assert traced.result_nodes == sim_plain.result_nodes
                assert plain.spans == ()
                assert plain.attempt == 0 and traced.attempt == 0
                assert all(span.end is not None for span in traced.spans)
                assert len({span.trace_id for span in traced.spans}) == 1
                roots = assemble_tree([s.to_dict() for s in traced.spans])
                assert len(roots) == 1 and roots[0]["name"] == "query"
                dispatches = roots[0]["children"]
                assert dispatches and {d["name"] for d in dispatches} == {"dispatch"}
                for dispatch in dispatches:
                    names = {c["name"] for c in dispatch["children"]}
                    assert names == {"queue-wait", "task", "serialize"}
                # every fragment computed exactly once, attempt 0 throughout
                task_fragments = [
                    span.fragment_id for span in traced.spans if span.name == "task"
                ]
                assert sorted(task_fragments) == list(range(NUM_FRAGMENTS))
                dispatch_spans = [
                    span for span in traced.spans if span.name == "dispatch"
                ]
                assert all(s.tags.get("attempt") == 0 for s in dispatch_spans)
                assert all("rerouted" not in s.tags for s in dispatch_spans)

    def test_failover_redispatch_lands_on_survivor(self, built, tmp_path):
        """Satellite: a killed worker's traced query keeps a full span tree.

        The re-dispatched spans must carry the bumped attempt number,
        sit on the *surviving* machine, and export under that machine's
        process row in the Chrome trace file.
        """
        import json
        import time

        from repro.ha import HACluster
        from repro.obs.export import write_chrome_trace

        _net, fragments, indexes = built
        victim, survivor = 0, 1
        with HACluster.start(
            fragments,
            indexes,
            num_machines=2,
            replication_factor=2,
            machine_delays={victim: 0.5},
        ) as cluster:
            sim_plain, _ = simulated_reference(built, QUERIES[0])
            context = TraceContext(new_trace_id())
            pending = cluster.submit(parse_query(QUERIES[0]), trace=context)
            time.sleep(0.15)  # far less than the victim's per-task delay
            assert cluster.kill_worker(victim)
            response = pending.future.result(timeout=60.0)

        assert response.result_nodes == sim_plain.result_nodes
        assert not response.degraded
        assert response.attempt > 0  # failover touched the query
        assert all(span.end is not None for span in response.spans)

        rerouted = [
            span
            for span in response.spans
            if span.name == "dispatch" and span.tags.get("rerouted")
        ]
        assert rerouted
        assert {span.machine_id for span in rerouted} == {survivor}
        assert all(span.tags["attempt"] == response.attempt for span in rerouted)
        # the rerouted tasks themselves ran on the survivor, one per fragment
        tasks = [span for span in response.spans if span.name == "task"]
        assert {span.machine_id for span in tasks} == {survivor}
        assert sorted(s.fragment_id for s in tasks) == list(range(NUM_FRAGMENTS))

        out = tmp_path / "failover.json"
        record = {
            "trace_id": context.trace_id,
            "spans": [span.to_dict() for span in response.spans],
        }
        count = write_chrome_trace(out, [record])
        assert count == len(response.spans)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        rows = {
            event["pid"]: event["args"]["name"]
            for event in events
            if event.get("ph") == "M"
        }
        rerouted_events = [
            event
            for event in events
            if event.get("ph") == "X" and event["args"].get("rerouted")
        ]
        assert rerouted_events
        for event in rerouted_events:
            assert rows[event["pid"]] == f"machine {survivor}"
            assert event["args"]["attempt"] == response.attempt
