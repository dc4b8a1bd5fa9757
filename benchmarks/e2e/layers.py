"""The traced pass: time every layer's public calls, one layer at a time.

Runs inside the served process after the timed slices, with the server
otherwise idle.  Each call is bracketed by ``perf_counter`` reads and
recorded as a span (name, start, end, parent, query id); spans stay in
memory and are written as one Chrome trace-event file at the end.  A
layer's per-query value is the sum of its calls for that query (eight
fragments make eight kernel calls); the reported metric is the median
over the sampled queries.  Span names are module names.
"""

from __future__ import annotations

import json
import statistics
import time
from time import perf_counter

from repro.cache.keys import canonicalize
from repro.cache.store import SemanticResultCache
from repro.core.coverage import CoverageStats, FragmentRuntime, batch_distance_maps
from repro.core.executor import execute_fragment_task, execute_fragment_task_explained
from repro.core.language import parse_query
from repro.live import EpochManager, op_from_record
from repro.obs.hotspots import HotSpotSketch
from repro.obs.slo import SLOEngine
from repro.obs.tail import RetentionPolicy
from repro.obs.trace import TraceContext, new_trace_id
from repro.serve import decode_line, encode_line, wire
from repro.shm import SharedSegmentStore

from workloads import NUM_WORKERS

_RESULT_TIMEOUT = 60.0


class SpanLog:
    """In-memory spans plus per-layer, per-query duration totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.totals: dict[str, dict[int, float]] = {}
        self.counts: dict[str, dict[int, float]] = {}

    def begin(self, name: str, query: int, parent: int | None = None) -> int:
        self.spans.append([name, perf_counter(), None, parent, query])
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        self.spans[span][2] = perf_counter()

    def add(self, name: str, query: int, parent: int | None, started: float, ended: float) -> None:
        self.spans.append([name, started, ended, parent, query])
        per_query = self.totals.setdefault(name, {})
        per_query[query] = per_query.get(query, 0.0) + (ended - started)

    def timed(self, name: str, query: int, parent: int | None, call, *args, **kwargs):
        started = perf_counter()
        result = call(*args, **kwargs)
        self.add(name, query, parent, started, perf_counter())
        return result

    def count(self, name: str, query: int, amount: float) -> None:
        per_query = self.counts.setdefault(name, {})
        per_query[query] = per_query.get(query, 0.0) + amount

    def median(self, name: str, scale: float = 1.0) -> float | None:
        """Per-query median of a layer; ``None`` if the layer never ran."""
        values = self.totals.get(name) or self.counts.get(name)
        return statistics.median(values.values()) * scale if values else None

    def write_chrome_trace(self, path: str, workload: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "cat": workload, "ph": "X", "pid": 1,
                "tid": 1 if parent is None else 2,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent, "query": query},
            }
            for span_id, (name, start, end, parent, query) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _codec_in(log: SpanLog, expressions: list[str], cache: bool) -> list:
    queries = []
    for qid, expression in enumerate(expressions):
        root = log.begin("pass.codec_in", qid)
        log.timed("serve.protocol.decode", qid, root, decode_line, encode_line({"id": qid, "q": expression}))
        query = log.timed("core.language.parse", qid, root, parse_query, expression)
        payload = wire.encode_query_payload(qid, query)
        log.timed("serve.wire.query_decode", qid, root, wire.decode_query_payload, payload)
        if cache:
            log.timed("cache.keys.canonicalize", qid, root, canonicalize, query)
        log.end(root)
        queries.append(query)
    return queries


def _eval_and_codec_out(log: SpanLog, queries: list, runtimes: list, pipe_frames: bool) -> None:
    for qid, query in enumerate(queries):
        root = log.begin("pass.eval_codec_out", qid)
        results = [
            log.timed("core.executor.task", qid, root, execute_fragment_task, rt, query)
            for rt in runtimes
        ]
        if pipe_frames:
            log.timed("serve.wire.pipe_query_encode", qid, root, wire.dumps_pipe_query, qid, query, perf_counter())
            for machine in range(NUM_WORKERS):
                # Round-robin fragment placement, as spawn_workers assigns it.
                reply = [
                    (r.fragment_id, set(r.local_result), r.wall_seconds)
                    for i, r in enumerate(results) if i % NUM_WORKERS == machine
                ]
                raw = log.timed(
                    "serve.wire.pipe_results_encode", qid, root,
                    wire.dumps_pipe_results, qid, reply, 0.0, perf_counter(),
                )
                log.count("serve.wire.pipe_result_bytes", qid, len(raw))
                log.timed("serve.wire.pipe_results_decode", qid, root, wire.loads_pipe, raw)
        nodes = frozenset().union(*(r.local_result for r in results))
        timing = {"latency_ms": 1.0, "wall_ms": 1.0, "makespan_ms": 1.0, "message_bytes": 1}
        frame = log.timed(
            "serve.wire.answer_encode", qid, root, wire.encode_answer, qid, nodes,
            degraded=False, **timing,
        )
        log.count("serve.wire.answer_bytes", qid, len(frame))
        reply = {"id": qid, "ok": True, "nodes": sorted(nodes), "degraded": False, "timing": timing}
        log.timed("serve.protocol.encode", qid, root, encode_line, reply)
        log.end(root)


def _explain(log: SpanLog, queries: list, runtimes: list, keep: bool) -> list:
    """Explain-mode tasks; with ``keep``, ``(answer, partials)`` per query."""
    kept = []
    for qid, query in enumerate(queries):
        root = log.begin("pass.explain", qid)
        explained = [
            log.timed("core.executor.explain_task", qid, root, execute_fragment_task_explained, rt, query)
            for rt in runtimes
        ]
        log.end(root)
        if keep:
            answer = frozenset().union(*(result.local_result for result, _ in explained))
            kept.append((answer, {result.fragment_id: partial for result, partial in explained}))
    return kept


def _evaluate(query, maps) -> frozenset:
    return query.expression.evaluate([set(m) for m in maps])


def _kernel(log: SpanLog, queries: list, runtimes: list) -> None:
    for qid, query in enumerate(queries):
        root = log.begin("pass.kernel", qid)
        for rt in runtimes:
            stats = CoverageStats()
            maps = log.timed("core.kernel.distance_map", qid, root, batch_distance_maps, rt, query.terms, stats)
            log.timed("core.dfunction.evaluate", qid, root, _evaluate, query, maps)
            log.count("core.kernel.settled_nodes", qid, stats.settled_nodes)
            log.count("core.kernel.seeds", qid, stats.seeds_from_dl + stats.seeds_local)
        log.end(root)


def _cluster(log: SpanLog, queries: list, cluster, layer: str) -> None:
    for qid, query in enumerate(queries):
        started = perf_counter()
        pending = cluster.submit(query)
        submitted = perf_counter()
        response = pending.future.result(timeout=_RESULT_TIMEOUT)
        ended = perf_counter()
        log.add(f"{layer}.roundtrip", qid, None, started, ended)
        log.add(f"{layer}.submit", qid, len(log.spans) - 1, started, submitted)
        busiest = max(response.machine_seconds.values(), default=0.0)
        log.count(f"{layer}.overhead", qid, (ended - started) - busiest)


def _traced(log: SpanLog, queries: list, cluster) -> list:
    """Submit with a trace context; fold the program's own spans in."""
    completed = []
    for qid, query in enumerate(queries):
        root = log.begin("pass.traced", qid)
        started = perf_counter()
        response = cluster.submit(
            query, trace=TraceContext(trace_id=new_trace_id())
        ).future.result(timeout=_RESULT_TIMEOUT)
        latency = perf_counter() - started
        log.end(root)
        waits = [0.0]
        for span in response.spans:
            if span.end is None:
                continue
            log.spans.append([f"repro.{span.name}", span.start, span.end, root, qid])
            if span.name == "queue-wait":
                waits.append(span.duration_seconds)
            elif span.name == "serialize":
                log.count("dist.process_cluster.serialize", qid, span.duration_seconds)
        log.count("dist.process_cluster.queue_wait", qid, max(waits))
        log.count("obs.trace.spans_per_query", qid, len(response.spans))
        completed.append((latency, response.spans))
    return completed


def _obs(log: SpanLog, completed: list) -> None:
    policy, slo, sketch = RetentionPolicy(), SLOEngine(), HotSpotSketch()
    for qid, (latency, spans) in enumerate(completed):
        root = log.begin("pass.obs", qid)
        log.timed("obs.tail.decide", qid, root, policy.decide, latency, seconds_since_swap=None)
        log.timed("obs.slo.record", qid, root, slo.record, "query", True, latency)
        log.timed("obs.hotspots.feed", qid, root, sketch.feed_spans, spans)
        log.end(root)


def _cache(log: SpanLog, queries: list, explained: list) -> SemanticResultCache:
    """Miss, admit, then hit on a scratch cache primed with the sample."""
    cache = SemanticResultCache()
    tickets = {}
    for qid, query in enumerate(queries):
        key = canonicalize(query).key
        if key in tickets:
            continue
        hit, ticket = log.timed("cache.store.probe_miss", qid, None, cache.probe, query)
        if hit is None:
            tickets[key] = (qid, ticket)
    for qid, ticket in tickets.values():
        answer, partials = explained[qid]
        log.timed("cache.store.admit", qid, None, cache.admit_outcome, ticket, answer, partials)
    for qid, query in enumerate(queries):
        log.timed("cache.store.probe_hit", qid, None, cache.probe, query)
    return cache


def _live(log: SpanLog, plan: list[list[dict]], cluster, cache, network, partition, fragments, indexes) -> None:
    """Apply on an unbound manager, then time publish / push / invalidate."""
    manager = EpochManager(network=network, partition=partition, fragments=fragments, indexes=indexes)
    store = SharedSegmentStore()
    try:
        for step, batch in enumerate(plan):
            ops = [op_from_record(record) for record in batch]
            swap = log.timed("live.epochs.apply", step, None, manager.apply, ops)
            log.count("live.epochs.changed_fragments", step, len(swap.changed_fragments))
            state = manager.state
            delta = state.delta_from(swap.changed_fragments)
            for fragment, index in delta.values():
                log.timed("shm.publish", step, None, store.publish, fragment, index, epoch=swap.epoch)
            # Re-push the *served* state of those fragments, so the real
            # cluster swaps segments without diverging from its manager.
            served = [(fragments[fid], indexes[fid]) for fid in swap.changed_fragments]
            log.timed(
                "serve.pipeline.apply_updates", step, None,
                cluster.apply_updates, cluster.current_epoch + 1, served,
            )
            log.timed("cache.store.on_swap", step, None, cache.on_swap, state, delta, swap)
    finally:
        store.unlink_all()


def traced_pass(workload, cluster, payload: dict, trace_path: str, *, network, partition, fragments, indexes) -> dict:
    """Run every pass that applies to ``workload``; return layer metrics."""
    started = time.perf_counter()
    log = SpanLog()
    runtimes = [FragmentRuntime(f, i, compiled=True) for f, i in zip(fragments, indexes)]
    layer = workload.cluster_layer

    queries = _codec_in(log, payload["expressions"], workload.cache)
    _eval_and_codec_out(log, queries, runtimes, pipe_frames=workload.cluster != "ha")
    explained = _explain(log, queries, runtimes, keep=workload.cache)
    _kernel(log, queries, runtimes)
    _cluster(log, queries, cluster, layer)
    completed = _traced(log, queries, cluster)
    if workload.obs:
        _obs(log, completed)
    if workload.cache:
        cache = _cache(log, queries, explained)
        _live(log, payload["plan"], cluster, cache, network, partition, fragments, indexes)
    log.write_chrome_trace(trace_path, workload.name)

    us, ms = 1e6, 1e3
    metrics = {
        "serve.protocol.decode_us": log.median("serve.protocol.decode", us),
        "core.language.parse_us": log.median("core.language.parse", us),
        "serve.protocol.encode_us": log.median("serve.protocol.encode", us),
        "serve.wire.query_decode_us": log.median("serve.wire.query_decode", us),
        "serve.wire.answer_encode_us": log.median("serve.wire.answer_encode", us),
        "serve.wire.answer_bytes": log.median("serve.wire.answer_bytes"),
        "serve.wire.pipe_query_encode_us": log.median("serve.wire.pipe_query_encode", us),
        "serve.wire.pipe_results_encode_us": log.median("serve.wire.pipe_results_encode", us),
        "serve.wire.pipe_results_decode_us": log.median("serve.wire.pipe_results_decode", us),
        "serve.wire.pipe_result_bytes": log.median("serve.wire.pipe_result_bytes"),
        "cache.keys.canonicalize_us": log.median("cache.keys.canonicalize", us),
        "cache.store.probe_hit_us": log.median("cache.store.probe_hit", us),
        "cache.store.probe_miss_us": log.median("cache.store.probe_miss", us),
        "cache.store.admit_us": log.median("cache.store.admit", us),
        f"{layer}.submit_us": log.median(f"{layer}.submit", us),
        f"{layer}.roundtrip_ms": log.median(f"{layer}.roundtrip", ms),
        f"{layer}.overhead_ms": log.median(f"{layer}.overhead", ms),
        "dist.process_cluster.queue_wait_ms": log.median("dist.process_cluster.queue_wait", ms),
        "dist.process_cluster.serialize_us": log.median("dist.process_cluster.serialize", us),
        "obs.trace.spans_per_query": log.median("obs.trace.spans_per_query"),
        "core.executor.task_ms": log.median("core.executor.task", ms),
        "core.executor.explain_task_ms": log.median("core.executor.explain_task", ms),
        "core.kernel.distance_map_ms": log.median("core.kernel.distance_map", ms),
        "core.kernel.settled_nodes": log.median("core.kernel.settled_nodes"),
        "core.kernel.seeds": log.median("core.kernel.seeds"),
        "core.dfunction.evaluate_us": log.median("core.dfunction.evaluate", us),
        "obs.tail.decide_us": log.median("obs.tail.decide", us),
        "obs.slo.record_us": log.median("obs.slo.record", us),
        "obs.hotspots.feed_us": log.median("obs.hotspots.feed", us),
        "live.epochs.apply_ms": log.median("live.epochs.apply", ms),
        "live.epochs.changed_fragments": log.median("live.epochs.changed_fragments"),
        "shm.publish_ms": log.median("shm.publish", ms),
        "serve.pipeline.apply_updates_ms": log.median("serve.pipeline.apply_updates", ms),
        "cache.store.on_swap_ms": log.median("cache.store.on_swap", ms),
    }
    return {
        "metrics": {name: value for name, value in metrics.items() if value is not None},
        "spans": len(log.spans),
        "seconds": time.perf_counter() - started,
    }
