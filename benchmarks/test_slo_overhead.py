"""Tail retention vs head sampling, and the cost of the full obs stack.

Three claims of the observability phase-2 work, checked end to end on
the real serving stack:

* tail-based retention captures what head sampling misses: ≥90% of the
  queries above the stream's p99 keep a full span tree (head sampling
  at the serving default of 1% catches ~1 in 100 of them), and 100% of
  errored and HA-rerouted queries are retained — audited both through
  the replies' ``trace_id`` and the policy's own triggered/retained
  counters;
* retained traces are complete: one ``query`` root, ``dispatch`` /
  ``task`` / ``eval`` spans, all closed;
* the always-trace + decide-later pipeline plus the SLO burn-rate
  engine stay cheap at realistic query sizes: on ``bri_mini``
  (~37 ms/query) the closed-loop stream's best-of-rounds wall time
  lands within noise of a bare server (target ≤1.02x, tracked in
  ``BENCH_slo.json``; the hard guard here is loose because CI boxes
  are noisy).  On the micro dataset tracing costs a per-query
  constant (stage timings, retention, SLO rings, hot-spot rows), not
  per-byte of query work, so the ratio there is meaningless.

Set ``BENCH_SLO_CORRECTNESS_ONLY=1`` (the CI smoke job does) to skip
the timing comparison while still proving the retention and
completeness properties, which are structural.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.core import parse_query
from repro.dist import NetworkModel
from repro.ha import HACluster
from repro.obs import assemble_tree
from repro.serve import (
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    render_query,
    serve_in_thread,
)
from repro.workloads import QueryGenConfig, QueryGenerator

from common import dataset, engine
from repro.bench_support import Table, print_experiment_header, record_benchmark

CORRECTNESS_ONLY = os.environ.get("BENCH_SLO_CORRECTNESS_ONLY") == "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_slo.json"

NUM_MACHINES = 4
# The dynamic threshold's p99 gate engages after 100 samples; the
# warmup stream pumps it past that before the measured stream starts.
WARMUP = 100
NUM_QUERIES = 120
TIMING_DATASET = "bri_mini"
TIMING_QUERIES = 24
ROUNDS = 1 if CORRECTNESS_ONLY else 3
CAPTURE_TARGET = 0.90
OVERHEAD_GUARD = 1.25  # hard ceiling; the target (1.02) lives in BENCH_slo.json


def _expressions(dataset_name: str, max_radius: float, count: int, seed: int):
    gen = QueryGenerator(dataset(dataset_name).network, QueryGenConfig(seed=seed))
    return [
        render_query(gen.sgkq(2, max_radius / 3) if i % 3 else gen.rkq(2, max_radius / 2))
        for i in range(count)
    ]


def _warmup_expressions(dataset_name: str, max_radius: float):
    # One cheap expression repeated: engages the p99 gate (100 samples)
    # with a low-variance latency floor, so the varied stream that
    # follows owns the window's tail and the capture audit below is
    # deterministic rather than hostage to warmup noise.
    gen = QueryGenerator(dataset(dataset_name).network, QueryGenConfig(seed=5))
    return [render_query(gen.rkq(1, max_radius / 8))] * WARMUP


def _p99(values):
    ordered = sorted(values)
    return ordered[int(0.99 * (len(ordered) - 1))]


def _assert_full_span_tree(record):
    spans = record["spans"]
    assert all(span["end"] is not None for span in spans)
    names = {span["name"] for span in spans}
    assert {"query", "dispatch", "task", "eval"} <= names, names
    roots = assemble_tree(spans)
    assert len(roots) == 1 and roots[0]["name"] == "query"


def _warm(cluster, expressions):
    # Absorb worker spin-up before the server's latency window opens,
    # so the rolling p99 reflects steady-state traffic only.
    for expression in expressions[:3]:
        cluster.execute(parse_query(expression))


def _tail_capture(deployment, warmup, stream):
    """Serve warmup + stream under tail retention; audit what was kept.

    The capture audit leans on a structural property instead of racing
    the rolling threshold: the latency window only grows here (far
    below its 2048 capacity), so the policy's p99 estimate is monotone
    non-decreasing, and any query above the *final* threshold was
    strictly above the rolling one when it was decided — it must have
    been retained.  The warmup stream is low-variance and cheap, so
    the varied measured stream owns the window's tail and that audit
    set is never empty.
    """
    with PipelinedCluster.start(
        deployment.fragments, deployment.indexes, num_machines=NUM_MACHINES
    ) as cluster:
        _warm(cluster, stream)
        config = ServeConfig(tail_sampling=True, slo=True, slow_query_ms=1000.0)
        with serve_in_thread(cluster, config) as server:
            with ServeClient(server.host, server.port) as client:
                for expression in warmup:
                    assert client.query(expression)["ok"]
                replies = [client.query(expression) for expression in stream]
                assert all(reply["ok"] for reply in replies)
                for reply in replies:
                    if "trace_id" in reply:
                        record = client.trace(trace_id=reply["trace_id"])["trace"]
                        _assert_full_span_tree(record)
                stats = client.stats()
    retention = stats["tracing"]["retention"]
    assert stats["tracing"]["mode"] == "tail"
    assert stats["slo"]["query"]["total"] == len(warmup) + len(stream)

    decided = [
        (reply["timing"]["latency_ms"], "trace_id" in reply) for reply in replies
    ]
    threshold_ms = retention["slow_threshold_ms"]
    tail_hits = [kept for latency, kept in decided if latency > threshold_ms]
    assert tail_hits, "stream produced no above-p99 tail to audit"
    capture = sum(tail_hits) / len(tail_hits)
    # No shedding at this qps: every triggered slow query got a token.
    assert retention["retained"]["slow"] == retention["triggered"]["slow"]
    assert retention["seen"] == len(warmup) + len(stream)
    return capture, len(tail_hits), retention


def _head_capture(deployment, warmup, stream):
    """Same stream under 1% head sampling: the tail is mostly invisible."""
    with PipelinedCluster.start(
        deployment.fragments, deployment.indexes, num_machines=NUM_MACHINES
    ) as cluster:
        _warm(cluster, stream)
        config = ServeConfig(trace_sample_rate=0.01)
        with serve_in_thread(cluster, config) as server:
            with ServeClient(server.host, server.port) as client:
                for expression in warmup:
                    assert client.query(expression)["ok"]
                replies = [client.query(expression) for expression in stream]
    decided = [
        (reply["timing"]["latency_ms"], "trace_id" in reply) for reply in replies
    ]
    threshold_ms = _p99([latency for latency, _ in decided])
    tail_hits = [kept for latency, kept in decided if latency > threshold_ms]
    return (sum(tail_hits) / len(tail_hits)) if tail_hits else 0.0, len(tail_hits)


def _errored_and_rerouted(deployment, expressions):
    """Force a timeout storm and a mid-flight failover; audit retention."""
    # -- timeouts: every errored query must be retained (as a counter;
    #    spans cannot be assembled for a query that never finished).
    #    An emulated 5 ms link makes every query outlast the 1 ms timeout
    #    on any host; a bare micro-dataset query can finish inside it.
    with PipelinedCluster.start(
        deployment.fragments,
        deployment.indexes,
        num_machines=NUM_MACHINES,
        network_model=NetworkModel(latency_seconds=0.005),
    ) as cluster:
        config = ServeConfig(tail_sampling=True, query_timeout_seconds=0.001)
        with serve_in_thread(cluster, config) as server:
            with ServeClient(server.host, server.port) as client:
                for expression in expressions[:3]:
                    reply = client.query(expression)
                    assert not reply["ok"] and reply["error"] == "timeout"
                retention = client.stats()["tracing"]["retention"]
    assert retention["triggered"]["error"] == 3
    assert retention["retained"]["error"] == 3
    errors_retained = retention["retained"]["error"]

    # -- failover: queries in flight on a killed worker re-dispatch to
    #    its replica and must keep their (rerouted-tagged) span trees.
    victim = 0
    with HACluster.start(
        deployment.fragments,
        deployment.indexes,
        num_machines=2,
        replication_factor=2,
        machine_delays={victim: 0.5},
    ) as cluster:
        config = ServeConfig(tail_sampling=True, allow_chaos=True)
        with serve_in_thread(cluster, config) as server:
            with ServeClient(server.host, server.port) as client:
                inflight = 4
                for index, expression in enumerate(expressions[:inflight]):
                    client.send({"op": "query", "q": expression, "id": index})
                time.sleep(0.15)  # well under the victim's per-task delay
                with ServeClient(server.host, server.port) as chaos:
                    chaos.chaos_kill(victim)
                replies = [client.read_reply() for _ in range(inflight)]
                assert all(reply["ok"] for reply in replies)
                assert not any(reply["degraded"] for reply in replies)
                rerouted_records = [
                    client.trace(trace_id=reply["trace_id"])["trace"]
                    for reply in replies
                    if "trace_id" in reply
                ]
                retention = client.stats()["tracing"]["retention"]
    assert retention["triggered"]["rerouted"] > 0
    assert retention["retained"]["rerouted"] == retention["triggered"]["rerouted"]
    assert len(rerouted_records) >= retention["retained"]["rerouted"]
    rerouted_spans = 0
    for record in rerouted_records:
        _assert_full_span_tree(record)
        rerouted_spans += sum(
            1
            for span in record["spans"]
            if span["name"] == "dispatch" and span["tags"].get("rerouted")
        )
    assert rerouted_spans > 0
    return errors_retained, retention["retained"]["rerouted"]


def _timed_stream(deployment, expressions, config):
    """Best-of-ROUNDS closed-loop wall time for the stream."""
    best = float("inf")
    answers = None
    with PipelinedCluster.start(
        deployment.fragments, deployment.indexes, num_machines=NUM_MACHINES
    ) as cluster:
        with serve_in_thread(cluster, config) as server:
            with ServeClient(server.host, server.port) as client:
                client.query(expressions[0])  # warm workers + threshold
                for _ in range(ROUNDS):
                    started = time.perf_counter()
                    replies = [client.query(e) for e in expressions]
                    best = min(best, time.perf_counter() - started)
                    round_answers = [reply["nodes"] for reply in replies]
                    assert answers is None or answers == round_answers
                    answers = round_answers
    return best, answers


def test_tail_retention_beats_head_sampling_within_budget():
    print_experiment_header(
        "OBS",
        "tail retention + SLO engine",
        "Decide-after-completion trace retention vs 1% head sampling, "
        "and the serving cost of the full observability stack.",
    )
    deployment = engine("aus_tiny", 8)
    warmup = _warmup_expressions("aus_tiny", deployment.max_radius)
    stream = _expressions("aus_tiny", deployment.max_radius, NUM_QUERIES, seed=11)

    tail_capture, tail_n, retention = _tail_capture(deployment, warmup, stream)
    head_capture, head_n = _head_capture(deployment, warmup, stream)
    errors_retained, rerouted_retained = _errored_and_rerouted(deployment, stream)

    table = Table(
        f"{NUM_QUERIES} queries, {NUM_MACHINES} workers (AUS) — above-p99 capture",
        ["strategy", "tail captured", "of", "capture rate"],
    )
    table.add_row("head 1%", head_capture * head_n, head_n, head_capture)
    table.add_row("tail retention", tail_capture * tail_n, tail_n, tail_capture)
    table.show()
    print(
        f"errored retained: {errors_retained}/3, "
        f"rerouted retained: {rerouted_retained} (both must be 100%)"
    )

    assert tail_capture >= CAPTURE_TARGET, (tail_capture, tail_n)
    assert tail_capture >= head_capture

    overhead_ratio = None
    base_best = full_best = None
    if not CORRECTNESS_ONLY:
        timing_deployment = engine(TIMING_DATASET, 8)
        timing = _expressions(
            TIMING_DATASET, timing_deployment.max_radius, TIMING_QUERIES, seed=23
        )
        base_best, base_answers = _timed_stream(
            timing_deployment, timing, ServeConfig()
        )
        full_best, full_answers = _timed_stream(
            timing_deployment, timing, ServeConfig(tail_sampling=True, slo=True)
        )
        assert base_answers == full_answers
        overhead_ratio = full_best / base_best
        cost = Table(
            f"{TIMING_QUERIES} queries closed-loop on {TIMING_DATASET}, "
            f"best of {ROUNDS}",
            ["configuration", "best total (s)", "throughput (q/s)"],
        )
        cost.add_row("bare server", base_best, TIMING_QUERIES / base_best)
        cost.add_row("tail + slo", full_best, TIMING_QUERIES / full_best)
        cost.show()
        print(
            f"overhead ratio: {overhead_ratio:.3f}x "
            f"(target <=1.02, guard <{OVERHEAD_GUARD})"
        )

    record_benchmark(
        BENCH_FILE,
        {
            "experiment": "slo_overhead",
            "num_queries": NUM_QUERIES,
            "num_machines": NUM_MACHINES,
            "tail_capture": tail_capture,
            "tail_above_p99": tail_n,
            "head_capture": head_capture,
            "errors_retained": errors_retained,
            "rerouted_retained": rerouted_retained,
            "retention_kept": retention["kept"],
            "retention_seen": retention["seen"],
            "correctness_only": CORRECTNESS_ONLY,
            "untraced_seconds": base_best,
            "full_obs_seconds": full_best,
            "overhead_ratio": overhead_ratio,
        },
    )
    if overhead_ratio is not None:
        assert overhead_ratio < OVERHEAD_GUARD, (
            f"tail+slo slowed the stream {overhead_ratio:.2f}x "
            f"(guard {OVERHEAD_GUARD}x)"
        )
