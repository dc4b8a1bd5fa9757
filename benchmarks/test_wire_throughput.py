"""Data-plane ablation: zero-copy shm + binary frames vs pickled hand-off + NDJSON.

Two ends of the data plane changed and this benchmark measures both on
the same deployment and the same emulated link:

* **startup**: workers used to receive their fragments as pickled
  ``(Fragment, NPDIndex)`` pairs; with ``use_shm`` they receive a
  few-hundred-byte segment manifest and attach the CSR arrays read-only
  from shared memory (:mod:`repro.shm`).  Measured as bytes shipped per
  worker at fork time (``cluster.startup_bytes``).
* **query path**: the NDJSON frontend, one query per line, vs DSKW
  binary frames (:mod:`repro.serve.wire`) with queries prepared once per
  connection and ``BATCH_SIZE`` of them packed per frame.  Both sides
  use the binary worker-pipe frames, the only pipe encoding; the
  measured difference is the frontend protocol plus the startup
  hand-off.  Measured as closed-loop loadgen throughput through a real
  socket.

The workload uses a small radius on purpose: cheap point-ish queries
are the regime where the wire overhead (text parse, JSON, per-query
socket writes) is the cost being measured rather than the
kernel's graph traversal, which is identical on both paths.  Each path
reports its best-of-``ROUNDS`` closed-loop run — single-core CI boxes
are noisy, and the max is the least contaminated estimate of the
protocol's capacity.

The numbers land in ``BENCH_wire.json`` at the repo root.  Set
``BENCH_WIRE_CORRECTNESS_ONLY=1`` (the CI smoke job does) to skip the
timing assertion while still proving both paths return identical
answers and the ≥10× startup-bytes reduction (which is structural, not
timing-dependent).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.dist import NetworkModel
from repro.serve import (
    BinaryServeClient,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    generate_expressions,
    run_loadgen,
    serve_in_thread,
)

from common import dataset, engine
from repro.bench_support import Table, print_experiment_header, record_benchmark

CORRECTNESS_ONLY = os.environ.get("BENCH_WIRE_CORRECTNESS_ONLY") == "1"
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_wire.json"

NUM_MACHINES = 4
NUM_CLIENTS = 4
BATCH_SIZE = 16
RADIUS_DIVISOR = 16
NUM_QUERIES = 16 if CORRECTNESS_ONLY else 192
ROUNDS = 1 if CORRECTNESS_ONLY else 4
DIFF_QUERIES = 12
REQUIRED_SPEEDUP = 1.3
REQUIRED_BYTES_DROP = 10.0
LINK = NetworkModel()  # the paper's link: 100 Mb/s switch, sub-ms LAN hop
SERVE = ServeConfig(max_inflight=128, query_timeout_seconds=60.0)


def _deployment():
    built = engine("aus_tiny", 8)
    net = dataset("aus_tiny").network
    expressions = generate_expressions(
        net, count=NUM_QUERIES, radius=built.max_radius / RADIUS_DIVISOR, seed=11
    )
    return built, expressions


def _run_path(built, expressions, *, use_shm: bool, protocol: str, batch: int):
    """One full stack: cluster → TCP frontend → closed-loop loadgen."""
    cluster = PipelinedCluster.start(
        built.fragments,
        built.indexes,
        num_machines=NUM_MACHINES,
        network_model=LINK,
        use_shm=use_shm,
    )
    try:
        startup_bytes = sum(cluster.startup_bytes)
        with serve_in_thread(cluster, SERVE) as server:
            # Warm both the workers and the accept path.
            with ServeClient(server.host, server.port) as warm:
                warm.query(expressions[0])
            best = None
            for _ in range(ROUNDS):
                report = run_loadgen(
                    server.host,
                    server.port,
                    expressions,
                    num_clients=NUM_CLIENTS,
                    protocol=protocol,
                    batch=batch,
                )
                assert report.ok == len(expressions), (report.shed, report.errors)
                if best is None or report.throughput_qps > best.throughput_qps:
                    best = report
            # Per-expression answers for the differential check.
            client_cls = BinaryServeClient if protocol == "binary" else ServeClient
            answers = []
            with client_cls(server.host, server.port) as client:
                for expression in expressions[:DIFF_QUERIES]:
                    answers.append(sorted(client.query(expression)["nodes"]))
        return best, startup_bytes, answers
    finally:
        cluster.shutdown()


def _measure(built, expressions):
    baseline, baseline_bytes, baseline_answers = _run_path(
        built, expressions, use_shm=False, protocol="ndjson", batch=1,
    )
    fast, fast_bytes, fast_answers = _run_path(
        built, expressions, use_shm=True, protocol="binary", batch=BATCH_SIZE,
    )
    assert baseline_answers == fast_answers
    return baseline, baseline_bytes, fast, fast_bytes


def test_binary_shm_path_beats_pickle_ndjson():
    print_experiment_header(
        "WIRE",
        "zero-copy data plane",
        "Same workers, same queries, same emulated link: shm segments + "
        "DSKW binary frames vs pickled fragments + NDJSON.",
    )
    built, expressions = _deployment()

    attempts = 1 if CORRECTNESS_ONLY else 2
    for attempt in range(attempts):
        baseline, baseline_bytes, fast, fast_bytes = _measure(built, expressions)
        speedup = fast.throughput_qps / baseline.throughput_qps
        if CORRECTNESS_ONLY or speedup >= REQUIRED_SPEEDUP:
            break
        # One re-measure: closed-loop qps on a shared single-core box is
        # at the mercy of co-tenant load; both paths rerun, never one.

    bytes_drop = baseline_bytes / fast_bytes

    table = Table(
        f"{NUM_QUERIES} queries, {NUM_CLIENTS} clients, {NUM_MACHINES} workers, "
        f"maxR/{RADIUS_DIVISOR}, paper link (AUS)",
        ["data plane", "qps", "p99 (ms)", "startup B/cluster"],
    )
    table.add_row(
        "pickled hand-off + NDJSON", baseline.throughput_qps,
        baseline.percentile(0.99) * 1e3, baseline_bytes,
    )
    table.add_row(
        f"shm + binary (batch {BATCH_SIZE})", fast.throughput_qps,
        fast.percentile(0.99) * 1e3, fast_bytes,
    )
    table.show()
    print(f"    end-to-end speedup: {speedup:.2f}x   startup bytes: {bytes_drop:.1f}x smaller")

    # The startup claim is structural — assert it even in smoke mode.
    assert bytes_drop >= REQUIRED_BYTES_DROP, (
        f"expected ≥{REQUIRED_BYTES_DROP}x fewer startup bytes, got "
        f"{baseline_bytes} vs {fast_bytes} ({bytes_drop:.1f}x)"
    )

    record_benchmark(
        BENCH_FILE,
        {
            "experiment": "wire_data_plane",
            "num_queries": NUM_QUERIES,
            "num_clients": NUM_CLIENTS,
            "batch_size": BATCH_SIZE,
            "rounds": ROUNDS,
            "link_latency_ms": LINK.latency_seconds * 1e3,
            "baseline_qps": baseline.throughput_qps,
            "binary_qps": fast.throughput_qps,
            "speedup": speedup,
            "baseline_startup_bytes": baseline_bytes,
            "shm_startup_bytes": fast_bytes,
            "startup_bytes_drop": bytes_drop,
            "correctness_only": CORRECTNESS_ONLY,
        },
    )

    if not CORRECTNESS_ONLY:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected the binary+shm path ≥{REQUIRED_SPEEDUP}x the "
            f"pickle+NDJSON path, got {speedup:.2f}x "
            f"({fast.throughput_qps:.1f} vs {baseline.throughput_qps:.1f} qps)"
        )
