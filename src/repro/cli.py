"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``    — Table-1-style statistics of a dataset preset.
``build``   — partition a preset, build every ``IND(P)``, write the
              per-machine files (fragment + index) into a directory.
``query``   — cold-start workers from a built directory and answer an
              SGKQ or RKQ, printing results and accounting.
``serve``   — cold-start a pipelined worker cluster from a built
              directory and serve queries over TCP (NDJSON protocol);
              ``--live`` additionally accepts online ``update`` batches
              (epoch-versioned, write-ahead logged).
``loadgen`` — drive a running server closed-loop and print throughput,
              tail latency and the server's own metrics (including a
              per-stage latency table when tracing is sampling);
              ``--subs``/``--update-ops`` mix standing subscriptions
              and live updates into the run.
``subscriptions`` — register synthetic standing queries on a running
              ``serve --live --sub`` server and stream its pushed
              ``notify``/``resync`` frames.
``chaos``   — self-contained failover drill: a replicated HA cluster is
              built, one worker is killed mid-run, and every answer is
              checked bit-for-bit against a single-machine reference.
``trace``   — fetch a running server's sampled traces, slow-query ring
              and epoch-swap events; render span trees, or export them
              as a Chrome trace-event file for Perfetto.
``top``     — live refreshing dashboard of a running server: qps, tail
              latency, SLO burn rates, cache hit rate, per-machine
              load, hot keywords/fragments and recent slow queries.
``updates`` — generate a synthetic update stream into a write-ahead
              log, or ``--replay`` a log against a built directory and
              report every epoch swap.
``demo``    — an end-to-end run on the paper's Fig. 1 network.

The CLI drives exactly the public library API; it exists so the system
can be exercised without writing Python.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro import DisksEngine, EngineConfig, __version__, rkq, sgkq
from repro.core import build_fragments, deployment_report, parse_query
from repro.core.coverage import FragmentRuntime
from repro.core.executor import execute_fragment_task
from repro.exceptions import DisksError
from repro.partition import MultilevelPartitioner
from repro.storage import (
    read_fragment_file,
    read_index_file,
    write_fragment_file,
    write_index_file,
)
from repro.workloads import DATASET_PRESETS, load_dataset, toy_figure1

__all__ = ["main", "build_parser"]

_MANIFEST = "manifest.json"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiSKS: distributed spatial keyword querying on road networks",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="show dataset statistics")
    info.add_argument("--dataset", default="aus_tiny", choices=sorted(DATASET_PRESETS))

    build = sub.add_parser("build", help="build per-machine index files")
    build.add_argument("--dataset", default="aus_tiny", choices=sorted(DATASET_PRESETS))
    build.add_argument("--fragments", type=int, default=8)
    build.add_argument("--lambda-factor", type=float, default=20.0, dest="lambda_factor")
    build.add_argument("--out", required=True, help="output directory")

    query = sub.add_parser("query", help="answer a query from built files")
    query.add_argument("--dir", required=True, help="directory produced by `build`")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--keywords", help="comma-separated keywords (SGKQ/RKQ form)")
    group.add_argument(
        "--expr",
        help="query-language expression, e.g. "
        "'NEAR(kw0001, 5) AND NEAR(kw0002, 5) NOT NEAR(kw0003, 1)'",
    )
    query.add_argument("--radius", type=float, default=None)
    query.add_argument(
        "--location",
        type=int,
        default=None,
        help="node id: if given, run an RKQ from this location instead of an SGKQ",
    )

    serve = sub.add_parser("serve", help="serve queries over TCP from built files")
    serve.add_argument("--dir", required=True, help="directory produced by `build`")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7474, help="0 picks a free port")
    serve.add_argument(
        "--machines", type=int, default=None, help="worker processes (default: one per fragment)"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=16, dest="max_inflight",
        help="admission high-water mark; excess queries are shed",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, help="per-query timeout, seconds"
    )
    serve.add_argument(
        "--live", action="store_true",
        help="accept live update batches (op 'update'), epoch-versioned",
    )
    serve.add_argument(
        "--sub", action="store_true",
        help="accept standing queries (ops 'subscribe'/'unsubscribe', pushed "
        "'notify' frames); requires --live",
    )
    serve.add_argument(
        "--log", default=None,
        help="write-ahead log for --live updates (default: DIR/updates.jsonl)",
    )
    serve.add_argument(
        "--trace", type=float, nargs="?", const=0.01, default=0.0, metavar="RATE",
        help="sample queries for end-to-end tracing (bare flag: 1%%)",
    )
    serve.add_argument(
        "--tail", action="store_true",
        help="tail-based trace retention: decide after completion, keeping "
        "slow/errored/rerouted/stale-reject/epoch-adjacent traces "
        "(replaces --trace head sampling)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=250.0, dest="slow_ms",
        help="queries slower than this always enter the slow-query ring",
    )
    serve.add_argument(
        "--slow-ring", type=int, default=64, dest="slow_ring",
        help="slow-query ring capacity (entries)",
    )
    serve.add_argument(
        "--slo", action="store_true",
        help="multi-window SLO burn-rate accounting per op; burn gauges in "
        "the metrics op, attainment in stats, slo_burn alert events",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=0.999,
        dest="slo_availability",
        help="availability objective for --slo (fraction of requests ok)",
    )
    serve.add_argument(
        "--slo-latency-target", type=float, default=0.99,
        dest="slo_latency_target",
        help="latency objective for --slo: this fraction of ok queries "
        "must finish under --slow-ms",
    )
    serve.add_argument(
        "--trace-log", default=None, dest="trace_log",
        help="also append sampled traces to this JSONL file (rotated)",
    )
    serve.add_argument(
        "--no-shm", action="store_false", dest="shm",
        help="ship fragments to workers by pickle instead of shared memory",
    )
    serve.add_argument(
        "--cache", action="store_true",
        help="semantic result cache: repeat/subsumed queries answered "
        "without dispatch, invalidated per epoch delta under --live",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=1024, dest="cache_entries",
        help="result-cache LRU capacity (entries)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=32 * 1024 * 1024, dest="cache_bytes",
        help="result-cache memory budget (estimated bytes)",
    )
    serve.add_argument(
        "--no-subsumption", action="store_false", dest="cache_subsumption",
        help="disable radius subsumption (exact-key memo only)",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="host each fragment on this many workers (repro.ha); >1 "
        "survives worker loss with exact answers",
    )
    serve.add_argument(
        "--routing", default="load", choices=("load", "rr"),
        help="replica picker under --replicas: least-busy or round-robin",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="allow the 'chaos' op to kill workers (fault drills)",
    )

    loadgen = sub.add_parser("loadgen", help="closed-loop load test of a server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7474)
    loadgen.add_argument(
        "--dataset", default="aus_tiny", choices=sorted(DATASET_PRESETS),
        help="preset used to synthesise the query stream (match the server's build)",
    )
    loadgen.add_argument("--clients", type=int, default=4)
    loadgen.add_argument("--queries", type=int, default=100)
    loadgen.add_argument("--keywords", type=int, default=2)
    loadgen.add_argument(
        "--radius-fraction", type=float, default=0.5, dest="radius_fraction",
        help="query radius as a fraction of the server's maxR",
    )
    loadgen.add_argument(
        "--rkq-fraction", type=float, default=0.25, dest="rkq_fraction"
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--zipf", type=float, default=None, metavar="S",
        help="Zipf(S) keyword skew over the global frequency rank "
        "(default: the paper's frequency-proportional selection)",
    )
    loadgen.add_argument(
        "--subs", type=int, default=0,
        help="register this many standing subscriptions before the run "
        "(requires a server started with --sub)",
    )
    loadgen.add_argument(
        "--update-ops", type=int, default=0, dest="update_ops",
        help="mix this many live-update ops into the run (requires --live)",
    )
    loadgen.add_argument(
        "--update-batch", type=int, default=10, dest="update_batch",
        help="ops per update batch for --update-ops",
    )
    loadgen.add_argument(
        "--wire", default="ndjson", choices=("ndjson", "binary"),
        help="client protocol: NDJSON lines or DSKW binary frames",
    )
    loadgen.add_argument(
        "--batch", type=int, default=1,
        help="queries per BATCH frame (binary wire only; keep <= the "
        "server's --max-inflight or the excess is shed)",
    )
    loadgen.add_argument(
        "--kill-worker", action="append", default=[], dest="kill_worker",
        metavar="N@T",
        help="fault injection: kill worker N at T seconds into the run "
        "(repeatable; the server needs --chaos)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="self-contained failover drill: replicated cluster, kill a "
        "worker mid-run, verify every answer stayed exact",
    )
    chaos.add_argument(
        "--dataset", default="aus_tiny", choices=sorted(DATASET_PRESETS),
        help="preset to build and drill against",
    )
    chaos.add_argument("--machines", type=int, default=4)
    chaos.add_argument("--replicas", type=int, default=2)
    chaos.add_argument("--queries", type=int, default=60)
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument("--kill", type=int, default=1, help="worker id to kill")
    chaos.add_argument(
        "--at", type=float, default=0.2, dest="kill_at",
        help="seconds into the run to kill it",
    )
    chaos.add_argument("--seed", type=int, default=0)

    subscriptions = sub.add_parser(
        "subscriptions",
        help="register standing queries on a running server and watch notifications",
    )
    subscriptions.add_argument("--host", default="127.0.0.1")
    subscriptions.add_argument("--port", type=int, default=7474)
    subscriptions.add_argument(
        "--dataset", default="aus_tiny", choices=sorted(DATASET_PRESETS),
        help="preset used to synthesise the subscriptions (match the server's build)",
    )
    subscriptions.add_argument("--count", type=int, default=8)
    subscriptions.add_argument("--keywords", type=int, default=2)
    subscriptions.add_argument(
        "--radius-fraction", type=float, default=0.5, dest="radius_fraction",
        help="subscription radius as a fraction of the server's maxR",
    )
    subscriptions.add_argument(
        "--rkq-fraction", type=float, default=0.5, dest="rkq_fraction"
    )
    subscriptions.add_argument(
        "--scored-fraction", type=float, default=0.0, dest="scored_fraction",
        help="fraction of subscriptions that also get 'rescored' notifications",
    )
    subscriptions.add_argument("--seed", type=int, default=0)
    subscriptions.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="stop after this many seconds (default: until interrupted)",
    )

    trace = sub.add_parser(
        "trace", help="fetch and render a running server's sampled traces"
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=7474)
    trace.add_argument(
        "-n", type=int, default=8, help="how many recent traces/slow entries/events"
    )
    trace.add_argument(
        "--id", default=None, dest="trace_id", help="show one stored trace by id"
    )
    trace.add_argument(
        "--chrome", default=None, metavar="OUT.json",
        help="write the fetched traces as a Chrome trace-event file "
        "(open in Perfetto or chrome://tracing)",
    )

    top = sub.add_parser(
        "top", help="live refreshing dashboard of a running server"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7474)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--wire", default="ndjson", choices=("ndjson", "binary"),
        help="poll over NDJSON lines or DSKW binary frames",
    )
    top.add_argument(
        "-n", type=int, default=5, dest="top_n",
        help="entries per section (hot keys, slow queries)",
    )
    top.add_argument(
        "--no-clear", action="store_false", dest="clear",
        help="append frames instead of redrawing the terminal",
    )

    updates = sub.add_parser(
        "updates", help="generate or replay a live-update log against built files"
    )
    updates.add_argument("--dir", required=True, help="directory produced by `build`")
    updates.add_argument(
        "--log", default=None,
        help="update log path (default: DIR/updates.jsonl)",
    )
    mode = updates.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--replay", action="store_true",
        help="re-apply the log's committed batches and report each epoch swap",
    )
    mode.add_argument(
        "--generate", type=int, metavar="N", default=None,
        help="generate N synthetic ops into the log as committed batches",
    )
    updates.add_argument("--batch-size", type=int, default=10, dest="batch_size")
    updates.add_argument("--seed", type=int, default=0)

    sub.add_parser("demo", help="run the paper's Fig. 1 worked examples")
    return parser


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    stats = dataset.stats
    print(f"{'name':<10} {'nodes':>10} {'objects':>9} {'edges':>10} {'keywords':>9}")
    print(stats.as_table_row(dataset.name))
    print(
        f"\navg degree {stats.avg_degree:.2f}, avg edge weight "
        f"{stats.avg_edge_weight:.3f}, avg keywords/object "
        f"{stats.avg_keywords_per_object:.2f}, connected: {stats.connected}"
    )
    print("top keywords:", ", ".join(dataset.frequent_keywords(8)))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    engine = DisksEngine.build(
        dataset.network,
        EngineConfig(
            num_fragments=args.fragments,
            lambda_factor=args.lambda_factor,
            partitioner=MultilevelPartitioner(seed=0),
        ),
    )
    total = 0
    for fragment, index in zip(engine.fragments, engine.indexes):
        total += write_fragment_file(fragment, out / f"fragment-{fragment.fragment_id}.npf")
        total += write_index_file(index, out / f"index-{index.fragment_id}.npd")
    manifest = {
        "dataset": args.dataset,
        "fragments": args.fragments,
        "lambda_factor": args.lambda_factor,
        "max_radius": engine.max_radius,
    }
    (out / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    print(
        f"built {args.fragments} fragments of {args.dataset} "
        f"(maxR={engine.max_radius:.2f}) into {out} — {total / 1024:.1f} KiB total"
    )
    print(deployment_report(engine).render())
    return 0


def _load_built(directory: Path) -> tuple[dict, list, list]:
    """Manifest plus the fragments and indexes of a `build` directory."""
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise DisksError(f"{directory} has no {_MANIFEST}; run `repro build` first")
    manifest = json.loads(manifest_path.read_text())
    fragments, indexes = [], []
    for i in range(manifest["fragments"]):
        fragments.append(read_fragment_file(directory / f"fragment-{i}.npf"))
        indexes.append(read_index_file(directory / f"index-{i}.npd"))
    return manifest, fragments, indexes


def _load_runtimes(directory: Path) -> tuple[dict, list[FragmentRuntime]]:
    manifest, fragments, indexes = _load_built(directory)
    runtimes = [
        FragmentRuntime(fragment, index)
        for fragment, index in zip(fragments, indexes)
    ]
    return manifest, runtimes


def _cmd_query(args: argparse.Namespace) -> int:
    manifest, runtimes = _load_runtimes(Path(args.dir))
    if args.expr is not None:
        query = parse_query(args.expr)
    else:
        if args.radius is None:
            print("error: --keywords queries need --radius", file=sys.stderr)
            return 2
        keywords = [kw.strip() for kw in args.keywords.split(",") if kw.strip()]
        if args.location is not None:
            query = rkq(args.location, keywords, args.radius)
        else:
            query = sgkq(keywords, args.radius)
    if query.max_radius > manifest["max_radius"]:
        print(
            f"error: radius {query.max_radius} exceeds the built maxR "
            f"{manifest['max_radius']:.2f}",
            file=sys.stderr,
        )
        return 2

    merged: set[int] = set()
    slowest = 0.0
    for runtime in runtimes:
        result = execute_fragment_task(runtime, query)
        merged |= set(result.local_result)
        slowest = max(slowest, result.wall_seconds)
    print(f"{query.label}: {len(merged)} results (slowest task {slowest * 1000:.1f}ms)")
    for node in sorted(merged)[:20]:
        print(f"  node {node}")
    if len(merged) > 20:
        print(f"  ... and {len(merged) - 20} more")
    return 0


def _reconstruct_partition(network, fragments):
    """The build-time partition, recovered from the fragments' members."""
    from repro.partition.base import Partition

    assignment = [0] * network.num_nodes
    for fragment in fragments:
        for node in fragment.members:
            assignment[node] = fragment.fragment_id
    return Partition.from_assignment(assignment, num_fragments=len(fragments))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import DisksServer, PipelinedCluster, ServeConfig

    manifest, fragments, indexes = _load_built(Path(args.dir))
    if args.sub and not args.live:
        print("error: --sub requires --live (subscriptions follow epoch swaps)",
              file=sys.stderr)
        return 2
    guard = None
    if args.replicas > 1:
        from repro.ha import FrontendGuard, HACluster

        cluster = HACluster.start(
            fragments,
            indexes,
            num_machines=args.machines,
            replication_factor=args.replicas,
            routing=args.routing,
            use_shm=args.shm,
        )
        guard = FrontendGuard()
    else:
        cluster = PipelinedCluster.start(
            fragments,
            indexes,
            num_machines=args.machines,
            use_shm=args.shm,
        )
    updater = None
    sub_engine = None
    if args.live:
        from repro.live import EpochManager, UpdateLog

        dataset = load_dataset(manifest["dataset"])
        log_path = Path(args.log) if args.log else Path(args.dir) / "updates.jsonl"
        updater = EpochManager(
            network=dataset.network,
            partition=_reconstruct_partition(dataset.network, fragments),
            fragments=fragments,
            indexes=indexes,
            log=UpdateLog(log_path),
        )
        updater.bind_cluster(cluster)
        if args.sub:
            from repro.sub import SubscriptionEngine

            sub_engine = SubscriptionEngine(updater)
    server = DisksServer(
        cluster,
        config=ServeConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            query_timeout_seconds=args.timeout,
            max_radius=manifest.get("max_radius"),
            trace_sample_rate=args.trace,
            tail_sampling=args.tail,
            slow_query_ms=args.slow_ms,
            slow_ring_size=args.slow_ring,
            trace_log=args.trace_log,
            slo=args.slo,
            slo_availability_target=args.slo_availability,
            slo_latency_ms=args.slow_ms,
            slo_latency_target=args.slo_latency_target,
            cache=args.cache,
            cache_max_entries=args.cache_entries,
            cache_max_bytes=args.cache_bytes,
            cache_subsumption=args.cache_subsumption,
            allow_chaos=args.chaos,
        ),
        updater=updater,
        sub_engine=sub_engine,
        guard=guard,
    )

    async def _run() -> None:
        await server.start()
        print(
            f"serving {manifest['fragments']} fragments of {manifest['dataset']} "
            f"on {cluster.num_machines} workers at {server.host}:{server.port} "
            f"(maxR={manifest['max_radius']:.2f}, max in-flight {args.max_inflight})"
        )
        if args.replicas > 1:
            print(
                f"HA: replication factor {args.replicas}, {args.routing} routing "
                f"— chaos ops {'enabled' if args.chaos else 'disabled'}; "
                'cluster health in {"op": "stats"} under "ha"'
            )
        print(
            'protocol: one JSON object per line, e.g. '
            '{"id": 1, "q": "NEAR(kw0001, 5) AND NEAR(kw0002, 5)"} '
            '— admin ops: {"op": "stats"}, {"op": "info"}, {"op": "ping"}; '
            "binary clients open with the 6-byte DSKW preamble on the same port"
        )
        if updater is not None:
            print(
                'live updates: {"op": "update", "ops": [{"op": "add_keyword", '
                '"node": 7, "keyword": "cafe"}, ...]} — current epoch via '
                '{"op": "epoch"}'
            )
        if sub_engine is not None:
            print(
                'standing queries: {"op": "subscribe", "q": "NEAR(cafe, 5)"} '
                "— result diffs are pushed as {\"push\": \"notify\", ...} frames "
                f"(try `python -m repro subscriptions --port {server.port}`)"
            )
        if args.tail:
            print(
                f"tracing: tail-based retention — every query spanned, "
                f"slow/errored/rerouted/stale-reject/epoch-adjacent traces "
                f"kept (slow >= {args.slow_ms:g}ms or dynamic p99) — inspect "
                f"with `python -m repro trace --port {server.port}`"
            )
        elif args.trace > 0.0:
            print(
                f"tracing: sampling {args.trace:.1%} of queries "
                f"(slow >= {args.slow_ms:g}ms always ringed) — inspect with "
                f"`python -m repro trace --port {server.port}`"
            )
        if args.slo:
            print(
                f"slo: availability {args.slo_availability:.3%}, "
                f"{args.slo_latency_target:.0%} of queries under "
                f"{args.slow_ms:g}ms — burn rates in stats/metrics, live view "
                f"via `python -m repro top --port {server.port}`"
            )
        if args.cache:
            print(
                f"result cache: on ({args.cache_entries} entries / "
                f"{args.cache_bytes} bytes, subsumption "
                f"{'on' if args.cache_subsumption else 'off'}) — counters in "
                '{"op": "stats"} under "result_cache"'
            )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        cluster.shutdown()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import ServeClient, generate_expressions, run_loadgen

    kill_workers: list[tuple[int, float]] = []
    for spec in args.kill_worker:
        machine, _, at = spec.partition("@")
        try:
            kill_workers.append((int(machine), float(at)))
        except ValueError:
            print(
                f"error: --kill-worker expects N@T (machine id @ seconds), "
                f"got {spec!r}",
                file=sys.stderr,
            )
            return 2

    with ServeClient(args.host, args.port) as probe:
        info = probe.info()
    max_radius = info.get("max_radius")
    if max_radius is None:
        print("error: the server reports no maxR; cannot scale radii", file=sys.stderr)
        return 2

    dataset = load_dataset(args.dataset)

    # Standing subscriptions ride a dedicated connection; their pushed
    # notifications are drained and summarised after the run.
    sub_client = None
    sub_ids: list[str] = []
    if args.subs > 0:
        from repro.workloads import SubGenConfig, SubscriptionGenerator

        specs = SubscriptionGenerator(
            dataset.network,
            SubGenConfig(
                seed=args.seed,
                num_keywords=args.keywords,
                radius=max_radius * args.radius_fraction,
                rkq_fraction=args.rkq_fraction,
            ),
        ).specs(args.subs)
        sub_client = ServeClient(args.host, args.port)
        for i, spec in enumerate(specs):
            reply = sub_client.request(spec.to_request(request_id=f"sub{i}"))
            if not reply.get("ok"):
                print(
                    f"error: subscribe failed ({reply.get('error')}): "
                    f"{reply.get('detail', '')}",
                    file=sys.stderr,
                )
                sub_client.close()
                return 1
            sub_ids.append(reply["sub"])
        print(f"registered {len(sub_ids)} standing subscriptions")

    # Live updates stream from their own connection, concurrently with
    # the query load.
    update_thread = None
    update_outcome: dict = {"applied": 0, "failed": 0}
    if args.update_ops > 0:
        from repro.workloads import UpdateGenConfig, UpdateStreamGenerator

        generator = UpdateStreamGenerator(
            dataset.network, UpdateGenConfig(seed=args.seed)
        )
        batches = []
        remaining = args.update_ops
        while remaining > 0:
            size = min(args.update_batch, remaining)
            batches.append(generator.ops(size))
            remaining -= size

        def _apply_updates() -> None:
            try:
                with ServeClient(args.host, args.port) as update_client:
                    for i, batch in enumerate(batches):
                        reply = update_client.update(batch, request_id=f"u{i}")
                        if reply.get("ok"):
                            update_outcome["applied"] += 1
                        else:
                            update_outcome["failed"] += 1
                            update_outcome.setdefault("error", reply.get("error"))
            except DisksError as error:
                update_outcome["failed"] += len(batches) - (
                    update_outcome["applied"] + update_outcome["failed"]
                )
                update_outcome.setdefault("error", str(error))

        update_thread = threading.Thread(target=_apply_updates, name="loadgen-updates")

    expressions = generate_expressions(
        dataset.network,
        count=args.queries,
        radius=max_radius * args.radius_fraction,
        num_keywords=args.keywords,
        rkq_fraction=args.rkq_fraction,
        seed=args.seed,
        zipf=args.zipf,
    )
    wire_note = args.wire if args.batch == 1 else f"{args.wire}, batch {args.batch}"
    print(
        f"replaying {len(expressions)} queries against {args.host}:{args.port} "
        f"from {args.clients} closed-loop clients ({wire_note}) ..."
    )
    for machine, at in kill_workers:
        print(f"fault injection: will kill worker {machine} at t+{at:g}s")
    if update_thread is not None:
        update_thread.start()
    report = run_loadgen(
        args.host,
        args.port,
        expressions,
        num_clients=args.clients,
        protocol=args.wire,
        batch=args.batch,
        kill_workers=kill_workers or None,
    )
    if update_thread is not None:
        update_thread.join()
        line = (
            f"updates: {update_outcome['applied']} batches applied, "
            f"{update_outcome['failed']} failed"
        )
        if update_outcome.get("error"):
            line += f" (first error: {update_outcome['error']})"
        print(line)
    print(
        f"done in {report.wall_seconds:.2f}s: {report.ok} ok, {report.shed} shed, "
        f"{report.errors} errors — {report.throughput_qps:.0f} q/s, "
        f"p50 {report.p50_ms:.1f}ms, p95 {report.p95_ms:.1f}ms, p99 {report.p99_ms:.1f}ms"
    )
    if sub_client is not None:
        notify = resync = added = removed = rescored = 0
        for frame in sub_client.notifications(timeout_seconds=0.5):
            if frame.get("push") == "notify":
                notify += 1
                added += len(frame.get("added", ()))
                removed += len(frame.get("removed", ()))
                rescored += len(frame.get("rescored", ()))
            elif frame.get("push") == "resync":
                resync += 1
        print(
            f"subscriptions: {notify} notify frames "
            f"(+{added} −{removed} ~{rescored}), {resync} resyncs "
            f"across {len(sub_ids)} standing queries"
        )
        sub_client.close()
    with ServeClient(args.host, args.port) as client:
        stats = client.stats()
    histogram = stats["histograms"].get("latency_seconds", {})
    busy = stats.get("busy_seconds", {})
    print(
        f"server: {stats['counters'].get('completed', 0)} completed, "
        f"{stats['counters'].get('shed', 0)} shed, peak in-flight "
        f"{stats['gauges'].get('inflight', {}).get('peak', 0):.0f}, "
        f"server-side p95 {histogram.get('p95_ms', 0.0):.1f}ms"
    )
    if busy:
        total = sum(busy.values())
        shares = ", ".join(f"m{m}={s / total:.0%}" for m, s in sorted(busy.items()))
        print(f"worker busy-time shares: {shares}")
    for op, block in sorted(stats.get("slo", {}).items()):
        burn = block.get("burn", {})
        burn_note = ", ".join(
            f"{objective} burn " + "/".join(
                f"{window}={rate:.2f}" for window, rate in sorted(rates.items())
            )
            for objective, rates in sorted(burn.items())
            if rates
        )
        print(
            f"slo {op}: availability {block.get('availability', 1.0):.4%}, "
            f"latency attainment {block.get('latency_attainment', 1.0):.4%} "
            f"over {block.get('total', 0)} requests"
            + (f" ({burn_note})" if burn_note else "")
            + (f" — {block['alerts']} burn alerts" if block.get("alerts") else "")
        )
    retention = stats.get("tracing", {}).get("retention")
    if retention:
        kept = ", ".join(
            f"{category}={count}"
            for category, count in sorted(retention.get("retained", {}).items())
            if count
        )
        print(
            f"trace retention: kept {retention.get('kept', 0)}/"
            f"{retention.get('seen', 0)} traces"
            + (f" ({kept})" if kept else "")
        )
    _print_stage_table(args.host, args.port)
    return 0


def _cmd_subscriptions(args: argparse.Namespace) -> int:
    import time

    from repro.serve import ServeClient
    from repro.workloads import SubGenConfig, SubscriptionGenerator

    with ServeClient(args.host, args.port) as probe:
        info = probe.info()
    max_radius = info.get("max_radius")
    if max_radius is None:
        print("error: the server reports no maxR; cannot scale radii", file=sys.stderr)
        return 2

    dataset = load_dataset(args.dataset)
    specs = SubscriptionGenerator(
        dataset.network,
        SubGenConfig(
            seed=args.seed,
            num_keywords=args.keywords,
            radius=max_radius * args.radius_fraction,
            rkq_fraction=args.rkq_fraction,
            scored_fraction=args.scored_fraction,
        ),
    ).specs(args.count)

    with ServeClient(args.host, args.port) as client:
        for i, spec in enumerate(specs):
            reply = client.request(spec.to_request(request_id=f"sub{i}"))
            if not reply.get("ok"):
                print(
                    f"error: subscribe failed ({reply.get('error')}): "
                    f"{reply.get('detail', '')}",
                    file=sys.stderr,
                )
                return 1
            print(
                f"registered {reply['sub']} [{spec.kind}"
                + (", scored" if spec.scored else "")
                + f"] q={spec.expression!r} — {len(reply['nodes'])} initial results"
            )
        print("watching for notifications (Ctrl-C to stop) ...")
        deadline = None if args.watch is None else time.time() + args.watch
        try:
            while deadline is None or time.time() < deadline:
                for frame in client.notifications(timeout_seconds=0.5):
                    if frame.get("push") == "notify":
                        parts = []
                        if frame.get("added"):
                            parts.append("+" + ",".join(map(str, frame["added"])))
                        if frame.get("removed"):
                            parts.append("−" + ",".join(map(str, frame["removed"])))
                        if frame.get("rescored"):
                            parts.append("~" + ",".join(map(str, frame["rescored"])))
                        print(
                            f"{frame['sub']} @epoch {frame['epoch']}: "
                            + (" ".join(parts) or "(empty)")
                        )
                    elif frame.get("push") == "resync":
                        print(
                            f"{frame['sub']} @epoch {frame['epoch']}: RESYNC "
                            f"({frame.get('dropped', 0)} notices dropped) — "
                            f"{len(frame.get('nodes', ()))} results"
                        )
        except KeyboardInterrupt:
            print("\nstopping")
    return 0


def _print_stage_table(host: str, port: int) -> None:
    """Closing per-stage latency table, from the metrics exposition op.

    Stage histograms only fill when the server samples traces
    (``serve --trace``); with no stage data the table is skipped.
    """
    from repro.obs.prometheus import parse_prometheus_text
    from repro.serve import ServeClient

    with ServeClient(host, port) as client:
        samples = parse_prometheus_text(client.metrics_text())
    stages = [
        ("queue", "repro_stage_queue_seconds"),
        ("eval", "repro_stage_eval_seconds"),
        ("union", "repro_stage_union_seconds"),
        ("serialize", "repro_stage_serialize_seconds"),
    ]
    rows = []
    for label, metric in stages:
        count = samples.get((f"{metric}_count", ()))
        if not count:
            continue
        quantile = lambda q: samples.get((metric, (("quantile", q),)), 0.0) * 1000.0
        rows.append((label, int(count), quantile("0.5"), quantile("0.95"), quantile("0.99")))
    if not rows:
        return
    print("per-stage latency (sampled traces):")
    print(f"  {'stage':<10} {'spans':>7} {'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9}")
    for label, count, p50, p95, p99 in rows:
        print(f"  {label:<10} {count:>7} {p50:>9.3f} {p95:>9.3f} {p99:>9.3f}")


def _render_top(
    stats: dict,
    trace_reply: dict | None,
    *,
    endpoint: str,
    qps: float | None = None,
    top_n: int = 5,
) -> str:
    """One ``repro top`` frame as a string.

    Pure function of the ``stats``/``trace`` payloads so tests can feed
    canned snapshots; ``qps`` is the caller-computed completion rate
    between frames (None on the first frame).
    """
    counters = stats.get("counters", {})
    gauges = stats.get("gauges", {})
    histogram = stats.get("histograms", {}).get("latency_seconds", {})
    tracing = stats.get("tracing", {})
    lines = []

    header = f"repro top — {endpoint}  tracing={tracing.get('mode', 'head')}"
    epoch = stats.get("live", {}).get("epoch")
    if epoch is not None:
        header += f"  epoch={epoch}"
    lines.append(header)

    inflight = gauges.get("inflight", {})
    lines.append(
        f"queries    {counters.get('completed', 0)} completed"
        + (f" ({qps:.1f} q/s)" if qps is not None else "")
        + f", {counters.get('shed', 0)} shed, "
        f"{counters.get('timeouts', 0)} timeouts, in-flight "
        f"{inflight.get('current', 0):.0f} (peak {inflight.get('peak', 0):.0f})"
    )
    if histogram:
        lines.append(
            f"latency    p50 {histogram.get('p50_ms', 0.0):.1f}ms  "
            f"p95 {histogram.get('p95_ms', 0.0):.1f}ms  "
            f"p99 {histogram.get('p99_ms', 0.0):.1f}ms  "
            f"max {histogram.get('max_ms', 0.0):.1f}ms"
        )

    for op, block in sorted(stats.get("slo", {}).items()):
        burn = block.get("burn", {})

        def _rates(objective: str) -> str:
            rates = burn.get(objective, {})
            return " ".join(f"{w}={rates[w]:.2f}" for w in sorted(rates))

        lines.append(
            f"slo {op:<6} avail {block.get('availability', 1.0):.4%} "
            f"[{_rates('availability')}]  "
            f"latency {block.get('latency_attainment', 1.0):.4%} "
            f"[{_rates('latency')}]"
            + (f"  ALERTS {block['alerts']}" if block.get("alerts") else "")
        )

    cache = stats.get("result_cache")
    if cache:
        probes = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / probes if probes else 0.0
        lines.append(
            f"cache      {rate:.0%} hit ({cache.get('hits', 0)}/{probes}), "
            f"{cache.get('subsumption_hits', 0)} subsumption, "
            f"{cache.get('entries', 0)} entries, "
            f"{cache.get('stale_rejects', 0)} stale rejects"
        )

    retention = tracing.get("retention")
    if retention:
        kept = ", ".join(
            f"{category}={count}"
            for category, count in sorted(retention.get("retained", {}).items())
            if count
        )
        threshold = retention.get("slow_threshold_ms")
        lines.append(
            f"retention  {retention.get('kept', 0)}/{retention.get('seen', 0)} kept"
            + (f", p99 gate {threshold:.1f}ms" if threshold else "")
            + (f" ({kept})" if kept else "")
        )

    ha = stats.get("ha")
    if ha and "machines" in ha:
        busy = ha.get("busy_seconds", {})
        outstanding = ha.get("outstanding_tasks", {})
        total_busy = sum(busy.values()) or 1.0
        machines = " ".join(
            f"m{machine}:{busy.get(machine, 0.0) / total_busy:.0%}"
            f"/{outstanding.get(machine, 0)}"
            for machine in sorted(busy, key=lambda m: int(m))
        )
        lines.append(
            f"ha         {ha.get('machines_alive', 0)}/{ha.get('machines', 0)} alive "
            f"(x{ha.get('replication_factor', 1)}), "
            f"{ha.get('reroutes', 0)} reroutes, {ha.get('restarts', 0)} restarts"
            + (f" — busy/outstanding {machines}" if machines else "")
        )

    hotspots = stats.get("hotspots")
    if hotspots:
        for dim in ("keyword", "fragment"):
            entries = hotspots.get("by_seconds", {}).get(dim, [])[:top_n]
            if entries:
                lines.append(
                    f"hot {dim + 's':<6} " + "  ".join(
                        f"{entry['key']}={entry['seconds'] * 1000:.1f}ms"
                        for entry in entries
                    )
                )

    slow = (trace_reply or {}).get("slow", [])
    if slow:
        lines.append("recent slow:")
        for entry in slow[-top_n:]:
            traced = entry.get("trace_id")
            lines.append(
                f"  {entry.get('latency_ms', 0.0):8.1f}ms  "
                f"q={entry.get('query', '?')!r}"
                + (f"  attempt={entry['attempt']}" if entry.get("attempt") else "")
                + (f"  trace={traced[:16]}" if traced else "")
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.serve import BinaryServeClient, ServeClient

    client_class = BinaryServeClient if args.wire == "binary" else ServeClient
    endpoint = f"{args.host}:{args.port} ({args.wire})"
    frames = 0
    previous: tuple[int, float] | None = None
    try:
        with client_class(args.host, args.port) as client:
            while args.iterations is None or frames < args.iterations:
                if frames:
                    time.sleep(args.interval)
                stats = client.stats()
                trace_reply = client.request({"op": "trace", "n": args.top_n})
                now = time.monotonic()
                completed = stats.get("counters", {}).get("completed", 0)
                qps = None
                if previous is not None and now > previous[1]:
                    qps = (completed - previous[0]) / (now - previous[1])
                previous = (completed, now)
                frame = _render_top(
                    stats,
                    trace_reply if trace_reply.get("ok") else None,
                    endpoint=endpoint,
                    qps=qps,
                    top_n=args.top_n,
                )
                if args.clear:
                    print("\x1b[2J\x1b[H" + frame, flush=True)
                else:
                    print(frame, flush=True)
                frames += 1
    except KeyboardInterrupt:
        print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import write_chrome_trace
    from repro.obs.trace import format_trace
    from repro.serve import ServeClient

    with ServeClient(args.host, args.port) as client:
        reply = client.trace(trace_id=args.trace_id, n=args.n)

    if args.trace_id is not None:
        record = reply["trace"]
        _print_trace_record(record)
        if args.chrome:
            count = write_chrome_trace(Path(args.chrome), [record])
            print(f"wrote {count} span events to {args.chrome}")
        return 0

    sampling = reply.get("sampling", {})
    print(
        f"sampling: rate {sampling.get('rate', 0.0):.1%}, "
        f"{sampling.get('sampled', 0)}/{sampling.get('seen', 0)} queries sampled, "
        f"{sampling.get('stored', 0)} traces stored"
    )
    traces = reply.get("traces", [])
    events = reply.get("events", [])
    if not traces and not events:
        print("no traces or events recorded (is the server sampling? serve --trace)")
    # Interleave traces with obs events (epoch swaps, …) by their shared
    # monotonic clock so swaps show up where they landed between queries.
    timeline: list[tuple[float, str]] = []
    for record in traces:
        spans = record.get("spans", [])
        at = min((s.get("start", 0.0) for s in spans), default=0.0)
        header = (
            f"trace {record.get('trace_id', '?')[:16]}  "
            f"q={record.get('query', '?')!r}  "
            f"{record.get('latency_ms', 0.0):.1f}ms"
            + ("  SLOW" if record.get("slow") else "")
            + ("  DEGRADED" if record.get("degraded") else "")
        )
        timeline.append((at, header + "\n" + format_trace(spans)))
    for event in events:
        fields = {
            k: v
            for k, v in event.items()
            if k not in ("kind", "monotonic", "wall_time")
        }
        text = f"event {event.get('kind', '?')}  " + " ".join(
            f"{key}={value}" for key, value in sorted(fields.items())
        )
        timeline.append((event.get("monotonic", 0.0), text))
    for _, text in sorted(timeline, key=lambda entry: entry[0]):
        print(text)
    slow = reply.get("slow", [])
    if slow:
        print("slow-query ring (newest last):")
        for entry in slow:
            traced = entry.get("trace_id")
            print(
                f"  {entry.get('latency_ms', 0.0):9.1f}ms  "
                f"q={entry.get('query', '?')!r}"
                + (f"  trace={traced[:16]}" if traced else "  (unsampled)")
            )
    if args.chrome:
        count = write_chrome_trace(Path(args.chrome), traces)
        print(f"wrote {count} span events to {args.chrome}")
    return 0


def _print_trace_record(record: dict) -> None:
    from repro.obs.trace import format_trace

    print(
        f"trace {record.get('trace_id', '?')}  q={record.get('query', '?')!r}  "
        f"{record.get('latency_ms', 0.0):.1f}ms"
        + ("  SLOW" if record.get("slow") else "")
    )
    print(format_trace(record.get("spans", [])))


def _cmd_updates(args: argparse.Namespace) -> int:
    from repro.live import EpochManager, UpdateLog, write_ops

    directory = Path(args.dir)
    manifest, fragments, indexes = _load_built(directory)
    log_path = Path(args.log) if args.log else directory / "updates.jsonl"
    dataset = load_dataset(manifest["dataset"])

    if args.generate is not None:
        from repro.workloads import UpdateGenConfig, UpdateStreamGenerator

        if log_path.exists():
            print(
                f"error: {log_path} already exists; generating into a non-empty "
                "log would fork its history",
                file=sys.stderr,
            )
            return 2
        if args.generate < 1 or args.batch_size < 1:
            print("error: --generate and --batch-size must be positive", file=sys.stderr)
            return 2
        generator = UpdateStreamGenerator(
            dataset.network, UpdateGenConfig(seed=args.seed)
        )
        batches = []
        remaining = args.generate
        while remaining > 0:
            size = min(args.batch_size, remaining)
            batches.append(generator.ops(size))
            remaining -= size
        write_ops(log_path, batches)
        kinds: dict[str, int] = {}
        for batch in batches:
            for op in batch:
                kinds[op.kind] = kinds.get(op.kind, 0) + 1
        mix = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        print(
            f"wrote {args.generate} ops in {len(batches)} committed batches "
            f"to {log_path} ({mix})"
        )
        return 0

    # --replay
    if not log_path.exists():
        print(f"error: {log_path} does not exist", file=sys.stderr)
        return 2
    partition = _reconstruct_partition(dataset.network, fragments)
    manager, pending = EpochManager.recover(
        network=dataset.network,
        partition=partition,
        fragments=fragments,
        indexes=indexes,
        log=UpdateLog(log_path),
    )
    for swap in manager.history:
        mix = ", ".join(f"{k}={v}" for k, v in sorted(swap.ops_by_kind.items()))
        print(
            f"epoch {swap.epoch}: {swap.num_ops} ops ({mix}) -> "
            f"{len(swap.changed_fragments)} fragments changed, "
            f"applied in {swap.apply_seconds * 1000:.1f}ms "
            f"(swap {swap.swap_seconds * 1000:.2f}ms)"
        )
    print(
        f"replayed {len(manager.history)} committed batches from {log_path}; "
        f"now at epoch {manager.epoch}"
        + (f" ({len(pending)} uncommitted ops pending)" if pending else "")
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Self-contained failover drill: build, replicate, kill, verify."""
    import threading
    import time

    from repro.ha import FrontendGuard, HACluster
    from repro.serve import (
        ServeClient,
        ServeConfig,
        generate_expressions,
        serve_in_thread,
    )

    if args.replicas < 2:
        print("error: a failover drill needs --replicas >= 2", file=sys.stderr)
        return 2
    if not 0 <= args.kill < args.machines:
        print(
            f"error: --kill {args.kill} is not a machine id in [0, {args.machines})",
            file=sys.stderr,
        )
        return 2

    dataset = load_dataset(args.dataset)
    engine = DisksEngine.build(
        dataset.network,
        EngineConfig(
            num_fragments=args.machines * 2,
            partitioner=MultilevelPartitioner(seed=args.seed),
        ),
    )
    expressions = generate_expressions(
        dataset.network,
        count=args.queries,
        radius=engine.max_radius * 0.5,
        seed=args.seed,
    )
    expected = [frozenset(engine.results(parse_query(expr))) for expr in expressions]
    print(
        f"drill: {args.queries} queries on {args.dataset}, "
        f"{args.machines} workers x{args.replicas} replication, "
        f"killing worker {args.kill} at t+{args.kill_at:g}s"
    )

    cluster = HACluster.start(
        engine.fragments,
        engine.indexes,
        num_machines=args.machines,
        replication_factor=args.replicas,
    )
    mismatches: list[str] = []
    errors: list[str] = []
    try:
        with serve_in_thread(
            cluster,
            config=ServeConfig(port=0, allow_chaos=True),
            guard=FrontendGuard(),
        ) as server:
            work = list(enumerate(expressions))
            position = threading.Lock()

            def _drive() -> None:
                with ServeClient(server.host, server.port) as client:
                    while True:
                        with position:
                            if not work:
                                return
                            i, expr = work.pop()
                        reply = client.query(expr, request_id=i)
                        if not reply.get("ok"):
                            errors.append(f"q{i}: {reply.get('error')}")
                        elif frozenset(reply["nodes"]) != expected[i]:
                            mismatches.append(f"q{i}: {expr}")

            def _kill() -> None:
                time.sleep(args.kill_at)
                with ServeClient(server.host, server.port) as client:
                    reply = client.chaos_kill(args.kill)
                print(
                    f"killed worker {args.kill} "
                    f"(was {'alive' if reply.get('was_alive') else 'already dead'})"
                )

            killer = threading.Thread(target=_kill, name="chaos-kill")
            drivers = [
                threading.Thread(target=_drive, name=f"chaos-client-{c}")
                for c in range(args.clients)
            ]
            started = time.perf_counter()
            killer.start()
            for thread in drivers:
                thread.start()
            for thread in drivers:
                thread.join()
            killer.join()
            wall = time.perf_counter() - started
            stats = cluster.ha_stats()
    finally:
        cluster.shutdown()

    print(
        f"done in {wall:.2f}s: {args.queries - len(errors) - len(mismatches)} exact, "
        f"{len(mismatches)} wrong, {len(errors)} failed — "
        f"{stats['failovers']} failovers, {stats['reroutes']} tasks rerouted, "
        f"{stats['restarts']} queries restarted, "
        f"min replicas alive {stats['replicas_alive_min']}"
    )
    for line in mismatches[:5] + errors[:5]:
        print(f"  {line}", file=sys.stderr)
    if mismatches or errors:
        print("FAIL: answers degraded during failover", file=sys.stderr)
        return 1
    print("PASS: every answer stayed exact across the kill")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    names = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E"}
    engine = DisksEngine.build(toy_figure1(), EngineConfig(num_fragments=2, lambda_factor=10.0))
    ex1 = engine.results(sgkq(["museum", "school"], 3.0))
    ex2 = engine.results(rkq(1, ["museum"], 4.0))
    print("Fig. 1 network, 2 fragments")
    print(f"  SGKQ({{museum, school}}, 3) = {{{', '.join(sorted(names[n] for n in ex1))}}}")
    print(f"  RKQ(B, {{museum}}, 4)       = {{{', '.join(sorted(names[n] for n in ex2))}}}")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "build": _cmd_build,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "subscriptions": _cmd_subscriptions,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "updates": _cmd_updates,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DisksError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
