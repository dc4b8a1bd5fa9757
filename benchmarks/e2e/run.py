"""End-to-end serving benchmark with a per-layer budget.

    python3 benchmarks/e2e/run.py                      # all four workloads, traced
    python3 benchmarks/e2e/run.py --workload wide_eval --seed 11 --seconds 10 --trace 0

Builds ``bri_mini`` cold in a child process, serves it over real TCP,
drives one of four named workloads closed-loop from this process, checks
every answer against the centralized oracle, and prints every metric by
name with its unit.  The last stdout line is one JSON object
(``correct``/``attempted``/``failed``/``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from repro.baselines import CentralizedEvaluator  # noqa: E402
from repro.core.language import parse_query  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.workloads.datasets import DATASET_PRESETS, build_dataset  # noqa: E402

import loadgen  # noqa: E402
import sut  # noqa: E402
from workloads import (  # noqa: E402
    DATASET, LAMBDA, NUM_CONNECTIONS, NUM_WORKERS, OPEN_LOOP_RATE, OPEN_LOOP_SECONDS, ORACLE_SAMPLE,
    REFERENCE_SECONDS, SLICES, TRACE_SAMPLE, UPDATES_PER_SLICE, WORKLOADS, expression_pool, pool_walk,
    read_order, update_plan,
)

CONTROL_TIMEOUT = 170.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _recv(control, what: str):
    if not control.poll(CONTROL_TIMEOUT):
        raise RuntimeError(f"the served process did not answer {what!r} in {CONTROL_TIMEOUT}s")
    return control.recv()


def _ask(control, command: str, payload=None):
    control.send((command, payload))
    return _recv(control, command)


def _reap(child) -> None:
    """Leave no process behind: the child, its workers, the resource tracker."""
    if child.is_alive():
        child.kill()  # it ignored the closed control pipe
    # The child leads its own process group (``os.setsid`` in sut.serve):
    # whatever it forked and did not join goes with one killpg, and the
    # group id stays taken until its last member has ended.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        child.join(timeout=0.05)
    # The spawn started multiprocessing's resource tracker (the child's
    # shm segments register with it); left alone it outlives this process
    # by a few milliseconds.  Stopping it waits for it.
    resource_tracker._resource_tracker._stop()


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _slice_metrics(phase, cpu_marks: list[dict], slices: int, slice_seconds: float) -> dict:
    """Per-slice qps / p50 / p95 / cpu-per-query → median and IQR."""
    per_slice: dict[str, list[float]] = {"qps": [], "p50_ms": [], "p95_ms": [], "cpu_ms_per_query": []}
    for k in range(slices):
        low = phase.started + k * slice_seconds
        high = low + slice_seconds
        latencies = [lat for done, lat, ok in phase.reads if ok and low <= done < high]
        if not latencies:
            continue
        cpu = sum(cpu_marks[k + 1].values()) - sum(cpu_marks[k].values())
        per_slice["qps"].append(len(latencies) / slice_seconds)
        per_slice["p50_ms"].append(loadgen.percentile(latencies, 0.50) * 1e3)
        per_slice["p95_ms"].append(loadgen.percentile(latencies, 0.95) * 1e3)
        per_slice["cpu_ms_per_query"].append(cpu / len(latencies) * 1e3)
    return {
        name: dict(zip(("value", "iqr"), loadgen.median_iqr(values)), n=len(values), values=values)
        for name, values in per_slice.items() if values
    }


def _cache_layer_metrics(before: dict | None, after: dict | None) -> dict:
    if not before or not after:
        return {}
    delta = {k: after[k] - before[k] for k in ("hits", "misses", "subsumption_hits", "invalidations", "stale_rejects")}
    served = delta["hits"] + delta["subsumption_hits"]
    return {
        "cache.store.hit_rate": served / max(1, served + delta["misses"]),
        "cache.store.subsumption_share": delta["subsumption_hits"] / max(1, served),
        "cache.store.invalidations": delta["invalidations"],
        "cache.store.stale_rejects": delta["stale_rejects"],
    }


def _budget(workload, layer: dict, tcp_p50_ms: float) -> float:
    """1 - (blocking-path layer medians / one-connection TCP p50).

    Worker-side layers are divided by the worker count: the fragments
    of one query evaluate on all workers in parallel, so an even split
    is the blocking path and any imbalance lands in the unattributed
    share.  Cached workloads replay hits, so their path stops at the
    probe.
    """
    us = 1e-3
    if workload.protocol == "ndjson":
        codec = (layer["serve.protocol.decode_us"] + layer["core.language.parse_us"]
                 + layer["serve.protocol.encode_us"]) * us
    else:
        codec = (layer["serve.wire.query_decode_us"] + layer["serve.wire.answer_encode_us"]) * us
    if workload.cache:
        path = codec + layer["cache.store.probe_hit_us"] * us
    else:
        path = (
            codec
            + layer[f"{workload.cluster_layer}.submit_us"] * us
            + layer["dist.process_cluster.queue_wait_ms"]
            + (layer["core.executor.task_ms"] + layer.get("serve.wire.pipe_results_encode_us", 0.0) * us) / NUM_WORKERS
            + layer.get("serve.wire.pipe_results_decode_us", 0.0) * us
        )
    return 1.0 - path / tcp_p50_ms


def _oracle_answers(network, pool: list[str], indexes) -> dict[int, tuple[int, ...]]:
    oracle = CentralizedEvaluator(network)
    return {i: tuple(sorted(oracle.results(parse_query(pool[i])))) for i in indexes}


def _replay(workload, host: str, port: int, pool: list[str], order: list[int], checker) -> loadgen.PhaseResult:
    """One connection, each index of ``order`` once."""
    return loadgen.run_closed_loop(
        workload.protocol, host, port, pool, [order], checker, reads_per_connection=len(order)
    )


def _traced_layers(workload, control, host, port, pool, sample_order, next_batches, scale) -> tuple[dict, dict, list]:
    """The ``--trace 1`` extras: TCP replay, traced pass in the child, open loop.

    Returns the layer metrics, the child's pass summary and the extra
    load phases (they count towards ``attempted``/``failed``).
    """
    sample = [pool[i] for i in sample_order]
    quiet = loadgen.AnswerChecker(len(sample), {})
    quiet.repeat_checks = False  # the churn sample repeats shapes across epochs
    replay = _replay(workload, host, port, sample, list(range(len(sample))), quiet)
    tcp_p50_ms = statistics.median(lat for _done, lat, _ok in replay.reads) * 1e3
    traced = _ask(control, "trace", {"expressions": sample, "plan": next_batches})
    layer = dict(traced["metrics"])
    layer["serve.server.overhead_ms"] = tcp_p50_ms - (
        0.0 if workload.cache else layer[f"{workload.cluster_layer}.roundtrip_ms"]
    )
    layer["budget.unattributed_share"] = _budget(workload, layer, tcp_p50_ms)
    phases = [replay]
    if workload.open_loop:
        opened = loadgen.run_open_loop(host, port, pool, OPEN_LOOP_RATE, OPEN_LOOP_SECONDS * scale)
        layer["serve.server.open_p50_ms"] = loadgen.percentile(opened.latencies, 0.50) * 1e3
        layer["serve.server.open_p95_ms"] = loadgen.percentile(opened.latencies, 0.95) * 1e3
        layer["serve.server.open_late_p95_ms"] = loadgen.percentile(opened.late, 0.95) * 1e3
        phases.append(opened.phase)
    if workload.cluster == "ha":
        with ServeClient(host, port) as admin:
            layer["ha.cluster.reroutes"] = admin.stats()["ha"]["reroutes"]
    return layer, {k: traced[k] for k in ("spans", "seconds")}, phases


def _stats_layers(workload, measured, before: dict, after: dict) -> dict:
    """Layer metrics read off the ``stats`` op (after - before the slices) and the loadgen."""
    counters_before, counters_after = before["counters"], after["counters"]
    busy = [
        seconds - before["busy_seconds"].get(machine, 0.0)
        for machine, seconds in after["busy_seconds"].items()
    ]
    wall = max(done for done, _lat, _ok in measured.reads) - measured.started
    layer = {
        "serve.server.p99_ms": loadgen.percentile(
            [lat for _done, lat, ok in measured.reads if ok], 0.99
        ) * 1e3,
        "serve.admission.shed": counters_after.get("shed", 0) - counters_before.get("shed", 0),
        "serve.server.timeouts": counters_after.get("timeouts", 0) - counters_before.get("timeouts", 0),
        "serve.metrics.machine_busy_share": statistics.mean(busy) / wall if busy else 0.0,
        "serve.metrics.busy_imbalance": max(busy) / statistics.mean(busy) if busy and max(busy) > 0 else 0.0,
    }
    layer.update(_cache_layer_metrics(before.get("result_cache"), after.get("result_cache")))
    if workload.churn:
        layer["serve.server.updates"] = len(measured.updates)
        layer["serve.server.update_p50_ms"] = statistics.median(
            [lat for _done, lat, _ok in measured.updates] or [0.0]
        ) * 1e3
    retention = after.get("tracing", {}).get("retention")
    if retention:
        layer["obs.tail.retained_share"] = retention["kept"] / max(1, retention["seen"])
    return layer


def run_workload(name: str, seed: int, seconds: float, trace: bool, slices: int, out_dir: Path) -> dict:
    """One full run of one workload; returns its report record."""
    workload = WORKLOADS[name]
    scale = seconds / REFERENCE_SECONDS
    slice_seconds = seconds / slices
    out_dir.mkdir(parents=True, exist_ok=True)

    context = multiprocessing.get_context("spawn")
    control, child_end = context.Pipe()
    child = context.Process(
        target=sut.serve, args=(child_end, name, str(out_dir / f"trace_{name}.json")),
        name=f"e2e-sut-{name}",
    )
    born = time.perf_counter()
    child.start()
    child_end.close()
    try:
        # While the child builds (single-threaded; the second core is
        # free), derive this run's inputs and oracle answers.
        network = build_dataset(DATASET_PRESETS[DATASET]).network
        pool = expression_pool(workload, network, LAMBDA * network.average_edge_weight, seed)
        walks = [pool_walk(len(pool), c) for c in range(NUM_CONNECTIONS)]
        orders = [read_order(workload, len(pool), seed, c) for c in range(NUM_CONNECTIONS)]
        plan = update_plan(network, pool, seed) if workload.churn else None
        # The set-up probe's expression plus a seeded sample of the rest.
        probe_index = walks[0][0]
        others = [i for i in range(len(pool)) if i != probe_index]
        sampled = [probe_index] + random.Random(seed).sample(others, ORACLE_SAMPLE - 1)
        checker = loadgen.AnswerChecker(len(pool), _oracle_answers(network, pool, sampled))

        ready = _recv(control, "ready")
        host, port = ready["host"], ready["port"]
        probe = _replay(workload, host, port, pool, [probe_index], checker)
        setup_s = time.perf_counter() - born
        if not all(ok for _done, _lat, ok in probe.reads):
            raise RuntimeError("the first answer did not match the oracle")

        # Warm-up: one pass over the pool, capped at one slice length,
        # then whatever sampled expression the pass did not reach.
        phases = [probe, loadgen.run_closed_loop(
            workload.protocol, host, port, pool, walks, checker,
            seconds=slice_seconds, reads_per_connection=math.ceil(len(pool) / NUM_CONNECTIONS),
        )]
        unseen = [i for i in sampled if i not in checker.oracle_checked]
        if unseen:
            phases.append(_replay(workload, host, port, pool, unseen, checker))

        with ServeClient(host, port) as admin:
            stats_before = admin.stats()
        cpu_marks: list[dict] = []
        checker.repeat_checks = not workload.churn  # answers move with the epoch
        update_times = tuple(
            (k + (j + 0.5) / UPDATES_PER_SLICE) * slice_seconds
            for k in range(slices if workload.churn else 0) for j in range(UPDATES_PER_SLICE)
        )
        measured = loadgen.run_closed_loop(
            workload.protocol, host, port, pool, orders, checker,
            seconds=seconds, update_plan=plan, update_times=update_times,
            on_tick=lambda _k: cpu_marks.append(_ask(control, "cpu")), tick_seconds=slice_seconds,
        )
        with ServeClient(host, port) as admin:
            stats_after = admin.stats()
        phases.append(measured)

        oracle_compared = len(checker.oracle_checked)
        if workload.churn:
            # Quiesced: every update is acked.  Mirror the acked ops on
            # this process's own network and compare the whole pool.
            for op in measured.acked_ops:
                keywords = set(network.keywords(op["node"]))
                (keywords.add if op["op"] == "add_keyword" else keywords.discard)(op["keyword"])
                network = network.with_node_keywords(op["node"], keywords)
            final = loadgen.AnswerChecker(len(pool), _oracle_answers(network, pool, range(len(pool))))
            phases.append(_replay(workload, host, port, pool, walks[0], final))
            oracle_compared += len(final.oracle_checked)

        layer: dict[str, float] = {}
        traced_pass = None
        if trace:
            sample_size = max(16, round(TRACE_SAMPLE * scale))
            sample_order = (orders[0] if workload.churn else walks[0])[:sample_size]
            next_batch = len(measured.updates)
            layer, traced_pass, extra = _traced_layers(
                workload, control, host, port, pool, sample_order,
                plan[next_batch:next_batch + 4] if plan else [], scale,
            )
            phases += extra

        control.send(("stop", None))
        final_report = _recv(control, "stop")
    finally:
        # A closed control pipe tells the child to shut its cluster down;
        # only a child that ignores that is killed, with its workers.
        control.close()
        child.join(timeout=30.0)
        _reap(child)

    operations = [op for phase in phases for op in phase.reads + phase.updates]
    failed = sum(1 for _done, _lat, ok in operations if not ok)
    leaks = {
        "shm.leaked_segments": len(final_report["leaked_segments"]),
        "dist.process_cluster.leaked_workers": final_report["leaked_workers"],
        "serve.server.thread_errors": len(final_report["thread_errors"]),
    }
    end_to_end = _slice_metrics(measured, cpu_marks, slices, slice_seconds)
    end_to_end["setup_s"] = {"value": setup_s, "iqr": 0.0, "n": 1}
    rss_mb = (final_report["frontend_rss_kib"] + final_report["worker_rss_kib"]) / 1024.0
    end_to_end["rss_mb"] = {"value": rss_mb, "iqr": 0.0, "n": 1}

    layer.update(ready["stages"])
    layer.update(_stats_layers(workload, measured, stats_before, stats_after))
    layer.update(leaks)
    layer.update({
        # The known close()-under-recv_bytes() race: reported, not fatal.
        "serve.pipeline.shutdown_thread_errors": final_report["shutdown_thread_errors"],
        "shm.startup_bytes": ready["startup_bytes"],
        "fail_share": failed / len(operations),
    })
    return {
        "workload": name, "seed": seed,
        "correct": failed == 0 and not any(leaks.values()),
        "attempted": len(operations), "failed": failed, "oracle_compared": oracle_compared,
        "end_to_end": end_to_end, "per_layer": layer, "leaks": final_report,
        "traced_pass": traced_pass,
        "slices": slices, "slice_seconds": slice_seconds, "scale": scale,
    }


def _print_rows(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    name = record["workload"]
    for metric, row in record["end_to_end"].items():
        print(f"{name} {metric} {units[metric]} {row['value']:.6g} {row['iqr']:.6g} {row['n']}")
    for metric, value in sorted(record["per_layer"].items()):
        print(f"{name} {metric} {units[metric]} {value:.6g} 0 1")


def _result_line(records: list[dict], spec: dict, trace: bool) -> dict:
    single = len(records) == 1
    metrics: dict[str, dict] = {}
    for record in records:
        prefix = "" if single else record["workload"] + "."
        if trace:
            # A layer that is not on this workload's path did no work: 0.
            for m in spec["per_layer"]:
                value = record["per_layer"].get(m["name"], 0.0)
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        else:
            for m in spec["end_to_end"]:
                value = record["end_to_end"][m["name"]]["value"]
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured seconds per workload, split into --slices slices")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced per-layer pass after the timed slices")
    parser.add_argument("--slices", type=int, default=SLICES)
    parser.add_argument("--slice-seconds", type=float, default=None, help="overrides --seconds")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    seconds = args.slice_seconds * args.slices if args.slice_seconds else args.seconds
    # A terminated run unwinds through run_workload's clean-up too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    records = [
        run_workload(name, args.seed, seconds, bool(args.trace), args.slices, args.out)
        for name in chosen
    ]
    for record in records:
        _print_rows(record, spec)
    report = {
        "git_sha": _git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "seed": args.seed, "slices": args.slices,
        "slice_seconds": seconds / args.slices, "scale": records[0]["scale"],
        "traced": bool(args.trace), "workloads": {r["workload"]: r for r in records},
    }
    suffix = "" if args.workload == "all" else f"_{args.workload}"
    (args.out / f"report{suffix}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    result = _result_line(records, spec, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
