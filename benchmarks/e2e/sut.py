"""The system under test: one child process that builds, serves, answers
control commands from the load generator, and tears down with leak checks.

The harness starts :func:`serve` with ``multiprocessing`` *spawn*, so the
deployment is always built cold and its CPU time and RSS are this
process's plus its forked workers' — nothing of the load generator's.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import resource
import threading
import time

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.ha import FrontendGuard, HACluster
from repro.live import EpochManager
from repro.partition import MultilevelPartitioner
from repro.serve import PipelinedCluster, ServeConfig, serve_in_thread
from repro.workloads.datasets import DATASET_PRESETS, build_dataset

import layers
from workloads import DATASET, LAMBDA, NUM_FRAGMENTS, NUM_WORKERS, WORKLOADS

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"


def _timed(stages: dict, name: str, call, *args, **kwargs):
    started = time.perf_counter()
    result = call(*args, **kwargs)
    stages[name] = time.perf_counter() - started
    return result


def _worker_cpu_seconds() -> float:
    """utime + stime of every live worker, from ``/proc/<pid>/stat``."""
    total = 0.0
    for process in multiprocessing.active_children():
        try:
            with open(f"/proc/{process.pid}/stat") as handle:
                # The command field may hold spaces; fields are counted
                # from the closing parenthesis.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def _peak_rss_kib() -> int:
    """This process's resident high-water mark (``VmHWM``).

    Not ``ru_maxrss``: that survives ``exec``, so a spawned child starts
    at whatever its parent — the load generator — weighed when it forked.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _shm_segments() -> set[str]:
    return set(os.listdir(_SHM_DIR))


class _ThreadErrors:
    """Counts threads that died with an exception (``threading.excepthook``).

    The coordinators ``close()`` a pipe a dispatcher may still be blocked
    on in ``recv_bytes()``; the resulting ``TypeError`` is a known race
    outside this benchmark's paths, so it is counted apart and not fatal.
    """

    def __init__(self) -> None:
        self.shutdown_races = 0
        self.other: list[str] = []

    def hook(self, args) -> None:
        name = args.thread.name if args.thread is not None else ""
        if args.exc_type is TypeError and "dispatch" in name:
            self.shutdown_races += 1
        else:
            self.other.append(f"{name}: {args.exc_type.__name__}: {args.exc_value}")


def serve(control, workload_name: str, trace_path: str) -> None:
    """Build ``bri_mini``, serve it, obey ``control`` until told to stop."""
    # Own process group: if the harness has to give up, one killpg
    # takes the forked workers down with this process.
    os.setsid()
    workload = WORKLOADS[workload_name]
    errors = _ThreadErrors()
    threading.excepthook = errors.hook
    segments_before = _shm_segments()
    stages: dict[str, float] = {}

    network = _timed(stages, "workloads.datasets.build_s", build_dataset, DATASET_PRESETS[DATASET]).network
    partition = _timed(
        stages, "partition.multilevel.partition_s",
        MultilevelPartitioner(seed=0).partition, network, NUM_FRAGMENTS,
    )
    fragments = _timed(stages, "core.fragment.build_s", build_fragments, network, partition)
    indexes, _stats = _timed(
        stages, "core.builder.index_s",
        build_all_indexes, network, fragments, NPDBuildConfig(lambda_factor=LAMBDA),
    )

    # No emulated link: sleeps would dilute every CPU saving.
    if workload.cluster == "ha":
        cluster = _timed(
            stages, "ha.cluster.start_s", HACluster.start, fragments, indexes,
            num_machines=NUM_WORKERS, replication_factor=2, routing="load", use_shm=True,
        )
    else:
        cluster = _timed(
            stages, "serve.pipeline.start_s", PipelinedCluster.start, fragments, indexes,
            num_machines=NUM_WORKERS, use_shm=True, pipe_wire="binary",
        )
    manager = None
    if workload.churn:
        manager = EpochManager(
            network=network, partition=partition,
            fragments=list(fragments), indexes=list(indexes),
        )
        manager.bind_cluster(cluster)
    config = ServeConfig(
        # Wide enough that a late open-loop burst queues instead of being shed.
        max_inflight=256,
        max_radius=indexes[0].max_radius, cache=workload.cache,
        tail_sampling=workload.obs, slo=workload.obs,
    )
    guard = FrontendGuard() if workload.cluster == "ha" else None

    frontend_rss_kib = 0
    try:
        with serve_in_thread(cluster, config, updater=manager, guard=guard) as server:
            control.send({
                "host": server.host, "port": server.port, "stages": stages,
                "max_radius": indexes[0].max_radius,
                "startup_bytes": sum(cluster.startup_bytes),
            })
            while True:
                try:
                    command, payload = control.recv()
                except (EOFError, OSError):
                    break  # the harness went away: tear down quietly
                if command == "cpu":
                    control.send({
                        "frontend": time.process_time(), "workers": _worker_cpu_seconds(),
                    })
                elif command == "trace":
                    # The traced pass allocates scratch runtimes; keep
                    # the serving high-water mark from before it.
                    frontend_rss_kib = _peak_rss_kib()
                    state = manager.state if manager is not None else None
                    control.send(layers.traced_pass(
                        workload, cluster, payload, trace_path,
                        network=state.network if state else network,
                        partition=partition,
                        fragments=list(state.fragments) if state else fragments,
                        indexes=list(state.indexes) if state else indexes,
                    ))
                elif command == "stop":
                    break
    finally:
        cluster.shutdown()
    if not frontend_rss_kib:
        frontend_rss_kib = _peak_rss_kib()
    report = {
        "frontend_rss_kib": frontend_rss_kib,
        # ru_maxrss of RUSAGE_CHILDREN is the largest waited-for child.
        "worker_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "leaked_segments": sorted(_shm_segments() - segments_before),
        "leaked_workers": len(multiprocessing.active_children()),
        "shutdown_thread_errors": errors.shutdown_races,
        "thread_errors": errors.other,
    }
    with contextlib.suppress(OSError):  # nobody left to tell
        control.send(report)
