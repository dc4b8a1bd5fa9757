"""The load generator: closed-loop connections, slices, and the open loop.

Callers of this system are application backends that wait for their
reply, so the gated numbers come from a *closed* loop: one thread per
connection, next request only after the previous reply is fully
decoded.  The open loop (fixed arrival schedule, latency timed from the
due time) is reported beside it because a closed loop hides queueing.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import ClusterError
from repro.serve import BinaryServeClient, ServeClient



def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the rule ``LoadgenReport.percentile`` uses)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median and inter-quartile range of per-slice values."""
    if len(values) < 2:
        return values[0], 0.0
    quartiles = statistics.quantiles(values, n=4)
    return statistics.median(values), quartiles[2] - quartiles[0]


class AnswerChecker:
    """First answer of a sampled expression must equal the oracle's;
    every later answer to any expression must equal its first."""

    def __init__(self, pool_size: int, oracle: dict[int, tuple[int, ...]]) -> None:
        self._first: list[tuple[int, ...] | None] = [None] * pool_size
        self._oracle = oracle
        self.oracle_checked: set[int] = set()
        self.repeat_checks = True

    def check(self, index: int, nodes: list[int]) -> bool:
        answer = tuple(nodes)
        first = self._first[index]
        if first is None:
            self._first[index] = answer
            expected = self._oracle.get(index)
            if expected is None:
                return True
            self.oracle_checked.add(index)
            return answer == expected
        return not self.repeat_checks or answer == first


@dataclass
class PhaseResult:
    """Raw samples of one closed-loop phase (times are ``perf_counter``)."""

    started: float
    reads: list[tuple[float, float, bool]] = field(default_factory=list)  # done, latency, ok
    updates: list[tuple[float, float, bool]] = field(default_factory=list)
    acked_ops: list[dict] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


def _connect(protocol: str, host: str, port: int):
    cls = BinaryServeClient if protocol == "binary" else ServeClient
    return cls(host, port, timeout_seconds=60.0)


def run_closed_loop(
    protocol: str,
    host: str,
    port: int,
    pool: list[str],
    orders: list[list[int]],
    checker: AnswerChecker,
    *,
    seconds: float | None = None,
    reads_per_connection: int | None = None,
    update_plan: list[list[dict]] | None = None,
    update_times: tuple[float, ...] = (),
    on_tick=None,
    tick_seconds: float = 1.0,
) -> PhaseResult:
    """Drive ``len(orders)`` connections until the deadline or read count.

    ``update_times`` (seconds from the start) makes connection 0 send
    the next batch of ``update_plan`` once each time has passed,
    between two of its reads.  ``on_tick(k)`` runs on the
    calling thread at ``started + k * tick_seconds`` for every slice
    boundary (the CPU snapshots).
    """
    barrier = threading.Barrier(len(orders) + 1)
    result = PhaseResult(started=math.inf)
    deadline = [math.inf]

    def _drive(connection: int) -> None:
        order = orders[connection]
        reads: list[tuple[float, float, bool]] = []
        updates: list[tuple[float, float, bool]] = []
        acked: list[dict] = []
        client = None
        try:
            client = _connect(protocol, host, port)
            binary = protocol == "binary"
            prepared = [client.prepare(e) for e in pool] if binary else pool
            barrier.wait()
            limit = reads_per_connection if reads_per_connection is not None else math.inf
            due = list(update_times) if connection == 0 else []
            count = 0
            while count < limit and time.perf_counter() < deadline[0]:
                index = order[count % len(order)]
                count += 1
                sent = time.perf_counter()
                if binary:
                    client.send_query(prepared[index])
                    reply = client.read_reply()
                else:
                    reply = client.query(prepared[index], request_id=count)
                done = time.perf_counter()
                ok = bool(reply.get("ok")) and checker.check(index, reply["nodes"])
                reads.append((done, done - sent, ok))
                if due and done >= result.started + due[0]:
                    due.pop(0)
                    batch = update_plan[len(updates) % len(update_plan)]
                    sent = time.perf_counter()
                    reply = client.update(batch)
                    done = time.perf_counter()
                    updates.append((done, done - sent, bool(reply.get("ok"))))
                    if reply.get("ok"):
                        acked.extend(batch)
        except (ClusterError, OSError, threading.BrokenBarrierError):
            # A dead connection fails the read it was waiting for.
            reads.append((time.perf_counter(), 0.0, False))
            barrier.abort()
        finally:
            if client is not None:
                client.close()
            with result.lock:
                result.reads.extend(reads)
                result.updates.extend(updates)
                result.acked_ops.extend(acked)

    threads = [
        threading.Thread(target=_drive, args=(c,), name=f"loadgen-{c}", daemon=True)
        for c in range(len(orders))
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=60.0)
    except threading.BrokenBarrierError:
        pass
    result.started = time.perf_counter()
    if seconds is not None:
        deadline[0] = result.started + seconds
        if on_tick is not None:
            for k in range(round(seconds / tick_seconds) + 1):
                delay = result.started + k * tick_seconds - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                on_tick(k)
    for thread in threads:
        thread.join(timeout=(seconds or 0.0) + 120.0)
    return result


@dataclass
class OpenLoopResult:
    """Latencies from the due time, generator lateness, and the raw phase."""

    latencies: list[float]
    late: list[float]
    phase: PhaseResult


def run_open_loop(host: str, port: int, pool: list[str], rate: float, seconds: float) -> OpenLoopResult:
    """One pipelined NDJSON connection sending on a fixed schedule.

    Latency is timed from each request's *due* time, so a stall charges
    every request queued behind it; ``late`` is how far behind its own
    schedule the generator ran.
    """
    total = max(1, int(rate * seconds))
    due = [0.0] * total
    late = [0.0] * total
    with ServeClient(host, port, timeout_seconds=60.0) as client:
        phase = PhaseResult(started=time.perf_counter() + 0.05)

        def _read() -> None:
            try:
                for _ in range(total):
                    reply = client.read_reply()
                    done = time.perf_counter()
                    phase.reads.append((done, done - due[reply["id"]], bool(reply.get("ok"))))
            except (ClusterError, OSError):
                # Every request still unanswered on a dead connection failed.
                phase.reads.extend((time.perf_counter(), 0.0, False) for _ in range(total - len(phase.reads)))

        reader = threading.Thread(target=_read, name="loadgen-open-reader", daemon=True)
        reader.start()
        for k in range(total):
            due[k] = phase.started + k / rate
            delay = due[k] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late[k] = max(0.0, time.perf_counter() - due[k])
            client.send({"id": k, "q": pool[k % len(pool)]})
        reader.join(timeout=120.0)
    return OpenLoopResult([lat for _done, lat, ok in phase.reads if ok], late, phase)
