"""Dependency-free distributed trace primitives (Dapper-style span model).

The paper's headline property — zero inter-machine communication at
query time — means a query's cost decomposes *exactly* into per-machine,
per-fragment local work plus the two unavoidable coordinator transfers.
This module makes that decomposition observable: every traced query
becomes one **trace** (a tree of **spans**), where each span is a named,
timed stage pinned to a machine and optionally a fragment:

    query                          (coordinator)
    ├── dispatch  m0               (coordinator, per machine)
    │   ├── queue-wait             (modelled/actual transfer + queueing)
    │   ├── task      f0           (worker, per hosted fragment)
    │   │   ├── eval   term 0      (kernel coverage eval, cache-annotated)
    │   │   ├── eval   term 1
    │   │   └── union              (D-expression evaluation)
    │   └── serialize              (binary result encoding)
    └── dispatch  m1 ...

Span timestamps are ``time.perf_counter()`` values — system-wide
monotonic on Linux, so they are directly comparable across the forked
worker processes of the process clusters
(:mod:`repro.dist.process_cluster`).  Workers do not build spans: they
pack their stage timings into the binary result frames they already
send (the stage block of :mod:`repro.serve.wire`), so tracing preserves
the zero-extra-round-trips property, and the coordinator builds the
tree from them only when a trace is read
(:class:`repro.dist.process_cluster.QueryTrace`).

This module deliberately imports nothing from the rest of the package:
``core``, ``dist``, ``serve`` and ``live`` may all depend on it.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Sequence

__all__ = [
    "COORDINATOR_MACHINE",
    "TraceContext",
    "Span",
    "SpanCollector",
    "Tracer",
    "new_trace_id",
    "new_span_id",
    "assemble_tree",
    "format_trace",
]

# Mirrors repro.dist.network.COORDINATOR_ID without importing it (this
# module stays dependency-free).
COORDINATOR_MACHINE = -1


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """What crosses a boundary: the trace id plus the parent span id.

    ``span_id`` is the span that children created under this context
    should name as their parent (``None`` at the very top).  The wire
    form (:meth:`to_wire` / :meth:`from_wire`) is a plain tuple so it
    pickles compactly inside existing cluster messages.
    """

    trace_id: str
    span_id: str | None = None

    def child(self, span_id: str) -> "TraceContext":
        """The context to hand to work parented under ``span_id``."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id)

    def to_wire(self) -> tuple[str, str | None]:
        """Compact picklable form for message piggybacking."""
        return (self.trace_id, self.span_id)

    @classmethod
    def from_wire(cls, wire: tuple[str, str | None]) -> "TraceContext":
        """Rebuild a context from :meth:`to_wire` output."""
        trace_id, span_id = wire
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """One timed stage of a traced query.

    ``start``/``end`` are ``perf_counter`` seconds (``end is None``
    while the span is open).  ``machine_id`` is the hosting machine
    (-1 = coordinator); the coordinator stamps it onto spans received
    from workers, so worker code never needs to know its own id.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    machine_id: int = COORDINATOR_MACHINE
    fragment_id: int | None = None
    tags: dict = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def finish(self, at: float | None = None) -> "Span":
        """Close the span (idempotent); returns ``self`` for chaining."""
        if self.end is None:
            self.end = perf_counter() if at is None else at
        return self

    def to_dict(self) -> dict:
        """JSON-able form (used by the serve layer's ``trace`` op)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "machine": self.machine_id,
            "fragment": self.fragment_id,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            name=record["name"],
            start=record["start"],
            end=record.get("end"),
            machine_id=record.get("machine", COORDINATOR_MACHINE),
            fragment_id=record.get("fragment"),
            tags=dict(record.get("tags", {})),
        )


class SpanCollector:
    """Accumulates the spans one participant records for one trace.

    Collectors are cheap, single-trace and *not* shared across threads
    by default — the pipelined coordinator mutates one under its own
    lock, workers each build their own and ship the result.
    """

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []

    def start(
        self,
        name: str,
        *,
        parent_id: str | None = None,
        machine_id: int = COORDINATOR_MACHINE,
        fragment_id: int | None = None,
        at: float | None = None,
        **tags,
    ) -> Span:
        """Open a span (appended immediately; call ``finish`` to close)."""
        span = Span(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            start=perf_counter() if at is None else at,
            machine_id=machine_id,
            fragment_id=fragment_id,
            tags=dict(tags),
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent_id: str | None = None,
        machine_id: int = COORDINATOR_MACHINE,
        fragment_id: int | None = None,
        **tags,
    ) -> Iterator[Span]:
        """Context manager: the span covers the ``with`` body."""
        opened = self.start(
            name,
            parent_id=parent_id,
            machine_id=machine_id,
            fragment_id=fragment_id,
            **tags,
        )
        try:
            yield opened
        finally:
            opened.finish()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent_id: str | None = None,
        machine_id: int = COORDINATOR_MACHINE,
        fragment_id: int | None = None,
        **tags,
    ) -> Span:
        """Append an already-measured (closed) span."""
        span = Span(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            machine_id=machine_id,
            fragment_id=fragment_id,
            tags=dict(tags),
        )
        self.spans.append(span)
        return span

    def extend(self, spans: Iterable[Span]) -> None:
        """Absorb spans recorded elsewhere (e.g. shipped by a worker)."""
        self.spans.extend(spans)


class Tracer:
    """Thread-safe sampling decisions plus bounded finished-trace storage.

    ``sample_rate`` is the probability a query is traced end-to-end
    (0.0 disables span collection entirely — the hot path then carries
    only a ``None`` placeholder).  Finished traces are kept in a
    bounded insertion-ordered map: once ``capacity`` traces are stored,
    the oldest is dropped.  ``max_spans_per_trace`` truncates
    pathological traces rather than growing without bound.
    """

    def __init__(
        self,
        *,
        sample_rate: float = 0.0,
        capacity: int = 256,
        max_spans_per_trace: int = 4096,
        seed: int | None = None,
    ) -> None:
        if not (0.0 <= sample_rate <= 1.0):
            raise ValueError("sample_rate must lie in [0, 1]")
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.sample_rate = sample_rate
        self._capacity = capacity
        self._max_spans = max_spans_per_trace
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # Insertion-ordered trace_id -> trace record dict.
        self._traces: dict[str, dict] = {}
        self._sampled = 0
        self._seen = 0

    # Sampling ----------------------------------------------------------
    def maybe_trace(self) -> TraceContext | None:
        """A fresh root context when this query is sampled, else ``None``."""
        with self._lock:
            self._seen += 1
            if self.sample_rate <= 0.0 or self._rng.random() >= self.sample_rate:
                return None
            self._sampled += 1
        return TraceContext(trace_id=new_trace_id())

    @property
    def counts(self) -> dict[str, int]:
        """``{"seen", "sampled", "stored"}`` bookkeeping counters."""
        with self._lock:
            return {
                "seen": self._seen,
                "sampled": self._sampled,
                "stored": len(self._traces),
            }

    # Storage -----------------------------------------------------------
    def record(self, trace_id: str, spans: Sequence[Span], **meta) -> dict:
        """Store one finished trace; returns its stored record."""
        spans = list(spans)[: self._max_spans]
        record = {
            "trace_id": trace_id,
            "spans": [span.to_dict() for span in spans],
            **meta,
        }
        with self._lock:
            self._traces.pop(trace_id, None)
            while len(self._traces) >= self._capacity:
                oldest = next(iter(self._traces))
                del self._traces[oldest]
            self._traces[trace_id] = record
        return record

    def get(self, trace_id: str) -> dict | None:
        """One stored trace record, or ``None``."""
        with self._lock:
            return self._traces.get(trace_id)

    def recent(self, n: int = 8) -> list[dict]:
        """The ``n`` most recently stored traces, newest last."""
        with self._lock:
            records = list(self._traces.values())
        return records[-max(0, n):]


# ----------------------------------------------------------------------
# Trace-tree assembly and rendering
# ----------------------------------------------------------------------
def assemble_tree(spans: Sequence[Span | dict]) -> list[dict]:
    """Nest flat spans into parent/child trees.

    Accepts :class:`Span` objects or their ``to_dict`` records and
    returns a list of root nodes, each ``{**span_dict, "children":
    [...]}``; children are sorted by start time.  Spans whose parent is
    absent (e.g. truncated traces) surface as roots rather than being
    dropped.
    """
    records = [span.to_dict() if isinstance(span, Span) else dict(span) for span in spans]
    by_id: dict[str, dict] = {}
    for record in records:
        record["children"] = []
        by_id[record["span_id"]] = record
    roots: list[dict] = []
    for record in records:
        parent = record.get("parent_id")
        if parent is not None and parent in by_id:
            by_id[parent]["children"].append(record)
        else:
            roots.append(record)
    for record in records:
        record["children"].sort(key=lambda child: child.get("start") or 0.0)
    roots.sort(key=lambda record: record.get("start") or 0.0)
    return roots


def _format_node(node: dict, indent: int, lines: list[str]) -> None:
    start, end = node.get("start"), node.get("end")
    duration_ms = (end - start) * 1000.0 if (start is not None and end is not None) else 0.0
    where = f"m{node.get('machine')}" if node.get("machine", -1) >= 0 else "coord"
    fragment = node.get("fragment")
    if fragment is not None:
        where += f"/f{fragment}"
    tags = node.get("tags") or {}
    tag_text = (
        " " + " ".join(f"{key}={value}" for key, value in sorted(tags.items()))
        if tags
        else ""
    )
    lines.append(
        f"{'  ' * indent}{node['name']:<12} {duration_ms:9.3f} ms  [{where}]{tag_text}"
    )
    for child in node.get("children", []):
        _format_node(child, indent + 1, lines)


def format_trace(spans: Sequence[Span | dict]) -> str:
    """Human-readable indented rendering of one trace."""
    lines: list[str] = []
    for root in assemble_tree(spans):
        _format_node(root, 0, lines)
    return "\n".join(lines)
