"""Shared-memory fragment segments: the zero-copy side of the data plane.

Workers used to receive their fragments as pickled ``(Fragment,
NPDIndex)`` pairs — megabytes per fork, re-sent on every epoch swap.
This module packs the *compiled* query-time state
(:class:`repro.core.kernel.FragmentKernel`'s flat CSR arrays, seed
tables and scalars) into one ``multiprocessing.shared_memory`` segment
per fragment.  The coordinator owns the segments; workers receive only
a tiny :class:`SegmentManifest` (segment name, dtypes, offsets, epoch
stamp) and attach read-only, ``cast``-ing memoryviews straight over the
mapped pages — the CSR never crosses a pipe and is shared, not copied,
across every worker on the host.

Segment layout (all little-endian, offsets 8-byte aligned)::

    [indptr  int64 × (n+1)]
    [indices int64 × nnz  ]
    [weights f64   × nnz  ]
    [globals int64 × n    ]   sorted global node ids (dense id -> global)
    [tables  utf-8 JSON   ]   keyword seed lists + DL portal arrays

The variable-size keyword/portal tables ride *inside* the segment as a
JSON blob (Python ``json`` round-trips floats exactly), so the manifest
stays O(1) bytes regardless of fragment size — that is what makes the
per-worker startup payload shrink by orders of magnitude.

Epoch lifecycle (:class:`SharedSegmentStore`): a segment is the
fragment's *topology plus the seed tables as of its publish epoch*.  A
keyword-only epoch touches no segment: workers are sent the recompiled
seed lists of the changed keys (``FragmentKernel.seed_patch``) and
overwrite their private copies of the tables, so a worker at a later
epoch holds *segment + patches* and the store's leases do not move.
Only a swap that changes topology (or a caller that passes no seed
scope) *publishes* fresh segments — compiled from the current index, so
they include every earlier patch — after which the old ``(fragment,
epoch)`` segments are retired refcount-style: a segment is unlinked
only once every worker leasing that fragment has acknowledged a newer
one.  It follows that anything attaching later than startup must be
handed a freshly published segment, never an old manifest.  Workers are
serial FIFO loops, so an apply-ack proves the worker holds no in-flight
query on the old epoch; in-flight queries therefore always finish on
the epoch they started (the all-old-or-all-new guarantee is preserved
end to end).  Worker death releases its leases; shutdown unlinks
everything.
"""

from __future__ import annotations

import json
import threading
from array import array
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

from repro.core.coverage import CoverageCache
from repro.core.fragment import Fragment
from repro.core.kernel import FragmentKernel
from repro.core.npd import NPDIndex

__all__ = [
    "SegmentManifest",
    "pack_fragment",
    "attach_segment",
    "SharedKernelRuntime",
    "ShmWorkerRuntimes",
    "SharedSegmentStore",
]

_ALIGN = 8
_ITEMSIZE = 8  # both 'q' and 'd' are 8 bytes


@dataclass(frozen=True)
class SegmentManifest:
    """Everything a worker needs to attach one fragment segment.

    ``arrays`` maps each fixed-layout array to ``(field, typecode,
    byte offset, element count)``; the JSON tables region follows at
    ``tables_offset``.  The manifest is a few hundred bytes however
    large the fragment is.
    """

    name: str
    fragment_id: int
    epoch: int
    num_nodes: int
    nbytes: int
    max_radius: float
    inv_delta: float
    bucket_limit: int
    arrays: tuple[tuple[str, str, int, int], ...]
    tables_offset: int
    tables_nbytes: int


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_fragment(
    fragment: Fragment, index: NPDIndex, *, epoch: int = 0
) -> tuple[SegmentManifest, shared_memory.SharedMemory]:
    """Compile ``(fragment, index)`` and pack the kernel into a segment.

    Returns the manifest plus the owning :class:`SharedMemory` handle —
    the caller (normally :class:`SharedSegmentStore`) keeps the handle
    and is responsible for ``unlink``.  The kernel is compiled here, on
    the coordinator, exactly once per epoch; attaching workers skip
    compilation entirely.
    """
    kernel = FragmentKernel(fragment, index)
    fixed: list[tuple[str, array]] = [
        ("indptr", kernel.indptr),
        ("indices", kernel.indices),
        ("weights", kernel.weights),
        ("globals", array("q", kernel._globals)),
    ]
    tables = {
        "kw_local": {kw: list(ids) for kw, ids in kernel._kw_local.items()},
        "kw_portals": {
            kw: [list(ids), list(dists)] for kw, (ids, dists) in kernel._kw_portals.items()
        },
        "node_portals": {
            str(node): [list(ids), list(dists)]
            for node, (ids, dists) in kernel._node_portals.items()
        },
    }
    tables_blob = json.dumps(tables, separators=(",", ":")).encode("utf-8")

    layout: list[tuple[str, str, int, int]] = []
    cursor = 0
    for field, arr in fixed:
        cursor = _align(cursor)
        layout.append((field, arr.typecode, cursor, len(arr)))
        cursor += len(arr) * _ITEMSIZE
    tables_offset = _align(cursor)
    total = max(1, tables_offset + len(tables_blob))

    shm = shared_memory.SharedMemory(create=True, size=total)
    buf = shm.buf
    for (_field, typecode, offset, count), (_name, arr) in zip(layout, fixed):
        if count:
            buf[offset : offset + count * _ITEMSIZE].cast(typecode)[:] = arr
    buf[tables_offset : tables_offset + len(tables_blob)] = tables_blob

    manifest = SegmentManifest(
        name=shm.name,
        fragment_id=kernel.fragment_id,
        epoch=epoch,
        num_nodes=kernel.num_nodes,
        nbytes=total,
        max_radius=index.max_radius,
        inv_delta=kernel._inv_delta,
        bucket_limit=kernel.bucket_limit,
        arrays=tuple(layout),
        tables_offset=tables_offset,
        tables_nbytes=len(tables_blob),
    )
    return manifest, shm


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility.

    Python < 3.13 registers *every* ``SharedMemory`` — even pure
    attaches — with the resource tracker, which would unlink the
    coordinator-owned segment when an attaching worker exits.  3.13+
    has ``track=False`` for exactly this; on older versions the
    registration is suppressed for the duration of the attach.
    (``unregister`` would be wrong: forked workers share the
    coordinator's tracker process, so unregistering after the duplicate
    attach-registration would cancel the coordinator's own entry and
    lose the crash-cleanup safety net.)
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13
        original = resource_tracker.register
        resource_tracker.register = lambda *_a, **_k: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


class _FragmentHandle:
    """The one attribute of ``Fragment`` the executors actually read."""

    __slots__ = ("fragment_id",)

    def __init__(self, fragment_id: int) -> None:
        self.fragment_id = fragment_id


class SharedKernelRuntime:
    """Duck-typed :class:`~repro.core.coverage.FragmentRuntime` over a segment.

    Implements exactly the surface
    :func:`repro.core.executor.execute_fragment_task` and
    :func:`repro.core.coverage.term_members` touch: ``fragment`` (id
    only), ``kernel``, ``max_radius`` and its own
    ``coverage_cache`` of ``cache_capacity`` term masks.  The cache is
    local to this runtime: a seed-list patch drops the entries of the
    sources it names (``apply_seeds``), and a fresh segment attaches as a
    new runtime, so it starts empty.  No ``Fragment`` or ``NPDIndex``
    objects exist in the worker at all.
    """

    def __init__(
        self,
        manifest: SegmentManifest,
        shm: shared_memory.SharedMemory,
        cache_capacity: int = 0,
    ) -> None:
        self.manifest = manifest
        self._shm = shm
        self.fragment = _FragmentHandle(manifest.fragment_id)
        self.max_radius = manifest.max_radius
        self.coverage_cache = CoverageCache(cache_capacity)
        buf = shm.buf
        views = {
            field: buf[offset : offset + count * _ITEMSIZE].cast(typecode)
            for field, typecode, offset, count in manifest.arrays
        }
        raw = bytes(
            buf[manifest.tables_offset : manifest.tables_offset + manifest.tables_nbytes]
        )
        tables = json.loads(raw.decode("utf-8"))
        kw_local = {kw: tuple(ids) for kw, ids in tables["kw_local"].items()}
        kw_portals = {
            kw: (array("q", ids), array("d", dists))
            for kw, (ids, dists) in tables["kw_portals"].items()
        }
        node_portals = {
            int(node): (array("q", ids), array("d", dists))
            for node, (ids, dists) in tables["node_portals"].items()
        }
        self.kernel = FragmentKernel.from_packed(
            fragment_id=manifest.fragment_id,
            num_nodes=manifest.num_nodes,
            indptr=views["indptr"],
            indices=views["indices"],
            weights=views["weights"],
            node_globals=views["globals"],
            kw_local=kw_local,
            kw_portals=kw_portals,
            node_portals=node_portals,
            inv_delta=manifest.inv_delta,
            bucket_limit=manifest.bucket_limit,
        )

    def release(self) -> None:
        """Drop the kernel's memoryviews and unmap the segment.

        The segment itself stays alive until the *coordinator* unlinks
        it; releasing twice is a no-op.  A ``BufferError`` (an exported
        view still referenced elsewhere) is suppressed — the mapping
        then dies with the process, which is equivalent for a worker.
        """
        self.kernel = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views remain
            pass


class ShmWorkerRuntimes:
    """Worker-side registry of attached fragment segments.

    ``attach`` is idempotent by segment name (double-attach keeps the
    existing mapping), and an epoch swap replaces the runtime for a
    fragment in place — dict key overwrite preserves fragment order, so
    ``runtimes()`` is stable across epochs.  Every runtime gets a
    coverage cache of ``cache_capacity`` entries.
    """

    def __init__(self, cache_capacity: int = 0) -> None:
        self._cache_capacity = cache_capacity
        self._by_fragment: dict[int, SharedKernelRuntime] = {}

    def attach(self, manifests: list[SegmentManifest]) -> list[int]:
        """Attach/replace segments; returns the fragment ids swapped."""
        swapped: list[int] = []
        for manifest in manifests:
            current = self._by_fragment.get(manifest.fragment_id)
            if current is not None and current.manifest.name == manifest.name:
                continue
            shm = attach_segment(manifest.name)
            self._by_fragment[manifest.fragment_id] = SharedKernelRuntime(
                manifest, shm, self._cache_capacity
            )
            if current is not None:
                current.release()
            swapped.append(manifest.fragment_id)
        return swapped

    def runtimes(self) -> list[SharedKernelRuntime]:
        """Every currently attached runtime, in attachment order."""
        return list(self._by_fragment.values())

    def release_all(self) -> None:
        """Close every attachment (without unlinking the segments)."""
        for runtime in self._by_fragment.values():
            runtime.release()
        self._by_fragment.clear()


class SharedSegmentStore:
    """Coordinator-side segment registry with refcounted epoch retirement.

    ``publish`` packs a new segment for ``(fragment, epoch)``;
    ``lease`` records which epoch each machine currently serves for
    each of its fragments (called on startup hand-off and on every
    apply-ack).  A superseded segment is unlinked once every machine
    leasing its fragment has moved past its epoch — workers are serial,
    so their ack proves no in-flight query still reads the old pages.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[tuple[int, int], tuple[SegmentManifest, object]] = {}
        self._leases: dict[int, dict[int, int]] = {}

    def publish(self, fragment: Fragment, index: NPDIndex, *, epoch: int) -> SegmentManifest:
        """Pack a fragment into a new segment and start tracking it.

        Idempotent per ``(fragment, epoch)``: with replica groups the
        same fragment is published once per hosting machine, and packing
        a second segment would orphan the first (the dict overwrite
        drops its only handle).  The existing manifest is returned
        instead — replicas attach the same read-only pages.
        """
        with self._lock:
            tracked = self._segments.get((fragment.fragment_id, epoch))
            if tracked is not None:
                return tracked[0]
        manifest, shm = pack_fragment(fragment, index, epoch=epoch)
        with self._lock:
            raced = self._segments.get((manifest.fragment_id, epoch))
            if raced is not None:
                _destroy(shm)
                return raced[0]
            self._segments[(manifest.fragment_id, epoch)] = (manifest, shm)
        return manifest

    def lease(self, machine_id: int, manifests: list[SegmentManifest]) -> None:
        """Record that a machine now reads these segments; retire superseded ones."""
        with self._lock:
            held = self._leases.setdefault(machine_id, {})
            for manifest in manifests:
                held[manifest.fragment_id] = max(
                    manifest.epoch, held.get(manifest.fragment_id, manifest.epoch)
                )
            self._retire_superseded_locked()

    def release_machine(self, machine_id: int) -> None:
        """Forget a dead machine's leases (its mapping died with it)."""
        with self._lock:
            self._leases.pop(machine_id, None)
            self._retire_superseded_locked()

    def _retire_superseded_locked(self) -> None:
        for key in list(self._segments):
            fragment_id, epoch = key
            held = [
                leases[fragment_id]
                for leases in self._leases.values()
                if fragment_id in leases
            ]
            if held and all(e > epoch for e in held):
                _manifest, shm = self._segments.pop(key)
                _destroy(shm)

    def leases_snapshot(self) -> dict[int, dict[int, int]]:
        """machine id → {fragment id → leased epoch} (introspection)."""
        with self._lock:
            return {m: dict(held) for m, held in self._leases.items()}

    def segment_names(self) -> list[str]:
        """Names of every live segment (test/debug introspection)."""
        with self._lock:
            return [manifest.name for manifest, _shm in self._segments.values()]

    def unlink_all(self) -> None:
        """Unlink every tracked segment — the cluster-shutdown sweep."""
        with self._lock:
            for _manifest, shm in self._segments.values():
                _destroy(shm)
            self._segments.clear()
            self._leases.clear()


def _destroy(shm) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views remain
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
