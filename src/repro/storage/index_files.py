"""The on-disk ``IND(P)`` and fragment file formats.

A worker machine's durable state is two files:

* the **index file** — header record, one record for ``SC(P)``, one
  record per DL keyword entry, one record per DL node entry;
* the **fragment file** — header, members, local adjacency, portal set
  and keyword postings.

Both use the checksummed record framing of :mod:`repro.storage.codec`.
``read_index_file`` / ``read_fragment_file`` reconstruct objects that
compare equal (field-wise) to the originals; EXP 1's storage-cost
numbers are the byte sizes of these files.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

from repro.core.fragment import Fragment
from repro.core.npd import DLNodePolicy, NPDIndex, ValueList
from repro.exceptions import StorageError
from repro.storage.codec import RecordReader, RecordWriter, pack_string, unpack_string
from repro.text.inverted import FragmentKeywordIndex

__all__ = [
    "write_index_file",
    "read_index_file",
    "write_fragment_file",
    "read_fragment_file",
    "index_file_size",
]

_INDEX_MAGIC = b"NPDIDX01"
_INDEX_MAGIC_COMPRESSED = b"NPDIDXZ1"
_FRAGMENT_MAGIC = b"NPDFRG01"
_PAIR = struct.Struct("<qd")
_SHORTCUT = struct.Struct("<qqd")

_POLICY_CODES = {
    DLNodePolicy.NONE: 0,
    DLNodePolicy.OBJECTS: 1,
    DLNodePolicy.ALL: 2,
}
_POLICY_FROM_CODE = {code: policy for policy, code in _POLICY_CODES.items()}


class _CompressingWriter(RecordWriter):
    """Record writer that deflates every payload after the header record.

    The header stays raw so readers can detect the variant from the
    first record's magic before touching zlib.
    """

    def write(self, payload: bytes) -> None:
        if self.records_written == 0:
            super().write(payload)
        else:
            super().write(zlib.compress(payload, level=6))


def _pack_pairs(entry: ValueList) -> bytes:
    portals, distances = entry
    chunks = [struct.pack("<I", len(portals))]
    chunks.extend(map(_PAIR.pack, portals, distances))
    return b"".join(chunks)


def _unpack_pairs(buffer: bytes, offset: int) -> list[tuple[int, float]]:
    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    pairs = list(_PAIR.iter_unpack(buffer[offset : offset + count * _PAIR.size]))
    if len(pairs) != count:
        raise struct.error(f"DL record holds {len(pairs)} of its {count} pairs")
    return pairs


def write_index_file(index: NPDIndex, path: str | Path, *, compress: bool = False) -> int:
    """Write ``IND(P)`` to ``path``; returns the file size in bytes.

    With ``compress`` the DL/SC records are zlib-deflated (the sorted
    integer-heavy payloads compress well — see the storage tests for the
    measured ratio); :func:`read_index_file` detects the variant from
    the magic.
    """
    path = Path(path)
    with path.open("wb") as stream:
        writer = _CompressingWriter(stream) if compress else RecordWriter(stream)
        magic = _INDEX_MAGIC_COMPRESSED if compress else _INDEX_MAGIC
        header = magic + struct.pack(
            "<qdBBII",
            index.fragment_id,
            index.max_radius,
            _POLICY_CODES[index.node_policy],
            1 if index.directed else 0,
            len(index.keyword_entries),
            len(index.node_entries),
        )
        writer.write(header)

        sc_payload = [struct.pack("<I", len(index.shortcuts))]
        for (u, v), w in sorted(index.shortcuts.items()):
            sc_payload.append(_SHORTCUT.pack(u, v, w))
        writer.write(b"".join(sc_payload))

        for keyword in sorted(index.keyword_entries):
            writer.write(
                b"K" + pack_string(keyword) + _pack_pairs(index.keyword_entries[keyword])
            )
        for node in sorted(index.node_entries):
            writer.write(
                b"N" + struct.pack("<q", node) + _pack_pairs(index.node_entries[node])
            )
    return path.stat().st_size


def read_index_file(path: str | Path) -> NPDIndex:
    """Load an index file written by :func:`write_index_file`."""
    path = Path(path)
    with path.open("rb") as stream:
        reader = RecordReader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError(f"{path} is empty") from None
        if header.startswith(_INDEX_MAGIC_COMPRESSED):
            compressed = True
        elif header.startswith(_INDEX_MAGIC):
            compressed = False
        else:
            raise StorageError(f"{path} is not an NPD index file")
        fragment_id, max_radius, policy_code, directed, kw_count, node_count = (
            struct.unpack_from("<qdBBII", header, len(_INDEX_MAGIC))
        )
        index = NPDIndex(
            fragment_id=fragment_id,
            max_radius=max_radius,
            node_policy=_POLICY_FROM_CODE[policy_code],
            directed=bool(directed),
        )

        def inflate(payload: bytes) -> bytes:
            if not compressed:
                return payload
            try:
                return zlib.decompress(payload)
            except zlib.error as exc:
                raise StorageError(f"{path}: corrupt compressed record") from exc

        try:
            sc_payload = inflate(next(reader))
        except StopIteration:
            raise StorageError(f"{path} is missing its SC record") from None
        (sc_count,) = struct.unpack_from("<I", sc_payload, 0)
        offset = 4
        for _ in range(sc_count):
            u, v, w = _SHORTCUT.unpack_from(sc_payload, offset)
            offset += _SHORTCUT.size
            index.shortcuts[(u, v)] = w

        keyword_lists: dict[str, list[tuple[int, float]]] = {}
        node_lists: dict[int, list[tuple[int, float]]] = {}
        for raw in reader:
            payload = inflate(raw)
            tag = payload[:1]
            if tag == b"K":
                keyword, offset = unpack_string(payload, 1)
                keyword_lists[keyword] = _unpack_pairs(payload, offset)
            elif tag == b"N":
                (node,) = struct.unpack_from("<q", payload, 1)
                node_lists[node] = _unpack_pairs(payload, 1 + 8)
            else:
                raise StorageError(f"unknown DL record tag {tag!r} in {path}")
        if len(keyword_lists) != kw_count or len(node_lists) != node_count:
            raise StorageError(
                f"{path} header declares {kw_count}/{node_count} DL entries but "
                f"{len(keyword_lists)}/{len(node_lists)} were found"
            )
        index.seal(keyword_lists, node_lists)
    return index


def index_file_size(index: NPDIndex) -> int:
    """Exact byte size :func:`write_index_file` would produce, without I/O.

    Used by the EXP-1 storage-cost benchmark to report per-machine index
    sizes cheaply.
    """
    record_overhead = 8  # length + crc framing per record
    size = record_overhead + len(_INDEX_MAGIC) + struct.calcsize("<qdBBII")
    size += record_overhead + 4 + _SHORTCUT.size * len(index.shortcuts)
    for keyword, (portals, _distances) in index.keyword_entries.items():
        size += record_overhead + 1 + 2 + len(keyword.encode("utf-8"))
        size += 4 + _PAIR.size * len(portals)
    for portals, _distances in index.node_entries.values():
        size += record_overhead + 1 + 8 + 4 + _PAIR.size * len(portals)
    return size


def write_fragment_file(fragment: Fragment, path: str | Path) -> int:
    """Write a fragment's worker-local state; returns the file size."""
    path = Path(path)
    with path.open("wb") as stream:
        writer = RecordWriter(stream)
        writer.write(
            _FRAGMENT_MAGIC
            + struct.pack(
                "<qBII",
                fragment.fragment_id,
                1 if fragment.directed else 0,
                fragment.num_members,
                fragment.num_portals,
            )
        )
        members = sorted(fragment.members)
        writer.write(b"".join(struct.pack("<q", m) for m in members))
        writer.write(b"".join(struct.pack("<q", p) for p in sorted(fragment.portals)))
        for node in members:
            edges = fragment.adjacency.get(node, ())
            payload = [struct.pack("<qI", node, len(edges))]
            payload.extend(_PAIR.pack(v, w) for v, w in edges)
            writer.write(b"".join(payload))
        postings = fragment.keyword_index.to_postings()
        for keyword in sorted(postings):
            nodes = postings[keyword]
            payload = [pack_string(keyword), struct.pack("<I", len(nodes))]
            payload.extend(struct.pack("<q", n) for n in nodes)
            writer.write(b"".join(payload))
    return path.stat().st_size


def read_fragment_file(path: str | Path) -> Fragment:
    """Load a fragment file written by :func:`write_fragment_file`."""
    path = Path(path)
    with path.open("rb") as stream:
        reader = RecordReader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError(f"{path} is empty") from None
        if not header.startswith(_FRAGMENT_MAGIC):
            raise StorageError(f"{path} is not a fragment file")
        fragment_id, directed, member_count, portal_count = struct.unpack_from(
            "<qBII", header, len(_FRAGMENT_MAGIC)
        )

        member_payload = next(reader)
        members = frozenset(
            struct.unpack_from("<q", member_payload, 8 * i)[0] for i in range(member_count)
        )
        portal_payload = next(reader)
        portals = frozenset(
            struct.unpack_from("<q", portal_payload, 8 * i)[0] for i in range(portal_count)
        )

        adjacency: dict[int, tuple[tuple[int, float], ...]] = {}
        for _ in range(member_count):
            payload = next(reader)
            node, edge_count = struct.unpack_from("<qI", payload, 0)
            offset = 12
            edges = []
            for _ in range(edge_count):
                v, w = _PAIR.unpack_from(payload, offset)
                offset += _PAIR.size
                edges.append((v, w))
            adjacency[node] = tuple(edges)

        postings: dict[str, tuple[int, ...]] = {}
        for payload in reader:
            keyword, offset = unpack_string(payload, 0)
            (count,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            nodes = tuple(
                struct.unpack_from("<q", payload, offset + 8 * i)[0] for i in range(count)
            )
            postings[keyword] = nodes

        return Fragment(
            fragment_id=fragment_id,
            members=members,
            portals=portals,
            adjacency=adjacency,
            keyword_index=FragmentKeywordIndex.from_postings(postings),
            directed=bool(directed),
        )
