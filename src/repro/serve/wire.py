"""Binary wire format: the fast half of the serving data plane.

The NDJSON protocol (:mod:`repro.serve.protocol`) stays — it is the
admin/debug surface and the compatibility path for old clients — but a
query crossing it costs a regex parse, two JSON codec passes and a
text-framed socket write.  This module defines the compact
length-prefixed struct-packed frames that carry query/answer/update
payloads on both the TCP frontend and the coordinator↔worker pipes.

TCP negotiation (first bytes on a fresh connection)::

    client -> b"DSKW" + u8 version + u8 feature bits     (6 bytes)
    server -> HELLO frame (u8 version + u8 feature bits)

NDJSON requests begin with ``{`` (0x7B) — never ``D`` — so the server
sniffs one byte and routes each connection to the right handler; no
flag, no separate port.

Frame grammar (all integers little-endian)::

    frame   := u32 length | u8 type | payload        length = 1 + len(payload)
    HELLO   (1)  u8 version | u8 features
    QUERY   (2)  u64 id | query
    ANSWER  (3)  u64 id | u8 flags(bit0 degraded) | u32 n | n×u64 nodes
                 | f64 latency_ms | f64 wall_ms | f64 makespan_ms
                 | u64 message_bytes
    ERROR   (4)  u8 has_id | u64 id | str error | str detail
    JSON    (5)  utf-8 JSON object (admin ops, pushes, anything NDJSON says)
    BATCH   (6)  u32 count | count × (u32 len | QUERY-payload)
    UPDATE  (7)  u64 id | u32 count | count × op
    UPDATE_ACK (8) u64 id | u64 epoch | u32 applied | f64 staleness_ms

    query   := u16 nterms | nterms × term | expr | str label
    term    := u8 kind(0 kw, 1 node) | (str keyword | u64 node) | f64 radius
    expr    := u16 nops | nops × (u8 0 leaf + u16 index | u8 1 ∪ | 2 ∩ | 3 −)
               — postfix; decoded with an explicit stack
    op      := u8 1 add_keyword    | u64 node | str keyword
             | u8 2 remove_keyword | u64 node | str keyword
             | u8 3 set_edge_weight| u64 u | u64 v | f64 weight
    str     := u16 len | utf-8 bytes

``f64`` is IEEE-754 binary64: radii, distances and timings round-trip
bit-exactly (including infinities), which is what lets the differential
suite demand bit-identical answers from both protocol paths.

Every decode error — truncated payload, trailing garbage, bad opcode,
undecodable UTF-8, a declared length beyond :data:`MAX_FRAME_BYTES` —
raises :class:`WireProtocolError`.  Transports treat that as a protocol
error: reply with an ERROR frame and close.  :class:`FrameDecoder` is
the sans-IO incremental parser (feed bytes, pop frames) used by the
client and the fuzz tests.

The same payload codecs run on the worker pipes: pickle frames start
with 0x80 (protocol ≥ 2 opcode) and binary pipe frames with the tags
``Q``/``R``, so :func:`loads_pipe` sniffs one byte and returns the
``(kind, body, sent_at)`` tuples of the pickled protocol.  Queries and
their results travel binary, traced ones too: a traced query differs
from an untraced one only in a tag bit, and its reply carries the
worker's stage timings as one packed trailing block (the *stage
block*, :func:`decode_stage_block`).  Explain, apply and control
traffic stays pickled on the same pipe.
"""

from __future__ import annotations

import json
import pickle
import struct
import sys
from array import array
from time import perf_counter

from repro.core.dfunction import DExpression, SetOp
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource, QClassQuery
from repro.core.runs import as_run
from repro.exceptions import QueryError

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "LENGTH_PREFIX",
    "FRAME_HELLO",
    "FRAME_QUERY",
    "FRAME_ANSWER",
    "FRAME_ERROR",
    "FRAME_JSON",
    "FRAME_BATCH",
    "FRAME_UPDATE",
    "FRAME_UPDATE_ACK",
    "WireProtocolError",
    "FrameDecoder",
    "encode_frame",
    "encode_preamble",
    "decode_preamble",
    "encode_hello",
    "decode_hello",
    "encode_query_payload",
    "decode_query_payload",
    "encode_query_body",
    "encode_answer",
    "decode_answer",
    "encode_error",
    "decode_error",
    "encode_json_frame",
    "decode_json_payload",
    "encode_batch",
    "decode_batch",
    "encode_update",
    "decode_update",
    "encode_update_ack",
    "decode_update_ack",
    "dumps_pipe_query",
    "dumps_pipe_results",
    "loads_pipe",
    "decode_stage_block",
    "stage_block_evals",
    "CACHE_OUTCOMES",
]

MAGIC = b"DSKW"
WIRE_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024

FRAME_HELLO = 1
FRAME_QUERY = 2
FRAME_ANSWER = 3
FRAME_ERROR = 4
FRAME_JSON = 5
FRAME_BATCH = 6
FRAME_UPDATE = 7
FRAME_UPDATE_ACK = 8

_FRAME_TYPES = frozenset(
    (
        FRAME_HELLO,
        FRAME_QUERY,
        FRAME_ANSWER,
        FRAME_ERROR,
        FRAME_JSON,
        FRAME_BATCH,
        FRAME_UPDATE,
        FRAME_UPDATE_ACK,
    )
)

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
# The u32 frame-length prefix, exported for callers that build raw or
# torn frames by hand (the adversarial tests).
LENGTH_PREFIX = _U32
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_NODE_TERM = struct.Struct("<Qd")  # a node term's u64 node + f64 radius
_OPCODE_INDEX = struct.Struct("<BH")  # a leaf opcode + its u16 term index
_HEADER = struct.Struct("<IB")

_BIG_ENDIAN = sys.byteorder == "big"  # array('Q') is native; the wire is little-endian

_PIPE_QUERY_TAG = 0x51  # 'Q'
_PIPE_RESULTS_TAG = 0x52  # 'R'
_PIPE_TARGETED = 0x20  # 'q' / 'r': the frame carries attempt (+ fragment ids)
_PIPE_TRACED = 0x08  # 'Y'/'y' queries and 'Z'/'z' results: record / carry stage timings
_PICKLE_OPCODE = 0x80  # every pickle protocol ≥ 2 stream starts with this

_OPCODE_LEAF = 0
_OPCODES = {1: SetOp.UNION, 2: SetOp.INTERSECT, 3: SetOp.SUBTRACT}
_OPCODE_OF = {op: code for code, op in _OPCODES.items()}


class WireProtocolError(ValueError):
    """A frame or payload violates the binary wire grammar."""


# ----------------------------------------------------------------------
# Primitive readers/writers
# ----------------------------------------------------------------------
def _truncated(pos: int) -> WireProtocolError:
    return WireProtocolError(f"payload truncated at offset {pos}")


class _Reader:
    """Bounds-checked cursor over one payload; truncation is an error."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | memoryview) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise WireProtocolError(
                f"payload truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = bytes(self.data[self.pos : end])
        self.pos = end
        return chunk

    def _unpack(self, fmt: struct.Struct):
        """One fixed-width field, read in place (no bytes copy)."""
        pos = self.pos
        if pos + fmt.size > len(self.data):
            raise _truncated(pos)
        self.pos = pos + fmt.size
        return fmt.unpack_from(self.data, pos)[0]

    def u8(self) -> int:
        return self._unpack(_U8)

    def u16(self) -> int:
        return self._unpack(_U16)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def f64(self) -> float:
        return self._unpack(_F64)

    def run(self, count: int) -> array:
        """``count`` u64 node ids as a run (the bytes are taken as they are)."""
        nodes = array("Q")
        nodes.frombytes(self.take(count * 8))
        if _BIG_ENDIAN:
            nodes.byteswap()
        return nodes

    def string(self) -> str:
        return _utf8(self.take(self.u16()))

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise WireProtocolError(
                f"{len(self.data) - self.pos} trailing garbage bytes after payload"
            )


def _put_run(out: bytearray, nodes) -> None:
    """``u32 n | n×u64``: a run as it is, any other node collection sorted."""
    run = as_run(nodes)
    if _BIG_ENDIAN:
        run = array("Q", run)
        run.byteswap()
    out += _U32.pack(len(run))
    out += run.tobytes()


def _put_string(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireProtocolError(f"string too long for the wire ({len(raw)} bytes)")
    out += _U16.pack(len(raw))
    out += raw


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One complete frame: u32 length, u8 type, payload."""
    length = 1 + len(payload)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(length, frame_type) + payload


class FrameDecoder:
    """Incremental frame parser: feed arbitrary chunks, pop whole frames.

    Sans-IO so the same logic serves the blocking client, the tests and
    the fuzzer.  A declared length of zero (no type byte) or beyond
    ``max_frame_bytes`` raises immediately — a reader must never
    allocate or wait on an adversarial length prefix.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> None:
        """Append freshly received bytes to the reassembly buffer."""
        self._buffer += data

    def next_frame(self) -> tuple[int, bytes] | None:
        """``(frame_type, payload)`` if a whole frame is buffered, else None."""
        if len(self._buffer) < 4:
            return None
        (length,) = _U32.unpack(self._buffer[:4])
        if length < 1:
            raise WireProtocolError("frame length must cover the type byte")
        if length > self._max:
            raise WireProtocolError(f"declared frame length {length} exceeds {self._max}")
        if len(self._buffer) < 4 + length:
            return None
        frame_type = self._buffer[4]
        payload = bytes(self._buffer[5 : 4 + length])
        del self._buffer[: 4 + length]
        if frame_type not in _FRAME_TYPES:
            raise WireProtocolError(f"unknown frame type {frame_type}")
        return frame_type, payload

    @property
    def buffered(self) -> int:
        return len(self._buffer)


def encode_preamble(features: int = 0) -> bytes:
    """The 6 bytes a binary client sends first."""
    return MAGIC + bytes((WIRE_VERSION, features & 0xFF))


def decode_preamble(raw: bytes) -> int:
    """Validate a client preamble; returns the feature bits."""
    if len(raw) != 6 or raw[:4] != MAGIC:
        raise WireProtocolError("bad magic: not a DSKW binary connection")
    if raw[4] != WIRE_VERSION:
        raise WireProtocolError(f"unsupported wire version {raw[4]}")
    return raw[5]


def encode_hello(features: int = 0) -> bytes:
    """The server's HELLO frame acknowledging a binary connection."""
    return encode_frame(FRAME_HELLO, bytes((WIRE_VERSION, features & 0xFF)))


def decode_hello(payload: bytes) -> tuple[int, int]:
    """``(version, features)`` from a HELLO payload; checks the version."""
    reader = _Reader(payload)
    version = reader.u8()
    features = reader.u8()
    reader.finish()
    if version != WIRE_VERSION:
        raise WireProtocolError(f"server speaks wire version {version}, not {WIRE_VERSION}")
    return version, features


# ----------------------------------------------------------------------
# Query payloads
# ----------------------------------------------------------------------
def encode_query_body(query: QClassQuery) -> bytes:
    """The id-less query encoding — prepend a u64 id at send time.

    Split out so clients can *prepare* a query once and reuse the body
    across sends; the hot loop then does one 8-byte pack per request.
    """
    out = bytearray()
    terms = query.terms
    if len(terms) > 0xFFFF:
        raise WireProtocolError(f"too many terms for the wire ({len(terms)})")
    out += _U16.pack(len(terms))
    for term in terms:
        source = term.source
        if isinstance(source, KeywordSource):
            out.append(0)
            _put_string(out, source.keyword)
        else:
            assert isinstance(source, NodeSource)
            out.append(1)
            out += _U64.pack(source.node)
        out += _F64.pack(term.radius)
    opcodes = bytearray()
    count = _postfix(query.expression, opcodes)
    out += _U16.pack(count)
    out += opcodes
    _put_string(out, query.label)
    return bytes(out)


def _postfix(expr: DExpression, out: bytearray) -> int:
    if expr.op is None:
        out.append(_OPCODE_LEAF)
        out += _U16.pack(expr.index)
        return 1
    count = _postfix(expr.left, out)
    count += _postfix(expr.right, out)
    out.append(_OPCODE_OF[expr.op])
    return count + 1


def encode_query_payload(request_id: int, query: QClassQuery) -> bytes:
    """A full QUERY payload: u64 request id + the query body."""
    return _U64.pack(request_id) + encode_query_body(query)


def decode_query_payload(payload: bytes | memoryview) -> tuple[int, QClassQuery]:
    """``(request_id, query)`` from a QUERY payload."""
    if len(payload) < 8:
        raise _truncated(0)
    (request_id,) = _U64.unpack_from(payload, 0)
    query, end = _query_at(payload, 8)
    if end != len(payload):
        raise WireProtocolError(f"{len(payload) - end} trailing garbage bytes after payload")
    return request_id, query


def _query_at(data: bytes | memoryview, pos: int) -> tuple[QClassQuery, int]:
    """Decode the query body at ``pos``; returns it and the offset past it.

    The hot decode (the frontend and every worker run it once per query):
    fields are read in place with ``unpack_from``, with no bytes copy per
    field.  A short buffer surfaces as ``struct.error``/``IndexError`` and
    is reported as truncation.
    """
    size = len(data)
    try:
        (nterms,) = _U16.unpack_from(data, pos)
        pos += 2
        terms = []
        for _ in range(nterms):
            kind = data[pos]
            if kind == 0:
                (length,) = _U16.unpack_from(data, pos + 1)
                start = pos + 3
                pos = start + length
                if pos > size:
                    raise _truncated(start)
                source = KeywordSource(_utf8(data[start:pos]))
                (radius,) = _F64.unpack_from(data, pos)
                pos += 8
            elif kind == 1:
                node, radius = _NODE_TERM.unpack_from(data, pos + 1)
                source = NodeSource(node)
                pos += 17
            else:
                raise WireProtocolError(f"unknown term kind {kind}")
            terms.append(CoverageTerm(source, radius))
        (nops,) = _U16.unpack_from(data, pos)
        pos += 2
        stack: list[DExpression] = []
        for _ in range(nops):
            opcode = data[pos]
            if opcode == _OPCODE_LEAF:
                stack.append(DExpression(index=_OPCODE_INDEX.unpack_from(data, pos)[1]))
                pos += 3
                continue
            pos += 1
            op = _OPCODES.get(opcode)
            if op is None:
                raise WireProtocolError(f"unknown expression opcode {opcode}")
            if len(stack) < 2:
                raise WireProtocolError("expression stack underflow")
            right = stack.pop()
            left = stack.pop()
            stack.append(DExpression(op=op, left=left, right=right))
        if len(stack) != 1:
            raise WireProtocolError(
                f"expression stream left {len(stack)} values on the stack, wanted 1"
            )
        (length,) = _U16.unpack_from(data, pos)
        start = pos + 2
        pos = start + length
        if pos > size:
            raise _truncated(start)
        return QClassQuery(tuple(terms), stack[0], _utf8(data[start:pos])), pos
    except (struct.error, IndexError):
        raise _truncated(pos) from None
    except QueryError as error:
        raise WireProtocolError(f"invalid query: {error}") from None


def _utf8(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as error:
        raise WireProtocolError(f"undecodable string: {error}") from None


# ----------------------------------------------------------------------
# Answers / errors / JSON / batches
# ----------------------------------------------------------------------
def encode_answer(
    request_id: int,
    nodes,
    *,
    degraded: bool,
    latency_ms: float,
    wall_ms: float,
    makespan_ms: float,
    message_bytes: int,
) -> bytes:
    """An ANSWER frame: sorted result nodes plus the timing block.

    ``nodes`` is the answer's sorted run (written as it is) or any other
    node collection (sorted here).
    """
    out = bytearray(_U64.pack(request_id))
    out.append(1 if degraded else 0)
    _put_run(out, nodes)
    out += _F64.pack(latency_ms)
    out += _F64.pack(wall_ms)
    out += _F64.pack(makespan_ms)
    out += _U64.pack(message_bytes)
    return encode_frame(FRAME_ANSWER, bytes(out))


def decode_answer(payload: bytes) -> dict:
    """An ANSWER payload as the NDJSON reply dict shape."""
    reader = _Reader(payload)
    request_id = reader.u64()
    flags = reader.u8()
    nodes = reader.run(reader.u32()).tolist()
    latency_ms = reader.f64()
    wall_ms = reader.f64()
    makespan_ms = reader.f64()
    message_bytes = reader.u64()
    reader.finish()
    return {
        "id": request_id,
        "ok": True,
        "nodes": nodes,
        "degraded": bool(flags & 1),
        "timing": {
            "latency_ms": latency_ms,
            "wall_ms": wall_ms,
            "makespan_ms": makespan_ms,
            "message_bytes": message_bytes,
        },
    }


def encode_error(request_id: int | None, error: str, detail: str = "") -> bytes:
    """An ERROR frame; ``request_id`` is None for connection-level faults."""
    out = bytearray()
    out.append(0 if request_id is None else 1)
    out += _U64.pack(request_id or 0)
    _put_string(out, error)
    _put_string(out, detail)
    return encode_frame(FRAME_ERROR, bytes(out))


def decode_error(payload: bytes) -> dict:
    """An ERROR payload as the NDJSON error reply dict shape."""
    reader = _Reader(payload)
    has_id = reader.u8()
    request_id = reader.u64()
    error = reader.string()
    detail = reader.string()
    reader.finish()
    reply = {"id": request_id if has_id else None, "ok": False, "error": error}
    if detail:
        reply["detail"] = detail
    return reply


def encode_json_frame(payload: dict) -> bytes:
    """A JSON escape-hatch frame for requests with no packed encoding."""
    return encode_frame(
        FRAME_JSON, json.dumps(payload, separators=(",", ":")).encode("utf-8")
    )


def decode_json_payload(payload: bytes) -> dict:
    """The dict carried by a JSON frame; rejects non-object payloads."""
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireProtocolError(f"bad JSON frame: {error}") from None
    if not isinstance(decoded, dict):
        raise WireProtocolError("a JSON frame must carry an object")
    return decoded


def encode_batch(entries: list[tuple[int, bytes]]) -> bytes:
    """A BATCH frame from ``(request_id, prepared query body)`` pairs."""
    out = bytearray(_U32.pack(len(entries)))
    for request_id, body in entries:
        item = _U64.pack(request_id) + body
        out += _U32.pack(len(item))
        out += item
    return encode_frame(FRAME_BATCH, bytes(out))


def decode_batch(payload: bytes) -> list[tuple[int, QClassQuery]]:
    """The ``(request_id, query)`` entries packed in a BATCH frame."""
    reader = _Reader(payload)
    count = reader.u32()
    if count > 0xFFFF:
        raise WireProtocolError(f"batch of {count} queries is unreasonable")
    view = memoryview(payload)
    queries = []
    for _ in range(count):
        length = reader.u32()
        start = reader.pos
        reader.pos += length
        if reader.pos > len(view):
            raise _truncated(start)
        queries.append(decode_query_payload(view[start : reader.pos]))
    reader.finish()
    return queries


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
_OP_KINDS = {"add_keyword": 1, "remove_keyword": 2, "set_edge_weight": 3}
_OP_NAMES = {code: name for name, code in _OP_KINDS.items()}


def encode_update(
    request_id: int,
    op_records: list[dict],
    *,
    idempotency_key: str | None = None,
) -> bytes:
    """An UPDATE frame from :mod:`repro.live.ops` ``to_record`` dicts.

    ``idempotency_key`` is an optional trailing string — decoders that
    predate it simply never read past the op list, and its absence
    leaves the frame byte-identical to the pre-key encoding.
    """
    out = bytearray(_U64.pack(request_id))
    out += _U32.pack(len(op_records))
    for record in op_records:
        code = _OP_KINDS.get(record.get("op"))
        if code is None:
            raise WireProtocolError(f"unknown update kind {record.get('op')!r}")
        out.append(code)
        if code in (1, 2):
            out += _U64.pack(record["node"])
            _put_string(out, record["keyword"])
        else:
            out += _U64.pack(record["u"])
            out += _U64.pack(record["v"])
            out += _F64.pack(record["weight"])
    if idempotency_key is not None:
        _put_string(out, idempotency_key)
    return encode_frame(FRAME_UPDATE, bytes(out))


def decode_update(payload: bytes) -> tuple[int, list[dict], str | None]:
    """``(request_id, op records, idempotency key)`` from an UPDATE payload."""
    reader = _Reader(payload)
    request_id = reader.u64()
    count = reader.u32()
    if count > 0xFFFFF:
        raise WireProtocolError(f"update batch of {count} ops is unreasonable")
    records = []
    for _ in range(count):
        code = reader.u8()
        name = _OP_NAMES.get(code)
        if name is None:
            raise WireProtocolError(f"unknown update opcode {code}")
        if code in (1, 2):
            records.append(
                {"op": name, "node": reader.u64(), "keyword": reader.string()}
            )
        else:
            records.append(
                {
                    "op": name,
                    "u": reader.u64(),
                    "v": reader.u64(),
                    "weight": reader.f64(),
                }
            )
    idempotency_key = None
    if reader.pos < len(reader.data):
        idempotency_key = reader.string()
    reader.finish()
    return request_id, records, idempotency_key


def encode_update_ack(
    request_id: int, *, epoch: int, applied: int, staleness_ms: float
) -> bytes:
    """An UPDATE_ACK frame reporting the epoch the batch landed in."""
    out = bytearray(_U64.pack(request_id))
    out += _U64.pack(epoch)
    out += _U32.pack(applied)
    out += _F64.pack(staleness_ms)
    return encode_frame(FRAME_UPDATE_ACK, bytes(out))


def decode_update_ack(payload: bytes) -> dict:
    """An UPDATE_ACK payload as the NDJSON update reply dict shape."""
    reader = _Reader(payload)
    request_id = reader.u64()
    epoch = reader.u64()
    applied = reader.u32()
    staleness_ms = reader.f64()
    reader.finish()
    return {
        "id": request_id,
        "ok": True,
        "epoch": epoch,
        "applied": applied,
        "staleness_ms": staleness_ms,
    }


# ----------------------------------------------------------------------
# Worker-pipe payloads (coexist with pickle on the same pipes)
# ----------------------------------------------------------------------
def dumps_pipe_query(
    request_id: int,
    query: QClassQuery,
    sent_at: float,
    attempt: int = 0,
    fragment_ids: tuple[int, ...] = (),
    traced: bool = False,
    body: bytes | None = None,
) -> bytes:
    """Binary pipe frame for one query request.

    Layout: ``u8 'Q' | f64 sent_at | u64 id | query``.  A non-zero
    ``attempt`` or a fragment subset (empty means every fragment the
    worker hosts) switches the tag to ``'q'`` and inserts ``u32 attempt
    | u32 n | n×u32 fragment`` after the id, so a default frame stays
    byte-identical to one that predates the fields.  ``traced`` sets one
    more tag bit (``'Y'``/``'y'``) asking the worker to reply with its
    stage block; the rest of the frame is unchanged.  ``body`` is
    ``query``'s :func:`encode_query_body`, when the caller already has it.
    """
    targeted = bool(attempt or fragment_ids)
    tag = _PIPE_QUERY_TAG | (_PIPE_TARGETED if targeted else 0) | (_PIPE_TRACED if traced else 0)
    out = bytearray((tag,))
    out += _F64.pack(sent_at)
    out += _U64.pack(request_id)
    if targeted:
        out += _U32.pack(attempt)
        out += _U32.pack(len(fragment_ids))
        for fragment_id in fragment_ids:
            out += _U32.pack(fragment_id)
    out += encode_query_body(query) if body is None else body
    return bytes(out)


# The stage block a traced reply carries behind its fragments:
#   f64 sent_at | f64 received | u32 frame bytes        (queue-wait)
#   f64 start | f64 end | u32 reply bytes               (serialize)
#   u32 ntask | u32 neval | u32 nunion
#   ntask × (u32 fragment | f64 start | f64 end | u32 result nodes)
#   neval × (u32 fragment | u16 term | f64 start | f64 end | u8 cache | u32 settled)
#   nunion × (u32 fragment | f64 start | f64 end)
_STAGE_HEAD = struct.Struct("<ddIddIIII")
_STAGE_TASK = struct.Struct("<IddI")
_STAGE_EVAL = struct.Struct("<IHddBI")
_STAGE_UNION = struct.Struct("<Idd")
_STAGE_ROWS = {"task": _STAGE_TASK, "eval": _STAGE_EVAL, "union": _STAGE_UNION}
# An eval record's ``cache`` byte indexes this (the coverage cache's ``last``).
CACHE_OUTCOMES = ("off", "hit", "miss")
_CACHE_CODE = {name: code for code, name in enumerate(CACHE_OUTCOMES)}


def _put_stage_block(out: bytearray, records: list, serialize: tuple) -> None:
    """Append ``records`` (a worker's stage timings) and ``serialize``."""
    queue = next(record[1:] for record in records if record[0] == "queue-wait")
    tasks = [record for record in records if record[0] == "task"]
    evals = [record for record in records if record[0] == "eval"]
    unions = [record for record in records if record[0] == "union"]
    out += _STAGE_HEAD.pack(*queue, *serialize, len(tasks), len(evals), len(unions))
    for _kind, fragment_id, start, end, result_nodes in tasks:
        out += _STAGE_TASK.pack(fragment_id, start, end, result_nodes)
    for _kind, fragment_id, term, start, end, cache, settled in evals:
        out += _STAGE_EVAL.pack(fragment_id, term, start, end, _CACHE_CODE[cache], settled)
    for _kind, fragment_id, start, end in unions:
        out += _STAGE_UNION.pack(fragment_id, start, end)


def _stage_block_size(data, pos: int) -> int:
    """The byte length of the stage block starting at ``pos`` (truncation raises)."""
    if len(data) - pos < _STAGE_HEAD.size:
        raise WireProtocolError("stage block truncated: no room for its header")
    *_fixed, ntask, neval, nunion = _STAGE_HEAD.unpack_from(data, pos)
    return (
        _STAGE_HEAD.size
        + ntask * _STAGE_TASK.size
        + neval * _STAGE_EVAL.size
        + nunion * _STAGE_UNION.size
    )


def decode_stage_block(block: bytes) -> dict:
    """A stage block as ``{"queue-wait", "serialize", "task", "eval", "union"}``.

    ``queue-wait`` is ``(sent_at, received, frame bytes)``, ``serialize``
    ``(start, end, reply bytes)``; the other three are lists of the rows
    the worker recorded, in its order, with the eval ``cache`` byte read
    back as its name.
    """
    if _stage_block_size(block, 0) != len(block):
        raise WireProtocolError(
            f"stage block of {len(block)} bytes does not match its counts"
        )
    sent_at, received, frame_bytes, started, ended, reply_bytes, *counts = (
        _STAGE_HEAD.unpack_from(block, 0)
    )
    decoded = {
        "queue-wait": (sent_at, received, frame_bytes),
        "serialize": (started, ended, reply_bytes),
    }
    pos = _STAGE_HEAD.size
    for (kind, layout), count in zip(_STAGE_ROWS.items(), counts):
        decoded[kind] = list(layout.iter_unpack(block[pos : pos + count * layout.size]))
        pos += count * layout.size
    try:
        decoded["eval"] = [
            (*row[:4], CACHE_OUTCOMES[row[4]], row[5]) for row in decoded["eval"]
        ]
    except IndexError:
        raise WireProtocolError("stage block names an unknown cache outcome") from None
    return decoded


def stage_block_evals(block: bytes):
    """Just the eval rows of a length-checked stage block, cache outcome as its code.

    The hot-spot feed reads these on every traced reply, so the rest of
    the block is skipped.
    """
    ntask, neval = _STAGE_HEAD.unpack_from(block, 0)[6:8]
    start = _STAGE_HEAD.size + ntask * _STAGE_TASK.size
    return _STAGE_EVAL.iter_unpack(block[start : start + neval * _STAGE_EVAL.size])


def dumps_pipe_results(
    request_id: int,
    reply: list[tuple[int, "array | set[int]", float]],
    elapsed: float,
    sent_at: float,
    attempt: int = 0,
    records: list | None = None,
) -> bytes:
    """Binary pipe frame for one result reply.

    Layout: ``u8 'R' | f64 sent_at | u64 id | f64 elapsed | u32 nfrag |
    nfrag × (u32 fragment | f64 seconds | u32 n | n×u64 nodes)``; a
    non-zero ``attempt`` switches the tag to ``'r'`` and inserts ``u32
    attempt`` after the id.  Each fragment's nodes are its sorted run,
    copied in as raw bytes; a plain set is accepted and sorted on entry.

    ``records`` (a traced query's stage timings, as the worker appended
    them) sets the traced tag bit (``'Z'``/``'z'``) and appends the
    stage block behind the fragments, with this encode itself timed as
    the ``serialize`` stage.
    """
    started = perf_counter()
    tag = _PIPE_RESULTS_TAG | (_PIPE_TARGETED if attempt else 0)
    out = bytearray((tag | (_PIPE_TRACED if records is not None else 0),))
    out += _F64.pack(sent_at)
    out += _U64.pack(request_id)
    if attempt:
        out += _U32.pack(attempt)
    out += _F64.pack(elapsed)
    out += _U32.pack(len(reply))
    for fragment_id, nodes, seconds in reply:
        out += _U32.pack(fragment_id)
        out += _F64.pack(seconds)
        _put_run(out, nodes)
    if records is not None:
        _put_stage_block(out, records, (started, perf_counter(), len(out)))
    return bytes(out)


def loads_pipe(raw: bytes):
    """Decode one pipe payload, binary or pickled, by first-byte sniff.

    Returns the ``(kind, body, sent_at)`` tuples of the pickled protocol,
    so the worker loop and the dispatchers stay encoding-agnostic:

    * ``("query", (request_id, query, traced[, attempt, fragment_ids]), sent_at)``
      — ``traced`` is ``True`` on a traced frame and ``None`` otherwise
    * ``("results", (request_id, reply, elapsed[, attempt][, block]), sent_at)``
      — each ``reply`` entry is ``(fragment_id, run, seconds)`` with the
      run an ``array('Q')`` filled straight from the frame's bytes

    The bracketed fields appear only on targeted (``'q'``/``'r'``) or
    traced frames; a traced reply always carries ``attempt`` and then
    its stage block as raw bytes (:func:`decode_stage_block`), whose
    length is checked against its counts here.
    """
    first = raw[0]
    if first == _PICKLE_OPCODE:
        return pickle.loads(raw)
    reader = _Reader(raw)
    tag = reader.u8()
    sent_at = reader.f64()
    request_id = reader.u64()
    targeted = tag & _PIPE_TARGETED
    traced = tag & _PIPE_TRACED
    tag &= ~(_PIPE_TARGETED | _PIPE_TRACED)
    if tag == _PIPE_QUERY_TAG:
        target = ()
        if targeted:
            attempt = reader.u32()
            target = (attempt, tuple(reader.u32() for _ in range(reader.u32())))
        query, reader.pos = _query_at(raw, reader.pos)
        body = (request_id, query, True if traced else None, *target)
        kind = "query"
    elif tag == _PIPE_RESULTS_TAG:
        attempt = reader.u32() if targeted else 0
        elapsed = reader.f64()
        nfrag = reader.u32()
        reply = []
        for _ in range(nfrag):
            fragment_id = reader.u32()
            seconds = reader.f64()
            reply.append((fragment_id, reader.run(reader.u32()), seconds))
        if traced:
            block = reader.take(_stage_block_size(raw, reader.pos))
            body = (request_id, reply, elapsed, attempt, block)
        else:
            body = (request_id, reply, elapsed, *((attempt,) if targeted else ()))
        kind = "results"
    else:
        raise WireProtocolError(f"unknown pipe payload tag {raw[0]:#x}")
    reader.finish()
    return kind, body, sent_at
