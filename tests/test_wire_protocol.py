"""Round-trip and differential tests for the binary wire protocol.

Two contracts:

* **round-trip** — every frame type's ``encode_*``/``decode_*`` pair is
  an identity over hypothesis-generated payloads, with floats (radii,
  timings) surviving bit-exactly — infinities included;
* **differential** — the NDJSON and binary protocol paths, driven
  against the *same* cluster, produce identical QueryAnswers for the
  same query stream.  Combined with the round-trip property this proves
  the binary path adds speed, not semantics.
"""

from __future__ import annotations

import math
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.dfunction import DExpression, SetOp
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource, QClassQuery
from repro.core.runs import as_run
from repro.partition import BfsPartitioner
from repro.serve import (
    BinaryServeClient,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    serve_in_thread,
    generate_expressions,
    wire,
)

from helpers import make_random_network

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=24
)
_keyword = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=24
)
_node_id = st.integers(min_value=0, max_value=2**64 - 1)
_radius = st.floats(min_value=0.0, allow_nan=False, allow_infinity=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_request_id = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def _queries(draw) -> QClassQuery:
    num_terms = draw(st.integers(min_value=1, max_value=5))
    terms = tuple(
        CoverageTerm(
            draw(
                st.one_of(
                    _keyword.map(KeywordSource),
                    _node_id.map(NodeSource),
                )
            ),
            draw(_radius),
        )
        for _ in range(num_terms)
    )
    leaf = st.integers(min_value=0, max_value=num_terms - 1).map(
        lambda i: DExpression(index=i)
    )
    expression = draw(
        st.recursive(
            leaf,
            lambda children: st.tuples(
                children, children, st.sampled_from(list(SetOp))
            ).map(lambda t: DExpression(op=t[2], left=t[0], right=t[1])),
            max_leaves=6,
        )
    )
    return QClassQuery(terms, expression, draw(_text))


_op_records = st.one_of(
    st.fixed_dictionaries(
        {
            "op": st.sampled_from(["add_keyword", "remove_keyword"]),
            "node": _node_id,
            "keyword": _keyword,
        }
    ),
    st.fixed_dictionaries(
        {
            "op": st.just("set_edge_weight"),
            "u": _node_id,
            "v": _node_id,
            "weight": _finite,
        }
    ),
)


def _decode_one(data: bytes) -> tuple[int, bytes]:
    decoder = wire.FrameDecoder()
    decoder.feed(data)
    frame = decoder.next_frame()
    assert frame is not None
    assert decoder.buffered == 0
    return frame


# ----------------------------------------------------------------------
# Round trips, one per frame type
# ----------------------------------------------------------------------
class TestRoundTrips:
    @given(request_id=_request_id, query=_queries())
    def test_query_payload(self, request_id, query):
        payload = wire.encode_query_payload(request_id, query)
        back_id, back = wire.decode_query_payload(payload)
        assert back_id == request_id
        assert back == query  # dataclass equality: bit-exact radii and all

    @given(request_id=_request_id, query=_queries())
    def test_query_frame_through_decoder(self, request_id, query):
        data = wire.encode_frame(
            wire.FRAME_QUERY, wire.encode_query_payload(request_id, query)
        )
        frame_type, payload = _decode_one(data)
        assert frame_type == wire.FRAME_QUERY
        assert wire.decode_query_payload(payload) == (request_id, query)

    @given(
        request_id=_request_id,
        nodes=st.sets(_node_id, max_size=50),
        degraded=st.booleans(),
        latency_ms=_finite,
        wall_ms=_finite,
        makespan_ms=_finite,
        message_bytes=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_answer(
        self, request_id, nodes, degraded, latency_ms, wall_ms, makespan_ms,
        message_bytes,
    ):
        frame_type, payload = _decode_one(
            wire.encode_answer(
                request_id,
                nodes,
                degraded=degraded,
                latency_ms=latency_ms,
                wall_ms=wall_ms,
                makespan_ms=makespan_ms,
                message_bytes=message_bytes,
            )
        )
        assert frame_type == wire.FRAME_ANSWER
        reply = wire.decode_answer(payload)
        assert reply["id"] == request_id
        assert reply["ok"] is True
        assert reply["nodes"] == sorted(nodes)
        assert reply["degraded"] is degraded
        assert reply["timing"] == {
            "latency_ms": latency_ms,
            "wall_ms": wall_ms,
            "makespan_ms": makespan_ms,
            "message_bytes": message_bytes,
        }

    @given(
        request_id=st.one_of(st.none(), _request_id),
        error=_keyword,
        detail=_text,
    )
    def test_error(self, request_id, error, detail):
        frame_type, payload = _decode_one(wire.encode_error(request_id, error, detail))
        assert frame_type == wire.FRAME_ERROR
        reply = wire.decode_error(payload)
        assert reply["ok"] is False
        assert reply["error"] == error
        if request_id is None:
            assert reply["id"] is None
        else:
            assert reply["id"] == request_id
        assert reply.get("detail", "") == detail

    @given(
        payload=st.dictionaries(
            st.text(max_size=8), st.one_of(_text, st.integers(), st.booleans()),
            max_size=5,
        )
    )
    def test_json_frame(self, payload):
        frame_type, raw = _decode_one(wire.encode_json_frame(payload))
        assert frame_type == wire.FRAME_JSON
        assert wire.decode_json_payload(raw) == payload

    @given(entries=st.lists(st.tuples(_request_id, _queries()), max_size=6))
    def test_batch(self, entries):
        data = wire.encode_batch(
            [(rid, wire.encode_query_body(q)) for rid, q in entries]
        )
        frame_type, payload = _decode_one(data)
        assert frame_type == wire.FRAME_BATCH
        assert wire.decode_batch(payload) == entries

    @given(request_id=_request_id, records=st.lists(_op_records, max_size=8))
    def test_update(self, request_id, records):
        frame_type, payload = _decode_one(wire.encode_update(request_id, records))
        assert frame_type == wire.FRAME_UPDATE
        assert wire.decode_update(payload) == (request_id, records, None)

    @given(
        request_id=_request_id,
        records=st.lists(_op_records, max_size=8),
        key=st.text(min_size=1, max_size=64),
    )
    def test_update_idempotency_key(self, request_id, records, key):
        frame_type, payload = _decode_one(
            wire.encode_update(request_id, records, idempotency_key=key)
        )
        assert frame_type == wire.FRAME_UPDATE
        assert wire.decode_update(payload) == (request_id, records, key)

    @given(
        request_id=_request_id,
        epoch=st.integers(min_value=0, max_value=2**64 - 1),
        applied=st.integers(min_value=0, max_value=2**32 - 1),
        staleness_ms=_finite,
    )
    def test_update_ack(self, request_id, epoch, applied, staleness_ms):
        frame_type, payload = _decode_one(
            wire.encode_update_ack(
                request_id, epoch=epoch, applied=applied, staleness_ms=staleness_ms
            )
        )
        assert frame_type == wire.FRAME_UPDATE_ACK
        assert wire.decode_update_ack(payload) == {
            "id": request_id,
            "ok": True,
            "epoch": epoch,
            "applied": applied,
            "staleness_ms": staleness_ms,
        }

    @given(features=st.integers(min_value=0, max_value=255))
    def test_preamble_and_hello(self, features):
        assert wire.decode_preamble(wire.encode_preamble(features)) == features
        frame_type, payload = _decode_one(wire.encode_hello(features))
        assert frame_type == wire.FRAME_HELLO
        assert wire.decode_hello(payload) == (wire.WIRE_VERSION, features)

    @given(
        request_id=_request_id,
        query=_queries(),
        sent_at=_finite,
    )
    def test_pipe_query(self, request_id, query, sent_at):
        kind, body, back_sent = wire.loads_pipe(
            wire.dumps_pipe_query(request_id, query, sent_at)
        )
        assert kind == "query"
        assert body == (request_id, query, None)
        assert back_sent == sent_at

    @given(
        request_id=_request_id,
        reply=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.sets(_node_id, max_size=20),
                _finite,
            ),
            max_size=4,
        ),
        elapsed=_finite,
        sent_at=_finite,
    )
    def test_pipe_results(self, request_id, reply, elapsed, sent_at):
        kind, body, back_sent = wire.loads_pipe(
            wire.dumps_pipe_results(request_id, reply, elapsed, sent_at)
        )
        assert kind == "results"
        # Each fragment's nodes come back as their sorted run.
        runs = [(fragment_id, as_run(nodes), seconds) for fragment_id, nodes, seconds in reply]
        assert body == (request_id, runs, elapsed)
        assert all(isinstance(run, array) and run.typecode == "Q" for _f, run, _s in body[1])
        assert back_sent == sent_at

    @given(
        request_id=_request_id,
        query=_queries(),
        sent_at=_finite,
        attempt=st.integers(min_value=0, max_value=2**32 - 1),
        fragment_ids=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=8),
    )
    def test_targeted_pipe_query(self, request_id, query, sent_at, attempt, fragment_ids):
        """Attempt and fragment ids ride a 'q' frame; the defaults keep 'Q'."""
        fragment_ids = tuple(fragment_ids)
        frame = wire.dumps_pipe_query(request_id, query, sent_at, attempt, fragment_ids)
        kind, body, back_sent = wire.loads_pipe(frame)
        assert kind == "query" and back_sent == sent_at
        if attempt or fragment_ids:
            assert frame[0] == ord("q")
            assert body == (request_id, query, None, attempt, fragment_ids)
        else:
            assert frame == wire.dumps_pipe_query(request_id, query, sent_at)
            assert body == (request_id, query, None)

    @given(
        request_id=_request_id,
        reply=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.sets(_node_id, max_size=20),
                _finite,
            ),
            max_size=4,
        ),
        elapsed=_finite,
        sent_at=_finite,
        attempt=st.integers(min_value=1, max_value=2**32 - 1),
    )
    def test_retried_pipe_results(self, request_id, reply, elapsed, sent_at, attempt):
        frame = wire.dumps_pipe_results(request_id, reply, elapsed, sent_at, attempt)
        assert frame[0] == ord("r")
        assert len(frame) == len(wire.dumps_pipe_results(request_id, reply, elapsed, sent_at)) + 4
        kind, body, back_sent = wire.loads_pipe(frame)
        runs = [(fragment_id, as_run(nodes), seconds) for fragment_id, nodes, seconds in reply]
        assert (kind, body, back_sent) == ("results", (request_id, runs, elapsed, attempt), sent_at)

    @given(
        request_id=_request_id,
        reply=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.sets(_node_id, max_size=20),
                _finite,
            ),
            max_size=4,
        ),
        elapsed=_finite,
        sent_at=_finite,
    )
    def test_set_and_run_inputs_encode_to_the_same_bytes(
        self, request_id, reply, elapsed, sent_at
    ):
        """A plain set is sorted on entry; a run is copied in as it is."""
        runs = [(fragment_id, as_run(nodes), seconds) for fragment_id, nodes, seconds in reply]
        frozen = [(fragment_id, frozenset(nodes), seconds) for fragment_id, nodes, seconds in reply]
        from_sets = wire.dumps_pipe_results(request_id, reply, elapsed, sent_at)
        assert wire.dumps_pipe_results(request_id, runs, elapsed, sent_at) == from_sets
        assert wire.dumps_pipe_results(request_id, frozen, elapsed, sent_at) == from_sets
        for fragment_id, nodes, _seconds in reply:
            timing = dict(degraded=False, latency_ms=1.0, wall_ms=2.0, makespan_ms=3.0, message_bytes=4)
            from_set = wire.encode_answer(fragment_id, nodes, **timing)
            assert wire.encode_answer(fragment_id, as_run(nodes), **timing) == from_set
            assert wire.encode_answer(fragment_id, frozenset(nodes), **timing) == from_set
            # The node block is the documented little-endian u64 layout.
            assert struct.pack(f"<I{len(nodes)}Q", len(nodes), *sorted(nodes)) in from_set

    @given(
        frames=st.lists(
            st.tuples(_request_id, _queries()).map(
                lambda t: wire.encode_frame(
                    wire.FRAME_QUERY, wire.encode_query_payload(*t)
                )
            ),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    def test_decoder_reassembles_arbitrary_chunking(self, frames, data):
        """FrameDecoder yields the same frames however the stream is cut."""
        stream = b"".join(frames)
        decoder = wire.FrameDecoder()
        out = []
        pos = 0
        while pos < len(stream):
            step = data.draw(st.integers(min_value=1, max_value=len(stream) - pos))
            decoder.feed(stream[pos : pos + step])
            pos += step
            while (frame := decoder.next_frame()) is not None:
                out.append(wire.encode_frame(*frame))
        assert out == frames
        assert decoder.buffered == 0


# ----------------------------------------------------------------------
# Differential: NDJSON vs binary on one cluster
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployment():
    net = make_random_network(seed=660, num_junctions=28, num_objects=14, vocabulary=5)
    partition = BfsPartitioner(seed=7).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    cluster = PipelinedCluster.start(fragments, indexes, num_machines=2, use_shm=True)
    try:
        with serve_in_thread(cluster, ServeConfig(max_inflight=32)) as server:
            yield net, server
    finally:
        cluster.shutdown()


class TestDifferential:
    def test_binary_and_ndjson_answers_are_identical(self, deployment):
        net, server = deployment
        expressions = generate_expressions(net, count=24, radius=6.0, seed=9)
        with ServeClient(server.host, server.port) as ndjson, BinaryServeClient(
            server.host, server.port
        ) as binary:
            for expression in expressions:
                a = ndjson.query(expression)
                b = binary.query(expression)
                assert a["ok"] and b["ok"], (a, b)
                assert a["nodes"] == b["nodes"], expression
                assert a["degraded"] == b["degraded"]

    def test_batched_answers_match_singles(self, deployment):
        net, server = deployment
        expressions = generate_expressions(net, count=16, radius=6.0, seed=10)
        with BinaryServeClient(server.host, server.port) as binary:
            singles = [binary.query(e)["nodes"] for e in expressions]
            prepared = [binary.prepare(e) for e in expressions]
            batched = binary.query_batch(prepared)
            assert [reply["nodes"] for reply in batched] == singles

    def test_admin_ops_ride_json_frames(self, deployment):
        _net, server = deployment
        with BinaryServeClient(server.host, server.port) as binary:
            reply = binary.request({"op": "ping"})
            assert reply["ok"] and reply["pong"]
            stats = binary.stats()
            assert stats["counters"]["binary_connections"] >= 1

    def test_rejects_version_mismatch(self, deployment):
        import socket

        _net, server = deployment
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(wire.MAGIC + bytes((99, 0)))
            decoder = wire.FrameDecoder()
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                decoder.feed(chunk)
            frame = decoder.next_frame()
            assert frame is not None
            frame_type, payload = frame
            assert frame_type == wire.FRAME_ERROR
            assert wire.decode_error(payload)["error"] == "wire"


class TestLimits:
    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(wire.WireProtocolError, match="exceeds"):
            wire.encode_frame(wire.FRAME_JSON, b"x" * wire.MAX_FRAME_BYTES)

    def test_decoder_rejects_adversarial_length(self):
        decoder = wire.FrameDecoder()
        decoder.feed(wire.LENGTH_PREFIX.pack(2**31) + b"\x05")
        with pytest.raises(wire.WireProtocolError, match="declared frame length"):
            decoder.next_frame()

    def test_decoder_rejects_zero_length(self):
        decoder = wire.FrameDecoder()
        decoder.feed(wire.LENGTH_PREFIX.pack(0))
        with pytest.raises(wire.WireProtocolError, match="type byte"):
            decoder.next_frame()

    @settings(max_examples=25)
    @given(query=_queries())
    def test_trailing_garbage_rejected(self, query):
        payload = wire.encode_query_payload(7, query) + b"\x00"
        with pytest.raises(wire.WireProtocolError, match="trailing garbage"):
            wire.decode_query_payload(payload)

    def test_malformed_run_carrying_pipe_frames_rejected(self):
        """count × 8 must be exactly the bytes present, frame by frame."""
        runs = [(3, array("Q", [1, 5, 9]), 0.25), (4, array("Q", [2, 2**64 - 1]), 0.5)]
        frame = wire.dumps_pipe_results(17, runs, 0.75, 1.5)
        assert wire.loads_pipe(frame) == ("results", (17, runs, 0.75), 1.5)
        with pytest.raises(wire.WireProtocolError, match="trailing garbage"):
            wire.loads_pipe(frame + b"\x00")
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.loads_pipe(frame[:-1])  # the last run is one byte short
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.loads_pipe(frame[:-8])  # ... or one whole node short
        # Tamper the first run's count (u32 after tag, sent_at, id,
        # elapsed, nfrag, fragment id, seconds): one more node than
        # present shifts every later field and runs off the end; one
        # fewer leaves bytes over.
        count_at = 1 + 8 + 8 + 8 + 4 + 4 + 8
        assert frame[count_at : count_at + 4] == struct.pack("<I", 3)
        for wrong in (2, 4, 2**32 - 1):
            tampered = frame[:count_at] + struct.pack("<I", wrong) + frame[count_at + 4 :]
            with pytest.raises(wire.WireProtocolError):
                wire.loads_pipe(tampered)
        # A fragment count larger than the fragments present.
        nfrag_at = 1 + 8 + 8 + 8
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.loads_pipe(frame[:nfrag_at] + struct.pack("<I", 3) + frame[nfrag_at + 4 :])
