"""Adversarial frame-parser fuzzing: malformed bytes never hang or crash.

Two layers:

* **sans-IO** — thousands of random and mutated byte strings through
  :class:`~repro.serve.wire.FrameDecoder` and every payload decoder.
  The only acceptable outcomes are a decoded value or
  :class:`~repro.serve.wire.WireProtocolError`; any other exception is
  a parser bug.
* **live server** — adversarial TCP connections (truncated preambles,
  torn length prefixes that stall mid-read, oversized declared lengths,
  garbage streams, NDJSON/binary mixups on one connection).  Every one
  must end with a clean protocol error and a closed connection inside
  the frame timeout — and the server must keep answering well-formed
  clients afterwards.
"""

from __future__ import annotations

import math
import random
import socket
import struct
import time

import pytest

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.partition import BfsPartitioner
from repro.serve import (
    BinaryServeClient,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    serve_in_thread,
    wire,
)
from repro.serve.protocol import encode_line

from helpers import make_random_network

# The acceptance floor: at least this many distinct malformed inputs
# must go through the parsers without a hang or a non-protocol error.
MALFORMED_FLOOR = 1000


def _valid_frames() -> list[bytes]:
    """A corpus of well-formed frames to mutate."""
    from repro.core.queries import rkq, sgkq

    query = sgkq(["cafe", "fuel"], 5.0)
    other = rkq(3, ["bar"], radius=2.5)
    body = wire.encode_query_body(query)
    return [
        wire.encode_hello(0),
        wire.encode_frame(wire.FRAME_QUERY, wire.encode_query_payload(7, query)),
        wire.encode_frame(wire.FRAME_QUERY, wire.encode_query_payload(8, other)),
        wire.encode_answer(
            9, {1, 2, 3}, degraded=False, latency_ms=1.0, wall_ms=0.5,
            makespan_ms=0.25, message_bytes=64,
        ),
        wire.encode_error(10, "timeout", "too slow"),
        wire.encode_json_frame({"op": "ping", "id": 11}),
        wire.encode_batch([(12, body), (13, body)]),
        wire.encode_update(
            14,
            [
                {"op": "add_keyword", "node": 4, "keyword": "cafe"},
                {"op": "set_edge_weight", "u": 1, "v": 2, "weight": 3.5},
            ],
        ),
        wire.encode_update_ack(15, epoch=2, applied=5, staleness_ms=1.25),
    ]


def _feed_all(data: bytes) -> None:
    """Push bytes through a FrameDecoder + the payload decoders.

    Raises only WireProtocolError (or succeeds); anything else bubbles
    out and fails the test.
    """
    decoder = wire.FrameDecoder()
    decoder.feed(data)
    payload_decoders = {
        wire.FRAME_HELLO: wire.decode_hello,
        wire.FRAME_QUERY: wire.decode_query_payload,
        wire.FRAME_ANSWER: wire.decode_answer,
        wire.FRAME_ERROR: wire.decode_error,
        wire.FRAME_JSON: wire.decode_json_payload,
        wire.FRAME_BATCH: wire.decode_batch,
        wire.FRAME_UPDATE: wire.decode_update,
        wire.FRAME_UPDATE_ACK: wire.decode_update_ack,
    }
    for _ in range(64):  # bounded: a fuzz input can hold only so many frames
        frame = decoder.next_frame()
        if frame is None:
            return
        frame_type, payload = frame
        payload_decoders[frame_type](payload)


class TestSansIOFuzz:
    def test_random_garbage_never_hangs_or_crashes(self):
        rng = random.Random(0xD5C)
        survived = 0
        for _ in range(MALFORMED_FLOOR):
            blob = rng.randbytes(rng.randint(0, 200))
            started = time.perf_counter()
            try:
                _feed_all(blob)
            except wire.WireProtocolError:
                pass
            assert time.perf_counter() - started < 1.0
            survived += 1
        assert survived == MALFORMED_FLOOR

    def test_mutated_valid_frames_never_crash(self):
        rng = random.Random(0xBEEF)
        corpus = _valid_frames()
        cases = 0
        for _ in range(MALFORMED_FLOOR):
            blob = bytearray(rng.choice(corpus))
            mutation = rng.randrange(4)
            if mutation == 0 and len(blob) > 1:  # truncate
                del blob[rng.randrange(1, len(blob)) :]
            elif mutation == 1:  # flip a byte
                i = rng.randrange(len(blob))
                blob[i] ^= rng.randrange(1, 256)
            elif mutation == 2:  # append garbage
                blob += rng.randbytes(rng.randint(1, 32))
            else:  # splice two frames mid-byte
                other = rng.choice(corpus)
                blob = blob[: rng.randrange(1, len(blob))] + other
            try:
                _feed_all(bytes(blob))
            except wire.WireProtocolError:
                pass
            cases += 1
        assert cases == MALFORMED_FLOOR

    def test_pipe_decoder_rejects_garbage(self):
        rng = random.Random(0xF00)
        for _ in range(300):
            blob = rng.randbytes(rng.randint(1, 120))
            if blob[0] == 0x80:
                continue  # would be routed to pickle; not this parser's job
            try:
                wire.loads_pipe(blob)
            except wire.WireProtocolError:
                pass

    def test_mutated_run_carrying_pipe_frames_fail_cleanly(self):
        """Result frames carry raw runs: every cut raises, no mutation crashes.

        A proper prefix can never decode (each count promises bytes that
        are gone, and ``finish`` wants the frame used up); a flipped byte
        may still decode — into runs of whole u64s — or raise
        WireProtocolError, nothing else.
        """
        from array import array

        rng = random.Random(0xA11)
        reply = [
            (0, array("Q", sorted(rng.sample(range(10_000), 40))), 0.001),
            (1, array("Q"), 0.0),
            (7, {5, 3, 2**63}, 0.002),  # a plain set: sorted on entry
        ]
        frame = wire.dumps_pipe_results(99, reply, 0.01, 123.5)
        kind, (request_id, runs, _elapsed), _sent = wire.loads_pipe(frame)
        assert (kind, request_id) == ("results", 99)
        assert [list(run) for _f, run, _s in runs] == [sorted(nodes) for _f, nodes, _s in reply]
        for cut in range(1, len(frame)):
            with pytest.raises(wire.WireProtocolError):
                wire.loads_pipe(frame[:cut])
        for _ in range(MALFORMED_FLOOR // 4):
            blob = bytearray(frame)
            if rng.random() < 0.5:
                blob[rng.randrange(1, len(blob))] ^= rng.randrange(1, 256)
            else:
                blob += rng.randbytes(rng.randint(1, 16))
            try:
                _kind, (_rid, decoded, _el), _at = wire.loads_pipe(bytes(blob))
            except wire.WireProtocolError:
                continue
            assert all(isinstance(run, array) and run.typecode == "Q" for _f, run, _s in decoded)

    def test_targeted_pipe_frames_fail_cleanly(self):
        """'q'/'r' frames: every cut and every trailing byte raises."""
        from array import array

        from repro.core.queries import sgkq

        query = sgkq(["cafe", "fuel"], 5.0)
        frames = [
            wire.dumps_pipe_query(5, query, 1.25, 3, (0, 7, 2**32 - 1)),
            wire.dumps_pipe_query(5, query, 1.25, 0, (4,)),
            wire.dumps_pipe_query(5, query, 1.25, 9, ()),
            wire.dumps_pipe_results(5, [(1, array("Q", [2, 9]), 0.5)], 0.75, 1.25, 4),
        ]
        assert [chr(frame[0]) for frame in frames] == ["q", "q", "q", "r"]
        rng = random.Random(0xB0B)
        for frame in frames:
            kind, body, _sent = wire.loads_pipe(frame)
            assert body[0] == 5 and len(body) == (5 if kind == "query" else 4)
            for cut in range(1, len(frame)):
                with pytest.raises(wire.WireProtocolError):
                    wire.loads_pipe(frame[:cut])
            with pytest.raises(wire.WireProtocolError, match="trailing garbage"):
                wire.loads_pipe(frame + b"\x00")
            for _ in range(MALFORMED_FLOOR // 10):
                blob = bytearray(frame)
                blob[rng.randrange(1, len(blob))] ^= rng.randrange(1, 256)
                try:
                    wire.loads_pipe(bytes(blob))
                except wire.WireProtocolError:
                    pass

    def test_truncations_of_every_valid_frame_fail_cleanly(self):
        """Every proper prefix either waits for more bytes or raises."""
        for frame in _valid_frames():
            for cut in range(len(frame)):
                try:
                    _feed_all(frame[:cut])
                except wire.WireProtocolError:
                    pass


# ----------------------------------------------------------------------
# Live-server adversaries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployment():
    net = make_random_network(seed=670, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=8).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
    config = ServeConfig(max_inflight=8, frame_timeout_seconds=0.5)
    try:
        with serve_in_thread(cluster, config) as server:
            yield net, server
    finally:
        cluster.shutdown()


def _connect(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def _drain_until_close(sock: socket.socket, deadline_seconds: float = 8.0) -> bytes:
    """Read until the server closes; fail the test on a hang.

    A connection reset counts as a close: when the server aborts a
    connection that still has unread client bytes queued, TCP answers
    with RST, which can discard data the server already wrote.  The
    property under test is "terminates promptly", not "flushes politely
    to a client that kept spamming".
    """
    sock.settimeout(deadline_seconds)
    received = bytearray()
    started = time.perf_counter()
    while True:
        try:
            chunk = sock.recv(65536)
        except (TimeoutError, socket.timeout):  # pragma: no cover - the failure mode
            pytest.fail("the server neither answered nor closed the connection")
        except ConnectionResetError:
            return bytes(received)
        if not chunk:
            return bytes(received)
        received.extend(chunk)
        assert time.perf_counter() - started < deadline_seconds


def _frames_of(data: bytes) -> list[tuple[int, bytes]]:
    decoder = wire.FrameDecoder()
    decoder.feed(data)
    frames = []
    while (frame := decoder.next_frame()) is not None:
        frames.append(frame)
    return frames


def _assert_alive(server, net) -> None:
    """A well-formed client still gets answers — no coordinator crash."""
    with BinaryServeClient(server.host, server.port) as client:
        keyword = sorted(net.all_keywords())[0]
        reply = client.query(f"NEAR({keyword}, 4)")
        assert reply["ok"], reply


class TestServerAdversaries:
    def test_bad_magic_gets_error_and_close(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(b"DSKP\x01\x00")  # near-miss magic
            frames = _frames_of(_drain_until_close(sock))
            assert frames and frames[-1][0] == wire.FRAME_ERROR
            assert wire.decode_error(frames[-1][1])["error"] == "wire"
        _assert_alive(server, net)

    def test_truncated_preamble_times_out_and_closes(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(b"DSK")  # stall mid-preamble
            _drain_until_close(sock)
        _assert_alive(server, net)

    def test_torn_length_prefix_times_out_cleanly(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(wire.encode_preamble())
            hello = _frames_of(sock.recv(4096))
            assert hello[0][0] == wire.FRAME_HELLO
            sock.sendall(b"\x10\x00")  # two bytes of a four-byte prefix, then stall
            frames = _frames_of(_drain_until_close(sock))
            assert frames and frames[-1][0] == wire.FRAME_ERROR
        _assert_alive(server, net)

    def test_torn_payload_times_out_cleanly(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(wire.encode_preamble())
            sock.recv(4096)
            # Declare 100 payload bytes, deliver 10, stall.
            sock.sendall(wire.LENGTH_PREFIX.pack(101) + bytes([wire.FRAME_QUERY]))
            sock.sendall(b"\x00" * 10)
            frames = _frames_of(_drain_until_close(sock))
            assert frames and frames[-1][0] == wire.FRAME_ERROR
            assert "truncated" in wire.decode_error(frames[-1][1]).get("detail", "")
        _assert_alive(server, net)

    def test_oversized_declared_length_rejected_immediately(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(wire.encode_preamble())
            sock.recv(4096)
            started = time.perf_counter()
            sock.sendall(wire.LENGTH_PREFIX.pack(2**31 - 1))
            frames = _frames_of(_drain_until_close(sock))
            # Rejected on the prefix alone — no waiting for 2 GiB.
            assert time.perf_counter() - started < 5.0
            assert frames and frames[-1][0] == wire.FRAME_ERROR
            assert "length" in wire.decode_error(frames[-1][1]).get("detail", "")
        _assert_alive(server, net)

    def test_ndjson_on_a_binary_connection_is_a_protocol_error(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(wire.encode_preamble())
            sock.recv(4096)
            sock.sendall(encode_line({"id": 1, "q": "NEAR(cafe, 5)"}))
            frames = _frames_of(_drain_until_close(sock))
            assert frames and frames[-1][0] == wire.FRAME_ERROR
        _assert_alive(server, net)

    def test_binary_frames_on_an_ndjson_connection_get_bad_json(self, deployment):
        """First byte isn't the magic, so the frame lands on the NDJSON
        path and must come back as a bad-json reply, not a hang."""
        net, server = deployment
        with _connect(server) as sock:
            frame = wire.encode_json_frame({"op": "ping"})
            assert frame[0:1] != wire.MAGIC[:1]
            sock.sendall(frame + b"\n")
            reply = sock.recv(65536)
            assert b"bad-json" in reply
        _assert_alive(server, net)

    def test_unexpected_frame_type_closes_the_connection(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(wire.encode_preamble())
            sock.recv(4096)
            sock.sendall(wire.encode_answer(
                1, set(), degraded=False, latency_ms=0.0, wall_ms=0.0,
                makespan_ms=0.0, message_bytes=0,
            ))
            frames = _frames_of(_drain_until_close(sock))
            assert frames and frames[-1][0] == wire.FRAME_ERROR
            assert "unexpected frame type" in wire.decode_error(
                frames[-1][1]
            ).get("detail", "")
        _assert_alive(server, net)

    def test_malformed_query_payload_closes_before_later_frames_run(self, deployment):
        net, server = deployment
        with _connect(server) as sock:
            sock.sendall(wire.encode_preamble())
            sock.recv(4096)
            # A QUERY frame whose payload is garbage, then a valid one.
            sock.sendall(wire.encode_frame(wire.FRAME_QUERY, b"\xff" * 12))
            good = wire.encode_frame(
                wire.FRAME_QUERY,
                wire.encode_query_payload(
                    2,
                    __import__("repro.core.queries", fromlist=["sgkq"]).sgkq(
                        [sorted(net.all_keywords())[0]], 4.0
                    ),
                ),
            )
            sock.sendall(good)
            frames = _frames_of(_drain_until_close(sock))
            # The valid frame after the poison one was never dispatched:
            # at most the protocol error came back, never an answer.
            # (The ERROR itself can be lost to the close-with-unread-data
            # TCP reset, so an empty read is also acceptable.)
            assert all(t == wire.FRAME_ERROR for t, _ in frames)
            assert len(frames) <= 1
        _assert_alive(server, net)

    def test_garbage_stream_volley_leaves_server_standing(self, deployment):
        """Dozens of connections spraying random bytes; all must close,
        and the server must still answer real queries afterwards."""
        net, server = deployment
        rng = random.Random(0xABAD)
        for i in range(40):
            with _connect(server) as sock:
                blob = rng.randbytes(rng.randint(1, 512))
                if i % 3 == 0:  # valid preamble, then garbage frames
                    blob = wire.encode_preamble() + blob
                try:
                    sock.sendall(blob)
                    # Signal EOF so blobs that land on the NDJSON path
                    # (no magic byte, no trailing newline) terminate the
                    # readline instead of idling for more input.
                    sock.shutdown(socket.SHUT_WR)
                except OSError:
                    continue  # server already closed on us — fine
                _drain_until_close(sock)
        _assert_alive(server, net)
        with ServeClient(server.host, server.port) as client:
            assert client.request({"op": "ping"})["ok"]

    def test_struct_prefix_edge_values(self, deployment):
        """Length prefixes at the integer edges never wedge the reader."""
        net, server = deployment
        for length in (0, 1, 5, wire.MAX_FRAME_BYTES, 2**32 - 1):
            with _connect(server) as sock:
                sock.sendall(wire.encode_preamble())
                sock.recv(4096)
                sock.sendall(struct.pack("<I", length))
                _drain_until_close(sock)
        _assert_alive(server, net)
