"""Worker-pipe frames: golden bytes for untraced traffic, round trips for traced.

Untraced ``Q``/``q``/``R``/``r`` frames are pinned to hex captured from
the encoder before traced queries moved onto the binary wire: the
untraced workloads must keep sending exactly these bytes.  A traced
query differs from an untraced one only in a tag bit; its reply appends
the worker's stage block, which must round-trip and reject truncation.
"""

from __future__ import annotations

import math
import struct
import time
from array import array

import pytest

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.core.queries import sgkq
from repro.dist.process_cluster import WorkerHandler, build_worker_runtimes, query_frame
from repro.partition import BfsPartitioner
from repro.serve import wire

from helpers import make_random_network

SGKQ = sgkq(["cafe", "fuel"], 5.0)
RKQ = parse_query("NEAR(#17, 2.5) NOT NEAR(bar, 1)")
ONE_RUN = [(1, array("Q", [2, 9]), 0.5)]
TWO_RUNS = [(1, array("Q", [2, 9]), 0.5), (3, array("Q"), 0.25)]

GOLDEN = {
    "Q": (
        lambda: wire.dumps_pipe_query(7, SGKQ, 1.25),
        "51000000000000f43f070000000000000002000004006361666500000000000014400004"
        "006675656c00000000000014400300000000000100020f0053474b512832206b772c2072"
        "3d3529",
    ),
    "Q-rkq": (
        lambda: wire.dumps_pipe_query(2**40 + 3, RKQ, 0.5),
        "51000000000000e03f030000000001000002000111000000000000000000000000000440"
        "000300626172000000000000f03f0300000000000100031f004e454152282331372c2032"
        "2e3529204e4f54204e454152286261722c203129",
    ),
    "q": (
        lambda: wire.dumps_pipe_query(7, SGKQ, 1.25, 3, (0, 2)),
        "71000000000000f43f070000000000000003000000020000000000000002000000020000"
        "04006361666500000000000014400004006675656c00000000000014400300000000000100"
        "020f0053474b512832206b772c20723d3529",
    ),
    "R": (
        lambda: wire.dumps_pipe_results(7, TWO_RUNS, 0.75, 1.25),
        "52000000000000f43f0700000000000000000000000000e83f0200000001000000000000"
        "000000e03f020000000200000000000000090000000000000003000000000000000000d0"
        "3f00000000",
    ),
    "r": (
        lambda: wire.dumps_pipe_results(7, ONE_RUN, 0.75, 1.25, 4),
        "72000000000000f43f070000000000000004000000000000000000e83f01000000010000"
        "00000000000000e03f0200000002000000000000000900000000000000",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_untraced_frames_keep_their_bytes(name):
    encode, golden = GOLDEN[name]
    assert encode().hex() == golden


def test_query_frame_sets_only_the_traced_bit():
    plain = query_frame(7, SGKQ)
    traced = query_frame(7, SGKQ, traced=True)
    assert chr(plain[0]) == "Q" and chr(traced[0]) == "Y"
    # Past the tag and the send timestamp the frames are the same bytes.
    assert plain[9:] == traced[9:]
    targeted = query_frame(7, SGKQ, True, 2, (0, 3))
    assert chr(targeted[0]) == "y"
    assert targeted[9:] == query_frame(7, SGKQ, False, 2, (0, 3))[9:]


@pytest.mark.parametrize("attempt, fragment_ids", [(0, ()), (3, (0, 2)), (0, (5,))])
def test_traced_query_round_trip(attempt, fragment_ids):
    frame = wire.dumps_pipe_query(9, RKQ, 2.5, attempt, fragment_ids, traced=True)
    kind, body, sent_at = wire.loads_pipe(frame)
    assert (kind, sent_at) == ("query", 2.5)
    target = (attempt, fragment_ids) if attempt or fragment_ids else ()
    assert body == (9, RKQ, True, *target)


RECORDS = [
    ("queue-wait", 1.0, 1.5, 321),
    ("eval", 1, 0, 2.0, 2.25, "miss", 40),
    ("eval", 1, 1, 2.25, 2.5, "hit", 7),
    ("union", 1, 2.5, 2.75),
    ("task", 1, 2.0, 2.75, 6),
    ("eval", 3, 0, 3.0, 3.5, "off", 0),
    ("union", 3, 3.5, 3.625),
    ("task", 3, 3.0, 3.625, 0),
]


@pytest.mark.parametrize("attempt", [0, 5])
def test_traced_results_round_trip(attempt):
    frame = wire.dumps_pipe_results(7, TWO_RUNS, 0.75, 1.25, attempt, list(RECORDS))
    assert chr(frame[0]) == ("z" if attempt else "Z")
    kind, body, sent_at = wire.loads_pipe(frame)
    request_id, reply, elapsed, back_attempt, block = body
    assert (kind, request_id, reply, elapsed, back_attempt, sent_at) == (
        "results", 7, TWO_RUNS, 0.75, attempt, 1.25
    )
    # The block rides behind the untraced encoding, which it leaves alone.
    untraced = wire.dumps_pipe_results(7, TWO_RUNS, 0.75, 1.25, attempt)
    assert frame[1:].startswith(untraced[1:]) and len(frame) == len(untraced) + len(block)
    stages = wire.decode_stage_block(block)
    assert stages["queue-wait"] == (1.0, 1.5, 321)
    assert stages["task"] == [(1, 2.0, 2.75, 6), (3, 3.0, 3.625, 0)]
    assert stages["eval"] == [record[1:] for record in RECORDS if record[0] == "eval"]
    assert stages["union"] == [(1, 2.5, 2.75), (3, 3.5, 3.625)]
    assert [
        (*row[:4], wire.CACHE_OUTCOMES[row[4]], row[5]) for row in wire.stage_block_evals(block)
    ] == stages["eval"]
    started, ended, reply_bytes = stages["serialize"]
    assert started <= ended and reply_bytes == len(untraced)


def test_truncated_or_tampered_stage_block_raises():
    frame = wire.dumps_pipe_results(7, TWO_RUNS, 0.75, 1.25, 0, list(RECORDS))
    block = wire.loads_pipe(frame)[1][4]
    block_at = len(frame) - len(block)
    for cut in range(block_at, len(frame)):
        with pytest.raises(wire.WireProtocolError):
            wire.loads_pipe(frame[:cut])
    with pytest.raises(wire.WireProtocolError, match="trailing garbage"):
        wire.loads_pipe(frame + b"\x00")
    for cut in range(len(block)):
        with pytest.raises(wire.WireProtocolError):
            wire.decode_stage_block(block[:cut])
    # Counts promising one more eval than present run off the end.
    neval_at = block_at + 8 + 8 + 4 + 8 + 8 + 4 + 4
    (neval,) = struct.unpack_from("<I", frame, neval_at)
    assert neval == 3
    tampered = frame[:neval_at] + struct.pack("<I", 4) + frame[neval_at + 4 :]
    with pytest.raises(wire.WireProtocolError, match="truncated"):
        wire.loads_pipe(tampered)
    # An eval's cache byte past the known outcomes.
    cache_at = wire._STAGE_HEAD.size + 2 * wire._STAGE_TASK.size + 4 + 2 + 8 + 8
    assert block[cache_at] == wire.CACHE_OUTCOMES.index("miss")
    bad = block[:cache_at] + bytes((9,)) + block[cache_at + 1 :]
    with pytest.raises(wire.WireProtocolError, match="cache outcome"):
        wire.decode_stage_block(bad)


@pytest.fixture(scope="module")
def handler():
    net = make_random_network(seed=44, num_junctions=18, num_objects=10, vocabulary=4)
    partition = BfsPartitioner(seed=4).partition(net, 2)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    registry, runtimes = build_worker_runtimes("pickle", list(zip(fragments, indexes)))
    return WorkerHandler(registry, runtimes)


def test_worker_times_a_traced_query_and_answers_the_same(handler):
    query = parse_query("NEAR(w0, 3) AND (NEAR(w1, 4) OR NEAR(w0, 3))")
    plain_frame = wire.dumps_pipe_query(1, query, time.perf_counter())
    traced_frame = wire.dumps_pipe_query(1, query, time.perf_counter(), traced=True)
    plain = handler.handle(plain_frame)
    traced = handler.handle(traced_frame)
    assert chr(plain[0]) == "R" and chr(traced[0]) == "Z"
    _kind, (_rid, plain_reply, _e), _at = wire.loads_pipe(plain)
    _kind, (_rid, reply, _e, attempt, block), _at = wire.loads_pipe(traced)
    assert attempt == 0
    assert [(f, run) for f, run, _s in reply] == [(f, run) for f, run, _s in plain_reply]
    stages = wire.decode_stage_block(block)
    assert stages["queue-wait"][2] == len(traced_frame)
    assert [task[0] for task in stages["task"]] == [0, 1]
    assert [task[3] for task in stages["task"]] == [len(run) for _f, run, _s in reply]
    assert [union[0] for union in stages["union"]] == [0, 1]
    # One eval per distinct term per fragment: the repeated NEAR(w0, 3) is read once.
    assert [(f, term) for f, term, *_ in stages["eval"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert {cache for *_, cache, _settled in stages["eval"]} <= set(wire.CACHE_OUTCOMES)
    for _f, start, end, _nodes in stages["task"]:
        assert stages["queue-wait"][1] <= start <= end <= stages["serialize"][0]
