"""Seeded HA schedules: failover exactness without fork.

An :class:`HACluster` runs over the in-process transport, so the test,
not the OS, decides which worker handles its next frame.  Each seed
draws a schedule of query submits, epoch apply submits, kills of
machines whose loss leaves every fragment a replica, and single steps
of one machine's inbox; then every inbox drains.  Every answer must
equal the centralized oracle at one epoch that was live while the query
was in flight — a blend of two epochs, as a failover re-dispatch onto a
replica that already swapped would produce, fails — and every future
must resolve.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.dist import ReplicaPlacement
from repro.dist.cluster import InProcessTransport
from repro.dist.process_cluster import WorkerHandler, build_worker_runtimes
from repro.ha import HACluster
from repro.live import AddKeyword, EpochManager, RemoveKeyword
from repro.partition import BfsPartitioner

from helpers import make_random_network

NUM_SEEDS = 1_000
# Killing both leaves machines 0 and 2 of m=4, R=2 chained declustering,
# and every fragment has a replica on an even machine.
SAFE_KILLS = (1, 3)
ACTIONS = ("query", "query", "apply", "kill", "step", "step", "step", "step")


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=650, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, partition, fragments, indexes


def probe_queries(network):
    keywords = sorted(network.all_keywords())
    return [
        sgkq(keywords[:2], 1.5),
        sgkq(keywords[:2], 4.0),
        sgkq(keywords[2:3], 2.5),
    ]


def keyword_flip(network, keyword):
    """Move ``keyword`` off every other carrier and onto as many new nodes."""
    objects = sorted(network.object_nodes())
    carriers = [n for n in objects if keyword in network.keywords(n)]
    others = [n for n in objects if keyword not in network.keywords(n)]
    dropped = carriers[::2]
    return [RemoveKeyword(n, keyword) for n in dropped] + [
        AddKeyword(n, keyword) for n in others[: len(dropped) + 1]
    ]


@pytest.fixture(scope="module")
def epochs(built):
    """Three epochs as ``(epoch, replacements)`` plus each epoch's probe answers."""
    net, partition, fragments, indexes = built
    manager = EpochManager(
        network=net, partition=partition, fragments=list(fragments), indexes=list(indexes)
    )
    queries = probe_queries(net)
    answers = [[frozenset(CentralizedEvaluator(net).results(q)) for q in queries]]
    deltas = []
    for keyword in sorted(net.all_keywords())[:3]:
        swap = manager.apply(keyword_flip(manager.state.network, keyword))
        delta = manager.state.delta_from(swap.changed_fragments)
        deltas.append((swap.epoch, list(delta.values())))
        oracle = CentralizedEvaluator(manager.state.network)
        answers.append([frozenset(oracle.results(q)) for q in queries])
    return queries, deltas, answers


def test_epochs_change_answers_on_several_fragments(built, epochs):
    """A blend is only visible if each epoch moves answers on ≥ 2 fragments."""
    _net, partition, _fragments, _indexes = built
    _queries, deltas, answers = epochs
    assert len(deltas) == 3
    for before, after in zip(answers, answers[1:]):
        moved = {
            partition.fragment_of(node)
            for old, new in zip(before, after)
            for node in old ^ new
        }
        assert len(moved) >= 2


def ha_over_handlers(fragments, indexes, routing):
    """An ``HACluster`` (m=4, R=2) and the in-process transport under it."""
    placement = ReplicaPlacement.chained(len(fragments), 4, 2)
    handlers = [
        WorkerHandler(
            *build_worker_runtimes("pickle", [(fragments[i], indexes[i]) for i in hosted])
        )
        for hosted in placement.assignments()
    ]
    transport = InProcessTransport(handlers)
    cluster = HACluster(
        transport, placement.assignments(), placement=placement, routing=routing
    )
    return cluster, transport


def run_schedule(seed, fragments, indexes, epochs):
    """Play one seeded schedule: ``(what went wrong or None, ha_stats)``."""
    queries, deltas, answers = epochs
    rng = random.Random(seed)
    cluster, transport = ha_over_handlers(
        fragments, indexes, ("load", "rr")[seed % 2]
    )
    fanned = [0]  # the newest epoch fanned out so far
    submitted = []  # (query index, future, live epochs: [at submit, at resolve])
    applies = []
    remaining = list(deltas)
    for _ in range(rng.randint(6, 30)):
        action = rng.choice(ACTIONS)
        if action == "query":
            index = rng.randrange(len(queries))
            pending = cluster.submit(queries[index])
            live = [fanned[0]]
            pending.future.add_done_callback(lambda _f, live=live: live.append(fanned[0]))
            submitted.append((index, pending.future, live))
        elif action == "apply" and remaining:
            epoch, replacements = remaining.pop(0)
            applies.append(cluster.submit_updates(epoch, replacements).future)
            fanned[0] = epoch
        elif action == "kill":
            cluster.kill_worker(rng.choice(SAFE_KILLS))
        elif action == "step":
            busy = [m for m, inbox in enumerate(transport.inboxes) if inbox]
            if busy:
                transport.step(rng.choice(busy))
    transport.run()
    problem = check_outcome(cluster, queries, answers, fanned[0], submitted, applies)
    return problem, cluster.ha_stats()


def check_outcome(cluster, queries, answers, fanned, submitted, applies):
    """Every future resolved, each answer at a live epoch, none stale after."""
    for future in applies:
        if not future.done():
            return "an apply never resolved"
        future.result()
    for index, future, live in submitted:
        if not future.done():
            return f"query {index} never resolved"
        response = future.result()
        allowed = answers[live[0]: live[1] + 1]
        if response.degraded or all(response.result_nodes != a[index] for a in allowed):
            return f"query {index} matches no epoch in {live[0]}..{live[1]}"
    for index, query in enumerate(queries):
        if cluster.execute(query).result_nodes != answers[fanned][index]:
            return f"query {index} is stale after the schedule"
    return None


def test_seeded_schedules_stay_exact(built, epochs):
    _net, _partition, fragments, indexes = built
    failures = {}
    reroutes = restarts = 0
    for seed in range(NUM_SEEDS):
        problem, stats = run_schedule(seed, fragments, indexes, epochs)
        if problem is not None:
            failures[seed] = problem
        reroutes += stats["reroutes"]
        restarts += stats["restarts"]
    assert not failures, f"{len(failures)} seeds failed, first: {min(failures.items())}"
    # The schedules reach both failover branches, not just the happy path.
    assert reroutes > 0 and restarts > 0
