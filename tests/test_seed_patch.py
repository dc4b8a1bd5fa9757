"""Seed-delta epoch apply: a keyword update ships seed-list patches.

Two contracts.  Kernel level: after any sequence of keyword batches, a
kernel that only ever received ``FragmentKernel.seed_patch`` patches has
the same three seed tables, array for array, as a kernel compiled fresh
from the maintained ``(fragment, index)``.  Cluster level: on every
process cluster with shared-memory workers, a keyword-only
``EpochManager.apply`` moves no segment and no lease, answers equal the
centralized oracle, and a later topology update republishes segments
that include the patches.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import threading
import time

import pytest

from repro import sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.kernel import FragmentKernel
from repro.ha import HACluster
from repro.live import AddKeyword, EpochManager, RemoveKeyword, SetEdgeWeight
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster

from helpers import make_random_network

VOCABULARY = ["w0", "w1", "w2", "w3"]


def build(seed: int, max_radius: float = math.inf):
    net = make_random_network(seed=seed, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=max_radius))
    return net, partition, fragments, indexes


def manager_over(net, partition, fragments, indexes) -> EpochManager:
    return EpochManager(
        network=net, partition=partition, fragments=list(fragments), indexes=list(indexes)
    )


def seed_tables(kernel: FragmentKernel):
    return kernel._kw_local, kernel._kw_portals, kernel._node_portals


def random_keyword_batch(rng: random.Random, network, size: int):
    """Adds and removes valid in sequence (no duplicate (node, keyword))."""
    objects = sorted(network.object_nodes())
    batch, used = [], set()
    while len(batch) < size:
        node, keyword = rng.choice(objects), rng.choice(VOCABULARY)
        if (node, keyword) in used:
            continue
        used.add((node, keyword))
        if keyword in network.keywords(node):
            batch.append(RemoveKeyword(node, keyword))
        else:
            batch.append(AddKeyword(node, keyword))
    return batch


class TestPatchedKernelEqualsFreshCompile:
    @pytest.mark.parametrize("seed, max_radius", [(650, math.inf), (651, 4.0), (652, 2.5)])
    def test_random_add_remove_sequence(self, seed, max_radius):
        net, partition, fragments, indexes = build(seed, max_radius)
        objects = sorted(net.object_nodes())
        # An index that lost one object's DL node entries (as a pruned or
        # NONE-policy index would): the first add on it re-creates them.
        entryless = next(n for n in objects if any(n in i.node_entries for i in indexes))
        for index in indexes:
            index.node_entries.pop(entryless, None)
        kernels = [FragmentKernel(f, i) for f, i in zip(fragments, indexes)]
        manager = manager_over(net, partition, fragments, indexes)
        scopes = []

        def patch(state, delta):
            assert delta.seed_keys is not None and set(delta.seed_keys) == set(delta)
            scopes.append(delta.seed_keys)
            for fragment_id, (fragment, index) in delta.items():
                shipped = FragmentKernel.seed_patch(fragment, index, delta.seed_keys[fragment_id])
                kernels[fragment_id].apply_seed_patch(pickle.loads(pickle.dumps(shipped)))

        manager.subscribe(patch)
        rng = random.Random(seed)
        solo = next(n for n in objects if n != entryless)
        absent = next(k for k in VOCABULARY if k not in net.keywords(entryless))
        batches = [
            [AddKeyword(entryless, absent)],  # creates DL node entries
            [AddKeyword(solo, "solo")],  # a keyword no fragment had
            [RemoveKeyword(solo, "solo")],  # ... and its last carrier goes
            *[random_keyword_batch(rng, net, rng.randint(1, 5)) for _ in range(8)],
        ]
        for batch in batches:
            swap = manager.apply(batch)
            assert swap.republished_fragments == ()
            state = manager.state
            for kernel, fragment, index in zip(kernels, state.fragments, state.indexes):
                assert seed_tables(kernel) == seed_tables(FragmentKernel(fragment, index))
        assert any(entryless in keys for keys in scopes[0].values())  # a node-entry key
        assert all("solo" not in k._kw_local and "solo" not in k._kw_portals for k in kernels)
        # Some fragment never carried "solo" locally: its patch deleted nothing.
        assert any("solo" in keys for keys in scopes[1].values())

    def test_edge_weight_batches_carry_no_seed_scope(self):
        net, partition, fragments, indexes = build(650)
        manager = manager_over(net, partition, fragments, indexes)
        deltas = []
        manager.subscribe(lambda state, delta: deltas.append(delta))
        u, v, weight = next(iter(net.edges()))
        node = sorted(net.object_nodes())[0]
        swap = manager.apply([AddKeyword(node, "mixed"), SetEdgeWeight(u, v, weight * 2)])
        assert deltas[0].seed_keys is None
        assert swap.republished_fragments == swap.changed_fragments != ()
        assert swap.to_dict()["republished_fragments"] == list(swap.changed_fragments)


def _pipelined(fragments, indexes):
    return PipelinedCluster.start(fragments, indexes, num_machines=2, use_shm=True)


def _ha(fragments, indexes):
    return HACluster.start(
        fragments, indexes, num_machines=3, replication_factor=2, use_shm=True
    )


def assert_matches_oracle(cluster, network, keywords=("w0", "w1", "w2")):
    oracle = CentralizedEvaluator(network)
    for keyword in keywords:
        for radius in (0.01, 1.5, 4.0):
            query = sgkq([keyword], radius)
            assert cluster.execute(query).result_nodes == oracle.results(query), (keyword, radius)


def keyword_batch(network, fresh: str):
    objects = sorted(network.object_nodes())
    carrier = next(n for n in objects if "w0" in network.keywords(n))
    return [AddKeyword(objects[0], fresh), AddKeyword(objects[-1], fresh), RemoveKeyword(carrier, "w0")]


@pytest.mark.parametrize("start", [_pipelined, _ha], ids=["pipelined", "ha"])
class TestKeywordEpochsMoveNoSegment:
    def test_keyword_apply_patches_then_topology_apply_republishes(self, start):
        net, partition, fragments, indexes = build(650)
        manager = manager_over(net, partition, fragments, indexes)
        with start(fragments, indexes) as cluster:
            manager.bind_cluster(cluster)
            store = cluster._shm_store
            names, leases = sorted(store.segment_names()), store.leases_snapshot()
            listing = set(os.listdir("/dev/shm"))

            for epoch, fresh in enumerate(("fresh-a", "fresh-b"), start=1):
                swap = manager.apply(keyword_batch(manager.state.network, fresh))
                assert swap.epoch == cluster.current_epoch == epoch
                assert swap.republished_fragments == ()
                (ack,) = swap.cluster_acks
                assert ack["segments_published"] == 0
                assert ack["swapped_fragments"] == list(swap.changed_fragments)
                assert sorted(store.segment_names()) == names
                assert store.leases_snapshot() == leases
                assert not set(os.listdir("/dev/shm")) - listing  # nothing was created
                assert all(os.path.exists(f"/dev/shm/{name}") for name in names)
                assert_matches_oracle(cluster, manager.state.network, ("w0", "w1", fresh))

            # A topology update compiles fresh segments from the *current*
            # index, so the republished seed tables include both patches.
            u, v, weight = next(iter(net.edges()))
            swap = manager.apply([SetEdgeWeight(u, v, weight * 3)])
            assert swap.republished_fragments == swap.changed_fragments != ()
            assert swap.cluster_acks[0]["segments_published"] == len(swap.changed_fragments)
            after = sorted(store.segment_names())
            assert len(after) == len(names)
            assert len(set(names) - set(after)) == len(swap.changed_fragments)
            assert all(not os.path.exists(f"/dev/shm/{name}") for name in set(names) - set(after))
            for machine, held in store.leases_snapshot().items():
                for fragment_id, leased in held.items():
                    assert leased == (3 if fragment_id in swap.changed_fragments else 0)
            assert_matches_oracle(cluster, manager.state.network, ("w0", "fresh-a", "fresh-b"))
        assert not any(os.path.exists(f"/dev/shm/{name}") for name in names + after)

    def test_scopeless_apply_still_republishes(self, start):
        """``apply_updates(epoch, pairs)`` with no scope is the segment path."""
        net, partition, fragments, indexes = build(650)
        manager = manager_over(net, partition, fragments, indexes)
        with start(fragments, indexes) as cluster:
            names = set(cluster._shm_store.segment_names())
            swap = manager.apply(keyword_batch(net, "fresh"))
            pairs = list(manager.state.delta_from(swap.changed_fragments).values())
            report = cluster.apply_updates(swap.epoch, pairs)
            assert report["segments_published"] == len(swap.changed_fragments)
            assert len(names - set(cluster._shm_store.segment_names())) == len(pairs)
            assert_matches_oracle(cluster, manager.state.network, ("w0", "fresh"))


@pytest.mark.parametrize("start", [_pipelined, _ha], ids=["pipelined", "ha"])
def test_concurrent_queries_see_one_epoch_across_a_patch(start):
    """The flip of every ``w0`` carrier makes old and new answers disjoint,
    so a query that ran on patched and unpatched workers would blend them."""
    net, partition, fragments, indexes = build(650)
    manager = manager_over(net, partition, fragments, indexes)
    carriers = sorted(n for n in net.object_nodes() if "w0" in net.keywords(n))
    flipped = sorted(n for n in net.object_nodes() if "w0" not in net.keywords(n))[:4]
    ops = [RemoveKeyword(n, "w0") for n in carriers] + [AddKeyword(n, "w0") for n in flipped]
    query = sgkq(["w0"], 0.01)  # below the minimum edge weight: exactly the carriers
    observed, stop = [], threading.Event()

    def probe(cluster) -> None:
        while not stop.is_set():
            observed.append(frozenset(cluster.execute(query, timeout_seconds=30).result_nodes))

    with start(fragments, indexes) as cluster:
        manager.bind_cluster(cluster)
        threads = [threading.Thread(target=probe, args=(cluster,)) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.05)  # let queries pile into the pipes
            swap = manager.apply(ops)
            post = frozenset(cluster.execute(query).result_nodes)
            time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    assert swap.republished_fragments == ()
    assert post == frozenset(flipped)
    assert observed and set(observed) <= {frozenset(carriers), frozenset(flipped)}


def _wait_until(predicate, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestWorkerDeathAroundAPatch:
    def test_ha_survivor_answers_at_the_patched_epoch(self):
        net, partition, fragments, indexes = build(650)
        manager = manager_over(net, partition, fragments, indexes)
        with _ha(fragments, indexes) as cluster:
            manager.bind_cluster(cluster)
            manager.apply(keyword_batch(net, "fresh"))
            assert cluster.kill_worker(1)
            assert _wait_until(lambda: 1 in cluster.dead_machines)
            response = cluster.execute(sgkq(["fresh"], 1.5))
            assert not response.degraded
            assert_matches_oracle(cluster, manager.state.network, ("w0", "fresh"))
            # ... and the survivors keep taking patches.
            manager.apply(keyword_batch(manager.state.network, "fresh-2"))
            assert cluster.current_epoch == 2
            assert_matches_oracle(cluster, manager.state.network, ("w0", "fresh", "fresh-2"))

    @pytest.mark.parametrize("start", [_pipelined, _ha], ids=["pipelined", "ha"])
    def test_worker_dying_mid_patch_completes_the_apply(self, start):
        """No manifest was shipped, so the ack path must not look one up."""
        net, partition, fragments, indexes = build(650)
        manager = manager_over(net, partition, fragments, indexes)
        with start(fragments, indexes) as cluster:
            manager.bind_cluster(cluster)
            leases = cluster._shm_store.leases_snapshot()
            victim = cluster._transport.processes[1]
            os.kill(victim.pid, signal.SIGSTOP)  # the patch will sit in its pipe
            killer = threading.Timer(0.3, os.kill, (victim.pid, signal.SIGKILL))
            killer.start()
            try:
                applied = manager.apply(keyword_batch(net, "fresh"))
            finally:
                killer.join()
            assert applied.epoch == cluster.current_epoch == 1
            assert applied.cluster_acks and applied.cluster_acks[0]["segments_published"] == 0
            assert _wait_until(lambda: 1 in cluster.dead_machines)
            survivors = {m: held for m, held in leases.items() if m != 1}
            assert cluster._shm_store.leases_snapshot() == survivors
            oracle = CentralizedEvaluator(manager.state.network)
            query = sgkq(["fresh"], 1.5)
            response = cluster.execute(query, timeout_seconds=15)
            if isinstance(cluster, HACluster):
                assert response.result_nodes == oracle.results(query)
            else:  # the pipelined tier has no replica: survivors' share only
                assert response.degraded and response.result_nodes <= oracle.results(query)
