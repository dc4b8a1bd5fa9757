"""Distributed epoch application: simulated and process clusters.

The contract under test: after ``apply_updates`` ships an epoch delta,
every cluster answers queries exactly as a centralized oracle on the
updated network — and on the pipelined cluster, queries concurrent with
the swap observe either the old epoch or the new one, never a torn mix.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro import sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.dist import SimulatedCluster
from repro.exceptions import ClusterError
from repro.live import AddKeyword, EpochManager, RemoveKeyword
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster
from repro.workloads import UpdateGenConfig, UpdateStreamGenerator

from helpers import make_random_network


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=650, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, partition, fragments, indexes


def swap_via_manager(built, seed: int, num_ops: int = 8):
    """One applied batch: (manager, swap, delta pairs for the cluster)."""
    net, partition, fragments, indexes = built
    manager = EpochManager(
        network=net,
        partition=partition,
        fragments=list(fragments),
        indexes=list(indexes),
    )
    gen = UpdateStreamGenerator(net, UpdateGenConfig(seed=seed))
    swap = manager.apply(gen.ops(num_ops))
    delta = manager.state.delta_from(swap.changed_fragments)
    return manager, swap, list(delta.values())


def probe_queries(network):
    keywords = sorted(network.all_keywords())[:2]
    for radius in (1.5, 4.0):
        yield sgkq(keywords, radius)


class TestSimulatedCluster:
    def test_apply_then_query_matches_oracle(self, built):
        _net, _partition, fragments, indexes = built
        manager, swap, replacements = swap_via_manager(built, seed=20)
        cluster = SimulatedCluster.from_fragments(fragments, indexes)
        report = cluster.apply_updates(swap.epoch, replacements)
        assert report["epoch"] == 1
        assert tuple(sorted(report["swapped_fragments"])) == swap.changed_fragments
        assert report["total_message_bytes"] > 0
        assert cluster.current_epoch == 1
        oracle = CentralizedEvaluator(manager.state.network)
        for query in probe_queries(manager.state.network):
            assert cluster.execute(query).result_nodes == oracle.results(query)

    def test_stale_epoch_rejected(self, built):
        _net, _partition, fragments, indexes = built
        _manager, swap, replacements = swap_via_manager(built, seed=21)
        cluster = SimulatedCluster.from_fragments(fragments, indexes)
        cluster.apply_updates(swap.epoch, replacements)
        with pytest.raises(ClusterError, match="epoch must advance"):
            cluster.apply_updates(swap.epoch, replacements)

    def test_subscriber_glue_applies_every_batch(self, built):
        """The CLI wiring: manager swaps fan straight into the cluster."""
        net, partition, fragments, indexes = built
        cluster = SimulatedCluster.from_fragments(fragments, indexes)
        manager = EpochManager(
            network=net,
            partition=partition,
            fragments=list(fragments),
            indexes=list(indexes),
        )
        manager.subscribe(
            lambda state, delta: cluster.apply_updates(state.epoch, list(delta.values()))
        )
        gen = UpdateStreamGenerator(net, UpdateGenConfig(seed=22))
        for batch in gen.batches(3, 5):
            manager.apply(batch)
        assert cluster.current_epoch == 3
        oracle = CentralizedEvaluator(manager.state.network)
        for query in probe_queries(manager.state.network):
            assert cluster.execute(query).result_nodes == oracle.results(query)


class TestProcessCluster:
    """Lockstep use of the process-cluster core: serial apply, then execute."""

    def test_apply_then_query_matches_oracle(self, built):
        net, _partition, fragments, indexes = built
        manager, swap, replacements = swap_via_manager(built, seed=23)
        old_oracle = CentralizedEvaluator(net)
        new_oracle = CentralizedEvaluator(manager.state.network)
        query = next(probe_queries(net))
        with PipelinedCluster.start(fragments, indexes, num_machines=4) as cluster:
            assert cluster.execute(query).result_nodes == old_oracle.results(query)
            report = cluster.apply_updates(swap.epoch, replacements)
            assert report["epoch"] == 1
            assert sorted(report["swapped_fragments"]) == list(swap.changed_fragments)
            assert report["wall_seconds"] > 0
            assert cluster.current_epoch == 1
            for probe in probe_queries(manager.state.network):
                assert cluster.execute(probe).result_nodes == new_oracle.results(probe)

    def test_fewer_machines_than_fragments(self, built):
        _net, _partition, fragments, indexes = built
        manager, swap, replacements = swap_via_manager(built, seed=24)
        new_oracle = CentralizedEvaluator(manager.state.network)
        with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
            cluster.apply_updates(swap.epoch, replacements)
            for probe in probe_queries(manager.state.network):
                assert cluster.execute(probe).result_nodes == new_oracle.results(probe)


class TestPipelinedCluster:
    def test_apply_then_query_matches_oracle(self, built):
        _net, _partition, fragments, indexes = built
        manager, swap, replacements = swap_via_manager(built, seed=25)
        new_oracle = CentralizedEvaluator(manager.state.network)
        with PipelinedCluster.start(fragments, indexes, num_machines=4) as cluster:
            report = cluster.apply_updates(swap.epoch, replacements)
            assert report["epoch"] == 1
            assert cluster.current_epoch == 1
            for probe in probe_queries(manager.state.network):
                assert cluster.execute(probe).result_nodes == new_oracle.results(probe)

    def test_stale_epoch_rejected(self, built):
        _net, _partition, fragments, indexes = built
        _manager, swap, replacements = swap_via_manager(built, seed=26)
        with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
            cluster.apply_updates(swap.epoch, replacements)
            with pytest.raises(ClusterError, match="epoch must advance"):
                cluster.submit_updates(swap.epoch, replacements)

    @pytest.mark.parametrize("use_shm", [False, True], ids=["pickled", "shm"])
    def test_queries_never_observe_torn_epoch(self, built, use_shm):
        """Satellite: concurrent queries see all-old or all-new, never a mix.

        The update flips every carrier of one keyword: the old and the
        new answer sets are disjoint, so any torn read (some machines on
        epoch 0, others on epoch 1) would surface as a blended result.
        Runs over both worker data planes — pickled runtimes and
        shared-memory segments — because the shm path swaps epochs by
        remapping arrays in place, which is exactly where a torn read
        would originate.
        """
        net, partition, fragments, indexes = built
        keyword = "w0"
        carriers = sorted(n for n in net.object_nodes() if keyword in net.keywords(n))
        others = sorted(n for n in net.object_nodes() if keyword not in net.keywords(n))
        assert carriers and len(others) >= 2
        flipped = others[:4]
        ops = [RemoveKeyword(n, keyword) for n in carriers] + [
            AddKeyword(n, keyword) for n in flipped
        ]
        manager = EpochManager(
            network=net,
            partition=partition,
            fragments=list(fragments),
            indexes=list(indexes),
        )
        # Radius below the minimum edge weight: the answer is exactly the
        # carrier set, which the flip replaces wholesale.
        query = sgkq([keyword], 0.01)
        old_answer = frozenset(carriers)
        new_answer = frozenset(flipped)

        observed: list[frozenset[int]] = []
        failures: list[str] = []
        stop = threading.Event()
        with PipelinedCluster.start(
            fragments, indexes, num_machines=4, use_shm=use_shm
        ) as cluster:
            assert cluster.execute(query).result_nodes == old_answer

            def _probe() -> None:
                while not stop.is_set():
                    try:
                        observed.append(
                            frozenset(
                                cluster.execute(query, timeout_seconds=30).result_nodes
                            )
                        )
                    except ClusterError as error:  # pragma: no cover
                        failures.append(str(error))
                        return

            threads = [threading.Thread(target=_probe) for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let queries pile into the pipes
            swap = manager.apply(ops)
            delta = manager.state.delta_from(swap.changed_fragments)
            cluster.apply_updates(swap.epoch, list(delta.values()))
            post = frozenset(cluster.execute(query).result_nodes)
            time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join()

        assert not failures, failures
        assert post == new_answer
        assert observed, "the probes never completed a query"
        for result in observed:
            assert result in (old_answer, new_answer), (
                f"torn epoch observed: {sorted(result)} is neither the old "
                f"{sorted(old_answer)} nor the new {sorted(new_answer)} answer"
            )

    def test_apply_completes_and_serves_after_worker_death(self, built):
        """Satellite: a dead worker degrades the apply, never hangs it."""
        _net, _partition, fragments, indexes = built
        manager, swap, replacements = swap_via_manager(built, seed=27)
        new_oracle = CentralizedEvaluator(manager.state.network)
        query = next(probe_queries(manager.state.network))
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=4)
        try:
            cluster._transport.processes[1].kill()
            for _ in range(100):
                if cluster.degraded:
                    break
                threading.Event().wait(0.05)
            assert cluster.degraded

            report = cluster.apply_updates(swap.epoch, replacements, timeout_seconds=30)
            assert report["epoch"] == 1
            assert cluster.current_epoch == 1
            # The survivors serve the new epoch (a subset of the full answer).
            response = cluster.execute(query, timeout_seconds=15)
            assert response.degraded
            assert response.result_nodes <= new_oracle.results(query)
        finally:
            cluster.shutdown()


def _devshm_has(name: str) -> bool:
    import os

    return os.path.exists(f"/dev/shm/{name}")


class TestSharedMemoryLifecycle:
    """Satellite: the shm data plane never leaks segments.

    Segment names are taken from the coordinator's
    ``SharedSegmentStore`` and checked against ``/dev/shm`` directly, so
    a leak shows up as an orphaned file the OS would keep until reboot.
    """

    def test_double_attach_is_idempotent(self, built):
        from repro.shm import ShmWorkerRuntimes, SharedSegmentStore

        _net, _partition, fragments, indexes = built
        store = SharedSegmentStore()
        manifest = store.publish(fragments[0], indexes[0], epoch=0)
        try:
            registry = ShmWorkerRuntimes()
            assert registry.attach([manifest]) == [fragments[0].fragment_id]
            first = registry.runtimes()[0]
            # Same manifest again: no re-map, no new runtime, no swap.
            assert registry.attach([manifest]) == []
            assert registry.runtimes()[0] is first
            assert len(registry.runtimes()) == 1
            registry.release_all()
            # Releasing the attach must not unlink the coordinator's segment.
            assert _devshm_has(manifest.name)
        finally:
            store.unlink_all()
        assert not _devshm_has(manifest.name)

    def test_epoch_swap_retires_superseded_segments(self, built):
        """Old-epoch segments are unlinked once every machine acks."""
        _net, _partition, fragments, indexes = built
        manager, swap, replacements = swap_via_manager(built, seed=28)
        new_oracle = CentralizedEvaluator(manager.state.network)
        with PipelinedCluster.start(
            fragments, indexes, num_machines=4, use_shm=True
        ) as cluster:
            store = cluster._shm_store
            assert store is not None
            before = set(store.segment_names())
            assert len(before) == len(fragments)
            assert all(_devshm_has(name) for name in before)

            cluster.apply_updates(swap.epoch, replacements)

            after = set(store.segment_names())
            # One live segment per fragment, with the changed fragments'
            # epoch-0 segments replaced and unlinked from /dev/shm.
            assert len(after) == len(fragments)
            retired = before - after
            assert len(retired) == len(swap.changed_fragments)
            assert all(not _devshm_has(name) for name in retired)
            assert all(_devshm_has(name) for name in after)
            for probe in probe_queries(manager.state.network):
                assert cluster.execute(probe).result_nodes == new_oracle.results(probe)
        # Shutdown unlinks every remaining segment.
        assert all(not _devshm_has(name) for name in before | after)

    def test_worker_crash_mid_query_leaks_no_segments(self, built):
        """A killed worker releases its leases; shutdown leaves /dev/shm clean."""
        _net, _partition, fragments, indexes = built
        query = next(probe_queries(_net))
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=4, use_shm=True)
        names: list[str] = []
        try:
            names = cluster._shm_store.segment_names()
            assert names and all(_devshm_has(name) for name in names)

            stop = threading.Event()

            def _hammer() -> None:
                while not stop.is_set():
                    try:
                        cluster.execute(query, timeout_seconds=10)
                    except ClusterError:
                        return  # degraded shed — the crash landed mid-query

            threads = [threading.Thread(target=_hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let queries reach the worker pipes
            cluster._transport.processes[2].kill()
            for _ in range(100):
                if cluster.degraded:
                    break
                time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join()
            assert cluster.degraded
            # Survivors still answer (possibly a subset) on shared pages.
            response = cluster.execute(query, timeout_seconds=15)
            assert response.degraded
        finally:
            cluster.shutdown()
        assert all(not _devshm_has(name) for name in names)
