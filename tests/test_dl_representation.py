"""The packed DL representation: what a value list is, costs and shares.

Every DL value list is one ``(array('q') portals, array('d') distances)``
pair (``repro.core.npd.ValueList``).  These tests pin the layout, its
resident cost, the unchanged on-disk format, pair-counting size
accounting, and that nothing writes into a list another epoch or a
kernel may still read.
"""

from __future__ import annotations

import gc
import hashlib
import math
import pickle
import random
import tracemalloc
from array import array

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.kernel import FragmentKernel
from repro.core.npd import DLNodePolicy, NPDIndex
from repro.core.queries import sgkq
from repro.live import AddKeyword, EpochManager, RemoveKeyword, SetEdgeWeight
from repro.partition import BfsPartitioner, MultilevelPartitioner
from repro.storage.index_files import index_file_size, read_index_file, write_index_file
from repro.workloads.datasets import load_dataset

from helpers import make_random_network

# sha256 of the uncompressed index file of ``fixed_index()`` as written
# before value lists were packed: the format must not move.
FIXED_INDEX_SHA256 = "7b0c6c74734ace14ea65cdda7e78546a34a32b7423816f9f6d6eafbfdb758d9d"


def fixed_index() -> NPDIndex:
    index = NPDIndex(fragment_id=3, max_radius=40.0, node_policy=DLNodePolicy.OBJECTS)
    index.add_shortcut(2, 1, 1.5)
    index.add_shortcut(2, 5, 2.25)
    index.seal(
        {"cafe": [(2, 3.0), (1, 0.5), (5, 3.0)], "fuel": [(5, 1.25)]},
        {9: [(5, 2.0), (1, 2.0)], 11: [(2, 0.75)]},
    )
    return index


def all_value_lists(indexes):
    for index in indexes:
        for family in (index.keyword_entries, index.node_entries):
            yield from family.items()


def snapshot(indexes):
    """Every reachable DL array, by identity, with its contents copied."""
    return [
        (index.fragment_id, key, entry, (entry[0].tolist(), entry[1].tolist()))
        for index in indexes
        for family in (index.keyword_entries, index.node_entries)
        for key, entry in family.items()
    ]


def assert_unchanged(snap):
    for fragment_id, key, entry, (portals, distances) in snap:
        assert (entry[0].tolist(), entry[1].tolist()) == (portals, distances), (fragment_id, key)


class TestLayout:
    def test_value_lists_are_sorted_packed_arrays(self):
        net = make_random_network(seed=71, num_junctions=30, num_objects=14, vocabulary=5)
        fragments = build_fragments(net, BfsPartitioner(seed=2).partition(net, 3))
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
        lists = list(all_value_lists(indexes))
        assert lists
        for _key, (portals, distances) in lists:
            assert (portals.typecode, distances.typecode) == ("q", "d")
            assert len(portals) == len(distances) > 0
            assert len(set(portals)) == len(portals)  # one pair per portal
            pairs = list(zip(portals, distances))
            assert pairs == sorted(pairs, key=lambda pd: (pd[1], pd[0]))

    def test_seal_keeps_the_minimum_of_a_repeated_portal(self):
        index = fixed_index()
        portals, distances = index.keyword_entries["cafe"]
        assert (portals.tolist(), distances.tolist()) == ([1, 2, 5], [0.5, 3.0, 3.0])
        index.seal({"x": [(4, 2.0), (4, 1.0), (6, 1.5)]}, {})
        assert index.keyword_seeds("x", 1.5) == {4: 1.0, 6: 1.5}
        assert index.keyword_seeds("x", 0.5) == {}

    def test_bytes_retained_per_pair(self):
        """At most 32 B a pair resident; the per-pair objects took ~100+."""
        net = load_dataset("bri_tiny").network
        fragments = build_fragments(net, MultilevelPartitioner(seed=0).partition(net, 4))
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(lambda_factor=40.0))
        # The same pairs ``build_all_indexes`` sealed, re-sealed under
        # tracing: what is retained is the DL storage alone (keys and
        # shortcuts were allocated before tracing began).
        lists = [
            (
                {kw: list(zip(*entry)) for kw, entry in index.keyword_entries.items()},
                {node: list(zip(*entry)) for node, entry in index.node_entries.items()},
            )
            for index in indexes
        ]
        expected = [index.size_summary() for index in indexes]
        pairs = sum(s["keyword_pairs"] + s["node_pairs"] for s in expected)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index, (keyword_lists, node_lists) in zip(indexes, lists):
                index.seal(keyword_lists, node_lists)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [index.size_summary() for index in indexes] == expected
        assert pairs > 10_000
        assert retained / pairs <= 32, retained / pairs


class TestFormatAndAccounting:
    def test_index_file_bytes_are_unchanged_and_load_back_equal(self, tmp_path):
        index = fixed_index()
        path = tmp_path / "fixed.idx"
        size = write_index_file(index, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXED_INDEX_SHA256
        assert size == index_file_size(index) == path.stat().st_size
        assert read_index_file(path) == index
        write_index_file(index, tmp_path / "fixed.z", compress=True)
        assert read_index_file(tmp_path / "fixed.z") == index

    def test_size_accounting_counts_pairs_not_arrays(self):
        index = fixed_index()
        assert len(index.keyword_entries["cafe"]) == 2  # a (portals, distances) pair
        assert index.alpha("cafe") == 3 and index.alpha("nope") == 0
        assert index.size_summary() == {
            "shortcuts": 2,
            "keyword_entries": 2,
            "keyword_pairs": 4,
            "node_entries": 2,
            "node_pairs": 3,
            "total_distances": 9,
        }
        assert index.num_recorded_distances == 9
        # 8-byte framing per record; 16 bytes a pair.
        header = 8 + 8 + 26
        sc = 8 + 4 + 2 * 24
        keyword = sum(8 + 1 + 2 + len(kw) + 4 + 16 * n for kw, n in (("cafe", 3), ("fuel", 1)))
        node = sum(8 + 1 + 8 + 4 + 16 * n for n in (2, 1))
        assert index_file_size(index) == header + sc + keyword + node


class TestNoWritesIntoSharedLists:
    def test_epochs_never_alias_through_the_arrays(self):
        net = make_random_network(seed=72, num_junctions=26, num_objects=12, vocabulary=4)
        partition = BfsPartitioner(seed=4).partition(net, 3)
        fragments = build_fragments(net, partition)
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=6.0))
        manager = EpochManager(
            network=net, partition=partition, fragments=list(fragments), indexes=list(indexes)
        )
        epoch_zero = list(manager.state.indexes)
        before = snapshot(epoch_zero)
        rng = random.Random(72)
        objects = sorted(net.object_nodes())
        for step in range(6):
            network = manager.state.network
            node = rng.choice(objects)
            present = sorted(network.keywords(node))
            absent = [kw for kw in ("w0", "w1", "w2", "w3", "fresh") if kw not in present]
            batch = [AddKeyword(node, rng.choice(absent))]
            if present:
                batch.append(RemoveKeyword(node, rng.choice(present)))
            if step % 3 == 2:
                u, v, weight = rng.choice(list(network.edges()))
                batch.append(SetEdgeWeight(u, v, weight * 1.5))
            manager.apply(batch)
        assert manager.state.epoch == 6
        assert_unchanged(before)
        assert snapshot(epoch_zero) == before  # same objects, same contents

    def test_kernels_never_write_into_index_arrays(self):
        net = make_random_network(seed=73, num_junctions=26, num_objects=12, vocabulary=4)
        partition = BfsPartitioner(seed=5).partition(net, 3)
        fragments = build_fragments(net, partition)
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
        before = snapshot(indexes)
        kernels = [FragmentKernel(f, i) for f, i in zip(fragments, indexes)]
        for kernel in kernels:
            for keyword in ("w0", "w1", "w2"):
                kernel.settle(sgkq([keyword], 3.0).terms[0])
        # Patches built straight from the index (the in-process path
        # shares its arrays) and ones that crossed a pipe.
        for kernel, fragment, index in zip(kernels, fragments, indexes):
            keys = set(index.keyword_entries) | set(index.node_entries)
            patch = FragmentKernel.seed_patch(fragment, index, keys)
            kernel.apply_seed_patch(patch)
            kernel.apply_seed_patch(pickle.loads(pickle.dumps(patch)))
            for keyword in ("w0", "w3"):
                kernel.settle(sgkq([keyword], 3.0).terms[0])
        assert_unchanged(before)
        assert all(isinstance(entry[1], array) for _fid, _key, entry, _c in before)
