"""Tests for NPD-index integrity validation."""

from __future__ import annotations

import dataclasses
import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    NPDBuildConfig,
    build_all_indexes,
    build_fragments,
    validate_index,
)
from repro.core.npd import DLNodePolicy
from repro.exceptions import IndexBuildError
from repro.partition import BfsPartitioner

from helpers import make_random_network


def build_case(seed: int = 900, max_radius: float = 5.0):
    net = make_random_network(seed=seed, num_junctions=20, num_objects=10, vocabulary=4)
    partition = BfsPartitioner(seed=seed).partition(net, 3)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=max_radius))
    return net, fragments, indexes


class TestValidIndexesPass:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_freshly_built_indexes_validate(self, seed):
        net, fragments, indexes = build_case(seed=seed)
        for fragment, index in zip(fragments, indexes):
            validate_index(fragment, index, network=net)

    def test_infinite_radius_indexes_validate(self):
        net, fragments, indexes = build_case(max_radius=math.inf)
        for fragment, index in zip(fragments, indexes):
            validate_index(fragment, index, network=net)

    def test_round_tripped_files_validate(self, tmp_path):
        from repro.storage import read_index_file, write_index_file

        net, fragments, indexes = build_case()
        path = tmp_path / "x.npd"
        write_index_file(indexes[0], path)
        validate_index(fragments[0], read_index_file(path), network=net)


class TestCorruptionDetected:
    def _fresh(self):
        return build_case(seed=901)

    def test_wrong_fragment_pairing(self):
        _net, fragments, indexes = self._fresh()
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], indexes[1])

    def test_foreign_shortcut_endpoint(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        outsider = next(iter(fragments[1].members))
        insider = next(iter(fragments[0].portals))
        index.shortcuts[(min(outsider, insider), max(outsider, insider))] = 1.0
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], index)

    def test_overweight_shortcut(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        if not index.shortcuts:
            pytest.skip("no shortcuts in this fixture")
        key = next(iter(index.shortcuts))
        index.shortcuts[key] = index.max_radius * 2
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], index)

    def test_unsorted_dl_entry(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        keyword = next(iter(index.keyword_entries))
        portals, distances = index.keyword_entries[keyword]
        if len(portals) < 2:
            ends = sorted(fragments[0].portals)[:2]
            pairs = (array("q", [ends[0], ends[-1]]), array("d", [2.0, 1.0]))
        else:
            pairs = (array("q", reversed(portals)), array("d", reversed(distances)))
        index.keyword_entries[keyword] = pairs
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], index)

    def test_non_portal_dl_reference(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        non_portal = next(
            n for n in fragments[0].members if n not in fragments[0].portals
        )
        index.keyword_entries["bogus"] = (array("q", [non_portal]), array("d", [1.0]))
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], index)

    def test_node_entry_for_member(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        member_portal = next(iter(fragments[0].portals))
        index.node_entries[next(iter(fragments[0].members))] = (
            array("q", [member_portal]),
            array("d", [1.0]),
        )
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], index)

    def test_policy_none_with_node_entries(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        stripped = dataclasses.replace(index, node_policy=DLNodePolicy.NONE)
        if stripped.node_entries:
            with pytest.raises(IndexBuildError):
                validate_index(fragments[0], stripped)

    def test_tampered_distance_caught_by_spot_check(self):
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        if not index.shortcuts:
            pytest.skip("no shortcuts in this fixture")
        key = next(iter(index.shortcuts))
        index.shortcuts[key] = index.shortcuts[key] * 0.5  # now an underestimate
        with pytest.raises(IndexBuildError):
            validate_index(fragments[0], index, network=net, spot_check_samples=1000)

    def test_structural_pass_without_network(self):
        """Spot checks are skipped without the network (worker-side mode)."""
        net, fragments, indexes = self._fresh()
        index = indexes[0]
        if not index.shortcuts:
            pytest.skip("no shortcuts in this fixture")
        key = next(iter(index.shortcuts))
        index.shortcuts[key] = index.shortcuts[key] * 0.5
        validate_index(fragments[0], index)  # structure alone cannot see it
