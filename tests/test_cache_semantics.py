"""Semantic result cache: canonicalization, subsumption, invalidation.

The load-bearing guarantee is *bit-identical answers cache-on vs
cache-off* across arbitrary interleavings of queries and live updates —
proven here by a hypothesis differential driving a real
:class:`EpochManager` against fragment runtimes, with the cache wired
exactly as the server wires it (refresh subscriber first, cache swap
subscriber last).  Subsumption-served answers flow through the same
assertion.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import SemanticResultCache, canonicalize, subsumes
from repro.cache.keys import filter_answer
from repro.cache.store import _entry_bytes
from repro.core import (
    FragmentRuntime,
    NPDBuildConfig,
    build_all_indexes,
    build_fragments,
    execute_fragment_task,
    parse_query,
)
from repro.core.executor import execute_fragment_task_explained
from repro.core.runs import as_run
from repro.live import AddKeyword, EpochManager, RemoveKeyword, SetEdgeWeight
from repro.partition import BfsPartitioner, MultilevelPartitioner
from repro.serve import PipelinedCluster
from repro.sub.registry import compute_scope
from repro.workloads.datasets import load_dataset

from helpers import make_random_network

KEYWORDS = ["w0", "w1", "w2", "w3"]
RADII = [0.0, 1.0, 2.0, 3.0, 5.0]


def build_deployment(seed: int = 911):
    """Fresh (network, manager, runtimes) — ``EpochManager.apply``
    mutates the network in place, so nothing here may be shared."""
    net = make_random_network(seed=seed, num_junctions=20, num_objects=10, vocabulary=4)
    partition = BfsPartitioner(seed=3).partition(net, 3)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    manager = EpochManager(
        network=net,
        partition=partition,
        fragments=list(fragments),
        indexes=list(indexes),
    )
    runtimes = {
        fragment.fragment_id: FragmentRuntime(fragment, index)
        for fragment, index in zip(fragments, indexes)
    }

    def refresh(state, delta):
        for fragment_id, (fragment, index) in delta.items():
            runtimes[fragment_id].refresh(fragment, index)

    manager.subscribe(refresh)
    return net, manager, runtimes


class Harness:
    """The server's cache discipline, without sockets.

    Miss → explained evaluation over every runtime → admit; the cache
    rides the manager's swap feed like the server's does.
    """

    def __init__(self, manager, runtimes, **cache_kwargs):
        self.runtimes = runtimes
        self.cache = SemanticResultCache(**cache_kwargs)
        self.cache.attach(manager)

    def direct(self, query):
        nodes = set()
        for runtime in self.runtimes.values():
            nodes |= execute_fragment_task(runtime, query).local_result
        return frozenset(nodes)

    def explained(self, query):
        """(answer, per-fragment distance maps) — what a miss admits."""
        partials, nodes = {}, set()
        for runtime in self.runtimes.values():
            result, explanations = execute_fragment_task_explained(runtime, query)
            partials[result.fragment_id] = explanations
            nodes |= result.local_result
        return frozenset(nodes), partials

    def cached(self, query):
        hit, ticket = self.cache.probe(query)
        if hit is not None:
            return hit.nodes, hit.kind
        answer, partials = self.explained(query)
        self.cache.admit(ticket, answer, partials)
        return answer, "miss"


def random_update(rng: random.Random, network):
    """One valid-in-sequence update op against the current network."""
    objects = [n for n in network.nodes() if network.is_object(n)]
    kind = rng.choice(["add", "remove", "edge", "edge"])
    if kind == "add":
        candidates = [
            (node, kw)
            for node in objects
            for kw in KEYWORDS
            if kw not in network.keywords(node)
        ]
        if candidates:
            node, kw = rng.choice(candidates)
            return AddKeyword(node, kw)
    if kind == "remove":
        candidates = [
            (node, kw) for node in objects for kw in network.keywords(node)
        ]
        if candidates:
            node, kw = rng.choice(candidates)
            return RemoveKeyword(node, kw)
    u, v, _w = rng.choice(list(network.edges()))
    return SetEdgeWeight(u, v, rng.choice([0.5, 1.0, 1.5, 2.5, 4.0]))


def random_expression(rng: random.Random) -> str:
    a, b, c = rng.sample(KEYWORDS, 3)
    ra, rb, rc = (rng.choice(RADII) for _ in range(3))
    shape = rng.randrange(6)
    if shape == 0:
        return f"NEAR({a}, {ra:g})"
    if shape == 1:
        return f"NEAR({a}, {ra:g}) AND NEAR({b}, {rb:g})"
    if shape == 2:
        return f"NEAR({a}, {ra:g}) OR NEAR({b}, {rb:g})"
    if shape == 3:
        return f"NEAR({a}, {ra:g}) NOT NEAR({b}, {rb:g})"
    if shape == 4:
        return f"NEAR({a}, {ra:g}) AND NEAR({b}, {rb:g}) AND NEAR({c}, {rc:g})"
    return f"HAS({a}) AND NEAR({b}, {rb:g})"


class TestCanonicalization:
    def test_commuted_and_shares_key(self):
        a = canonicalize(parse_query("NEAR(w0, 3) AND NEAR(w1, 5)"))
        b = canonicalize(parse_query("NEAR(w1, 5) AND NEAR(w0, 3)"))
        assert a.key == b.key

    def test_commuted_or_and_nested_chains_share_key(self):
        a = canonicalize(parse_query("NEAR(w0, 1) OR NEAR(w1, 2) OR NEAR(w2, 3)"))
        b = canonicalize(parse_query("NEAR(w2, 3) OR NEAR(w0, 1) OR NEAR(w1, 2)"))
        assert a.key == b.key

    def test_radii_distinguish_keys_but_not_shapes(self):
        a = canonicalize(parse_query("NEAR(w0, 3) AND NEAR(w1, 5)"))
        b = canonicalize(parse_query("NEAR(w0, 2) AND NEAR(w1, 5)"))
        assert a.key != b.key
        assert a.shape == b.shape

    def test_subtract_is_not_commutative(self):
        a = canonicalize(parse_query("NEAR(w0, 3) NOT NEAR(w1, 3)"))
        b = canonicalize(parse_query("NEAR(w1, 3) NOT NEAR(w0, 3)"))
        assert a.key != b.key

    def test_polarity_flips_under_subtract_and_double_negation(self):
        single = canonicalize(parse_query("NEAR(w0, 3) NOT NEAR(w1, 3)"))
        assert set(zip(single.polarities, single.radii)) == {(1, 3.0), (-1, 3.0)}
        double = canonicalize(
            parse_query("NEAR(w0, 3) NOT (NEAR(w1, 3) NOT NEAR(w2, 3))")
        )
        # w2 sits under two subtractions: positive again.
        assert sorted(double.polarities) == [-1, 1, 1]

    def test_keywords_and_radius_dependence(self):
        c = canonicalize(parse_query("HAS(w0) AND HAS(w1)"))
        assert c.keywords == {"w0", "w1"}
        assert not c.radius_dependent
        assert canonicalize(parse_query("NEAR(w0, 2)")).radius_dependent


class TestSubsumptionPredicate:
    def test_positive_radii_may_shrink(self):
        big = canonicalize(parse_query("NEAR(w0, 5) AND NEAR(w1, 4)"))
        small = canonicalize(parse_query("NEAR(w0, 3) AND NEAR(w1, 4)"))
        assert subsumes(big, small)
        assert not subsumes(small, big)

    def test_negative_radii_must_match_exactly(self):
        entry = canonicalize(parse_query("NEAR(w0, 5) NOT NEAR(w1, 4)"))
        shrunk = canonicalize(parse_query("NEAR(w0, 5) NOT NEAR(w1, 2)"))
        grown = canonicalize(parse_query("NEAR(w0, 5) NOT NEAR(w1, 5)"))
        same_neg = canonicalize(parse_query("NEAR(w0, 3) NOT NEAR(w1, 4)"))
        assert not subsumes(entry, shrunk)
        assert not subsumes(entry, grown)
        assert subsumes(entry, same_neg)

    def test_different_shapes_never_subsume(self):
        a = canonicalize(parse_query("NEAR(w0, 5) AND NEAR(w1, 5)"))
        b = canonicalize(parse_query("NEAR(w0, 3) OR NEAR(w1, 3)"))
        assert not subsumes(a, b)

    def test_filter_answer_is_exact_on_a_real_deployment(self):
        _net, manager, runtimes = build_deployment()
        harness = Harness(manager, runtimes)
        entry_query = parse_query("NEAR(w0, 5) OR NEAR(w1, 5)")
        probe_query = parse_query("NEAR(w1, 2) OR NEAR(w0, 2)")
        answer, kind = harness.cached(entry_query)
        assert kind == "miss"
        entry = canonicalize(entry_query)
        probe = canonicalize(probe_query)
        assert subsumes(entry, probe)
        merged: set[int] = set()
        for runtime in runtimes.values():
            _result, partial = execute_fragment_task_explained(
                runtime, entry_query
            )
            merged.update(filter_answer(entry, probe, partial))
        assert merged == harness.direct(probe_query)


class TestStoreMechanics:
    def _synthetic_admit(self, cache, expression, nodes=frozenset({1})):
        query = parse_query(expression)
        hit, ticket = cache.probe(query)
        assert hit is None
        run = as_run(nodes)
        partials = {0: (run, [array("d", [1.0]) * len(run) for _ in query.terms])}
        return cache.admit(ticket, frozenset(nodes), partials)

    def test_lru_evicts_oldest_entry(self):
        cache = SemanticResultCache(max_entries=2)
        for keyword in ("w0", "w1"):
            assert self._synthetic_admit(cache, f"NEAR({keyword}, 1)")
        assert cache.probe(parse_query("NEAR(w0, 1)"))[0] is not None  # refresh w0
        assert self._synthetic_admit(cache, "NEAR(w2, 1)")  # evicts w1
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1
        assert cache.probe(parse_query("NEAR(w1, 1)"))[0] is None
        assert cache.probe(parse_query("NEAR(w0, 1)"))[0] is not None

    def test_byte_budget_bounds_the_store(self):
        cache = SemanticResultCache(max_entries=100, max_bytes=2000)
        for keyword in KEYWORDS:
            self._synthetic_admit(cache, f"NEAR({keyword}, 1)", frozenset(range(20)))
        stats = cache.stats()
        assert stats["bytes"] <= 2000
        assert stats["evictions"] > 0

    def test_oversize_entries_are_never_admitted(self):
        cache = SemanticResultCache(max_bytes=300)
        assert not self._synthetic_admit(cache, "NEAR(w0, 1)", frozenset(range(50)))
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["oversize_rejects"] == 1

    def test_stale_ticket_is_rejected_after_a_swap(self):
        _net, manager, runtimes = build_deployment()
        harness = Harness(manager, runtimes)
        query = parse_query("NEAR(w0, 3)")
        _hit, ticket = harness.cache.probe(query)
        assert ticket is not None
        target = next(
            node
            for node in manager.state.network.nodes()
            if manager.state.network.is_object(node)
            and "w3" not in manager.state.network.keywords(node)
        )
        manager.apply([AddKeyword(target, "w3")])  # epoch moves mid-flight
        assert not harness.cache.admit(ticket, frozenset(), {})
        assert harness.cache.stats()["stale_rejects"] == 1
        assert harness.cache.stats()["epoch"] == 1

    def test_keyword_churn_evicts_only_matching_entries(self):
        _net, manager, runtimes = build_deployment()
        harness = Harness(manager, runtimes)
        harness.cached(parse_query("NEAR(w0, 2)"))
        harness.cached(parse_query("NEAR(w1, 2)"))
        network = manager.state.network
        target = next(
            node
            for node in network.nodes()
            if network.is_object(node) and "w0" not in network.keywords(node)
        )
        manager.apply([AddKeyword(target, "w0")])
        stats = harness.cache.stats()
        assert stats["invalidations"] == 1  # only the w0 entry
        assert harness.cache.probe(parse_query("NEAR(w1, 2)"))[0] is not None
        assert harness.cache.probe(parse_query("NEAR(w0, 2)"))[0] is None

    def test_topology_change_spares_pure_has_entries(self):
        _net, manager, runtimes = build_deployment()
        harness = Harness(manager, runtimes)
        harness.cached(parse_query("HAS(w0)"))
        harness.cached(parse_query("NEAR(w0, 3)"))
        u, v, _w = next(iter(manager.state.network.edges()))
        manager.apply([SetEdgeWeight(u, v, 2.5)])
        assert harness.cache.probe(parse_query("HAS(w0)"))[0] is not None
        assert harness.cache.probe(parse_query("NEAR(w0, 3)"))[0] is None
        # ... and the surviving HAS entry is still correct.
        answer, kind = harness.cached(parse_query("HAS(w0)"))
        assert kind == "exact"
        assert answer == harness.direct(parse_query("HAS(w0)"))

    def test_subsumption_can_be_disabled(self):
        _net, manager, runtimes = build_deployment()
        harness = Harness(manager, runtimes, subsumption=False)
        harness.cached(parse_query("NEAR(w0, 5)"))
        answer, kind = harness.cached(parse_query("NEAR(w0, 2)"))
        assert kind == "miss"
        assert answer == harness.direct(parse_query("NEAR(w0, 2)"))
        stats = harness.cache.stats()  # two computed entries, nothing derived
        assert stats["subsumption_hits"] == 0 and stats["inserts"] == stats["misses"] == 2


class TestDerivedEntries:
    """A subsumption hit stores its filtered answer under the probe's key."""

    WIDE, MID, NARROW = "NEAR(w0, 5)", "NEAR(w0, 3)", "NEAR(w0, 2)"

    def _derived(self, wide=WIDE, narrow=NARROW, **cache_kwargs):
        _net, manager, runtimes = build_deployment()
        harness = Harness(manager, runtimes, **cache_kwargs)
        assert harness.cached(parse_query(wide))[1] == "miss"
        answer, kind = harness.cached(parse_query(narrow))
        assert kind == "subsumption"
        assert answer == harness.direct(parse_query(narrow))
        return manager, harness

    def test_filter_runs_once_then_reads_are_exact_hits(self):
        _manager, harness = self._derived()
        before = harness.cache.stats()
        for _ in range(3):
            answer, kind = harness.cached(parse_query(self.NARROW))
            assert kind == "exact"
            assert answer == harness.direct(parse_query(self.NARROW))
        stats = harness.cache.stats()
        assert stats["entries"] == 2 and stats["inserts"] == 2
        assert stats["subsumption_hits"] == before["subsumption_hits"] == 1
        assert stats["hits"] == before["hits"] + 3

    def test_counts_toward_the_budgets_and_can_be_the_lru_victim(self):
        _manager, harness = self._derived(max_entries=2)
        cache = harness.cache
        narrow_size = 256 + 16 * len(harness.direct(parse_query(self.NARROW)))
        wide_only = SemanticResultCache()
        hit, ticket = wide_only.probe(parse_query(self.WIDE))
        assert hit is None
        wide_only.admit(ticket, *harness.explained(parse_query(self.WIDE)))
        assert cache.stats()["bytes"] == wide_only.stats()["bytes"] + narrow_size
        assert harness.cached(parse_query(self.WIDE))[1] == "exact"  # derived is now LRU
        harness.cached(parse_query("NEAR(w1, 1)"))
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1
        # The victim was the derived entry: its shape is derived afresh.
        assert harness.cached(parse_query(self.NARROW))[1] == "subsumption"
        assert cache.stats()["subsumption_hits"] == 2

    def test_is_never_a_subsumption_source(self):
        _manager, harness = self._derived(narrow=self.MID, max_entries=2)
        assert harness.cached(parse_query(self.MID))[1] == "exact"  # the parent is now LRU
        harness.cached(parse_query("NEAR(w1, 1)"))  # ... and is evicted
        assert harness.cache.probe(parse_query(self.WIDE))[0] is None
        # MID subsumes NARROW by radius, but holds no distances to filter.
        answer, kind = harness.cached(parse_query(self.NARROW))
        assert kind == "miss"
        assert answer == harness.direct(parse_query(self.NARROW))

    @pytest.mark.parametrize(
        "keywords, in_scope, topology, evicted",
        [
            (("w0",), True, False, True),  # same keyword, intersecting scope
            (("w0",), False, False, False),  # same keyword, elsewhere
            (("w1",), True, False, False),  # another keyword
            ((), True, True, True),  # topology change
        ],
    )
    def test_evicted_exactly_when_its_parent_is(self, keywords, in_scope, topology, evicted):
        net, manager, runtimes = build_deployment()
        state = manager.state
        # A node-source restriction gives the pair a proper fragment scope.
        scoped = [
            (node, scope)
            for node in net.nodes()
            for scope in [
                compute_scope(
                    parse_query(f"WITHIN(0.01 OF #{node}) AND NEAR(w0, 5)"),
                    state.fragments, state.indexes,
                )
            ]
            if scope and len(scope) < len(state.fragments)
        ]
        node, scope = scoped[0]
        wide = f"WITHIN(0.01 OF #{node}) AND NEAR(w0, 5)"
        narrow = f"WITHIN(0.01 OF #{node}) AND NEAR(w0, 2)"
        harness = Harness(manager, runtimes)
        harness.cached(parse_query(wide))
        assert harness.cached(parse_query(narrow))[1] == "subsumption"
        outside = set(range(len(state.fragments))) - scope
        swap = SimpleNamespace(
            epoch=1,
            topology_changed=topology,
            changed_keywords=keywords,
            changed_fragments=tuple(sorted(scope if in_scope else outside)),
        )
        harness.cache.on_swap(state, {}, swap)
        for expression in (wide, narrow):
            hit, _ticket = harness.cache.probe(parse_query(expression))
            assert (hit is None) == evicted, expression
            assert hit is None or hit.kind == "exact"
        assert harness.cache.stats()["invalidations"] == (2 if evicted else 0)

    def test_is_not_served_across_a_swap_that_changes_its_answer(self):
        manager, harness = self._derived()
        network = manager.state.network
        before = harness.direct(parse_query(self.NARROW))
        target = next(
            node
            for node in network.nodes()
            if network.is_object(node) and node not in before
        )
        manager.apply([AddKeyword(target, "w0")])
        answer, kind = harness.cached(parse_query(self.NARROW))
        assert kind == "miss"  # parent and derived both went with the swap
        assert target in answer and answer == harness.direct(parse_query(self.NARROW))


class TestEntrySizeModel:
    def test_entry_bytes_cover_what_a_real_explain_entry_holds(self):
        """The byte budget bounds real memory: the size model charges at
        least what a stored entry occupies, measured with tracemalloc."""
        net = load_dataset("bri_tiny").network
        fragments = build_fragments(net, MultilevelPartitioner(seed=0).partition(net, 4))
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(lambda_factor=40.0))
        a, b, c = load_dataset("bri_tiny").frequent_keywords(3)
        radius = indexes[0].max_radius / 4
        query = parse_query(
            f"(NEAR({a}, {radius}) OR NEAR({b}, {radius})) NOT NEAR({c}, {radius / 2})"
        )
        cache = SemanticResultCache()
        with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
            _hit, ticket = cache.probe(query)
            response = cluster.execute(query, explain=True)
        assert cache.admit(ticket, response.result_run, response.partials)
        entry = cache._entries[ticket.canonical.key]
        assert len(entry.run) > 100 and entry.partials
        blob = pickle.dumps((entry.run, entry.partials))
        gc.collect()
        tracemalloc.start()
        try:
            stored = pickle.loads(blob)
            resident = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del stored
        assert _entry_bytes(entry.run, entry.partials) == entry.size_bytes >= resident


class TestDifferential:
    """cache-on ≡ cache-off over random query/update interleavings."""

    @settings(max_examples=110, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_random_interleavings_are_bit_identical(self, seed, data):
        _net, manager, runtimes = build_deployment(seed=911)
        harness = Harness(manager, runtimes, max_entries=32)
        rng = random.Random(seed)
        steps = data.draw(st.lists(st.booleans(), min_size=8, max_size=24))
        for is_update in steps:
            if is_update:
                manager.apply([random_update(rng, manager.state.network)])
            else:
                query = parse_query(random_expression(rng))
                cached_answer, _kind = harness.cached(query)
                assert cached_answer == harness.direct(query)
        stats = harness.cache.stats()
        lookups = stats["hits"] + stats["subsumption_hits"] + stats["misses"]
        assert lookups == sum(1 for is_update in steps if not is_update)

    def test_seeded_interleavings_exercise_subsumption(self):
        """Deterministic sweep proving subsumption-served answers are
        compared too — radius ladders over repeated keyword pairs make
        subsumption hits certain."""
        total_subsumption = 0
        for seed in range(12):
            _net, manager, runtimes = build_deployment(seed=911)
            harness = Harness(manager, runtimes)
            rng = random.Random(seed)
            for step in range(30):
                if step % 7 == 6:
                    manager.apply([random_update(rng, manager.state.network)])
                    continue
                a, b = rng.sample(KEYWORDS[:3], 2)
                radius = rng.choice([5.0, 3.0, 2.0, 1.0])  # descending ladder
                op = rng.choice(["AND", "OR"])
                query = parse_query(f"NEAR({a}, {radius:g}) {op} NEAR({b}, 5)")
                cached_answer, _kind = harness.cached(query)
                assert cached_answer == harness.direct(query)
            total_subsumption += harness.cache.stats()["subsumption_hits"]
        assert total_subsumption > 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
