"""Differential tests: the packed FragmentKernel vs the dict reference.

The kernel's contract is *bit-identical distance maps* — same nodes,
same float distances — on every fragment, term and graph shape, and the
same node set whether its settled state is read as a distance map or as
a bitmask turned into a sorted run.  These tests pin both views to
:func:`repro.core.coverage.reference_distance_map` (Alg. 2 over dicts,
searched by :func:`repro.search.dijkstra.shortest_path_distances`),
and fragment tasks to the D-function evaluated over its sets, over randomized
networks, directed and undirected, including tie-heavy integer weights
where many nodes sit at exactly the same distance, and the
``radius == maxR`` boundary where the ``nd <= bound`` semantics decide
the frontier.
"""

from __future__ import annotations

import dataclasses
import math
import random
from array import array
from math import inf, nextafter

import pytest

from repro import DisksEngine, EngineConfig, sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.coverage import (
    CoverageStats,
    FragmentRuntime,
    batch_distance_maps,
    local_distance_map,
    reference_distance_map,
)
from repro.core.dfunction import intersect, subtract, term as leaf, union
from repro.core.executor import (
    FragmentTaskResult,
    execute_fragment_task,
    execute_fragment_task_explained,
)
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource, QClassQuery
from repro.exceptions import QueryError
from repro.graph.build import RoadNetworkBuilder
from repro.partition import BfsPartitioner

from helpers import make_random_network


def make_tie_network(seed: int, directed: bool = False):
    """A connected network whose weights are all 1.0 or 2.0.

    Integer weights make shortest-path ties ubiquitous and put many
    nodes at *exactly* the query radius, which is what the boundary
    (``nd <= bound``) and tie-ordering tests need.
    """
    rng = random.Random(seed)
    total = 30
    builder = RoadNetworkBuilder(directed=directed)
    vocab = [f"w{i}" for i in range(4)]
    for node in range(total):
        pos = (rng.uniform(0, 10), rng.uniform(0, 10))
        if node % 3 == 0:
            builder.add_object([rng.choice(vocab), rng.choice(vocab)], pos)
        else:
            builder.add_junction(pos)
    order = list(range(total))
    rng.shuffle(order)
    for i in range(1, total):
        u, v = order[i], order[rng.randrange(i)]
        w = float(rng.choice((1, 2)))
        builder.add_edge(u, v, w, keep_min=True)
        if directed:
            builder.add_edge(v, u, w, keep_min=True)
    for u in range(total):
        for v in range(u + 1, total):
            if rng.random() < 0.12 and not builder.has_edge(u, v):
                builder.add_edge(u, v, float(rng.choice((1, 2))))
                if directed:
                    builder.add_edge(v, u, float(rng.choice((1, 2))))
    return builder.build()


def build_runtime_trios(net, num_fragments: int, max_radius: float, seed: int = 1):
    """(reference, bucket kernel, heap kernel) runtimes per fragment.

    The reference runtime is only read by :func:`reference_distance_map`.
    The kernel has two settle loops — the bounded bucket queue
    (default whenever ``radius/δ`` is small enough) and the binary-heap
    fallback.  Every differential sweep pins *both* to the reference, so
    the fallback cannot rot unexercised.
    """
    partition = BfsPartitioner(seed=seed).partition(net, num_fragments)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=max_radius))
    trios = []
    for fragment, index in zip(fragments, indexes):
        reference = FragmentRuntime(fragment, index)
        bucketed = FragmentRuntime(fragment, index)
        heap_forced = FragmentRuntime(fragment, index)
        heap_forced.kernel.bucket_limit = 0  # force the heap fallback
        trios.append((reference, bucketed, heap_forced))
    return trios


def assert_term_parity(reference: FragmentRuntime, compiled_variants, term):
    """One term, every evaluator: identical maps AND identical counters.

    Both views of the kernel's one settled state are checked: the
    derived distance dict, and the mask turned into a sorted run.
    """
    ref_stats = CoverageStats()
    ref_map = reference_distance_map(reference, term, ref_stats)
    for compiled in compiled_variants:
        kern_stats = CoverageStats()
        kern_map = local_distance_map(compiled, term, kern_stats)
        assert kern_map == ref_map  # exact float equality, not approx
        assert kern_stats == ref_stats
        kernel = compiled.kernel
        marks, dist, count = kernel.settle(term)
        assert count == marks.count(1) == len(ref_map)
        run = kernel.run(kernel.mask(marks))
        assert isinstance(run, array) and run.typecode == "Q"
        assert run.tolist() == sorted(ref_map)
        assert kernel.distances(marks, dist) == ref_map
    return ref_map


def reference_task(reference: FragmentRuntime, query):
    """A fragment task by the reference: ``(result, (run, columns))``.

    Each distinct term is settled once, as the executor does; the
    D-function runs over node sets, and a column holds
    ``nextafter(radius, inf)`` where a node lies outside the term.
    """
    stats = CoverageStats()
    maps: dict = {}
    for term in query.terms:
        if term not in maps:
            maps[term] = reference_distance_map(reference, term, stats)
    found = [maps[term] for term in query.terms]
    run = array("Q", sorted(query.expression.evaluate([set(m) for m in found])))
    columns = [
        array("d", [m.get(node, nextafter(term.radius, inf)) for node in run])
        for m, term in zip(found, query.terms)
    ]
    sizes = tuple(len(m) for m in found)
    result = FragmentTaskResult(reference.fragment.fragment_id, run, sizes, 0.0, stats)
    return result, (run, columns)


def assert_task_parity(reference: FragmentRuntime, compiled_variants, query):
    """One query, every evaluator: same run, sizes, counters, explanations."""
    expected, expected_explained = reference_task(reference, query)
    for compiled in compiled_variants:
        got = execute_fragment_task(compiled, query)
        assert got.run == expected.run  # the sorted run, element for element
        assert got.local_result == expected.local_result
        assert got.coverage_sizes == expected.coverage_sizes
        assert got.stats == expected.stats
        explained_result, explained = execute_fragment_task_explained(compiled, query)
        assert explained_result.run == expected.run
        assert explained == expected_explained
    return expected


class TestKernelDifferential:
    """Property-style sweep: random graphs × random terms, both paths."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_networks_distance_map_parity(self, seed: int, directed: bool):
        net = make_random_network(
            seed=900 + seed,
            num_junctions=24,
            num_objects=12,
            vocabulary=5,
            directed=directed,
        )
        trios = build_runtime_trios(net, 3, max_radius=math.inf, seed=seed)
        rng = random.Random(seed)
        nodes = list(net.nodes())
        terms = [
            CoverageTerm(KeywordSource(f"w{k}"), rng.uniform(0.25, 8.0))
            for k in range(5)
        ] + [CoverageTerm(NodeSource(rng.choice(nodes)), rng.uniform(0.25, 8.0)) for _ in range(5)]
        queries = [
            QClassQuery(tuple(terms[:3]), intersect(leaf(0), union(leaf(1), leaf(2)))),
            QClassQuery(tuple(terms[2:6]), subtract(union(leaf(0), leaf(3)), subtract(leaf(1), leaf(2)))),
            QClassQuery((terms[0], terms[7], terms[0]), subtract(leaf(0), intersect(leaf(1), leaf(2)))),
        ]
        for reference, *variants in trios:
            for term in terms:
                assert_term_parity(reference, variants, term)
            for query in queries:
                assert_task_parity(reference, variants, query)

    @pytest.mark.parametrize("directed", [False, True])
    def test_tie_heavy_weights_parity(self, directed: bool):
        net = make_tie_network(seed=42, directed=directed)
        trios = build_runtime_trios(net, 3, max_radius=math.inf)
        for radius in (1.0, 2.0, 3.0, 4.0, 5.0):
            for k in range(4):
                term = CoverageTerm(KeywordSource(f"w{k}"), radius)
                for reference, *variants in trios:
                    assert_term_parity(reference, variants, term)
            query = QClassQuery(
                tuple(CoverageTerm(KeywordSource(f"w{k}"), radius) for k in range(3)),
                subtract(intersect(leaf(0), leaf(1)), leaf(2)),
            )
            for reference, *variants in trios:
                assert_task_parity(reference, variants, query)

    @pytest.mark.parametrize("directed", [False, True])
    def test_radius_equals_max_radius_boundary(self, directed: bool):
        """radius == maxR settles the same frontier in both paths.

        Integer weights guarantee nodes at *exactly* the bound, so this
        exercises the inclusive ``nd <= bound`` edge rather than passing
        vacuously.
        """
        max_radius = 4.0
        net = make_tie_network(seed=7, directed=directed)
        trios = build_runtime_trios(net, 2, max_radius=max_radius)
        saw_boundary_node = False
        for k in range(4):
            term = CoverageTerm(KeywordSource(f"w{k}"), max_radius)
            for reference, *variants in trios:
                ref_map = assert_term_parity(reference, variants, term)
                if any(d == max_radius for d in ref_map.values()):
                    saw_boundary_node = True
        assert saw_boundary_node  # the bound was actually reached
        query = QClassQuery(
            tuple(CoverageTerm(KeywordSource(f"w{k}"), max_radius) for k in range(2)),
            union(leaf(0), leaf(1)),
        )
        for reference, *variants in trios:
            assert_task_parity(reference, variants, query)

    def test_node_source_inside_and_outside_fragment(self):
        net = make_random_network(seed=913, num_junctions=24, num_objects=12, vocabulary=4)
        trios = build_runtime_trios(net, 3, max_radius=math.inf)
        nodes = sorted(net.nodes())
        for reference, *variants in trios:
            members = reference.fragment.members
            inside = next(n for n in nodes if n in members)
            outside = next(n for n in nodes if n not in members)
            for node in (inside, outside):
                for radius in (0.0, 1.5, 6.0):
                    term = CoverageTerm(NodeSource(node), radius)
                    assert_term_parity(reference, variants, term)
                    query = QClassQuery(
                        (term, CoverageTerm(KeywordSource("w0"), 0.0)), intersect(leaf(0), leaf(1))
                    )
                    assert_task_parity(reference, variants, query)

    def test_unknown_keyword_is_empty_on_both_paths(self):
        net = make_random_network(seed=914, num_junctions=20, num_objects=10, vocabulary=3)
        trios = build_runtime_trios(net, 2, max_radius=math.inf)
        term = CoverageTerm(KeywordSource("no-such-keyword"), 3.0)
        other = CoverageTerm(KeywordSource("w0"), 3.0)
        for reference, *variants in trios:
            assert assert_term_parity(reference, variants, term) == {}
            for kernel in (variant.kernel for variant in variants):
                # No seed: the shared empty state, no scratch allocated.
                assert kernel.settle(term) is kernel.settle(term)
                assert kernel.run(0) is kernel.run(0)
            empty = assert_task_parity(
                reference, variants, QClassQuery((term, other), intersect(leaf(0), leaf(1)))
            )
            assert not empty.run
            assert_task_parity(
                reference, variants, QClassQuery((other, term), subtract(leaf(0), leaf(1)))
            )


class TestKernelMechanics:
    def _runtime(self, *, reference: bool = False, seed: int = 915):
        net = make_random_network(seed=seed, num_junctions=24, num_objects=12, vocabulary=4)
        trios = build_runtime_trios(net, 2, max_radius=math.inf)
        return trios[0][0] if reference else trios[0][1]

    def test_scratch_reuse_across_many_terms(self):
        """Hundreds of back-to-back searches on one kernel stay exact.

        The bucket array is the only state shared between searches; it
        must be empty after each one, whichever loop ran.  ``marks`` and
        ``dist`` are per search, so an earlier result is never disturbed.
        """
        compiled = self._runtime()
        reference = self._runtime(reference=True)
        kernel = compiled.kernel
        rng = random.Random(0)
        terms = [
            CoverageTerm(KeywordSource(f"w{rng.randrange(4)}"), rng.uniform(0.1, 9.0))
            for _ in range(200)
        ]
        first = kernel.settle(terms[0])
        snapshot = (bytes(first[0]), list(first[1]))
        limit = kernel.bucket_limit
        for i, term in enumerate(terms):
            kernel.bucket_limit = 0 if i % 3 == 2 else limit  # interleave the heap loop
            assert local_distance_map(compiled, term) == reference_distance_map(reference, term)
            assert all(not bucket for bucket in kernel._buckets)
        assert (bytes(first[0]), list(first[1])) == snapshot

    def test_csr_layout_is_consistent(self):
        kernel = self._runtime().kernel
        indptr = kernel.indptr
        assert indptr[0] == 0
        assert list(indptr) == sorted(indptr)  # monotone row offsets
        assert len(kernel.indices) == len(kernel.weights) == indptr[-1]
        assert all(0 <= v < kernel.num_nodes for v in kernel.indices)
        cells = kernel.memory_cells()
        assert cells["scratch_cells"] == 2 * kernel.num_nodes

    def test_batch_matches_per_term_and_memoises_duplicates(self):
        compiled = self._runtime()
        t1 = CoverageTerm(KeywordSource("w0"), 3.0)
        t2 = CoverageTerm(KeywordSource("w1"), 2.0)
        terms = [t1, t2, t1]  # duplicate first term
        stats = CoverageStats()
        maps = batch_distance_maps(compiled, terms, stats)
        fresh = self._runtime()
        once = CoverageStats()
        assert maps[0] == maps[2] == local_distance_map(fresh, t1, once)
        assert maps[1] == local_distance_map(fresh, t2, once)
        assert stats == once  # only two searches ran: the duplicate was memoised

    def test_bucket_path_self_drains_and_heap_fallback_matches(self):
        """Default path uses (and drains) the bucket array; fallback agrees."""
        net = make_tie_network(seed=21)  # δ = 1.0, so buckets always apply
        reference, bucketed, _ = build_runtime_trios(net, 2, max_radius=math.inf)[0]
        kernel = bucketed.kernel
        term = CoverageTerm(KeywordSource("w0"), 5.0)
        expected = reference_distance_map(reference, term)
        assert kernel.distances(*kernel.settle(term)[:2]) == expected
        assert len(kernel._buckets) >= 6  # the bucket path actually ran
        assert all(not bucket for bucket in kernel._buckets)  # and self-drained
        kernel.bucket_limit = 0  # flip the same kernel to the heap loop
        assert kernel.distances(*kernel.settle(term)[:2]) == expected

    def test_sparse_and_dense_extraction_both_match_the_reference(self):
        """``run``/``distances`` hop between set bytes when few are set.

        The other graphs here are so small that every non-empty state
        takes the dense ``compress`` path; this one is large enough for
        a narrow term to take the sparse one and a wide term the dense.
        """
        net = make_random_network(seed=917, num_junctions=150, num_objects=40, vocabulary=30)
        seen = set()
        for reference, *variants in build_runtime_trios(net, 2, max_radius=math.inf):
            n = variants[0].kernel.num_nodes
            for radius in (0.0, 0.4, 1.0, 30.0):
                for k in range(6):
                    term = CoverageTerm(KeywordSource(f"w{k}"), radius)
                    covered = len(assert_term_parity(reference, variants, term))
                    if covered:
                        seen.add("dense" if covered * 32 > n else "sparse")
                query = QClassQuery(
                    tuple(CoverageTerm(KeywordSource(f"w{k}"), radius) for k in range(3)),
                    union(leaf(0), subtract(leaf(1), leaf(2))),
                )
                assert_task_parity(reference, variants, query)
        assert seen == {"dense", "sparse"}

    def test_lazy_kernel_on_reference_runtime(self):
        """The reference's adjacency, and a dropped kernel, are built on first use."""
        reference = self._runtime(reference=True)
        term = CoverageTerm(KeywordSource("w0"), 3.0)
        assert reference._extended is None  # no constructor pays for the reference
        expected = reference_distance_map(reference, term)
        assert reference._extended is not None
        reference.refresh(fragment=dataclasses.replace(reference.fragment))
        assert reference._kernel is None and reference._extended is None
        kernel = reference.kernel
        assert kernel.distances(*kernel.settle(term)[:2]) == expected
        assert reference_distance_map(reference, term) == expected

    def test_only_the_packed_kernel_can_be_asked_for(self):
        reference = self._runtime(reference=True)
        with pytest.raises(QueryError):
            FragmentRuntime(reference.fragment, reference.index, compiled=False)


class TestEngineParity:
    """End-to-end: the engine answers as the oracle, and explains as the reference."""

    def test_engine_results_match_reference_and_oracle(self):
        net = make_random_network(seed=916, num_junctions=28, num_objects=14, vocabulary=4)
        base = dict(
            num_fragments=3,
            lambda_factor=None,
            max_radius=math.inf,
            partitioner=BfsPartitioner(seed=2),
        )
        engine = DisksEngine.build(net, EngineConfig(**base))
        reference = [FragmentRuntime(f, i) for f, i in zip(engine.fragments, engine.indexes)]
        oracle = CentralizedEvaluator(net)
        for query in (
            sgkq(["w0"], 3.0),
            sgkq(["w0", "w1"], 4.0),
            sgkq(["w1", "w2", "w3"], 2.5),
        ):
            expected = oracle.results(query)
            assert engine.results(query) == expected
            maps = [{} for _ in query.terms]
            for runtime in reference:
                for m, term in zip(maps, query.terms):
                    m.update(reference_distance_map(runtime, term))
            assert engine.explain(query) == {
                node: tuple(m.get(node) for m in maps) for node in expected
            }
