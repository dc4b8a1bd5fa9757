"""DiSKS engine: the end-to-end facade over the whole system.

``DisksEngine.build`` takes a road network and produces a queryable
deployment: partition → fragments → per-fragment NPD-indexes →
in-process coordinator/worker cluster (:class:`SimulatedCluster`, the
serving worker's handler behind a modelled link).  ``DisksEngine.execute``
plans a query, routes it to an index level and returns the answer with
full accounting (per-machine times, response time, unbalance factor,
frame bytes).

This is the class the examples and benchmarks drive; every piece is
also usable stand-alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.bilevel import BiLevelIndex
from repro.core.builder import BuildStats, NPDBuildConfig, build_all_indexes
from repro.core.cost import theorem6_bound, unbalance_factor
from repro.core.executor import (
    execute_fragment_task,
    execute_fragment_task_explained,
    explanations,
)
from repro.core.fragment import Fragment, build_fragments
from repro.core.npd import DLNodePolicy, NPDIndex
from repro.core.planner import plan_query
from repro.core.queries import QClassQuery
from repro.core.topk import TopKQuery, TopKResult, execute_topk_task, merge_topk
from repro.dist.cluster import SimulatedCluster
from repro.dist.network import NetworkModel
from repro.exceptions import DisksError
from repro.graph.road_network import RoadNetwork
from repro.partition.base import Partition, Partitioner
from repro.partition.multilevel import MultilevelPartitioner

__all__ = ["EngineConfig", "QueryReport", "DisksEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Deployment parameters (paper Table 2 defaults).

    Attributes
    ----------
    num_fragments:
        ``N``; the paper's default is 16.
    lambda_factor / max_radius:
        ``maxR`` as ``λ·ē`` (default λ=40) or absolute; ``lambda_factor``
        wins when both are set, matching :class:`NPDBuildConfig`.
    node_policy:
        DL node-entry policy (§3.7 pruning; default: objects).
    num_machines:
        Worker count; default one machine per fragment.
    build_unbounded_level:
        Also build the §5.5 unbounded second level.
    partitioner:
        Defaults to the multilevel (ParMETIS-style) partitioner.
    network_model:
        Interconnect cost model for communication accounting.
    strict_keywords:
        Unknown query keywords raise instead of yielding empty coverages.
    coverage_cache_capacity:
        Per-fragment LRU size for coverage memberships (0 disables).
    """

    num_fragments: int = 16
    lambda_factor: float | None = 40.0
    max_radius: float | None = None
    node_policy: DLNodePolicy = DLNodePolicy.OBJECTS
    num_machines: int | None = None
    build_unbounded_level: bool = False
    partitioner: Partitioner | None = None
    network_model: NetworkModel | None = None
    strict_keywords: bool = True
    coverage_cache_capacity: int = 0

    def build_config(self) -> NPDBuildConfig:
        """The index-construction slice of this config."""
        return NPDBuildConfig(
            max_radius=self.max_radius,
            lambda_factor=self.lambda_factor,
            node_policy=self.node_policy,
        )


@dataclass(frozen=True)
class QueryReport:
    """The answer to one query plus the §5.1/§5.2 accounting.

    ``response_seconds`` is the distributed response time (the slowest
    machine's task transfer + handler CPU time + result transfer on the
    modelled link); ``total_task_seconds`` is the aggregate CPU work,
    i.e. what a serial execution would take.
    """

    query_label: str
    result_nodes: frozenset[int]
    response_seconds: float
    communication_seconds: float
    total_task_seconds: float
    machine_seconds: dict[int, float]
    fragment_seconds: dict[int, float]
    coverage_sizes: dict[int, tuple[int, ...]]
    total_message_bytes: int
    used_unbounded_level: bool
    unbalance: float
    unbalance_bound: float

    @property
    def num_results(self) -> int:
        """Result-set cardinality."""
        return len(self.result_nodes)

    @property
    def speedup_over_serial(self) -> float:
        """How much faster the distributed response is than serial work."""
        if self.response_seconds <= 0:
            return 1.0
        return self.total_task_seconds / self.response_seconds


@dataclass(frozen=True)
class BatchReport:
    """Aggregate accounting of one query batch (throughput view)."""

    reports: tuple[QueryReport, ...]
    total_response_seconds: float
    mean_response_seconds: float
    queries_per_second: float
    total_message_bytes: int


class DisksEngine:
    """A built deployment: partitioned network + NPD-indexes + cluster."""

    def __init__(
        self,
        network: RoadNetwork,
        partition: Partition,
        fragments: list[Fragment],
        bilevel: BiLevelIndex,
        build_stats: list[BuildStats],
        config: EngineConfig,
    ) -> None:
        self._network = network
        self._partition = partition
        self._fragments = fragments
        self._bilevel = bilevel
        self._build_stats = build_stats
        self._config = config
        self._bounded_cluster = SimulatedCluster.from_fragments(
            fragments,
            list(bilevel.bounded),
            num_machines=config.num_machines,
            network=config.network_model,
            cache_capacity=config.coverage_cache_capacity,
        )
        self._unbounded_cluster = (
            SimulatedCluster.from_fragments(
                fragments,
                list(bilevel.unbounded),
                num_machines=config.num_machines,
                network=config.network_model,
                cache_capacity=config.coverage_cache_capacity,
            )
            if bilevel.unbounded is not None
            else None
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, network: RoadNetwork, config: EngineConfig | None = None) -> "DisksEngine":
        """Partition ``network`` and build a complete deployment."""
        config = config or EngineConfig()
        if network.num_nodes == 0:
            raise DisksError("cannot build an engine over an empty network")
        partitioner = config.partitioner or MultilevelPartitioner(seed=0)
        partition = partitioner.partition(network, config.num_fragments)
        fragments = build_fragments(network, partition)
        indexes, stats = build_all_indexes(network, fragments, config.build_config())

        unbounded: tuple[NPDIndex, ...] | None = None
        if config.build_unbounded_level:
            unbounded_config = NPDBuildConfig(
                max_radius=math.inf,
                lambda_factor=None,
                node_policy=config.node_policy,
            )
            unbounded_indexes, unbounded_stats = build_all_indexes(
                network, fragments, unbounded_config
            )
            unbounded = tuple(unbounded_indexes)
            stats = stats + unbounded_stats

        bilevel = BiLevelIndex(bounded=tuple(indexes), unbounded=unbounded)
        return cls(network, partition, fragments, bilevel, stats, config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The underlying road network (coordinator-side metadata)."""
        return self._network

    @property
    def partition(self) -> Partition:
        """The fragmentation in use."""
        return self._partition

    @property
    def fragments(self) -> list[Fragment]:
        """All fragments, by id."""
        return self._fragments

    @property
    def indexes(self) -> tuple[NPDIndex, ...]:
        """The bounded-level NPD-indexes, by fragment id."""
        return self._bilevel.bounded

    @property
    def bilevel(self) -> BiLevelIndex:
        """Both index levels."""
        return self._bilevel

    @property
    def build_stats(self) -> list[BuildStats]:
        """Per-fragment construction statistics (both levels)."""
        return self._build_stats

    @property
    def max_radius(self) -> float:
        """The bounded level's ``maxR``."""
        return self._bilevel.max_radius

    @property
    def cluster(self) -> SimulatedCluster:
        """The bounded-level cluster (for ledger inspection in tests)."""
        return self._bounded_cluster

    def index_size_report(self) -> list[dict[str, int]]:
        """Per-fragment size breakdowns (EXP 1)."""
        return [index.size_summary() for index in self._bilevel.bounded]

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _cluster_for(self, query: QClassQuery) -> SimulatedCluster:
        """Validate ``query`` and return the cluster of the index level serving it."""
        plan = plan_query(
            query,
            self._network,
            max_radius=self._bilevel.max_radius,
            node_policy=self._config.node_policy,
            has_unbounded_level=self._bilevel.has_unbounded_level,
            strict_keywords=self._config.strict_keywords,
        )
        if plan.use_unbounded:
            assert self._unbounded_cluster is not None  # guaranteed by the planner
            return self._unbounded_cluster
        return self._bounded_cluster

    def execute(self, query: QClassQuery) -> QueryReport:
        """Plan and answer ``query``; returns the full report."""
        cluster = self._cluster_for(query)
        response = cluster.execute(query)
        fragment_seconds = {r.fragment_id: r.wall_seconds for r in response.task_results}
        coverage_sizes = {r.fragment_id: r.coverage_sizes for r in response.task_results}
        machine_costs = list(response.machine_seconds.values())
        task_costs = [r.wall_seconds for r in response.task_results]
        return QueryReport(
            query_label=query.label,
            result_nodes=response.result_nodes,
            response_seconds=response.response_seconds,
            communication_seconds=response.communication_seconds,
            total_task_seconds=sum(task_costs),
            machine_seconds=response.machine_seconds,
            fragment_seconds=fragment_seconds,
            coverage_sizes=coverage_sizes,
            total_message_bytes=response.total_message_bytes,
            used_unbounded_level=cluster is not self._bounded_cluster,
            unbalance=unbalance_factor(machine_costs),
            unbalance_bound=theorem6_bound(task_costs),
        )

    def results(self, query: QClassQuery) -> frozenset[int]:
        """Just the answer node set."""
        return self.execute(query).result_nodes

    def count(self, query: QClassQuery) -> int:
        """Result cardinality without shipping the result set.

        Because fragments are node-disjoint, the per-fragment local
        results are disjoint too (Lemma 1), so the global count is the
        *sum* of local counts — each worker ships 8 bytes instead of its
        whole node list.  Useful for selectivity estimation and paging.
        """
        return sum(
            len(execute_fragment_task(runtime, query).run)
            for runtime in self._cluster_for(query).runtimes()
        )

    def execute_many(self, queries: list[QClassQuery]) -> "BatchReport":
        """Answer a query batch and summarise throughput.

        Each query still runs as one coordinated round; the batch report
        aggregates the accounting the way a load test would (the paper's
        §1 motivation is exactly query *throughput* on heavy loads).
        """
        if not queries:
            raise DisksError("execute_many needs at least one query")
        reports = [self.execute(query) for query in queries]
        total_response = sum(r.response_seconds for r in reports)
        return BatchReport(
            reports=tuple(reports),
            total_response_seconds=total_response,
            mean_response_seconds=total_response / len(reports),
            queries_per_second=(
                len(reports) / total_response if total_response > 0 else math.inf
            ),
            total_message_bytes=sum(r.total_message_bytes for r in reports),
        )

    def explain(self, query: QClassQuery) -> dict[int, tuple[float | None, ...]]:
        """Answer ``query`` with per-term distances for every result node.

        Returns ``{node: (d₀, d₁, …)}`` aligned with ``query.terms``;
        ``None`` marks terms whose coverage does not contain the node
        (possible under ∪ and − operators).  Distances are globally
        exact (Theorem 3).
        """
        merged: dict[int, tuple[float | None, ...]] = {}
        for runtime in self._cluster_for(query).runtimes():
            _result, partial = execute_fragment_task_explained(runtime, query)
            merged.update(explanations(query, partial))
        return merged

    def top_k(self, query: TopKQuery) -> TopKResult:
        """Answer a top-k nearest query (the §8 future-work extension).

        Every fragment ranks its own members by exact distance (Theorem
        3) and ships only its best ``k``; the coordinator merges.  The
        radius must fit an index level; the source is validated as a
        one-term Q-class query's would be.
        """
        cluster = self._cluster_for(QClassQuery.from_chain([query.term], []))
        return merge_topk(
            query, [execute_topk_task(runtime, query) for runtime in cluster.runtimes()]
        )
