"""Partition result type and partitioner protocol.

A *partition* (the paper calls its parts "fragments") assigns every node
of a road network to exactly one of ``k`` fragments.  Node-disjointness
and coverage are structural here — the assignment is a dense array — and
:func:`validate_partition` checks the remaining integrity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, Sequence, runtime_checkable

from repro.exceptions import PartitionError
from repro.graph.road_network import RoadNetwork

__all__ = ["Partition", "Partitioner", "validate_partition"]


@dataclass(frozen=True)
class Partition:
    """An assignment of nodes to fragments.

    Attributes
    ----------
    assignment:
        ``assignment[node]`` is the fragment id (``0..num_fragments-1``).
    num_fragments:
        The fragment count ``N`` of the paper's problem statement.
    """

    assignment: tuple[int, ...]
    num_fragments: int

    def __post_init__(self) -> None:
        if self.num_fragments < 1:
            raise PartitionError("a partition needs at least one fragment")
        for node, frag in enumerate(self.assignment):
            if not (0 <= frag < self.num_fragments):
                raise PartitionError(
                    f"node {node} assigned to invalid fragment {frag} "
                    f"(num_fragments={self.num_fragments})"
                )

    @classmethod
    def from_assignment(cls, assignment: Sequence[int], num_fragments: int | None = None) -> "Partition":
        """Build from any integer sequence; infers ``num_fragments`` if omitted."""
        tup = tuple(int(a) for a in assignment)
        if num_fragments is None:
            num_fragments = (max(tup) + 1) if tup else 1
        return cls(tup, num_fragments)

    @property
    def num_nodes(self) -> int:
        """Number of assigned nodes."""
        return len(self.assignment)

    @cached_property
    def fragment_bits(self) -> tuple[int, ...]:
        """``1 << part(node)`` per node: fragment sets as int bitmasks."""
        return tuple(1 << frag for frag in self.assignment)

    def fragment_of(self, node: int) -> int:
        """The paper's ``part(A)``: the fragment containing ``node``."""
        return self.assignment[node]

    def members(self, fragment: int) -> list[int]:
        """Sorted node ids of one fragment."""
        if not (0 <= fragment < self.num_fragments):
            raise PartitionError(f"fragment {fragment} out of range")
        return [node for node, frag in enumerate(self.assignment) if frag == fragment]

    def all_members(self) -> list[list[int]]:
        """Node lists of every fragment, indexed by fragment id."""
        buckets: list[list[int]] = [[] for _ in range(self.num_fragments)]
        for node, frag in enumerate(self.assignment):
            buckets[frag].append(node)
        return buckets

    def sizes(self) -> list[int]:
        """Node count per fragment."""
        counts = [0] * self.num_fragments
        for frag in self.assignment:
            counts[frag] += 1
        return counts


@runtime_checkable
class Partitioner(Protocol):
    """Anything that can fragment a road network into ``k`` parts."""

    def partition(self, network: RoadNetwork, k: int) -> Partition:
        """Produce a :class:`Partition` of ``network`` into ``k`` fragments."""
        ...


def validate_partition(
    network: RoadNetwork,
    partition: Partition,
    *,
    require_nonempty: bool = True,
) -> None:
    """Raise :class:`PartitionError` if ``partition`` does not fit ``network``.

    Checks the node count matches and (optionally) that no fragment is
    empty — an empty fragment would make a worker machine idle and, more
    importantly, break the paper's per-fragment accounting.
    """
    if partition.num_nodes != network.num_nodes:
        raise PartitionError(
            f"partition covers {partition.num_nodes} nodes but the network has "
            f"{network.num_nodes}"
        )
    if require_nonempty:
        sizes = partition.sizes()
        empty = [i for i, s in enumerate(sizes) if s == 0]
        if empty:
            raise PartitionError(f"fragments {empty} are empty")
