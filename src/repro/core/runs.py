"""Sorted runs: the one representation of an answer between kernel and socket.

A *run* is an ``array('Q')`` of global node ids in ascending order.  A
fragment's result leaves the kernel as a run (dense ids follow sorted
global order, so no sort is needed), crosses the worker pipe as its raw
bytes, is merged with the other fragments' runs at the coordinator
(fragments are node-disjoint, Lemma 1, so the merge is one C-level
``sorted`` over presorted stretches — no hashing), and is written into
the ANSWER frame or NDJSON reply as is.  Anything that still holds a
plain node set converts on entry with :func:`as_run`.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Iterable

__all__ = ["EMPTY_RUN", "RunAnswer", "as_run", "merge_runs"]

# Shared by every empty result; never mutated (merges build fresh arrays).
EMPTY_RUN = array("Q")


def as_run(nodes: "array | Iterable[int]") -> array:
    """``nodes`` as a run: arrays pass through, anything else is sorted."""
    return nodes if isinstance(nodes, array) else array("Q", sorted(nodes))


def merge_runs(runs: Iterable[array]) -> array:
    """One run holding every node of the given node-disjoint runs."""
    parts = [run for run in runs if run]
    if not parts:
        return EMPTY_RUN
    if len(parts) == 1:
        return parts[0]
    merged = array("Q")
    for run in parts:
        merged += run
    return array("Q", sorted(merged))


class RunAnswer:
    """Mixin for results that carry ``result_run``: the node set on demand."""

    result_run: array

    @cached_property
    def result_nodes(self) -> frozenset[int]:
        """The answer as a set, built (once) only for callers that ask."""
        return frozenset(self.result_run)
