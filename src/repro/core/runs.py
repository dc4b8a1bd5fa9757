"""Sorted runs: the one representation of an answer between kernel and socket.

A *run* is an ``array('Q')`` of global node ids in ascending order.  A
fragment's result leaves the kernel as a run (dense ids follow sorted
global order, so no sort is needed), crosses the worker pipe as its raw
bytes, is merged with the other fragments' runs at the coordinator, and
is written into the ANSWER frame or NDJSON reply as is.  Fragments are
node-disjoint (Lemma 1), so the merge is a concatenation plus one sort
over presorted stretches — no hashing.  A wide union sorts in place
through a numpy view of the concatenated bytes, so no node is boxed into
a Python int; a narrow one keeps the builtin ``sorted`` (see
:data:`NUMPY_MERGE_MIN`).  Anything that still holds a plain node set
converts on entry with :func:`as_run`.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Iterable

__all__ = ["EMPTY_RUN", "NUMPY_MERGE_MIN", "RunAnswer", "as_run", "merge_runs"]

# Shared by every empty result; never mutated (merges build fresh arrays).
EMPTY_RUN = array("Q")

# Unions of at least this many nodes sort through numpy.  Measured on
# bri_mini answers (2-vCPU x86-64, numpy 2.4): the numpy sort wins at
# every size once numpy is loaded (2.8 vs 6.6 us per point_ndjson
# query, 61 vs 286 us per wide_eval query), but the import costs ~0.1 s
# and ~9 MiB of RSS in the process that pays it.  Below 256 nodes the
# saving is under ~15 us a query, so a coordinator whose answers all
# stay small never maps numpy; workers never merge, so they never do.
NUMPY_MERGE_MIN = 256


def as_run(nodes: "array | Iterable[int]") -> array:
    """``nodes`` as a run: arrays pass through, anything else is sorted."""
    return nodes if isinstance(nodes, array) else array("Q", sorted(nodes))


def merge_runs(runs: Iterable[array]) -> array:
    """One run holding every node of the given node-disjoint runs.

    No node: :data:`EMPTY_RUN`.  One non-empty run: that run itself.
    Otherwise a fresh array, sorted by a stable (run-merging) numpy sort
    when it holds at least :data:`NUMPY_MERGE_MIN` nodes, else by
    ``sorted``.
    """
    parts = [run for run in runs if run]
    if not parts:
        return EMPTY_RUN
    if len(parts) == 1:
        return parts[0]
    merged = array("Q")
    for run in parts:
        merged += run
    if len(merged) < NUMPY_MERGE_MIN:
        return array("Q", sorted(merged))
    import numpy  # first wide union only: keeps numpy out of small coordinators

    # The view shares ``merged``'s buffer and is dropped at once, so the
    # sort happens in place and ``merged`` stays resizable.
    numpy.frombuffer(merged, dtype=numpy.uint64).sort(kind="stable")
    return merged


class RunAnswer:
    """Mixin for results that carry ``result_run``: the node set on demand."""

    result_run: array

    @cached_property
    def result_nodes(self) -> frozenset[int]:
        """The answer as a set, built (once) only for callers that ask."""
        return frozenset(self.result_run)
