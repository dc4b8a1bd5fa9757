"""Per-fragment query task (paper Alg. 2 end-to-end).

A *task* is "the computation on a fragment" (§4.2): evaluate every
coverage term of the query locally, then apply the D-function to the
local coverages.  Lemma 1 guarantees the union of per-fragment results
is the global answer, so a task never needs data from another machine.

The D-function runs on dense-id bitmasks and the result leaves as a
sorted run (:mod:`repro.core.runs`) without a node ever being hashed.
:func:`execute_fragment_task_explained` additionally keeps the exact
per-term distances of every result node (Theorem 3 makes them globally
correct) as a *partial* ``(run, columns)``: one ``array('d')`` per term,
aligned with the run.  The result cache filters partials as they are;
:func:`explanations` turns one into the engine's ``explain`` dict.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.coverage import (
    CoverageStats,
    FragmentRuntime,
    coverage_members,
    settle_terms,
)
from repro.core.queries import QClassQuery

__all__ = [
    "FragmentTaskResult",
    "execute_fragment_task",
    "execute_fragment_task_explained",
    "explanations",
]


@dataclass
class FragmentTaskResult:
    """Outcome of one fragment task.

    Attributes
    ----------
    fragment_id:
        The fragment the task ran on.
    run:
        ``F(X₁ ∩ P, …, Xₖ ∩ P)`` — this fragment's share of the answer,
        as a sorted run; :attr:`local_result` is the same as a set.
    coverage_sizes:
        ``|R(term) ∩ P|`` per term, in term order (Theorem 5's
        ``|P ∩ R(ω, r)|`` factors).
    wall_seconds:
        Measured task time; the distributed response time is the
        makespan of these across machines (§5.1).
    stats:
        Seed/settle counters summed over all terms.
    """

    fragment_id: int
    run: array
    coverage_sizes: tuple[int, ...]
    wall_seconds: float
    stats: CoverageStats = field(default_factory=CoverageStats)

    @cached_property
    def local_result(self) -> frozenset[int]:
        """The run as a node set, built on first use."""
        return frozenset(self.run)


def _apply_dfunction(runtime, query: QClassQuery, members: list):
    """``(run, coverage sizes, dense-id result mask)`` from term memberships."""
    mask = query.expression.evaluate_masks(members)
    return runtime.kernel.run(mask), tuple(m.bit_count() for m in members), mask


def execute_fragment_task(
    runtime: FragmentRuntime,
    query: QClassQuery,
    *,
    records: list | None = None,
) -> FragmentTaskResult:
    """Run ``query`` on one fragment and return its local result.

    Terms are read as memberships (:func:`~repro.core.coverage.
    coverage_members`), so a term the fragment's coverage cache holds
    costs a dict hit instead of a search.

    ``records`` (a plain list) opts into stage timing: the task appends
    one ``eval`` row per distinct term (see :func:`coverage_members`),
    then ``("union", fragment, start, end)`` for the D-expression
    evaluation and ``("task", fragment, start, end, result nodes)``.
    The evaluation itself is identical either way — timing only
    observes, so answers are bit-identical with it on or off.
    """
    started = time.perf_counter()
    stats = CoverageStats()
    fragment_id = runtime.fragment.fragment_id
    members = coverage_members(runtime, query.terms, stats, records=records)
    union_started = time.perf_counter()
    run, sizes, _mask = _apply_dfunction(runtime, query, members)
    ended = time.perf_counter()
    if records is not None:
        records.append(("union", fragment_id, union_started, ended))
        records.append(("task", fragment_id, started, ended, len(run)))
    return FragmentTaskResult(fragment_id, run, sizes, ended - started, stats)


def execute_fragment_task_explained(
    runtime: FragmentRuntime, query: QClassQuery
) -> tuple[FragmentTaskResult, tuple[array, list[array]]]:
    """Like :func:`execute_fragment_task`, plus per-term result distances.

    The second return value is the fragment's partial ``(run, columns)``:
    ``columns[i][j]`` is ``d(run[j], source_i)`` where that node lies
    inside term ``i``'s coverage, and ``nextafter(radius_i, inf)`` where
    it does not (e.g. the excluded side of a subtraction term).  The
    distances need full search states, so every term is settled afresh,
    bypassing the coverage cache.
    """
    started = time.perf_counter()
    stats = CoverageStats()
    settled = settle_terms(runtime, query.terms, stats)
    members = [runtime.kernel.mask(marks) for marks, _dist, _count in settled]
    run, sizes, mask = _apply_dfunction(runtime, query, members)
    columns = runtime.kernel.columns(mask, settled, [term.radius for term in query.terms])
    result = FragmentTaskResult(
        runtime.fragment.fragment_id, run, sizes, time.perf_counter() - started, stats
    )
    return result, (run, columns)


def explanations(query: QClassQuery, partial) -> dict[int, tuple[float | None, ...]]:
    """A partial as ``{node: (d₀, d₁, …)}``, ``None`` past a term's radius."""
    run, columns = partial
    radii = [term.radius for term in query.terms]
    return {
        node: tuple(d if d <= r else None for d, r in zip(distances, radii))
        for node, *distances in zip(run, *columns)
    }
