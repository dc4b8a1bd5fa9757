"""The NPD-index (Node-Partition-Distance index) data structure (paper §3).

``IND(P) = SC(P) ∪ DL(P)``:

* **SC** (*ShortCut*, §3.3) — shortcut edges between members of ``P``
  whose global shortest path contains no other node of ``P`` (Rule 1).
  ``P ∪ SC(P)`` is a *complete fragment*: every intra-fragment distance
  is computable locally (Theorem 1), and the set is minimal (Theorem 2).
* **DL** (*Distance List*, §3.4) — entry-value lists mapping an outside
  source to sorted ``(portal, distance)`` pairs whose shortest path first
  touches ``P`` at that portal (Rule 2).  A value list is stored packed,
  as one :data:`ValueList`: parallel ``array('q')`` portals and
  ``array('d')`` distances, 16 bytes a pair.  Two entry families are kept:

  - *keyword entries* ``(ω, P)`` — the §3.7 virtual-keyword-node form:
    per portal, the minimum qualifying distance from any outside node
    carrying ``ω``.  These answer SGKQ terms.
  - *node entries* ``(A, P)`` — per concrete outside node ``A``; needed
    by RKQ whose query location is a node.  Which nodes get entries is a
    :class:`DLNodePolicy` choice (the paper prunes to keyword nodes,
    §3.7; we additionally support *all* and *none* for ablation).

All recorded distances are truncated at ``max_radius`` (the paper's
``maxR = λ·ē``, §3.7); ``math.inf`` disables truncation (§5.5).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from repro.exceptions import IndexBuildError

__all__ = ["DLNodePolicy", "NPDIndex", "ValueList", "pack_value_list"]

#: One DL value list: ``(portals, distances)`` as parallel ``array('q')``
#: and ``array('d')``, sorted by ``(distance, portal)``, one pair per
#: portal.  Never mutated once built: maintenance replaces whole lists,
#: so epochs and kernels may share them.
ValueList = tuple[array, array]


class DLNodePolicy(Enum):
    """Which concrete nodes receive DL node entries.

    * ``NONE`` — only keyword entries (smallest index; RKQ limited to
      locations inside the queried fragment or carrying keywords).
    * ``OBJECTS`` — every object node gets an entry (the paper's §3.7
      pruning: objects are exactly the keyword-bearing nodes).  Default.
    * ``ALL`` — every node, junctions included (largest index; supports
      RKQ from arbitrary junctions; the "no pruning" ablation).
    """

    NONE = "none"
    OBJECTS = "objects"
    ALL = "all"


def pack_value_list(pairs: Iterable[tuple[int, float]]) -> ValueList:
    """``(portal, distance)`` pairs as one :data:`ValueList`.

    A portal named twice keeps its minimum distance, the one a query
    seed would take anyway.
    """
    best: dict[int, float] = {}
    for portal, distance in pairs:
        if distance < best.get(portal, math.inf):
            best[portal] = distance
    ordered = sorted(best.items(), key=lambda pd: (pd[1], pd[0]))
    return array("q", [p for p, _d in ordered]), array("d", [d for _p, d in ordered])


def _seeds(entry: ValueList | None, radius: float) -> dict[int, float]:
    """``{portal: distance}`` of the pairs within ``radius``."""
    if entry is None:
        return {}
    portals, distances = entry
    cut = bisect_right(distances, radius)
    return dict(zip(portals[:cut], distances[:cut]))


def _num_pairs(entries: Mapping) -> int:
    return sum(len(portals) for portals, _distances in entries.values())


@dataclass
class NPDIndex:
    """The per-fragment NPD-index ``IND(P)``.

    Instances are produced by :func:`repro.core.builder.build_npd_index`
    and are immutable by convention once built (the builder calls
    :meth:`seal`).

    Attributes
    ----------
    fragment_id:
        Which fragment this index belongs to.
    max_radius:
        The ``maxR`` every recorded distance is truncated at
        (``math.inf`` when built without truncation).
    node_policy:
        Which node entries were materialised.
    shortcuts:
        ``SC(P)`` as ``{(u, v): weight}``.  For undirected networks the
        key is normalised with ``u < v``; for directed networks the key
        is the arc direction ``u -> v``.
    keyword_entries:
        ``DL(P)`` keyword entries: ``{keyword: ValueList}``, sorted by
        distance (Rule 2 condition 3).
    node_entries:
        ``DL(P)`` node entries: ``{node: ValueList}``, sorted by distance.
    directed:
        Whether the parent network is directed.
    version:
        Mutation counter for online maintenance.  Query-time caches
        (compiled kernels, coverage caches) record the version they were
        built against and rebuild when it moves; every in-place mutation
        must go through :meth:`touch`.  Excluded from equality so stored
        and rebuilt indexes still compare equal field-wise.
    """

    fragment_id: int
    max_radius: float
    node_policy: DLNodePolicy
    directed: bool = False
    shortcuts: dict[tuple[int, int], float] = field(default_factory=dict)
    keyword_entries: dict[str, ValueList] = field(default_factory=dict)
    node_entries: dict[int, ValueList] = field(default_factory=dict)
    version: int = field(default=0, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Online maintenance support (repro.core.maintenance / repro.live)
    # ------------------------------------------------------------------
    def touch(self) -> int:
        """Mark the index mutated; returns the new version."""
        self.version += 1
        return self.version

    def copy(self) -> "NPDIndex":
        """A shallow-copied shadow of this index.

        The entry dicts are copied (their value lists are shared: no one
        writes into them), so a :class:`~repro.core.maintenance.KeywordMaintainer`
        can mutate the copy while readers of the original keep an
        untouched epoch — the basis of shadow application in
        :mod:`repro.live.epochs`.
        """
        return NPDIndex(
            fragment_id=self.fragment_id,
            max_radius=self.max_radius,
            node_policy=self.node_policy,
            directed=self.directed,
            shortcuts=dict(self.shortcuts),
            keyword_entries=dict(self.keyword_entries),
            node_entries=dict(self.node_entries),
            version=self.version,
        )

    # ------------------------------------------------------------------
    # Construction-time mutation (builder only)
    # ------------------------------------------------------------------
    def add_shortcut(self, u: int, v: int, distance: float) -> None:
        """Record a Rule-1 shortcut edge; idempotent for equal distances."""
        key = (u, v) if self.directed or u < v else (v, u)
        existing = self.shortcuts.get(key)
        if existing is not None:
            if not math.isclose(existing, distance, rel_tol=1e-9, abs_tol=1e-9):
                raise IndexBuildError(
                    f"conflicting shortcut distances for {key}: {existing} vs {distance}"
                )
            return
        self.shortcuts[key] = distance

    def seal(
        self,
        keyword_lists: Mapping[str, Iterable[tuple[int, float]]],
        node_lists: Mapping[int, Iterable[tuple[int, float]]],
    ) -> None:
        """Finalise DL entries, packing each value list (:func:`pack_value_list`)."""
        self.keyword_entries = {kw: pack_value_list(pairs) for kw, pairs in keyword_lists.items()}
        self.node_entries = {node: pack_value_list(pairs) for node, pairs in node_lists.items()}

    # ------------------------------------------------------------------
    # Query-time lookups (Alg. 2 step 2)
    # ------------------------------------------------------------------
    def keyword_seeds(self, keyword: str, radius: float) -> dict[int, float]:
        """Portal seeds for keyword ``keyword`` within ``radius``.

        Returns ``{portal: distance}`` — the retained node-distance pairs
        of Alg. 2 step 2, cut at the radius by one bisection.
        """
        return _seeds(self.keyword_entries.get(keyword), radius)

    def node_seeds(self, node: int, radius: float) -> dict[int, float]:
        """Portal seeds for an outside source node within ``radius``."""
        return _seeds(self.node_entries.get(node), radius)

    # ------------------------------------------------------------------
    # Size accounting (EXP 1 / Theorem 5's α and β)
    # ------------------------------------------------------------------
    @property
    def num_shortcuts(self) -> int:
        """β = |SC(P)|."""
        return len(self.shortcuts)

    def alpha(self, keyword: str) -> int:
        """α_ω: node-distance pairs in entry ``(ω, P)`` (Theorem 5)."""
        entry = self.keyword_entries.get(keyword)
        return 0 if entry is None else len(entry[0])

    @property
    def num_recorded_distances(self) -> int:
        """Total distances recorded — the paper's index-size measure (Thm 4)."""
        return (
            len(self.shortcuts) + _num_pairs(self.keyword_entries) + _num_pairs(self.node_entries)
        )

    def size_summary(self) -> dict[str, int]:
        """Breakdown used by the EXP-1 storage-cost report."""
        return {
            "shortcuts": len(self.shortcuts),
            "keyword_entries": len(self.keyword_entries),
            "keyword_pairs": _num_pairs(self.keyword_entries),
            "node_entries": len(self.node_entries),
            "node_pairs": _num_pairs(self.node_entries),
            "total_distances": self.num_recorded_distances,
        }
