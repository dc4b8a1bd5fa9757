"""Canonical query shapes and the radius-subsumption safety predicate.

Two queries that differ only in the *order* of commutative operands
(``A AND B`` vs ``B AND A``) should share one cache entry, and a query
that differs from a cached one only by *smaller* radii on monotone
terms should be answerable by filtering the cached distance columns.  Both
needs reduce to one normal form:

* the expression tree is flattened over same-op chains of the
  commutative operators (∪, ∩), each child canonicalized recursively,
  and siblings sorted by their radius-free shape (radii tie-break);
* ``SUBTRACT`` keeps its operand order (it is not commutative) and
  flips the *polarity* of every leaf under its right side;
* the result is a :class:`CanonicalQuery`: a hashable ``shape`` with
  radii stripped, plus parallel per-leaf vectors of radius, polarity
  and the leaf's index into the original query's term tuple.

``(shape, radii)`` is the exact cache key; ``shape`` alone is the
subsumption bucket — only entries with an identical shape can subsume.

Subsumption safety (the per-d-function predicate): a cached entry with
radii ``rᵉ`` answers a probe with radii ``rᑫ`` iff for every canonical
leaf ``j``

* positive polarity (the leaf's coverage only ever *adds* nodes to the
  answer): ``rᑫⱼ ≤ rᵉⱼ`` — the answer is monotone non-decreasing in a
  positive radius, so the probe's answer is a subset of the entry's,
  and membership is re-decidable from the stored distances (a stored
  distance within ``rᵉⱼ`` is exact; ``nextafter(rᵉⱼ, inf)`` means the
  true distance exceeds ``rᵉⱼ`` and therefore exceeds ``rᑫⱼ``);
* negative polarity (under the right side of a ``SUBTRACT``):
  ``rᑫⱼ = rᵉⱼ`` exactly.  Shrinking a subtracted radius *grows* the
  answer beyond the stored node set, and growing it is undecidable
  from the stored columns ("past rᵉ" cannot distinguish "just past"
  from "unreachable"), so only equality is exact-safe.

:func:`filter_answer` then re-evaluates the boolean form of the shape
over one fragment's stored columns at once — one threshold mask per
leaf, combined with ``|``/``&``/``& ~`` — which is exact under the
predicate above.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

from repro.core.dfunction import DExpression, SetOp
from repro.core.queries import KeywordSource, NodeSource, QClassQuery
from repro.core.runs import EMPTY_RUN
from repro.exceptions import QueryError

__all__ = ["CanonicalQuery", "canonicalize", "filter_answer", "subsumes"]


@dataclass(frozen=True)
class CanonicalQuery:
    """A query reduced to the cache's normal form.

    ``shape`` is the radius-free canonical expression (nested tuples —
    hashable, orderable); the remaining fields are parallel per-leaf
    vectors in canonical leaf order.  ``term_indexes[j]`` maps canonical
    leaf ``j`` back to the originating query's ``terms`` tuple, which is
    also the order of the distance columns produced by
    :func:`repro.core.executor.execute_fragment_task_explained`.
    """

    shape: tuple
    radii: tuple[float, ...]
    polarities: tuple[int, ...]
    term_indexes: tuple[int, ...]
    keywords: frozenset[str]

    @property
    def key(self) -> tuple:
        """The exact-match cache key: shape plus the radius vector."""
        return (self.shape, self.radii)

    @property
    def radius_dependent(self) -> bool:
        """True if any leaf has a positive radius.

        Radius-0 terms (``HAS(ω)``) depend only on keyword placement,
        never on edge weights, so pure-HAS entries survive topology
        swaps.
        """
        return any(radius > 0 for radius in self.radii)


def _leaf_shape(query: QClassQuery, index: int) -> tuple:
    term = query.terms[index]
    source = term.source
    if isinstance(source, KeywordSource):
        return ("term", ("kw", source.keyword))
    if isinstance(source, NodeSource):
        return ("term", ("node", source.node))
    raise QueryError(f"uncacheable coverage source {source!r}")


def _flatten(expression: DExpression, op: SetOp):
    """Yield the maximal same-op chain's children, left to right."""
    if expression.op is op:
        yield from _flatten(expression.left, op)
        yield from _flatten(expression.right, op)
    else:
        yield expression


def _canon(
    expression: DExpression, sign: int, query: QClassQuery
) -> tuple[tuple, list[tuple[int, int, float]]]:
    """Return ``(shape, leaves)`` with leaves as ``(term_index, sign, radius)``.

    Sorting soundness: siblings of a commutative op are ordered by
    ``(shape, radii)``.  When two siblings tie on shape they reference
    the same sources with the same polarities, so any positional pairing
    between an entry's leaves and a probe's leaves pairs leaves of
    identical source and polarity — the subsumption predicate and the
    filter stay exact even if the radii tie-break ordered them
    differently on the two sides.
    """
    if expression.op is None:
        term = query.terms[expression.index]
        return _leaf_shape(query, expression.index), [
            (expression.index, sign, term.radius)
        ]
    if expression.op is SetOp.SUBTRACT:
        left_shape, left_leaves = _canon(expression.left, sign, query)
        right_shape, right_leaves = _canon(expression.right, -sign, query)
        return ("not", left_shape, right_shape), left_leaves + right_leaves
    tag = "and" if expression.op is SetOp.INTERSECT else "or"
    parts = [_canon(child, sign, query) for child in _flatten(expression, expression.op)]
    parts.sort(key=lambda part: (part[0], tuple(leaf[2] for leaf in part[1])))
    shape = (tag, tuple(child_shape for child_shape, _leaves in parts))
    leaves = [leaf for _shape, child_leaves in parts for leaf in child_leaves]
    return shape, leaves


def canonicalize(query: QClassQuery) -> CanonicalQuery:
    """Reduce ``query`` to its canonical cache form."""
    shape, leaves = _canon(query.expression, +1, query)
    return CanonicalQuery(
        shape=shape,
        radii=tuple(radius for _index, _sign, radius in leaves),
        polarities=tuple(sign for _index, sign, _radius in leaves),
        term_indexes=tuple(index for index, _sign, _radius in leaves),
        keywords=frozenset(query.keywords()),
    )


def subsumes(entry: CanonicalQuery, probe: CanonicalQuery) -> bool:
    """True iff the entry's stored answer can *exactly* answer the probe.

    Requires identical shapes (same sources, operators and polarities),
    then applies the per-leaf radius predicate documented in the module
    docstring.  An exact key match also satisfies this (every leaf
    equal); callers check the exact key first so a subsumption hit
    implies at least one strictly smaller positive radius.
    """
    if entry.shape != probe.shape:
        return False
    for sign, entry_radius, probe_radius in zip(
        entry.polarities, entry.radii, probe.radii
    ):
        if sign > 0:
            if probe_radius > entry_radius:
                return False
        elif probe_radius != entry_radius:
            return False
    return True


def _mask(shape: tuple, leaves, columns) -> int:
    """The boolean form of ``shape`` over every stored node at once.

    ``leaves`` yields ``(column index, probe radius)`` per canonical
    leaf, in leaf order.  A leaf is one threshold pass over its column,
    one byte per node read as an int, so ∪/∩/− are ``|``/``&``/``& ~``.
    """
    tag = shape[0]
    if tag == "term":
        index, radius = next(leaves)
        return int.from_bytes(bytes(map(float(radius).__ge__, columns[index])), "little")
    if tag == "not":
        left = _mask(shape[1], leaves, columns)
        return left & ~_mask(shape[2], leaves, columns)
    masks = [_mask(child, leaves, columns) for child in shape[1]]
    value = masks[0]
    for mask in masks[1:]:
        value = value & mask if tag == "and" else value | mask
    return value


def filter_answer(
    entry: CanonicalQuery,
    probe: CanonicalQuery,
    partial: tuple[array, list[array]],
) -> array:
    """Exact probe answer, filtered from one fragment's stored partial.

    ``partial`` is the *entry's* ``(run, columns)`` for one fragment
    (:func:`repro.core.executor.execute_fragment_task_explained`); the
    result is the probe's run on that fragment.  Sound only when
    ``subsumes(entry, probe)`` holds: shrinking positive radii can only
    shrink the answer (monotone boolean over monotone leaves), so no
    node outside the stored run can enter, and every stored node's
    membership is re-decidable from the stored distances.
    """
    run, columns = partial
    if not run:
        return EMPTY_RUN
    leaves = zip(entry.term_indexes, probe.radii)
    keep = _mask(entry.shape, leaves, columns).to_bytes(len(run), "little")
    return array("Q", compress(run, keep))
