"""Query-level semantic result cache (epoch-aware, with subsumption).

Layered *above* the per-fragment coverage cache: where that cache
memoises one term's distance map inside one worker, this one memoises
whole query answers at the frontend, keyed by a canonicalized query
shape so that commuted-but-equivalent expressions share an entry.  Two
semantic features make it more than a memo table:

* **subsumption** — a cached ``R(ω, 500)`` answers ``R(ω, 300)`` by
  filtering the stored per-term distance columns (see
  :func:`repro.cache.keys.subsumes` for the exact-safety predicate);
* **epoch-delta invalidation** — the cache rides
  :meth:`repro.live.epochs.EpochManager.subscribe_swaps` and evicts
  only entries whose dependency set (keywords × fragment scope)
  intersects the swap, the same routing the standing-query engine uses.
"""

from repro.cache.keys import CanonicalQuery, canonicalize, filter_answer, subsumes
from repro.cache.store import CacheHit, SemanticResultCache

__all__ = [
    "CanonicalQuery",
    "CacheHit",
    "SemanticResultCache",
    "canonicalize",
    "filter_answer",
    "subsumes",
]
