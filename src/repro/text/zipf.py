"""Zipf keyword sampling and spatially clustered keyword placement.

Real POI keyword data is heavily skewed (a few tags like "restaurant"
dominate) and spatially correlated (shops cluster in town centres).  The
paper's query generator exploits exactly these two properties (§6,
*Generating queries*), so the synthetic datasets must exhibit them for
the benchmark shapes to be meaningful.

:class:`ZipfSampler` draws keyword ranks from a Zipf(``s``) law;
:class:`ClusteredKeywordPlacer` assigns keyword sets to positioned
objects by blending a per-cluster topic distribution with the global one.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import DisksError

__all__ = ["ZipfSampler", "PlacementConfig", "ClusteredKeywordPlacer"]


class ZipfSampler:
    """Draws integer ranks ``0..n-1`` with probability ``∝ 1/(rank+1)^s``.

    Uses inverse-CDF sampling over the precomputed cumulative weights, so
    draws are O(log n) and fully deterministic given the RNG.
    """

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n <= 0:
            raise DisksError("ZipfSampler needs a positive support size")
        if s < 0:
            raise DisksError("Zipf exponent must be non-negative")
        self._n = n
        self._s = s
        weights = [1.0 / (rank + 1.0) ** s for rank in range(n)]
        total = 0.0
        self._cdf: list[float] = []
        for w in weights:
            total += w
            self._cdf.append(total)
        self._total = total

    def probability(self, rank: int) -> float:
        """Probability mass of ``rank``."""
        if not (0 <= rank < self._n):
            return 0.0
        prev = self._cdf[rank - 1] if rank else 0.0
        return (self._cdf[rank] - prev) / self._total

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        u = rng.random() * self._total
        return bisect.bisect_left(self._cdf, u)

    def sample_many(self, rng: random.Random, count: int) -> list[int]:
        """Draw ``count`` ranks (with replacement)."""
        return [self.sample(rng) for _ in range(count)]


@dataclass(frozen=True)
class PlacementConfig:
    """Parameters for :class:`ClusteredKeywordPlacer`.

    Attributes
    ----------
    vocabulary_size:
        Number of distinct keywords to synthesise (``kw0001`` ...).
    zipf_exponent:
        Skew of the global keyword frequency law.
    num_clusters:
        Number of spatial topic clusters; objects are assigned to the
        nearest cluster centre.
    cluster_affinity:
        Probability that a keyword of an object is drawn from its
        cluster's topic sub-vocabulary rather than the global law; 0
        disables spatial correlation entirely.
    topic_size:
        Number of keywords in each cluster topic.
    min_keywords, max_keywords:
        Inclusive bounds on the per-object keyword-set size.
    seed:
        RNG seed for cluster layout and topic choice.
    """

    vocabulary_size: int = 500
    zipf_exponent: float = 1.0
    num_clusters: int = 12
    cluster_affinity: float = 0.6
    topic_size: int = 25
    min_keywords: int = 1
    max_keywords: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocabulary_size <= 0:
            raise DisksError("vocabulary_size must be positive")
        if not (0.0 <= self.cluster_affinity <= 1.0):
            raise DisksError("cluster_affinity must lie in [0, 1]")
        if self.min_keywords < 1 or self.max_keywords < self.min_keywords:
            raise DisksError("keyword-count bounds are invalid")


class ClusteredKeywordPlacer:
    """Assigns Zipf-skewed, spatially clustered keyword sets to objects."""

    def __init__(self, config: PlacementConfig, area: tuple[float, float, float, float]) -> None:
        """``area`` is the bounding box ``(min_x, min_y, max_x, max_y)``."""
        self._config = config
        self._rng = random.Random(config.seed)
        self._global = ZipfSampler(config.vocabulary_size, config.zipf_exponent)
        min_x, min_y, max_x, max_y = area
        if max_x < min_x or max_y < min_y:
            raise DisksError("placement area bounding box is inverted")
        self._centres = [
            (self._rng.uniform(min_x, max_x), self._rng.uniform(min_y, max_y))
            for _ in range(max(1, config.num_clusters))
        ]
        topic_size = min(config.topic_size, config.vocabulary_size)
        self._topics = [
            self._global.sample_many(self._rng, topic_size) for _ in self._centres
        ]

    @staticmethod
    def keyword_name(rank: int) -> str:
        """Canonical keyword string for a rank (``kw0000`` is the most frequent)."""
        return f"kw{rank:04d}"

    def _nearest_cluster(self, position: tuple[float, float]) -> int:
        best, best_d = 0, math.inf
        for i, (cx, cy) in enumerate(self._centres):
            d = (position[0] - cx) ** 2 + (position[1] - cy) ** 2
            if d < best_d:
                best, best_d = i, d
        return best

    def keywords_for(self, position: tuple[float, float]) -> frozenset[str]:
        """Draw the keyword set of an object at ``position``."""
        cfg = self._config
        count = self._rng.randint(cfg.min_keywords, cfg.max_keywords)
        topic = self._topics[self._nearest_cluster(position)]
        ranks: set[int] = set()
        attempts = 0
        while len(ranks) < count and attempts < 20 * count:
            attempts += 1
            if topic and self._rng.random() < cfg.cluster_affinity:
                ranks.add(topic[self._rng.randrange(len(topic))])
            else:
                ranks.add(self._global.sample(self._rng))
        return frozenset(self.keyword_name(rank) for rank in ranks)

    def place_all(self, positions: Sequence[tuple[float, float]]) -> list[frozenset[str]]:
        """Keyword sets for a sequence of object positions, in order."""
        return [self.keywords_for(pos) for pos in positions]
