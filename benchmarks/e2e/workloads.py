"""The four workloads: what the server runs and what the clients send.

Everything here is a pure function of ``(network, max_radius, seed)``:
the same seed gives byte-identical expression pools, read streams and
update plans (``test_e2e_smoke.py`` pins that).  The served program
never sees the seed, only the generated text and frames.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.language import parse_query
from repro.core.queries import KeywordSource
from repro.serve import generate_expressions

# The deployment every workload serves (ISSUE: bri_mini, 8 fragments,
# λ=40, 2 workers because this box has 2 cores).
DATASET = "bri_mini"
NUM_FRAGMENTS = 8
LAMBDA = 40.0
NUM_WORKERS = 2
NUM_CONNECTIONS = 2

# A reference run is 5 slices x 6 s; shorter runs scale every phase by
# seconds / REFERENCE_SECONDS and record the factor.
REFERENCE_SECONDS = 30.0
SLICES = 5

ORACLE_SAMPLE = 32
TRACE_SAMPLE = 200
RKQ_EVERY = 4  # every 4th pool entry is an RKQ: rkq_fraction = 0.25, exactly
ZIPF_EXPONENT = 1.0
UPDATES_PER_SLICE = 1  # connection 0 sends it mid-slice, so every slice holds the same work
CATALOGUE_SEED = 11  # the cache workload's 128 shapes do not vary with --seed
NARROW_EVERY = 4  # cache pool: every 4th shape is the half-radius sibling of the one before it
CHURN_PAIRS = 8
CHURN_FREQUENCY = (8, 16)  # global frequency band of the toggled keywords
OPEN_LOOP_RATE = 300.0
OPEN_LOOP_SECONDS = 10.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server configuration it runs against."""

    name: str
    cluster: str  # "pipelined" | "ha"
    protocol: str  # "binary" | "ndjson"
    keywords: int
    radius_divisor: int
    pool_size: int
    cache: bool = False
    obs: bool = False
    open_loop: bool = False

    @property
    def cluster_layer(self) -> str:
        """The module name the cluster's layer metrics are reported under."""
        return "ha.cluster" if self.cluster == "ha" else "serve.pipeline"

    @property
    def churn(self) -> bool:
        """Whether connection 0 interleaves live updates with its reads."""
        return self.cache


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wide_eval",
            cluster="pipelined",
            protocol="binary",
            keywords=3,
            radius_divisor=2,
            pool_size=200,
        ),
        Workload(
            name="point_ndjson",
            cluster="pipelined",
            protocol="ndjson",
            keywords=2,
            radius_divisor=32,
            pool_size=400,
            open_loop=True,
        ),
        Workload(
            name="cache_churn",
            cluster="pipelined",
            protocol="binary",
            keywords=3,
            radius_divisor=4,
            pool_size=128,
            cache=True,
        ),
        Workload(
            name="ha_obs",
            cluster="ha",
            protocol="binary",
            keywords=3,
            radius_divisor=8,
            pool_size=400,
            obs=True,
        ),
    )
}


def _mixed_pool(network, count: int, radius: float, keywords: int, seed: int) -> list[str]:
    """``count`` §6 expressions, every ``RKQ_EVERY``-th one an RKQ.

    An RKQ costs ~1/25 of an SGKQ of the same shape on this index, so
    drawing the kind per query (``rkq_fraction=0.25`` as a coin flip)
    made the RKQ *count* alone move qps by ±4 % between seeds.  A fixed
    quota keeps the 3:1 mix and leaves only the keyword draws to the
    seed.  The order is shuffled (same seed, same permutation) so the
    two connections do not meet their RKQs in lockstep.
    """
    num_rkq = count // RKQ_EVERY
    sgkq = iter(
        generate_expressions(
            network, count=count - num_rkq, radius=radius, num_keywords=keywords,
            rkq_fraction=0.0, seed=seed,
        )
    )
    rkq = iter(
        generate_expressions(
            network, count=num_rkq, radius=radius, num_keywords=keywords,
            rkq_fraction=1.0, seed=seed,
        )
    )
    pool = [
        next(rkq) if i % RKQ_EVERY == RKQ_EVERY - 1 else next(sgkq)
        for i in range(count)
    ]
    random.Random(seed).shuffle(pool)
    return pool


def expression_pool(workload: Workload, network, max_radius: float, seed: int) -> list[str]:
    """The distinct query texts of one run."""
    radius = max_radius / workload.radius_divisor
    if not workload.cache:
        return _mixed_pool(network, workload.pool_size, radius, workload.keywords, seed)
    # Same seed at two radii: identical keyword draws and shuffle, so a
    # narrow query is answerable from its wide sibling's cached
    # distances.  One shape in four is such a sibling: a subsumption hit
    # re-filters the stored distances and costs ~5x an exact hit, so at
    # one in two the median latency sat on the edge between the two
    # kinds of hit and moved by 25 % between seeds.
    #
    # The catalogue itself is the same for every seed: a hit costs time
    # linear in its answer size, answer sizes run from 0 to ~5,000 nodes,
    # and the mean over 96 drawn shapes alone moved qps and CPU per query
    # by 16-18 % between seeds with no update running.  The seed still
    # draws who reads what when and which keywords churn.
    wide_count = workload.pool_size * (NARROW_EVERY - 1) // NARROW_EVERY
    wide = _mixed_pool(network, wide_count, radius, workload.keywords, CATALOGUE_SEED)
    narrow = _mixed_pool(network, wide_count, radius / 2, workload.keywords, CATALOGUE_SEED)
    pool = []
    for first in range(0, wide_count, NARROW_EVERY - 1):
        pool += [wide[first], narrow[first], *wide[first + 1 : first + NARROW_EVERY - 1]]
    return pool


def pool_walk(pool_size: int, connection: int) -> list[int]:
    """The whole pool once, each connection starting at its own offset."""
    offset = connection * pool_size // NUM_CONNECTIONS
    return [(offset + i) % pool_size for i in range(pool_size)]


def read_order(workload: Workload, pool_size: int, seed: int, connection: int) -> list[int]:
    """Pool indexes one connection cycles through while measured.

    Static workloads walk the whole pool, so every connection sees the
    full mix.  The churn workload draws Zipf(1.0) popularity ranks
    instead, and the rank-to-shape mapping drifts one step per read: a
    hit on an 8-node RKQ answer costs a fifth of a hit on a 2,000-node
    one, and rank 1 alone takes 18 % of the reads, so with a fixed
    mapping the choice of hot shapes moved qps by 2x, and with a slow
    drift slices differed by which shapes were hot in them.  Now every
    shape is hot for the same share of every slice; the cache holds all
    128 shapes either way.
    """
    if not workload.cache:
        return pool_walk(pool_size, connection)
    rng = random.Random(seed * 1_000_003 + connection)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool_size)]
    # 32 whole rotations, so cycling through the list is seamless.
    ranks = rng.choices(range(pool_size), weights=weights, k=32 * pool_size)
    start = connection * pool_size // NUM_CONNECTIONS
    return [(rank + start + i) % pool_size for i, rank in enumerate(ranks)]


def pool_keywords(pool: list[str]) -> list[str]:
    """Every keyword some pool expression names, sorted."""
    found: set[str] = set()
    for expression in pool:
        for term in parse_query(expression).terms:
            if isinstance(term.source, KeywordSource):
                found.add(term.source.keyword)
    return sorted(found)


def update_plan(network, pool: list[str], seed: int, length: int = 512) -> list[list[dict]]:
    """Update batches toggling keywords on a few objects.

    Keyword ops only — a ``SetEdgeWeight`` rebuilds fragments for
    seconds, which would turn the run into an index-build benchmark
    (``setup_s`` covers the builder).  Each ``(object, keyword)`` pair
    starts absent and is removed before it is added again, so the plan
    stays valid however far it is replayed.
    """
    rng = random.Random(seed)
    frequencies = network.keyword_frequencies()
    low, high = CHURN_FREQUENCY
    candidates = [kw for kw in pool_keywords(pool) if low <= frequencies.get(kw, 0) <= high]
    objects = list(network.object_nodes())
    rng.shuffle(candidates)
    pairs: list[tuple[int, str]] = []
    for keyword in candidates[:CHURN_PAIRS]:
        node = next(n for n in rng.sample(objects, len(objects)) if keyword not in network.keywords(n))
        pairs.append((node, keyword))
    if not pairs:
        raise RuntimeError("no pool keyword falls in the churn frequency band")
    # Batch k adds pair k and removes pair k-1: every update after the
    # first does the same kind of work (a remove costs ~2x an add here),
    # and the network always differs from its initial state.
    def record(kind: str, index: int) -> dict:
        node, keyword = pairs[index % len(pairs)]
        return {"op": kind, "node": node, "keyword": keyword}

    return [
        [record("add_keyword", k)] + ([record("remove_keyword", k - 1)] if k else [])
        for k in range(length)
    ]
