"""NPD-index construction (paper Algorithm 1, §4.1).

One bounded *backward* search per portal of the fragment, on the dense
state of :mod:`repro.search.dense`: a ``dist`` list, a settle order and
one *dirty* flag per node — set when a member of ``P`` lies strictly
between the node and the portal, which is the paper's ``visitedParts``
reduced to the only membership that matters (membership in ``P``):

* a settled member that is not dirty and has no original edge of that
  length to the portal yields an ``SC`` shortcut (Rule 1);
* a settled outside node that is not dirty yields ``DL`` records
  (Rule 2): per-keyword minima (the §3.7 virtual-keyword-node form) and,
  per :class:`DLNodePolicy`, a concrete node entry.

The flag is written when a label is relaxed and combined when a label
ties, so what is recorded under shortest-path ties is a property of the
graph, not of the order nodes settle in: by default a pair is recorded
when *some* shortest path qualifies (flags AND-ed), under
``strict_tie_rules`` when *every* one does (OR-ed; Rules 3/4).  The
default is a superset of the minimal sets, but every recorded value is
an exact path length and the query-time search takes minima, so
correctness is unaffected (§5.3).  :mod:`repro.core.maintenance` runs
the same rule forward, so a maintained index equals a rebuilt one.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass

from repro.exceptions import IndexBuildError
from repro.core.fragment import Fragment
from repro.core.npd import DLNodePolicy, NPDIndex
from repro.graph.road_network import RoadNetwork
from repro.search.dense import DenseSearch

__all__ = ["NPDBuildConfig", "BuildStats", "build_npd_index", "build_all_indexes"]


@dataclass(frozen=True)
class NPDBuildConfig:
    """Parameters of NPD-index construction.

    Exactly one of ``max_radius`` (absolute) or ``lambda_factor``
    (``maxR = λ·ē``, the paper's Table-2 parameterisation with default
    λ=40) should be set; ``lambda_factor`` wins if both are given.
    ``math.inf`` (the default ``max_radius`` when both are ``None``)
    builds the untruncated index of §5.5.

    ``strict_tie_rules`` selects the §5.3 variant: under shortest-path
    ties the default builder records a pair whenever *some* shortest
    path qualifies (a safe superset, see the module docstring); the
    strict mode implements Rules 3/4 literally — record only when
    *every* shortest path avoids interior members — yielding the
    minimal index at the cost of tracking tie cleanliness.
    """

    max_radius: float | None = None
    lambda_factor: float | None = None
    node_policy: DLNodePolicy = DLNodePolicy.OBJECTS
    strict_tie_rules: bool = False

    def resolve_max_radius(self, network: RoadNetwork) -> float:
        """The absolute ``maxR`` for ``network``."""
        if self.lambda_factor is not None:
            if self.lambda_factor <= 0:
                raise IndexBuildError("lambda_factor must be positive")
            return self.lambda_factor * network.average_edge_weight
        if self.max_radius is not None:
            if self.max_radius < 0:
                raise IndexBuildError("max_radius must be non-negative")
            return self.max_radius
        return math.inf


@dataclass
class BuildStats:
    """Construction-cost accounting for one fragment (Table 3 / EXP 2).

    ``settled_nodes`` sums the nodes within ``maxR`` of each portal;
    ``relaxed_edges`` the arcs scanned, i.e. the degrees of those nodes.
    """

    fragment_id: int
    num_portals: int
    settled_nodes: int = 0
    relaxed_edges: int = 0
    wall_seconds: float = 0.0


def build_npd_index(
    network: RoadNetwork,
    fragment: Fragment,
    config: NPDBuildConfig | None = None,
    search: DenseSearch | None = None,
) -> tuple[NPDIndex, BuildStats]:
    """Build ``IND(P)`` for one fragment (Algorithm 1).

    Returns the sealed index together with construction statistics.  The
    search touches the whole network (construction is an offline, global
    computation — §4.1) but the *output* concerns only ``fragment``,
    which is what makes construction fragment-parallel.  ``search`` is
    the network's *reverse* row view, for callers that build more than
    one fragment; it is derived here when omitted.
    """
    config = config or NPDBuildConfig()
    max_radius = config.resolve_max_radius(network)
    policy = config.node_policy
    index = NPDIndex(
        fragment_id=fragment.fragment_id,
        max_radius=max_radius,
        node_policy=policy,
        directed=network.directed,
    )
    stats = BuildStats(fragment_id=fragment.fragment_id, num_portals=fragment.num_portals)
    keyword_pairs: dict[str, list[tuple[int, float]]] = {}
    node_pairs: dict[int, list[tuple[int, float]]] = {}

    started = time.perf_counter()
    # Backward search: distances are d(p -> portal), so the rows are the
    # in-arcs (on undirected graphs the forward CSR is its own reverse).
    search = search or DenseSearch(network, reverse=True)
    rows = search.rows
    degree = list(map(len, rows))  # arcs scanned when a node settles
    nodes = network.nodes()
    member = bytes(node in fragment.members for node in nodes)
    keywords = [network.keywords(node) for node in nodes]
    has_entry = bytes(
        policy is DLNodePolicy.ALL or (policy is DLNodePolicy.OBJECTS and network.is_object(node))
        for node in nodes
    )
    # Rules 1-2 concern members and entry-bearing outsiders only; the
    # other settled nodes (most of them: outside junctions) are skipped in C.
    relevant = bytes(map(max, member, map(bool, keywords), has_entry))
    for portal in sorted(fragment.portals):
        order, dist, dirty = search.run((portal,), max_radius, member, config.strict_tie_rules)
        stats.settled_nodes += len(order)
        stats.relaxed_edges += sum(map(degree.__getitem__, order))
        direct = dict(rows[portal])  # the arcs p -> portal of G
        nearest: dict[str, float] = {}
        for p in filter(relevant.__getitem__, order):
            if dirty[p]:
                continue
            d = dist[p]
            if member[p]:
                # Rule 1: member-to-portal shortcut.  Condition 2 excludes
                # the pair only when (p, portal, d(p, portal)) is an edge
                # of G *with that weight* — an original edge longer than
                # the shortest path does not make the shortcut redundant.
                if p != portal and direct.get(p, math.inf) > d * (1.0 + 1e-12):
                    index.add_shortcut(p, portal, d)
                continue
            # Rule 2: outside node some (every, if strict) shortest path
            # of which first touches P at this portal.  A bucket is not
            # swept in distance order, so the minimum is taken explicitly.
            for keyword in keywords[p]:
                if d < nearest.get(keyword, math.inf):
                    nearest[keyword] = d
            if has_entry[p]:
                node_pairs.setdefault(p, []).append((portal, d))
        for keyword, d in nearest.items():
            keyword_pairs.setdefault(keyword, []).append((portal, d))
    index.seal(keyword_pairs, node_pairs)
    stats.wall_seconds = time.perf_counter() - started
    return index, stats


def build_all_indexes(
    network: RoadNetwork,
    fragments: list[Fragment],
    config: NPDBuildConfig | None = None,
) -> tuple[list[NPDIndex], list[BuildStats]]:
    """Build the NPD-index of every fragment, on every usable core.

    The per-fragment builds are independent — one per machine in the
    paper (§4.1).  Given two usable CPUs, two fragments and
    ``_FORK_MIN_PORTALS`` portals, this process builds one share of the
    fragments (shares balanced by portal count) and a forked child per
    other share builds the rest, pickling its results back over a pipe;
    otherwise, or while another thread is alive (forking a threaded
    process is unsafe), it builds them all.  Every share runs
    :func:`_build_share`, so the output does not depend on the path, and
    each ``wall_seconds`` is timed in the process that built it.
    """
    config = config or NPDBuildConfig()
    search = DenseSearch(network, reverse=True)
    shares = _shares(fragments, len(os.sched_getaffinity(0)))
    if len(shares) > 1 and threading.active_count() == 1:
        built = _build_forked(network, fragments, config, search, shares)
    else:
        built = _build_share(network, fragments, config, search)
    return [index for index, _stats in built], [stats for _index, stats in built]


# Fewer portals in all than this are built in process.  On a 2-vCPU Linux
# host a fork, a share's unpickle and the child's copy-on-write faults
# cost 5-20 ms, and one portal search 0.13 ms (bri_tiny, λ=3) to 5.5 ms
# (bri_mini, λ=40): bri_tiny/8 at λ=3, 341 portals, about breaks even.
_FORK_MIN_PORTALS = 256


def _shares(fragments: list[Fragment], cpus: int) -> list[list[int]]:
    """Fragment positions per share: LPT by portal count, one share per CPU."""
    portals = [fragment.num_portals for fragment in fragments]
    if cpus < 2 or len(fragments) < 2 or sum(portals) < _FORK_MIN_PORTALS:
        return [list(range(len(fragments)))]
    shares: list[list[int]] = [[] for _ in range(min(cpus, len(fragments)))]
    for position in sorted(range(len(fragments)), key=portals.__getitem__, reverse=True):
        min(shares, key=lambda share: sum(map(portals.__getitem__, share))).append(position)
    return [sorted(share) for share in shares]


def _build_share(
    network: RoadNetwork, fragments: list[Fragment], config: NPDBuildConfig, search: DenseSearch
) -> list[tuple[NPDIndex, BuildStats]]:
    return [build_npd_index(network, fragment, config, search) for fragment in fragments]


def _build_forked(
    network: RoadNetwork,
    fragments: list[Fragment],
    config: NPDBuildConfig,
    search: DenseSearch,
    shares: list[list[int]],
) -> list[tuple[NPDIndex, BuildStats]]:
    """Build ``shares[0]`` here and every other share in a forked child.

    A child's exception is raised here; every child is reaped and every
    pipe closed on every way out.
    """
    children: list[tuple[int, int, list[int]]] = []  # (pid, read end, positions)
    try:
        for positions in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # pragma: no cover - the child never returns
                share = [fragments[i] for i in positions]
                _child_main(write_fd, lambda: _build_share(network, share, config, search))
            os.close(write_fd)
            children.append((pid, read_fd, positions))
        own = [fragments[i] for i in shares[0]]
        built = dict(zip(shares[0], _build_share(network, own, config, search)))
        while children:
            pid, read_fd, positions = children.pop(0)
            try:  # unpickled from the stream: the bytes never sit beside the indexes
                with os.fdopen(read_fd, "rb") as pipe:
                    outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = IndexBuildError(f"index build child {pid} died before its result")
            finally:
                _reap(pid)
            if isinstance(outcome, BaseException):
                raise outcome
            built.update(zip(positions, outcome))
    finally:
        for pid, read_fd, _positions in children:
            os.close(read_fd)
            _reap(pid)
    return [built[position] for position in range(len(fragments))]


def _reap(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)  # a no-op on a child that has exited
    os.waitpid(pid, 0)


def _child_main(write_fd: int, build) -> None:  # pragma: no cover - a forked child
    """Run ``build()``, pickle its result (or its error) to ``write_fd``, exit."""
    try:
        try:
            outcome = build()
        except BaseException as error:
            try:
                outcome = pickle.loads(pickle.dumps(error))
            except Exception:
                outcome = IndexBuildError(f"{type(error).__name__}: {error}")
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)
