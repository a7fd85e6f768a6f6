"""Per-satellite delivery-latency engines for both reference architectures.

Architecture semantics
----------------------
* ``downhaul-greedy``: every satellite that sees at least one ground station
  downlinks to the station at minimum straight-line distance and pays that
  station's fixed surface leg to the terminus.  Satellites without a visible
  station are resolved by relaying over inter-satellite links to the
  fixpoint of ``L_i = min_j (delay(i, j) + penalty + L_j)``.  Station-backed
  labels act as immutable boundary values: relaying never rewrites them.
* ``downhaul-optimal``: true shortest path to the terminus, quantifying
  the cost of the greedy station choice.  Every station-visible satellite
  is seeded with its best downlink offer (downlink delay plus that
  station's surface leg, minimised over the stations it sees), and relaying
  over inter-satellite links may beat the offer.  Stations only forward
  toward the terminus; there are no ground-bounce paths back into the
  constellation.
* ``onorbit``: multi-source shortest path over inter-satellite links with
  every actuator at distance zero.  A hop is penalty-free when it lands
  directly on an actuator; every other relay hop pays the reroute penalty.

One engine
----------
Every mode is one seeded relaxation problem over the graph's satellite
adjacency, one node per satellite, which the graph build emits and every
solve on the graph shares.  Jacobi sweeps apply
``label[v] = min(label[v], weight(u, v) + label[u])`` along the hops leaving
the nodes whose label dropped in the previous sweep (along every hop at
once when those are a large share), until a sweep lowers nothing, so a
relay chain costs O(E) relaxations, not O(V * E).

The labels do not depend on the relaxation order: every weight is >= 0 and
``fl(w + a)`` is monotone in ``a``, so any order that runs until no hop
improves ends at the minimum over paths of the floating-point path cost,
bit for bit what a heap Dijkstra returns.  The tests keep one as the
oracle.  Hops, next hop and terminal come from the labels alone: a node's
parent is its lowest-index in-hop from a smaller label that attains its
label exactly; failing that, its own seed if that attains the label (a
fixed seed always roots); failing that, an attaining in-hop from an equal
label, whose delay the sum absorbed, taken in rounds only from nodes whose
parent is already set.  The report reads the resulting forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .constellation import ConstellationSnapshot, GroundStationNode
from .geo import GeodeticPosition, propagation_delay_ms, surface_distance_km
from .topology import SatAdjacency, VisibilityGraph


class ArchitectureMode(str, Enum):
    DOWNHAUL_GREEDY = "downhaul-greedy"
    DOWNHAUL_OPTIMAL = "downhaul-optimal"
    ON_ORBIT = "onorbit"

    @classmethod
    def from_string(cls, text: str) -> "ArchitectureMode":
        if not isinstance(text, str):
            raise ValueError(f"must be a string, got {text!r}")
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(
            f"unknown architecture mode {text!r}; expected one of "
            f"{', '.join(m.value for m in cls)}"
        )


@dataclass(frozen=True, eq=False)
class LatencyReport:
    """Delivery results, one array per field, each aligned with
    ``snapshot.ids``.

    ``latency_ms`` is float64 with ``inf`` for an unreachable satellite;
    ``hops`` is int64 with -1 for one; ``next_hop`` and ``terminal`` are
    object arrays of ``str`` or ``None`` (None when unreachable; ``next_hop``
    is also None at a satellite that delivers to itself).
    """

    sat_ids: tuple[str, ...]
    latency_ms: np.ndarray
    hops: np.ndarray
    next_hop: np.ndarray
    terminal: np.ndarray

    def __len__(self) -> int:
        return len(self.sat_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyReport):
            return NotImplemented
        return self.sat_ids == other.sat_ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("latency_ms", "hops", "next_hop", "terminal")
        )

    def unreachable_count(self) -> int:
        return int(np.count_nonzero(np.isinf(self.latency_ms)))


@dataclass(frozen=True, eq=False)
class RelaySeeds:
    """The nodes that deliver directly, one entry per node, with each one's
    fixed boundary label and the report fields to emit where it is used
    as-is: aligned columns ``node`` and ``hops`` (int64), ``label_ms``
    (float64), ``next_hop`` and ``terminal`` (``str`` or ``None``).  A
    scalar field is broadcast to every node."""

    node: np.ndarray
    label_ms: np.ndarray
    hops: np.ndarray
    next_hop: np.ndarray
    terminal: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.node)
        for name, dtype in (("node", np.int64), ("label_ms", np.float64), ("hops", np.int64),
                            ("next_hop", object), ("terminal", object)):
            column = np.broadcast_to(np.asarray(getattr(self, name), dtype=dtype), shape)
            object.__setattr__(self, name, column)
        if not (self.label_ms >= 0.0).all():
            raise ValueError(f"seed labels must be >= 0, got {self.label_ms.min()}")
        if np.unique(self.node).size != self.node.size:
            raise ValueError("a node is seeded more than once")


@dataclass
class _RelayProblem:
    """Directed relaxation problem over a graph's satellite adjacency, one
    node per satellite.

    Hop (src, dst, weight) means ``label[dst]`` may be improved to
    ``weight + label[src]``.  A hop weighs ``delay + penalty_ms`` unless its
    source is ``exempt``.  Seeds start at their seed label; with
    ``fixed_seeds`` no hop relaxes into a seed, otherwise relaying may lower
    a seed's label like any other.
    """

    adjacency: SatAdjacency
    penalty_ms: float
    exempt: np.ndarray  # (sat_count,) bool
    seeds: RelaySeeds
    node_names: tuple[str, ...]
    fixed_seeds: bool = True

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    def sat_weights(self, src: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Penalised weights of satellite hops leaving ``src``."""
        if self.penalty_ms == 0.0:
            return delays_ms
        return np.where(self.exempt[src], delays_ms, delays_ms + self.penalty_ms)

    @cached_property
    def in_weights(self) -> np.ndarray:
        """Penalised weight of every adjacency entry read as the hop
        ``neighbors[k] -> row``: row ``v`` lists the hops into ``v``."""
        return self.sat_weights(self.adjacency.neighbors, self.adjacency.delays_ms)

    def out_hops(self, sats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every hop between satellites leaving ``sats`` (distinct satellite
        indices) as (src, dst, weight)."""
        adj = self.adjacency
        starts = adj.indptr[sats]
        counts = adj.indptr[sats + 1] - starts
        ends = np.cumsum(counts)
        # Concatenated ranges starts[k]:starts[k] + counts[k], without a loop.
        idx = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)
        src = np.repeat(sats, counts)
        return src, adj.neighbors[idx], self.sat_weights(src, adj.delays_ms[idx])

    def best_candidates(self, labels: np.ndarray) -> np.ndarray:
        """Lowest candidate over all hops between satellites into each node;
        inf where there is none."""
        adj = self.adjacency
        best = np.full(self.node_count, math.inf)
        rows = np.flatnonzero(np.diff(adj.indptr))
        cand = self.in_weights + labels[adj.neighbors]
        best[rows] = np.minimum.reduceat(cand, adj.indptr[rows])
        return best


@dataclass(frozen=True)
class _Fixpoint:
    labels: np.ndarray
    sweeps: int  # sweeps that lowered at least one label
    relaxed_edges: int  # hops whose candidate was evaluated, over all sweeps


# A pull sweep reads every hop, at roughly a quarter of a push's cost per hop
# (one gather and a contiguous min-reduce instead of gathers and a scatter).
_PULL_WHEN_FRONTIER_HOPS_EXCEED = 0.25


def _relax(problem: _RelayProblem) -> _Fixpoint:
    """Jacobi sweeps of the relay update until no label drops.

    A sweep relaxes the hops leaving the satellites whose label dropped in
    the previous sweep (push), or, when those are a large share, every hop
    by a per-node min-reduce (pull); both give the labels of a full sweep.
    """
    n = problem.node_count
    labels = np.full(n, math.inf)
    labels[problem.seeds.node] = problem.seeds.label_ms
    fixed = np.zeros(n, dtype=bool)
    fixed[problem.seeds.node] = problem.fixed_seeds
    frontier = np.flatnonzero(np.isfinite(labels))
    stamp = np.zeros(n, dtype=np.int64)
    indptr = problem.adjacency.indptr
    sweeps, relaxed = 0, 0
    for _ in range(n + 1):
        frontier_hops = np.sum(indptr[frontier + 1] - indptr[frontier])
        if frontier_hops > _PULL_WHEN_FRONTIER_HOPS_EXCEED * indptr[-1]:
            best = problem.best_candidates(labels)
            relaxed += int(indptr[-1])
            lowered = (best < labels) & ~fixed
            labels[lowered] = best[lowered]
            frontier = np.flatnonzero(lowered)
        else:
            src, dst, weight = problem.out_hops(frontier)
            relaxed += src.size
            cand = weight + labels[src]
            better = (cand < labels[dst]) & ~fixed[dst]
            dst = dst[better]
            np.minimum.at(labels, dst, cand[better])
            # Distinct nodes of dst in O(len(dst)): exactly one position of
            # each node holds the stamp that node received.
            positions = np.arange(dst.size)
            stamp[dst] = positions
            frontier = dst[stamp[dst] == positions]
        if frontier.size == 0:
            return _Fixpoint(labels, sweeps, relaxed)
        sweeps += 1
    raise RuntimeError("relay fixpoint failed to stabilize within node-count sweeps")


def _parents(problem: _RelayProblem, labels: np.ndarray) -> np.ndarray:
    """Parent of every reachable node, the node itself at a root, and -1
    where nothing attains the label.

    Of the in-hops that attain a node's label exactly, one from a smaller
    label (strict progress) wins, lowest node index first.  Failing that, a
    seed whose label is still its seed label is a root; a fixed seed always
    is.  Failing that, an in-hop from an equal label (the sum absorbed its
    delay) is taken only from a node whose parent is already set: each round
    takes the lowest such index per node, and as a round only builds on
    earlier ones, no parent cycle can form.
    """
    n = problem.node_count
    adj = problem.adjacency
    seeds = problem.seeds

    def lowest(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        key = np.full(n, n, dtype=np.int64)
        np.minimum.at(key, dst, src)
        return np.where(key < n, key, -1)

    cand = problem.in_weights + labels[adj.neighbors]
    # np.repeat of the row labels is faster than gathering them by adj.rows.
    attain = np.flatnonzero(cand == np.repeat(labels, np.diff(adj.indptr)))
    dst = adj.rows[attain]
    src = adj.neighbors[attain]
    keep = np.isfinite(labels[dst])
    dst, src = dst[keep], src[keep]
    strict = labels[src] < labels[dst]
    parent = lowest(dst[strict], src[strict])
    roots = seeds.node
    if not problem.fixed_seeds:
        roots = roots[(parent[roots] < 0) & (labels[roots] == seeds.label_ms)]
    parent[roots] = roots
    dst, src = dst[~strict], src[~strict]
    while True:
        take = (parent[dst] < 0) & (parent[src] >= 0)
        if not take.any():
            return parent
        parent = np.where(parent < 0, lowest(dst[take], src[take]), parent)


def _extract_report(problem: _RelayProblem, labels: np.ndarray) -> LatencyReport:
    """Derive hops / next hop / terminal from the converged labels.

    The parent rule of :func:`_parents` depends only on the labels and makes
    a forest.  A root keeps its seed's report fields, and every other node
    takes its root's terminal and hops plus its depth below the root, found
    by pointer jumping in O(log n) rounds.
    """
    n = problem.node_count
    seeds = problem.seeds
    # -1 hops marks a node that is no seed: an unreachable node is its own
    # root at depth 0, so it keeps -1 and None.
    seed_hops = np.full(n, -1, dtype=np.int64)
    seed_next_hop = np.full(n, None, dtype=object)
    seed_terminal = np.full(n, None, dtype=object)
    seed_hops[seeds.node] = seeds.hops
    seed_next_hop[seeds.node] = seeds.next_hop
    seed_terminal[seeds.node] = seeds.terminal

    nodes = np.arange(n)
    parent = _parents(problem, labels)
    orphans = np.flatnonzero(np.isfinite(labels) & (parent < 0))
    if orphans.size:
        node = orphans[np.argmin(labels[orphans])]
        raise RuntimeError(f"no attaining relay edge for node {problem.node_names[node]}")
    parent = np.where(parent < 0, nodes, parent)

    # After k rounds jump[v] is 2**k steps above v, or v's root, and depth[v]
    # counts the steps; a path of n nodes reaches its root within
    # n.bit_length() rounds, and a parent cycle never does.
    jump = parent
    depth = (parent != nodes).astype(np.int64)
    for _ in range(n.bit_length() + 1):
        if np.array_equal(parent[jump], jump):
            break
        depth += depth[jump]
        jump = jump[jump]
    else:
        raise RuntimeError("zero-delay relay cycle: cannot orient delivery paths")

    names = np.array(problem.node_names, dtype=object)
    return LatencyReport(
        sat_ids=problem.node_names,
        latency_ms=labels,
        hops=seed_hops[jump] + depth,
        next_hop=np.where(parent == nodes, seed_next_hop, names[parent]),
        terminal=seed_terminal[jump],
    )


# --- Source builders ----------------------------------------------------------


def actuator_sources(snapshot: ConstellationSnapshot) -> RelaySeeds:
    """On-orbit boundary: every actuator delivers to itself at zero cost."""
    node = np.flatnonzero(snapshot.actuators)
    return RelaySeeds(node, 0.0, 0, None, np.array(snapshot.ids, dtype=object)[node])


def downlink_seeds(
    graph: VisibilityGraph,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition,
    mode: ArchitectureMode,
) -> RelaySeeds:
    """Seed every station-visible satellite with one downlink offer: its
    downlink delay plus the station's surface leg to the terminus.  Greedy
    takes the visible station of least downlink delay, optimal the one of
    least offer; ties go to the lower station index."""
    rows, station = graph.station_edges[:, 0], graph.station_edges[:, 1]
    legs = np.array([propagation_delay_ms(surface_distance_km(st.geodetic, terminus)) for st in stations])
    offer = graph.station_delays_ms + legs[station]
    rank = offer if mode is ArchitectureMode.DOWNHAUL_OPTIMAL else graph.station_delays_ms
    # Stable: among a row's equal ranks the first edge, i.e. the lower
    # station index, comes first.
    order = np.lexsort((rank, rows))
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    terminal = np.array([st.id for st in stations], dtype=object)[station[first]]
    return RelaySeeds(rows[first], offer[first], 2, terminal, terminal)


# --- Engines --------------------------------------------------------------------


def _sat_problem(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    sources: RelaySeeds,
    reroute_penalty_ms: float,
    exempt_sources_from_penalty: bool,
    fixed_seeds: bool = True,
) -> _RelayProblem:
    """With the exemption, hops leaving a source are penalty-free."""
    exempt = np.zeros(graph.sat_count, dtype=bool)
    if exempt_sources_from_penalty:
        exempt[sources.node] = True
    return _RelayProblem(
        adjacency=graph.adjacency,
        penalty_ms=reroute_penalty_ms,
        exempt=exempt,
        seeds=sources,
        node_names=snapshot.ids,
        fixed_seeds=fixed_seeds,
    )


def _route(problem: _RelayProblem) -> LatencyReport:
    return _extract_report(problem, _relax(problem).labels)


def onorbit_latencies(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    reroute_penalty_ms: float = 0.0,
) -> LatencyReport:
    """Latency to the nearest on-orbit actuator over inter-satellite links.

    Zero actuators is legal and yields an all-unreachable report.
    """
    sources = actuator_sources(snapshot)
    return _route(_sat_problem(graph, snapshot, sources, reroute_penalty_ms, True))


def downhaul_latencies(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition,
    mode: ArchitectureMode = ArchitectureMode.DOWNHAUL_GREEDY,
    reroute_penalty_ms: float = 0.0,
) -> LatencyReport:
    """Latency to the ground terminus via the station network."""
    if not stations:
        raise ValueError("stations_csv: downhaul modes need at least one ground station")
    if mode not in (ArchitectureMode.DOWNHAUL_GREEDY, ArchitectureMode.DOWNHAUL_OPTIMAL):
        raise ValueError(f"downhaul_latencies cannot run mode {mode.value!r}")
    sources = downlink_seeds(graph, stations, terminus, mode)
    # Greedy downlinks are final; relaying may beat an optimal offer.
    fixed = mode is ArchitectureMode.DOWNHAUL_GREEDY
    return _route(_sat_problem(graph, snapshot, sources, reroute_penalty_ms, False, fixed))
