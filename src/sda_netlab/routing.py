"""Per-satellite delivery-latency engines for both reference architectures.

Architecture semantics
----------------------
* ``downhaul-greedy``: every satellite that sees at least one ground station
  downlinks to the station at minimum straight-line distance and pays that
  station's fixed surface leg to the terminus.  Satellites without a visible
  station are resolved by relaying over inter-satellite links to the
  fixpoint of ``L_i = min_j (delay(i, j) + penalty + L_j)``.  Station-backed
  labels act as immutable boundary values: relaying never rewrites them.
* ``downhaul-optimal``: true shortest path to the terminus over the
  augmented graph (satellites, stations, terminus), quantifying the cost of
  the greedy station choice.  Stations only forward toward the terminus;
  there are no ground-bounce paths back into the constellation.
* ``onorbit``: multi-source shortest path over inter-satellite links with
  every actuator at distance zero.  A hop is penalty-free when it lands
  directly on an actuator; every other relay hop pays the reroute penalty.

One engine
----------
Every mode is one relaxation problem over the graph's satellite adjacency,
which the graph build emits and every solve on the graph shares.  Jacobi
sweeps apply ``label[v] = min(label[v], weight(u, v) + label[u])`` along
the hops leaving the nodes whose label dropped in the previous sweep (along
every hop at once when those are a large share), until a sweep lowers
nothing, so a relay chain costs O(E) relaxations, not O(V * E).

The labels do not depend on the relaxation order: every weight is >= 0 and
``fl(w + a)`` is monotone in ``a``, so any order that runs until no hop
improves ends at the minimum over paths of the floating-point path cost,
bit for bit what a heap Dijkstra returns.  The tests keep one as the
oracle.  Hops, next hop and terminal come from the labels alone: each
node's parent is an in-hop that attains its label (equal-cost ties broken
toward the lower node index), and the report reads the resulting forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .constellation import ConstellationSnapshot, GroundStationNode
from .geo import GeodeticPosition, propagation_delay_ms, surface_distance_km
from .topology import SatAdjacency, VisibilityGraph

TERMINUS_NAME = "terminus"


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
    """Directed relaxation problem over a graph's satellite adjacency.

    Hop (src, dst, weight) means ``label[dst]`` may be improved to
    ``weight + label[src]``.  A hop between satellites weighs
    ``delay + penalty_ms`` unless its source is ``exempt``.  The ``ground_*``
    arrays hold penalty-free hops from seeds past the satellites (the
    stations of downhaul-optimal) into satellites.  Seed labels are
    immutable: no hop relaxes into a seed.
    """

    adjacency: SatAdjacency
    penalty_ms: float
    exempt: np.ndarray  # (sat_count,) bool
    seeds: RelaySeeds
    node_names: tuple[str, ...]
    ground_src: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    ground_dst: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    ground_weight: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def sat_count(self) -> int:
        return self.adjacency.indptr.size - 1

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
    Ground hops leave immutable seeds, so they are relaxed once, up front.
    """
    n = problem.node_count
    labels = np.full(n, math.inf)
    fixed = np.zeros(n, dtype=bool)
    labels[problem.seeds.node] = problem.seeds.label_ms
    fixed[problem.seeds.node] = True
    np.minimum.at(labels, problem.ground_dst, problem.ground_weight + labels[problem.ground_src])
    frontier = np.flatnonzero(np.isfinite(labels[: problem.sat_count]))
    stamp = np.zeros(n, dtype=np.int64)
    indptr = problem.adjacency.indptr
    sweeps, relaxed = 0, problem.ground_src.size
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
    """Parent of every reachable node with an attaining in-hop, -1
    elsewhere.  A seed may get one too; the caller ignores it.

    Among in-hops that attain the node's label exactly, prefer one that
    makes strict progress (smaller parent label), then the lower node index.
    """
    n = problem.node_count
    adj = problem.adjacency
    cand = problem.in_weights + labels[adj.neighbors]
    # np.repeat of the row labels is faster than gathering them by adj.rows.
    attain = np.flatnonzero(cand == np.repeat(labels[: problem.sat_count], np.diff(adj.indptr)))
    dst = adj.rows[attain]
    src = adj.neighbors[attain].astype(np.int64)
    ground = problem.ground_weight + labels[problem.ground_src] == labels[problem.ground_dst]
    dst = np.concatenate([dst, problem.ground_dst[ground]])
    src = np.concatenate([src, problem.ground_src[ground]])
    keep = np.isfinite(labels[dst])
    dst, src = dst[keep], src[keep]
    key = np.where(labels[src] < labels[dst], src, src + n)
    parent_key = np.full(n, 2 * n, dtype=np.int64)
    np.minimum.at(parent_key, dst, key)
    return np.where(parent_key < 2 * n, parent_key % n, -1)


def _extract_report(problem: _RelayProblem, labels: np.ndarray) -> LatencyReport:
    """Derive hops / next hop / terminal from the converged labels.

    The parent rule of :func:`_parents` depends only on the labels; with the
    seeds as roots it makes a forest.  A seed keeps its own report fields,
    and every other node takes its root's terminal and hops plus its depth
    below the root, found by pointer jumping in O(log n) rounds.
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
    parent[seeds.node] = seeds.node
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

    m = problem.sat_count
    parent, root = parent[:m], jump[:m]
    names = np.array(problem.node_names, dtype=object)
    return LatencyReport(
        sat_ids=problem.node_names[:m],
        latency_ms=labels[:m],
        hops=seed_hops[root] + depth[:m],
        next_hop=np.where(parent == nodes[:m], seed_next_hop[:m], names[parent]),
        terminal=seed_terminal[root],
    )


# --- Source builders ----------------------------------------------------------


def actuator_sources(snapshot: ConstellationSnapshot) -> RelaySeeds:
    """On-orbit boundary: every actuator delivers to itself at zero cost."""
    node = np.flatnonzero(snapshot.actuators)
    return RelaySeeds(node, 0.0, 0, None, np.array(snapshot.ids, dtype=object)[node])


def ground_delays_ms(
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition,
) -> list[float]:
    return [
        propagation_delay_ms(surface_distance_km(st.geodetic, terminus))
        for st in stations
    ]


def greedy_downhaul_sources(
    graph: VisibilityGraph,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition,
) -> RelaySeeds:
    """Label every station-visible satellite with its greedy downlink:
    nearest visible station by straight-line distance (ties to the lower
    station index), plus that station's surface leg to the terminus."""
    rows = graph.station_edges[:, 0]
    # Stable: among a row's equal delays the first edge, i.e. the lower
    # station index, comes first.
    order = np.lexsort((graph.station_delays_ms, rows))
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    station = graph.station_edges[first, 1]
    label = graph.station_delays_ms[first] + np.array(ground_delays_ms(stations, terminus))[station]
    terminal = np.array([st.id for st in stations], dtype=object)[station]
    return RelaySeeds(rows[first], label, 2, terminal, terminal)


# --- Engines --------------------------------------------------------------------


def _sat_problem(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    sources: RelaySeeds,
    reroute_penalty_ms: float,
    exempt_sources_from_penalty: bool,
) -> _RelayProblem:
    """Satellites only; with the exemption, hops leaving a source are
    penalty-free."""
    exempt = np.zeros(graph.sat_count, dtype=bool)
    if exempt_sources_from_penalty:
        exempt[sources.node] = True
    return _RelayProblem(
        adjacency=graph.adjacency,
        penalty_ms=reroute_penalty_ms,
        exempt=exempt,
        seeds=sources,
        node_names=snapshot.ids,
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
    if mode is ArchitectureMode.DOWNHAUL_GREEDY:
        sources = greedy_downhaul_sources(graph, stations, terminus)
        return _route(_sat_problem(graph, snapshot, sources, reroute_penalty_ms, False))
    if mode is ArchitectureMode.DOWNHAUL_OPTIMAL:
        return _route(_augmented_problem(graph, snapshot, stations, terminus, reroute_penalty_ms))
    raise ValueError(f"downhaul_latencies cannot run mode {mode.value!r}")


def _augmented_problem(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition,
    reroute_penalty_ms: float,
) -> _RelayProblem:
    """Satellites and stations, directed against the data flow: station ->
    satellite -> satellite.  Each station is a seed holding its surface leg
    to the terminus, as if reached over the hop terminus -> station."""
    n_sat = graph.sat_count
    station_ids = tuple(st.id for st in stations)
    legs = ground_delays_ms(stations, terminus)
    return _RelayProblem(
        adjacency=graph.adjacency,
        penalty_ms=reroute_penalty_ms,
        exempt=np.zeros(n_sat, dtype=bool),
        seeds=RelaySeeds(n_sat + np.arange(len(stations)), legs, 1, TERMINUS_NAME, station_ids),
        node_names=snapshot.ids + station_ids,
        # Station -> satellite downlinks (reverse of the data direction).
        ground_src=graph.station_edges[:, 1].astype(np.int64) + n_sat,
        ground_dst=graph.station_edges[:, 0].astype(np.int64),
        ground_weight=graph.station_delays_ms,
    )
