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
  The actuators are a per-run input, an ``(n,)`` bool mask over the graph's
  satellites (``constellation.select_actuators``), not part of the graph.

Every engine reads the satellite ids from ``VisibilityGraph.sat_ids``, so a
report needs the graph alone and never the snapshot it was built from.

One engine
----------
Every mode is one seeded relaxation problem over the graph's satellite
adjacency, one node per satellite, which the graph build emits and every
solve on the graph shares.  Jacobi sweeps apply
``label[v] = min(label[v], weight(u, v) + label[u])`` along the hops leaving
the nodes whose label dropped in the previous sweep (a push, in runs of
frontier nodes with a bounded number of out-hops), or, when those are a
large share of the hops into rows that may still drop, along all of these
at once (a pull), so a relay chain costs O(E) relaxations, not O(V * E).
A fixed seed is never lowered, so a pull reads only the free rows: once
per solve the rows outside the fixed seeds are gathered, with their
penalised weights, into a CSR of their own when the fixed rows hold half
the entries or more; below that cut-off the adjacency itself serves, with
the fixed rows masked.  With no free hop at all nothing can drop, and the
solve returns at once.  A pull walks its CSR in row-aligned blocks and,
until a block lowers a label, records the hops whose candidate equals
their row's label.  Every solve ends on a pull that lowers nothing, so
those are exactly the hops into free rows that attain the final labels;
the parent rule reads them as ``(dst, src)`` pairs, and no second pass
over the hops, nor any array of one candidate per hop, follows.

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

from .constellation import GroundStationNode
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
    ``sat_ids``, the ids of the routed graph.

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
        bad = ~((self.label_ms >= 0.0) & np.isfinite(self.label_ms))
        if bad.any():
            raise ValueError(f"seed labels must be >= 0 and finite, got {self.label_ms[bad][0]}")
        if np.unique(self.node).size != self.node.size:
            raise ValueError("a node is seeded more than once")


@dataclass
class _RelayProblem:
    """Directed relaxation problem over a graph's satellite adjacency, one
    node per satellite.

    Hop (src, dst, weight) means ``label[dst]`` may be improved to
    ``weight + label[src]``.  A hop weighs ``delay + penalty_ms`` unless its
    source is a seed and ``exempt_seeds`` is set.  Seeds start at their seed
    label; with ``fixed_seeds`` no hop relaxes into a seed, otherwise
    relaying may lower a seed's label like any other.
    """

    adjacency: SatAdjacency
    penalty_ms: float
    seeds: RelaySeeds
    fixed_seeds: bool = True
    exempt_seeds: bool = False

    @cached_property
    def exempt(self) -> np.ndarray:
        """(sat_count,) bool: the satellites whose hops are penalty-free."""
        exempt = np.zeros(self.adjacency.indptr.size - 1, dtype=bool)
        exempt[self.seeds.node] = self.exempt_seeds
        return exempt

    def sat_weights(self, src: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Penalised weights of satellite hops leaving ``src``."""
        if self.penalty_ms == 0.0:
            return delays_ms
        weights = delays_ms + self.penalty_ms
        if self.exempt_seeds:
            np.copyto(weights, delays_ms, where=self.exempt[src])
        return weights


@dataclass(frozen=True)
class _FreeRows:
    """The rows a solve may lower, as a CSR over the hops into them: row
    ``r`` is node ``nodes[r]``, and entry ``k`` in ``indptr[r]:indptr[r + 1]``
    is the hop ``neighbors[k] -> nodes[r]`` of penalised weight
    ``weights[k]``.  Either the fixed rows are compacted away, or every node
    keeps its row and ``fixed`` masks those that no hop may lower."""

    nodes: np.ndarray
    indptr: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    fixed: np.ndarray
    blocks: list[tuple[int, int]]


@dataclass(frozen=True)
class _Fixpoint:
    labels: np.ndarray
    # The hops src -> dst whose candidate equals the label of dst, over the
    # free rows of finite label, in ascending (dst, src) order.
    attain_dst: np.ndarray
    attain_src: np.ndarray
    sweeps: int  # sweeps that lowered at least one label
    relaxed_edges: int  # hops whose candidate was evaluated, over all sweeps but the closing pull


# A pull sweep reads every free hop, at roughly a quarter of a push's cost per
# hop (one gather and a contiguous min-reduce instead of gathers and a scatter).
_PULL_WHEN_FRONTIER_HOPS_EXCEED = 0.25

# A pull walks the free rows in row-aligned blocks of about this many entries,
# and a push the frontier in runs of about this many out-hops, so a solve
# holds one block of candidates, not one float64 per hop.  Of 2**14 to 2**18,
# 2**16 gave the fastest starlink-like on-orbit solves (2-vCPU host: 39-43 ms
# against 42-51 ms at the other sizes and fractions 0.01 and 1.0); smaller
# blocks pay more calls per pull, larger ones leave the cache.
_BLOCK_ENTRIES = 1 << 16

# The free rows are a compacted copy once the fixed rows hold this share of
# the entries; below it the copy, 12 bytes written per free entry, costs more
# than the fixed rows' reads it saves.  A quarter paid on starlink-like, whose
# 20 sweep points reuse their memory, but a fresh oneweb-like `compare`
# process paid about 0.7 ms more per on-orbit solve at fractions 0.25-0.45
# (2.4 -> 3.1 ms, 15 processes each; the copy's fresh pages fault); at a half
# neither graph lost at any fraction (2-vCPU host, one thread).
_COMPACT_WHEN_FIXED_ENTRIES_REACH = 0.5


def _row_blocks(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges ``r0:r1`` that cover every row in order, each holding at
    most ``_BLOCK_ENTRIES`` entries unless one row alone holds more."""
    blocks, r0, n = [], 0, indptr.size - 1
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + _BLOCK_ENTRIES, side="right")) - 1)
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def _free_rows(problem: _RelayProblem, fixed: np.ndarray) -> _FreeRows:
    """The CSR of the rows outside ``fixed``, with their penalised weights:
    a compacted copy when the fixed rows hold enough entries, else the
    adjacency itself with ``fixed`` as its mask."""
    adj = problem.adjacency
    counts = np.diff(adj.indptr)
    if counts[fixed].sum() < _COMPACT_WHEN_FIXED_ENTRIES_REACH * adj.indptr[-1]:
        nodes, indptr, neighbors, delays_ms, row_fixed = (
            np.arange(fixed.size), adj.indptr, adj.neighbors, adj.delays_ms, fixed)
    else:
        nodes = np.flatnonzero(~fixed)
        indptr = np.zeros(nodes.size + 1, dtype=adj.indptr.dtype)
        np.cumsum(counts[nodes], out=indptr[1:])
        keep = np.repeat(~fixed, counts)
        neighbors, delays_ms = adj.neighbors[keep], adj.delays_ms[keep]
        row_fixed = np.zeros(nodes.size, dtype=bool)
    return _FreeRows(nodes, indptr, neighbors, problem.sat_weights(neighbors, delays_ms),
                     row_fixed, _row_blocks(indptr))


def _pull(rows: _FreeRows, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """One pull over every hop of ``rows``, block by block, reading
    ``labels`` only: each row's least candidate
    ``weights[k] + labels[neighbors[k]]`` (inf without hops), and the
    ascending entries into free rows of finite label whose candidate equals
    their row's label.  Those are kept only while no block has lowered the
    label of a row outside ``rows.fixed``; a pull that lowers one returns
    None for them."""
    row_labels = labels[rows.nodes]
    # No candidate equals NaN: a fixed or unreachable row records no entry.
    attainable = np.where(rows.fixed | np.isinf(row_labels), math.nan, row_labels)
    best = np.full(rows.nodes.size, math.inf)
    attain = []
    for r0, r1 in rows.blocks:
        e0, e1 = int(rows.indptr[r0]), int(rows.indptr[r1])
        cand = labels[rows.neighbors[e0:e1]]
        cand += rows.weights[e0:e1]
        counts = np.diff(rows.indptr[r0:r1 + 1])
        nonempty = r0 + np.flatnonzero(counts)
        best[nonempty] = np.minimum.reduceat(cand, rows.indptr[nonempty] - e0)
        if attain is not None:
            if ((best[r0:r1] < row_labels[r0:r1]) & ~rows.fixed[r0:r1]).any():
                attain = None
            else:
                attain.append(e0 + np.flatnonzero(cand == np.repeat(attainable[r0:r1], counts)))
    return best, None if attain is None else np.concatenate(attain)


def _push(problem: _RelayProblem, labels: np.ndarray, fixed: np.ndarray,
          frontier: np.ndarray) -> tuple[np.ndarray, int]:
    """One Jacobi sweep along the hops leaving ``frontier`` into the nodes
    outside ``fixed``, in runs of frontier nodes with at most
    ``_BLOCK_ENTRIES`` out-hops (a node with more is a run alone).  The
    frontier's labels are read once, before any run lowers one.  Returns the
    ascending nodes whose label dropped and the number of hops relaxed."""
    adj = problem.adjacency
    starts = adj.indptr[frontier]
    counts = adj.indptr[frontier + 1] - starts
    offsets = np.zeros(frontier.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    frontier_labels = labels[frontier]
    lowered = np.zeros(labels.size, dtype=bool)
    for f0, f1 in _row_blocks(offsets):
        run = counts[f0:f1]
        # Concatenated ranges starts[k]:starts[k] + counts[k] of the run.
        idx = np.repeat(starts[f0:f1] - (offsets[f0:f1] - offsets[f0]), run)
        idx += np.arange(idx.size)
        dst = adj.neighbors[idx]
        cand = problem.sat_weights(np.repeat(frontier[f0:f1], run), adj.delays_ms[idx])
        cand += np.repeat(frontier_labels[f0:f1], run)
        better = (cand < labels[dst]) & ~fixed[dst]
        dst = dst[better]
        np.minimum.at(labels, dst, cand[better])
        lowered[dst] = True
    return np.flatnonzero(lowered), int(offsets[-1])


def _relax(problem: _RelayProblem) -> _Fixpoint:
    """Jacobi sweeps of the relay update until no label drops.

    A sweep relaxes the hops leaving the satellites whose label dropped in
    the previous sweep (push), or, when those are a large share of the free
    hops, every hop into a free row by a blocked per-row min-reduce (pull);
    both give the labels of a full sweep.  A push that lowers nothing hands
    over to one closing pull, so the solve always ends on a pull that lowers
    nothing, whose attaining hops it returns; with no free hop at all,
    nothing can drop and it returns at once.
    """
    indptr = problem.adjacency.indptr
    n = indptr.size - 1
    labels = np.full(n, math.inf)
    labels[problem.seeds.node] = problem.seeds.label_ms
    fixed = np.zeros(n, dtype=bool)
    fixed[problem.seeds.node] = problem.fixed_seeds
    rows = _free_rows(problem, fixed)
    free_hops = int(rows.indptr[-1])
    if free_hops == 0:
        none = np.zeros(0, dtype=np.int64)
        return _Fixpoint(labels, none, none, 0, 0)
    frontier = np.flatnonzero(np.isfinite(labels))
    sweeps, relaxed, closing = 0, 0, False
    for _ in range(n + 2):
        frontier_hops = np.sum(indptr[frontier + 1] - indptr[frontier])
        if closing or frontier_hops > _PULL_WHEN_FRONTIER_HOPS_EXCEED * free_hops:
            best, attain = _pull(rows, labels)
            if attain is not None:
                # Nothing dropped, so every block compared against the final labels.
                dst = rows.nodes[np.searchsorted(rows.indptr, attain, side="right") - 1]
                return _Fixpoint(labels, dst, rows.neighbors[attain].astype(np.int64), sweeps, relaxed)
            lowered = (best < labels[rows.nodes]) & ~rows.fixed
            relaxed += free_hops
            frontier = rows.nodes[lowered]
            labels[frontier] = best[lowered]
        else:
            frontier, hops = _push(problem, labels, fixed, frontier)
            relaxed += hops
        closing = frontier.size == 0
        sweeps += not closing
    raise RuntimeError("relay fixpoint failed to stabilize within node-count sweeps")


def _parents(problem: _RelayProblem, fixpoint: _Fixpoint) -> np.ndarray:
    """Parent of every reachable node, the node itself at a root, and -1
    where nothing attains the label, from the converged labels and the
    attaining hops of the pull that found them final.  Those cover the free
    rows only, and every fixed row is a seed's, hence a root.

    Of the in-hops that attain a node's label exactly, one from a smaller
    label (strict progress) wins, lowest node index first.  Failing that, a
    seed whose label is still its seed label is a root; a fixed seed always
    is.  Failing that, an in-hop from an equal label (the sum absorbed its
    delay) is taken only from a node whose parent is already set: each round
    takes the lowest such index per node, and as a round only builds on
    earlier ones, no parent cycle can form.
    """
    labels, dst, src = fixpoint.labels, fixpoint.attain_dst, fixpoint.attain_src
    n = labels.size
    seeds = problem.seeds

    def lowest(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        key = np.full(n, n, dtype=np.int64)
        np.minimum.at(key, dst, src)
        return np.where(key < n, key, -1)

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


def _route(problem: _RelayProblem, names: tuple[str, ...]) -> LatencyReport:
    """Solve ``problem`` and derive hops / next hop / terminal from the
    fixpoint; ``names`` holds the satellite ids.

    The parent rule of :func:`_parents` depends only on the labels and makes
    a forest.  A root keeps its seed's report fields, and every other node
    takes its root's terminal and hops plus its depth below the root, found
    by pointer jumping in O(log n) rounds.
    """
    fixpoint = _relax(problem)
    labels = fixpoint.labels
    n = labels.size
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
    parent = _parents(problem, fixpoint)
    orphans = np.flatnonzero(np.isfinite(labels) & (parent < 0))
    if orphans.size:
        node = orphans[np.argmin(labels[orphans])]
        raise RuntimeError(f"no attaining relay edge for node {names[node]}")
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

    return LatencyReport(
        sat_ids=names,
        latency_ms=labels,
        hops=seed_hops[jump] + depth,
        next_hop=np.where(parent == nodes, seed_next_hop, np.array(names, dtype=object)[parent]),
        terminal=seed_terminal[jump],
    )


# --- Source builders ----------------------------------------------------------


def actuator_sources(graph: VisibilityGraph, actuators: np.ndarray) -> RelaySeeds:
    """On-orbit boundary: every actuator delivers to itself at zero cost.
    ``actuators`` must be an ``(n,)`` bool mask over the graph's satellites."""
    actuators = np.asarray(actuators)
    if actuators.shape != (graph.sat_count,):
        raise ValueError(f"{graph.sat_count} satellites do not match actuators of shape {actuators.shape}")
    if actuators.dtype != bool:
        raise ValueError(f"actuators must be a bool array, got dtype {actuators.dtype}")
    node = np.flatnonzero(actuators)
    return RelaySeeds(node, 0.0, 0, None, np.array(graph.sat_ids, dtype=object)[node])


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


def onorbit_latencies(
    graph: VisibilityGraph,
    actuators: np.ndarray,
    reroute_penalty_ms: float = 0.0,
) -> LatencyReport:
    """Latency to the nearest of the ``actuators`` (a bool mask over the
    graph's satellites) over inter-satellite links.

    Zero actuators is legal and yields an all-unreachable report.
    """
    problem = _RelayProblem(graph.adjacency, reroute_penalty_ms, actuator_sources(graph, actuators),
                            exempt_seeds=True)
    return _route(problem, graph.sat_ids)


def downhaul_latencies(
    graph: VisibilityGraph,
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
    problem = _RelayProblem(graph.adjacency, reroute_penalty_ms, sources,
                            fixed_seeds=mode is ArchitectureMode.DOWNHAUL_GREEDY)
    return _route(problem, graph.sat_ids)
