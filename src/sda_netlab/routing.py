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
solve on the graph shares.  Each engine's builder states the problem as
data: the seeds as per-node columns (a label, inf at a node that is no
seed, and the id each seed delivers to), the hops a seed reports, the rows
no hop may lower (on orbit the actuators, greedy its downlink seeds,
optimal none) and a hop penalty, one float or one per source node (0.0 at
the actuators).  Jacobi sweeps apply
``label[v] = min(label[v], weight(u, v) + label[u])`` along the hops leaving
the nodes whose label dropped in the previous sweep (a push, in runs of
frontier nodes with a bounded number of out-hops), or, when those are a
large share of the hops into rows that may still drop, along all of these
at once (a pull), so a relay chain costs O(E) relaxations, not O(V * E).
A fixed row is never lowered, so a pull reads only the free rows: once
per solve the other rows are gathered, with their delays, into a CSR of
their own when the fixed rows hold half the entries or more; below that
cut-off the adjacency itself serves, with the fixed rows masked.  An
overlay's dead entries (``SatAdjacency.live``) are left out of that copy;
on the adjacency itself a pull gives them an infinite candidate and a push
skips them.  A pull adds the penalty block by block, so no solve holds one
weight per hop.
With no free hop at all nothing can drop, and the solve returns at once.
A pull walks its CSR in row-aligned blocks and, until a block lowers a
label, records the hops whose candidate equals their row's label.  Every
solve ends on a pull that lowers nothing, so those are exactly the hops
into free rows that attain the final labels; the parent rule reads them
as ``(dst, src)`` pairs, and no second pass over the hops, nor any array
of one candidate per hop, follows.

An on-orbit solve reads only the hops that can matter once the actuators
are dense, after the light/heavy split of delta-stepping (Meyer and
Sanders, J. Algorithms 49(1), 2003).  Each adjacency derives once, on
first use, its light hops: the entries of delay at most D, about the 10%
quantile of the delays (``SatAdjacency.light``).  Phase 1 solves the
seeded problem on the light hops alone; phase 2 solves the full adjacency
from phase 1's labels, with every row labelled at most D fixed, so its
pulls read only the hops into the rows left.  This is exact: every weight
is at least its delay and ``fl`` is monotone, so a label at most D is
reached by a path of light hops, and phase 1 finds it; a hop that attains
such a label has a delay at most the label, so phase 1 records it; and a
row above D offers every neighbour a candidate above D, so it can neither
lower nor attain a light row's label.  The attaining hops are phase 1's
into the light rows plus phase 2's.  With sparse actuators most rows stay
above D, and phase 2 is nearly the whole single-phase solve, so a solve
takes the light phase only when the actuators cover enough of the rows by
one light hop (``_LIGHT_FIRST_WHEN_COVERAGE_REACHES``).  Downhaul solves
never take it: in those modes most hops can attain a label.

The labels do not depend on the relaxation order: every weight is >= 0 and
``fl(w + a)`` is monotone in ``a``, so any order that runs until no hop
improves ends at the minimum over paths of the floating-point path cost,
bit for bit what a heap Dijkstra returns.  The tests keep one as the
oracle.  The parent forest comes from the labels alone: a node's parent
is its lowest-index in-hop from a smaller label that attains its label
exactly; failing that, the node itself if its finite label still equals
its seed label (a fixed seed's always does); failing that, an attaining
in-hop from an equal label, whose delay the sum absorbed, taken in rounds
only from nodes whose parent is already set.  The report holds the forest
and the hops and terminal read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .constellation import GroundStationNode
from .geo import GeodeticPosition, propagation_delay_ms, surface_distance_km
from .topology import LightHops, SatAdjacency, VisibilityGraph


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
    ``hops`` is int64 with -1 for one.  ``parent`` is int64: the index of the
    next satellite on the delivery path, the satellite's own index where it
    delivers directly (an actuator, or a satellite that downlinks), and -1
    when it is unreachable.  ``terminal`` is an object array of ``str`` or
    ``None`` (None when unreachable).
    """

    sat_ids: tuple[str, ...]
    latency_ms: np.ndarray
    hops: np.ndarray
    parent: np.ndarray
    terminal: np.ndarray

    def __len__(self) -> int:
        return len(self.sat_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyReport):
            return NotImplemented
        return self.sat_ids == other.sat_ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("latency_ms", "hops", "parent", "terminal")
        )


@dataclass(frozen=True, eq=False)
class _RelayProblem:
    """Directed relaxation problem over a graph's satellite adjacency, one
    node per satellite, as data that each engine's builder fills in.

    The seeds are per-node columns: ``seed_ms`` is a seed's label and inf at
    any other node, ``terminal`` the id a seed delivers to and None at any
    other node, and every seed that stays a root reports ``seed_hops`` hops.
    Hop (src, dst) may lower ``label[dst]`` to ``weight + label[src]``, and
    weighs ``delay + hop_penalty``, the penalty one float or an ``(n,)``
    float64 array read at ``src``; ``fl(delay + 0.0)`` is the delay.  The
    labels start at ``seed_ms``, and no hop lowers a row of the ``(n,)``
    bool mask ``fixed``.
    """

    adjacency: SatAdjacency
    seed_ms: np.ndarray
    terminal: np.ndarray
    seed_hops: int
    fixed: np.ndarray
    hop_penalty: float | np.ndarray

    def __post_init__(self) -> None:
        # Rejects NaN as well as a negative label.
        bad = ~(self.seed_ms >= 0.0)
        if bad.any():
            raise ValueError(f"seed labels must be >= 0, got {self.seed_ms[bad][0]}")

    def weights(self, sources: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Penalised weights of the hops of ``delays_ms`` leaving ``sources``."""
        if isinstance(self.hop_penalty, np.ndarray):
            return delays_ms + self.hop_penalty[sources]
        return delays_ms + self.hop_penalty if self.hop_penalty else delays_ms


@dataclass(frozen=True)
class _FreeRows:
    """The rows a solve may lower, as a CSR over the hops into them: row
    ``r`` is node ``nodes[r]``, and entry ``k`` in ``indptr[r]:indptr[r + 1]``
    is the hop ``neighbors[k] -> nodes[r]`` of delay ``delays_ms[k]``.
    Either the fixed rows and the dead entries are compacted away, or every
    node keeps its row, ``fixed`` masks those that no hop may lower and
    ``live`` is the adjacency's own entry mask (None without one)."""

    nodes: np.ndarray
    indptr: np.ndarray
    neighbors: np.ndarray
    delays_ms: np.ndarray
    fixed: np.ndarray
    live: np.ndarray | None
    blocks: list[tuple[int, int]]


@dataclass(frozen=True)
class _Fixpoint:
    labels: np.ndarray
    # The hops src -> dst whose candidate equals the label of dst, over the
    # free rows of finite label.  One _relax gives them in ascending
    # (dst, src) order; the light-first solve joins two such runs, which
    # is not ascending, and the parent rule does not need it to be.
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

# A compacted copy gathers the free rows by their index ranges while they
# hold under this share of the entries, else by an entry mask.  On
# starlink-like with scattered free rows the ranges took 0.17 ms at 1% of
# the entries against 2.3 ms for the mask, were even at 10%, and took twice
# as long at 30-50% (2-vCPU host).
_GATHER_RANGES_BELOW = 1 / 16

# An on-orbit solve takes the light hops first (_light_first) once the
# actuators cover this share of the rows, by being one or by one light hop
# from one.  Below it too many rows stay above the cut for phase 2, and the
# light phase is extra work.  Light-first over single-phase solve time
# (2-vCPU host, one thread, min of 9, penalty 0):
#   starlink-like  coverage 0.595 (1%) 1.29, 0.746 (1.5%) 0.99, 0.809 (2%) 0.81
#   combined       coverage 0.654 (1%) 1.20, 0.785 (1.5%) 0.90, 0.868 (2%) 0.69
#   oneweb-like    coverage 0.586 (5%) 1.45, 0.771 (10%) 0.98, 0.816 (12%) 0.89
# With a 0.4 ms penalty the ratios at coverage 0.75-0.8 were 0.86-0.94.
_LIGHT_FIRST_WHEN_COVERAGE_REACHES = 0.8


# _light_coverage takes the actuators in chunks of about this many.  Over
# the 20 default sweep fractions on starlink-like (min of 7 each, 2-vCPU
# host), chunks of 64 / 128 / 256 / 1024 took 3.1 / 2.0 / 3.2 / 10.8 ms in
# all, against 41 ms for one count over every actuator.
_COVERAGE_CHUNK = 128


def _light_coverage(light: SatAdjacency, nodes: np.ndarray) -> float:
    """The share of the rows that are ``nodes`` or hold a light hop from
    one, counted chunk by chunk until it reaches
    ``_LIGHT_FIRST_WHEN_COVERAGE_REACHES``.  A subset covers no more than
    the whole, so the result reaches the cut exactly when the full share
    does.  Chunk ``k`` of ``m`` takes every ``m``-th node from the ``k``-th,
    so each chunk spreads over the whole index range."""
    covered = np.zeros(light.indptr.size - 1, dtype=bool)
    share = 0.0
    chunks = -(-nodes.size // _COVERAGE_CHUNK)
    for k in range(chunks):
        chunk = nodes[k::chunks]
        covered[chunk] = True
        starts = light.indptr[chunk]
        covered[light.neighbors[_concat_ranges(starts, light.indptr[chunk + 1] - starts)]] = True
        share = float(np.count_nonzero(covered)) / covered.size
        if share >= _LIGHT_FIRST_WHEN_COVERAGE_REACHES:
            break
    return share


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k]:starts[k] + counts[k]``, concatenated in order."""
    idx = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    idx += np.arange(idx.size)
    return idx


def _row_blocks(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges ``r0:r1`` that cover every row in order, each holding at
    most ``_BLOCK_ENTRIES`` entries unless one row alone holds more."""
    blocks, r0, n = [], 0, indptr.size - 1
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + _BLOCK_ENTRIES, side="right")) - 1)
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def _free_rows(problem: _RelayProblem) -> _FreeRows:
    """The CSR of the rows outside ``problem.fixed``, with their delays: a
    compacted copy of their live entries when the fixed rows hold enough
    of the live entries, else the adjacency itself with ``fixed`` masking
    its rows and ``live`` its entries."""
    adj, fixed = problem.adjacency, problem.fixed
    counts = adj.live_counts
    if counts[fixed].sum() < _COMPACT_WHEN_FIXED_ENTRIES_REACH * counts.sum():
        return _FreeRows(np.arange(fixed.size), adj.indptr, adj.neighbors, adj.delays_ms, fixed, adj.live,
                         _row_blocks(adj.indptr))
    nodes = np.flatnonzero(~fixed)
    indptr = np.zeros(nodes.size + 1, dtype=adj.indptr.dtype)
    np.cumsum(counts[nodes], out=indptr[1:])
    entries = np.diff(adj.indptr)
    if indptr[-1] < _GATHER_RANGES_BELOW * counts.sum():
        keep = _concat_ranges(adj.indptr[nodes], entries[nodes])
        if adj.live is not None:
            keep = keep[adj.live[keep]]
    else:
        keep = np.repeat(~fixed, entries)
        if adj.live is not None:
            keep &= adj.live
    return _FreeRows(nodes, indptr, adj.neighbors[keep], adj.delays_ms[keep], np.zeros(nodes.size, dtype=bool),
                     None, _row_blocks(indptr))


def _pull(problem: _RelayProblem, rows: _FreeRows, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """One pull over every hop of ``rows``, block by block, reading
    ``labels`` only: each row's least candidate, the weight in ``problem``
    of hop ``k`` plus ``labels[neighbors[k]]`` (inf without hops), and the
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
        sources = rows.neighbors[e0:e1]
        cand = labels[sources]
        cand += problem.weights(sources, rows.delays_ms[e0:e1])
        if rows.live is not None:
            # A dead hop can neither lower a label nor equal a finite one.
            cand[~rows.live[e0:e1]] = math.inf
        counts = np.diff(rows.indptr[r0:r1 + 1])
        nonempty = r0 + np.flatnonzero(counts)
        best[nonempty] = np.minimum.reduceat(cand, rows.indptr[nonempty] - e0)
        if attain is not None:
            if ((best[r0:r1] < row_labels[r0:r1]) & ~rows.fixed[r0:r1]).any():
                attain = None
            else:
                attain.append(e0 + np.flatnonzero(cand == np.repeat(attainable[r0:r1], counts)))
    return best, None if attain is None else np.concatenate(attain)


def _push(problem: _RelayProblem, labels: np.ndarray, frontier: np.ndarray) -> tuple[np.ndarray, int]:
    """One Jacobi sweep along the live hops leaving ``frontier`` into the
    nodes outside ``problem.fixed``, in runs of frontier nodes with at most
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
        idx = _concat_ranges(starts[f0:f1], run)
        dst = adj.neighbors[idx]
        cand = problem.weights(np.repeat(frontier[f0:f1], run), adj.delays_ms[idx])
        cand += np.repeat(frontier_labels[f0:f1], run)
        better = (cand < labels[dst]) & ~problem.fixed[dst]
        if adj.live is not None:
            better &= adj.live[idx]
        dst = dst[better]
        np.minimum.at(labels, dst, cand[better])
        lowered[dst] = True
    return np.flatnonzero(lowered), int(offsets[-1])


def _relax(problem: _RelayProblem, labels: np.ndarray | None = None) -> _Fixpoint:
    """Jacobi sweeps of the relay update until no label drops.

    The labels start at the seed labels, or at ``labels``, which the solve
    then lowers in place; no hop lowers a row of ``problem.fixed``.  A sweep
    relaxes the hops leaving the satellites whose label dropped in the
    previous sweep (push), or, when those are a large share of the free
    hops, every hop into a free row by a blocked per-row min-reduce (pull);
    both give the labels of a full sweep.  A push that lowers nothing hands
    over to one closing pull, so the solve always ends on a pull that lowers
    nothing, whose attaining hops it returns; with no free hop at all,
    nothing can drop and it returns at once.
    """
    indptr = problem.adjacency.indptr
    n = indptr.size - 1
    if labels is None:
        labels = problem.seed_ms.copy()
    rows = _free_rows(problem)
    free_hops = int(rows.indptr[-1])
    if free_hops == 0:
        none = np.zeros(0, dtype=np.int64)
        return _Fixpoint(labels, none, none, 0, 0)
    frontier = np.flatnonzero(np.isfinite(labels))
    sweeps, relaxed, closing = 0, 0, False
    for _ in range(n + 2):
        frontier_hops = np.sum(indptr[frontier + 1] - indptr[frontier])
        if closing or frontier_hops > _PULL_WHEN_FRONTIER_HOPS_EXCEED * free_hops:
            best, attain = _pull(problem, rows, labels)
            if attain is not None:
                # Nothing dropped, so every block compared against the final labels.
                dst = rows.nodes[np.searchsorted(rows.indptr, attain, side="right") - 1]
                return _Fixpoint(labels, dst, rows.neighbors[attain].astype(np.int64), sweeps, relaxed)
            lowered = (best < labels[rows.nodes]) & ~rows.fixed
            relaxed += free_hops
            frontier = rows.nodes[lowered]
            labels[frontier] = best[lowered]
        else:
            frontier, hops = _push(problem, labels, frontier)
            relaxed += hops
        closing = frontier.size == 0
        sweeps += not closing
    raise RuntimeError("relay fixpoint failed to stabilize within node-count sweeps")


def _light_first(problem: _RelayProblem, light: LightHops) -> _Fixpoint:
    """The fixpoint of ``problem``, whose seeds are fixed at label 0.0, in
    two phases: the light hops first, then every hop into the rows left.

    Phase 1 relaxes the problem on ``light`` alone.  Every weight is at
    least its delay and ``fl`` is monotone, so a label at most
    ``light.max_delay_ms`` (D) is reached by a path of light hops alone:
    the rows phase 1 labels at most D are final, the seeds among them.
    Phase 2 relaxes the full adjacency from phase 1's labels with those rows
    fixed, so its pulls read only the hops into the rows left.  The hops
    that attain a final row's label have delays at most that label, and no
    hop from a row above D attains it, so they are phase 1's attaining hops
    into final rows; phase 2's closing pull gives those of the other rows.
    """
    first = _relax(replace(problem, adjacency=light.adjacency))
    final = first.labels <= light.max_delay_ms
    second = _relax(replace(problem, fixed=final), first.labels)
    keep = final[first.attain_dst]
    return _Fixpoint(
        second.labels,
        np.concatenate([first.attain_dst[keep], second.attain_dst]),
        np.concatenate([first.attain_src[keep], second.attain_src]),
        first.sweeps + second.sweeps,
        first.relaxed_edges + second.relaxed_edges,
    )


def _parents(problem: _RelayProblem, fixpoint: _Fixpoint) -> np.ndarray:
    """Parent of every reachable node, the node itself at a root, and -1
    where nothing attains the label, from the converged labels and the
    attaining hops of the pull that found them final.  Those cover the free
    rows only.

    Of the in-hops that attain a node's label exactly, one from a smaller
    label (strict progress) wins, lowest node index first.  Failing that, a
    node whose finite label still equals its ``seed_ms`` is a root: one rule
    in every mode, as a fixed row records no attaining hop and keeps its
    seed label.  Failing that, an in-hop from an equal label (the sum
    absorbed its delay) is taken only from a node whose parent is already
    set: each round takes the lowest such index per node, and as a round
    only builds on earlier ones, no parent cycle can form.
    """
    labels, dst, src = fixpoint.labels, fixpoint.attain_dst, fixpoint.attain_src
    n = labels.size

    def lowest(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        key = np.full(n, n, dtype=np.int64)
        np.minimum.at(key, dst, src)
        return np.where(key < n, key, -1)

    strict = labels[src] < labels[dst]
    parent = lowest(dst[strict], src[strict])
    roots = np.flatnonzero((parent < 0) & np.isfinite(labels) & (labels == problem.seed_ms))
    parent[roots] = roots
    dst, src = dst[~strict], src[~strict]
    while True:
        take = (parent[dst] < 0) & (parent[src] >= 0)
        if not take.any():
            return parent
        parent = np.where(parent < 0, lowest(dst[take], src[take]), parent)


def _route(problem: _RelayProblem, fixpoint: _Fixpoint, names: tuple[str, ...]) -> LatencyReport:
    """Derive the parent forest, hops and terminal of ``problem`` from its
    ``fixpoint``; ``names`` holds the satellite ids.

    The parent rule of :func:`_parents` depends only on the labels and makes
    a forest.  A root reports its ``terminal`` entry and ``seed_hops``, and
    every other node its root's terminal and ``seed_hops`` plus its depth
    below the root, found by pointer jumping in O(log n) rounds.
    """
    labels = fixpoint.labels
    n = labels.size
    nodes = np.arange(n)
    parent = _parents(problem, fixpoint)
    orphans = np.flatnonzero(np.isfinite(labels) & (parent < 0))
    if orphans.size:
        node = orphans[np.argmin(labels[orphans])]
        raise RuntimeError(f"no attaining relay edge for node {names[node]}")
    up = np.where(parent < 0, nodes, parent)

    # After k rounds jump[v] is 2**k steps above v, or v's root, and depth[v]
    # counts the steps; a path of n nodes reaches its root within
    # n.bit_length() rounds, and a parent cycle never does.
    jump = up
    depth = (up != nodes).astype(np.int64)
    for _ in range(n.bit_length() + 1):
        if np.array_equal(up[jump], jump):
            break
        depth += depth[jump]
        jump = jump[jump]
    else:
        raise RuntimeError("zero-delay relay cycle: cannot orient delivery paths")

    return LatencyReport(
        sat_ids=names,
        latency_ms=labels,
        # An unreachable node is its own root and no seed: -1 hops, terminal None.
        hops=np.where(np.isfinite(labels), problem.seed_hops + depth, -1),
        parent=parent,
        terminal=problem.terminal[jump],
    )


# --- Seed and problem builders -------------------------------------------------


def downlink_seeds(
    graph: VisibilityGraph,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition,
    mode: ArchitectureMode,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``seed_ms`` and ``terminal`` columns of a downhaul problem: every
    station-visible satellite is seeded with one downlink offer, its
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
    seed_ms = np.full(graph.sat_count, math.inf)
    seed_ms[rows[first]] = offer[first]
    terminal = np.full(graph.sat_count, None, dtype=object)
    terminal[rows[first]] = np.array([st.id for st in stations], dtype=object)[station[first]]
    return seed_ms, terminal


def _onorbit_problem(graph: VisibilityGraph, actuators: np.ndarray, reroute_penalty_ms: float) -> _RelayProblem:
    """Every actuator delivers to itself and is fixed at label 0, and a hop
    leaving one is penalty-free.  ``actuators`` must be an ``(n,)`` bool mask
    over the graph's satellites."""
    actuators = np.asarray(actuators)
    if actuators.shape != (graph.sat_count,):
        raise ValueError(f"{graph.sat_count} satellites do not match actuators of shape {actuators.shape}")
    if actuators.dtype != bool:
        raise ValueError(f"actuators must be a bool array, got dtype {actuators.dtype}")
    terminal = np.full(graph.sat_count, None, dtype=object)
    terminal[actuators] = [graph.sat_ids[k] for k in np.flatnonzero(actuators).tolist()]
    hop_penalty = np.where(actuators, 0.0, reroute_penalty_ms) if reroute_penalty_ms else 0.0
    return _RelayProblem(graph.adjacency, np.where(actuators, 0.0, math.inf), terminal, 0, actuators, hop_penalty)


def _downhaul_problem(graph: VisibilityGraph, stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
                      terminus: GeodeticPosition, mode: ArchitectureMode, reroute_penalty_ms: float) -> _RelayProblem:
    """Greedy downlinks are fixed, and relaying may beat an optimal offer;
    every hop pays the penalty."""
    seed_ms, terminal = downlink_seeds(graph, stations, terminus, mode)
    fixed = np.isfinite(seed_ms) & (mode is ArchitectureMode.DOWNHAUL_GREEDY)
    return _RelayProblem(graph.adjacency, seed_ms, terminal, 2, fixed, float(reroute_penalty_ms))


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
    problem = _onorbit_problem(graph, actuators, reroute_penalty_ms)
    light = graph.adjacency.light
    if _light_coverage(light.adjacency, np.flatnonzero(problem.fixed)) >= _LIGHT_FIRST_WHEN_COVERAGE_REACHES:
        return _route(problem, _light_first(problem, light), graph.sat_ids)
    return _route(problem, _relax(problem), graph.sat_ids)


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
    problem = _downhaul_problem(graph, stations, terminus, mode, reroute_penalty_ms)
    return _route(problem, _relax(problem), graph.sat_ids)
