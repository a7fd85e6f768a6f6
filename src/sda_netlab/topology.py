"""Visibility graphs over constellation snapshots, and attack overlays.

The pairwise build is vectorized and may be partitioned across worker
threads; every row block is computed with the same floating-point
expressions as the scalar reference ``min_scaled_norm_sq`` in the tests'
``oracle_utils`` (including the lexicographic endpoint ordering), so the
edge set is bit-identical to a scalar double loop and independent of the
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constellation import ConstellationSnapshot, GroundStationNode
from .geo import (
    LOS_THRESHOLD_SQ,
    SEMI_MAJOR_A_KM,
    SEMI_MINOR_B_KM,
    SPEED_OF_LIGHT_KM_S,
    EcefPosition,
    GeodeticPosition,
    ecef_to_geodetic,
    surface_distance_km,
)
from .jsonvalues import json_number, json_string

_ROW_BLOCK = 128


@dataclass(frozen=True)
class SatAdjacency:
    """Compressed sparse rows over satellites: row ``u`` lists its
    neighbours ``neighbors[indptr[u]:indptr[u + 1]]`` in ascending order,
    and the one-way delays to them.  Every edge appears once in each
    endpoint's row, with the same delay bits; no row lists its own
    satellite.  ``rows[k]`` is the row of entry ``k``."""

    indptr: np.ndarray  # (sat_count + 1,) int64
    neighbors: np.ndarray  # (2E,) int32
    delays_ms: np.ndarray  # (2E,) float64
    rows: np.ndarray = field(init=False, repr=False)  # (2E,) int32

    def __post_init__(self) -> None:
        counts = np.diff(self.indptr)
        object.__setattr__(self, "rows", np.repeat(np.arange(counts.size, dtype=np.int32), counts))


@dataclass(frozen=True)
class VisibilityGraph:
    """Immutable weighted visibility graph.

    ``adjacency`` holds the inter-satellite links; ``station_edges`` holds
    (satellite index, station index) pairs in ascending (i, g) order, which
    :func:`apply_overlay` relies on.  Delays are one-way propagation times
    in milliseconds.
    """

    station_count: int
    adjacency: SatAdjacency
    station_edges: np.ndarray  # (F, 2) int32
    station_delays_ms: np.ndarray  # (F,) float64

    @property
    def sat_count(self) -> int:
        return self.adjacency.indptr.size - 1

    @property
    def sat_edge_count(self) -> int:
        return int(self.adjacency.indptr[-1]) // 2

    @property
    def station_edge_count(self) -> int:
        return int(self.station_edges.shape[0])

    @property
    def sat_edges(self) -> np.ndarray:
        """(E, 2) int32 read-only pairs (i, j) with i < j in ascending (i, j)
        order, derived from the adjacency on each access."""
        adj = self.adjacency
        upper = adj.neighbors > adj.rows
        edges = np.stack([adj.rows[upper], adj.neighbors[upper]], axis=1)
        edges.flags.writeable = False
        return edges

    @property
    def sat_delays_ms(self) -> np.ndarray:
        """(E,) float64 read-only delays aligned with :attr:`sat_edges`."""
        adj = self.adjacency
        delays = adj.delays_ms[adj.neighbors > adj.rows]
        delays.flags.writeable = False
        return delays


def resolve_thread_count(threads: int | None) -> int:
    """Explicit value > SDA_NETLAB_THREADS env var > available parallelism.
    A bad value raises ``ValueError`` keyed by its source: ``threads`` or
    ``SDA_NETLAB_THREADS``."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads: must be >= 1, got {threads}")
        return threads
    env = os.environ.get("SDA_NETLAB_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"SDA_NETLAB_THREADS: must be an integer >= 1, got {env!r}")
    return int(env)


def _canonical_pairs(
    pa: np.ndarray, qa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Order endpoint coordinates lexicographically, mirroring the scalar LOS."""
    px, py, pz = pa[:, 0:1], pa[:, 1:2], pa[:, 2:3]
    qx, qy, qz = qa[np.newaxis, :, 0], qa[np.newaxis, :, 1], qa[np.newaxis, :, 2]
    swap = (qx < px) | ((qx == px) & ((qy < py) | ((qy == py) & (qz < pz))))
    ax = np.where(swap, qx, px)
    ay = np.where(swap, qy, py)
    az = np.where(swap, qz, pz)
    bx = np.where(swap, px, qx)
    by = np.where(swap, py, qy)
    bz = np.where(swap, pz, qz)
    return ax, ay, az, bx, by, bz


def _visible_mask(
    pa_scaled: np.ndarray, qa_scaled: np.ndarray
) -> np.ndarray:
    """Visibility of every (row, col) pair from pre-scaled coordinates.

    Coincident points produce NaN and compare as not visible.
    """
    ax, ay, az, bx, by, bz = _canonical_pairs(pa_scaled, qa_scaled)
    dx = bx - ax
    dy = by - ay
    dz = bz - az
    dd = (dx * dx + dy * dy) + dz * dz
    pd = (ax * dx + ay * dy) + az * dz
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-pd / dd, 0.0, 1.0)
    ex = ax + t * dx
    ey = ay + t * dy
    ez = az + t * dz
    m2 = (ex * ex + ey * ey) + ez * ez
    return m2 >= LOS_THRESHOLD_SQ


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise distance between two (k, 3) arrays of endpoints."""
    dx = p[:, 0] - q[:, 0]
    dy = p[:, 1] - q[:, 1]
    dz = p[:, 2] - q[:, 2]
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def _delays_ms(distances: np.ndarray) -> np.ndarray:
    return distances / SPEED_OF_LIGHT_KM_S * 1000.0


def _sat_block(
    positions: np.ndarray, scaled: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows lo:hi of the adjacency: each row's visible satellites in
    ascending order, their delays, and the count per row."""
    rows, cols = np.nonzero(_visible_mask(scaled[lo:hi], scaled))
    dist = _distances(positions[lo + rows], positions[cols])
    return cols.astype(np.int32), _delays_ms(dist), np.bincount(rows, minlength=hi - lo)


def build_visibility_graph(
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...] = (),
    margin_km: float = 0.0,
    min_elevation_deg: float | None = None,
    threads: int | None = None,
) -> VisibilityGraph:
    """Test all satellite pairs and all satellite-station pairs for
    line of sight and attach propagation delays.

    ``min_elevation_deg`` optionally adds a station-horizon mask on top of
    the geometric test; by default visibility is purely geometric.
    """
    if margin_km < 0.0:
        raise ValueError(f"margin_km must be >= 0, got {margin_km}")
    n = len(snapshot)
    positions = snapshot.positions
    inv_ae = 1.0 / (SEMI_MAJOR_A_KM + margin_km)
    inv_be = 1.0 / (SEMI_MINOR_B_KM + margin_km)
    scaled = positions * np.array([inv_ae, inv_ae, inv_be])

    blocks = [(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK)]
    workers = min(resolve_thread_count(threads), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda b: _sat_block(positions, scaled, *b), blocks))
    else:
        results = [_sat_block(positions, scaled, lo, hi) for lo, hi in blocks]

    # A row lists both orders of each pair: the LOS test orders the two
    # endpoints and (p - q)**2 == (q - p)**2, so both entries of a pair carry
    # the same bits.  A satellite never sees itself: coincident points are
    # not visible.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([r[2] for r in results]), out=indptr[1:])
    adjacency = SatAdjacency(
        indptr=indptr,
        neighbors=np.concatenate([r[0] for r in results]),
        delays_ms=np.concatenate([r[1] for r in results]),
    )

    if stations:
        st_pos = np.array([s.ecef.as_tuple() for s in stations], dtype=np.float64)
        st_scaled = st_pos * np.array([inv_ae, inv_ae, inv_be])
        visible = _visible_mask(scaled, st_scaled)
        if min_elevation_deg is not None:
            visible &= _elevation_mask(positions, stations, min_elevation_deg)
        rows, cols = np.nonzero(visible)
        dist = _distances(positions[rows], st_pos[cols])
        station_edges = np.stack([rows, cols], axis=1).astype(np.int32)
        station_delays = _delays_ms(dist)
    else:
        station_edges = np.empty((0, 2), dtype=np.int32)
        station_delays = np.empty(0, dtype=np.float64)

    return VisibilityGraph(
        station_count=len(stations),
        adjacency=adjacency,
        station_edges=station_edges,
        station_delays_ms=station_delays,
    )


def _elevation_mask(
    positions: np.ndarray,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    min_elevation_deg: float,
) -> np.ndarray:
    ups = np.empty((len(stations), 3))
    st_pos = np.empty((len(stations), 3))
    for k, st in enumerate(stations):
        lat = math.radians(st.geodetic.latitude_deg)
        lon = math.radians(st.geodetic.longitude_deg)
        ups[k] = (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
        st_pos[k] = st.ecef.as_tuple()
    rel = positions[:, np.newaxis, :] - st_pos[np.newaxis, :, :]
    norms = np.sqrt(np.sum(rel * rel, axis=2))
    sin_el = np.sum(rel * ups[np.newaxis, :, :], axis=2) / norms
    return sin_el >= math.sin(math.radians(min_elevation_deg))


# --- Attack overlays ------------------------------------------------------------


def reroute_penalty(raw, name: str = "reroute_penalty_ms") -> float:
    """``raw`` as a per-relay-hop penalty: a number by :func:`json_number`
    and >= 0.  The config and the overlay penalty both go through here."""
    value = json_number(raw, name)
    if value < 0.0:
        raise ValueError(f"{name}: must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class JamRegion:
    center: GeodeticPosition
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km <= 0.0:
            raise ValueError(f"jam radius must be positive, got {self.radius_km}")


@dataclass(frozen=True)
class AttackOverlay:
    """Link-layer availability attack: disabled nodes and links, jammed
    regions, and a per-relay-hop monitoring penalty."""

    disabled_satellites: frozenset[str] = frozenset()
    disabled_stations: frozenset[str] = frozenset()
    disabled_links: frozenset[tuple[str, str]] = frozenset()
    jam_regions: tuple[JamRegion, ...] = ()
    reroute_penalty_ms: float = 0.0

    def __post_init__(self) -> None:
        reroute_penalty(self.reroute_penalty_ms)

    @staticmethod
    def normalize_link(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def check_ids(self, sat_ids, station_ids) -> None:
        """Raise ``ValueError`` keyed ``overlay`` at the first id that is
        neither in ``sat_ids`` nor in ``station_ids``."""
        sats, stations = set(sat_ids), set(station_ids)
        unknown = sorted(set(self.disabled_satellites) - sats)
        if unknown:
            raise ValueError(f"overlay: names unknown satellites: {', '.join(unknown)}")
        unknown = sorted(set(self.disabled_stations) - stations)
        if unknown:
            raise ValueError(f"overlay: names unknown stations: {', '.join(unknown)}")
        for a, b in sorted(self.disabled_links):
            for node in (a, b):
                if node not in sats and node not in stations:
                    raise ValueError(f"overlay: link names unknown node: {node}")

    @classmethod
    def from_dict(cls, data: dict) -> "AttackOverlay":
        if not isinstance(data, dict):
            raise ValueError("overlay must be a JSON object")
        allowed = {
            "disabled_satellites",
            "disabled_stations",
            "disabled_links",
            "jam_regions",
            "reroute_penalty_ms",
        }
        for key in data:
            if key not in allowed:
                raise ValueError(f"unknown overlay key {key!r}")

        def entries(key: str) -> list:
            value = data.get(key, [])
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key}: must be a list, got {value!r}")
            return value

        def ids(key: str) -> frozenset[str]:
            return frozenset(json_string(v, f"{key}[{k}]") for k, v in enumerate(entries(key)))

        links = set()
        for k, pair in enumerate(entries("disabled_links")):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"disabled_links entries must be id pairs, got {pair!r}")
            links.add(cls.normalize_link(
                *(json_string(node, f"disabled_links[{k}][{end}]") for end, node in enumerate(pair))
            ))
        regions = []
        for k, r in enumerate(entries("jam_regions")):
            if not isinstance(r, dict) or not {"lat_deg", "lon_deg", "radius_km"} <= set(r):
                raise ValueError(
                    "jam_regions entries need lat_deg, lon_deg and radius_km, got "
                    f"{r!r}"
                )
            lat, lon, radius = (
                json_number(r[key], f"jam_regions[{k}].{key}")
                for key in ("lat_deg", "lon_deg", "radius_km")
            )
            regions.append(JamRegion(GeodeticPosition(lat, lon, 0.0), radius))
        return cls(
            disabled_satellites=ids("disabled_satellites"),
            disabled_stations=ids("disabled_stations"),
            disabled_links=frozenset(links),
            jam_regions=tuple(regions),
            reroute_penalty_ms=reroute_penalty(data.get("reroute_penalty_ms", 0.0)),
        )

    def to_dict(self) -> dict:
        return {
            "disabled_satellites": sorted(self.disabled_satellites),
            "disabled_stations": sorted(self.disabled_stations),
            "disabled_links": [list(pair) for pair in sorted(self.disabled_links)],
            "jam_regions": [
                {
                    "lat_deg": r.center.latitude_deg,
                    "lon_deg": r.center.longitude_deg,
                    "radius_km": r.radius_km,
                }
                for r in self.jam_regions
            ],
            "reroute_penalty_ms": self.reroute_penalty_ms,
        }


def _jammed_mask(
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    regions: tuple[JamRegion, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes whose sub-point falls inside any jam region (the surface
    distance reads only latitude and longitude)."""
    n = len(snapshot)
    if not regions:
        return np.zeros(n, dtype=bool), np.zeros(len(stations), dtype=bool)
    subs = [ecef_to_geodetic(EcefPosition(*p)) for p in snapshot.positions.tolist()]
    subs += [st.geodetic for st in stations]
    jammed = np.array([
        any(surface_distance_km(sub, r.center) <= r.radius_km for r in regions) for sub in subs
    ], dtype=bool)
    return jammed[:n], jammed[n:]


def _clear_listed(keep: np.ndarray, first: np.ndarray, second: np.ndarray, width: int, keys: list[int]) -> None:
    """Clear ``keep`` at every entry whose key ``first * width + second`` is
    in ``keys``.  The entry keys must be strictly increasing; one int64 key
    array is the only entry-sized transient."""
    if not keys or not len(first):
        return
    entry_keys = first.astype(np.int64)
    entry_keys *= width
    entry_keys += second
    wanted = np.array(keys, dtype=np.int64)
    pos = np.minimum(np.searchsorted(entry_keys, wanted), len(entry_keys) - 1)
    keep[pos[entry_keys[pos] == wanted]] = False


def apply_overlay(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    overlay: AttackOverlay,
) -> VisibilityGraph:
    """Remove every edge incident to a disabled or jammed node, plus the
    explicitly listed links.  The result's edge set is a subset of the
    input's, in the same order: its adjacency is the input's with the
    removed entries masked out.

    Listed links are matched by index key, not by id: a satellite pair
    (i, j) clears the adjacency entries ``i * sat_count + j`` and
    ``j * sat_count + i``, and a satellite-station pair (i, g) is
    ``i * station_count + g``; the adjacency and the station edges are
    sorted by these keys, so one binary search finds each link.  A link
    between two stations, from a node to itself, or between nodes with no
    edge removes nothing.  Ids the snapshot and the stations do not know
    raise ``ValueError`` (:meth:`AttackOverlay.check_ids`)."""
    sat_index = {s: i for i, s in enumerate(snapshot.ids)}
    station_index = {st.id: i for i, st in enumerate(stations)}
    overlay.check_ids(sat_index, station_index)

    sat_dead = np.zeros(graph.sat_count, dtype=bool)
    for s in overlay.disabled_satellites:
        sat_dead[sat_index[s]] = True
    st_dead = np.zeros(graph.station_count, dtype=bool)
    for s in overlay.disabled_stations:
        st_dead[station_index[s]] = True
    sat_jam, st_jam = _jammed_mask(snapshot, stations, overlay.jam_regions)
    sat_dead |= sat_jam
    st_dead |= st_jam

    adj = graph.adjacency
    keep_ss = ~(sat_dead[adj.rows] | sat_dead[adj.neighbors])
    keep_sg = ~(
        sat_dead[graph.station_edges[:, 0]] | st_dead[graph.station_edges[:, 1]]
    ) if graph.station_edge_count else np.zeros(0, dtype=bool)

    n, stations_n = graph.sat_count, graph.station_count
    ss_keys, sg_keys = [], []
    for a, b in overlay.disabled_links:
        ia, ib = sat_index.get(a), sat_index.get(b)
        if ia is not None and ib is not None:
            ss_keys += [ia * n + ib, ib * n + ia]
        for i, g in ((ia, station_index.get(b)), (ib, station_index.get(a))):
            if i is not None and g is not None:
                sg_keys.append(i * stations_n + g)
    _clear_listed(keep_ss, adj.rows, adj.neighbors, n, ss_keys)
    _clear_listed(keep_sg, graph.station_edges[:, 0], graph.station_edges[:, 1], stations_n, sg_keys)

    kept = np.zeros(keep_ss.size + 1, dtype=np.int64)
    np.cumsum(keep_ss, out=kept[1:])
    return VisibilityGraph(
        station_count=graph.station_count,
        adjacency=SatAdjacency(kept[adj.indptr], adj.neighbors[keep_ss], adj.delays_ms[keep_ss]),
        station_edges=graph.station_edges[keep_sg],
        station_delays_ms=graph.station_delays_ms[keep_sg],
    )
