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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import ConstellationSnapshot, GroundStationNode
from .geo import (
    LOS_THRESHOLD_SQ,
    SPEED_OF_LIGHT_KM_S,
    EcefPosition,
    EllipsoidModel,
    GeodeticPosition,
    WGS84,
    ecef_to_geodetic,
    surface_distance_km,
)

_ROW_BLOCK = 128


@dataclass(frozen=True)
class VisibilityGraph:
    """Immutable weighted visibility graph.

    ``sat_edges`` holds index pairs (i, j) with i < j in ascending (i, j)
    order; ``station_edges`` holds (satellite index, station index) pairs in
    ascending (i, g) order.  :func:`apply_overlay` relies on both orders.
    Delays are one-way propagation times in milliseconds.
    """

    sat_count: int
    station_count: int
    sat_edges: np.ndarray  # (E, 2) int32
    sat_delays_ms: np.ndarray  # (E,) float64
    station_edges: np.ndarray  # (F, 2) int32
    station_delays_ms: np.ndarray  # (F,) float64

    @property
    def sat_edge_count(self) -> int:
        return int(self.sat_edges.shape[0])

    @property
    def station_edge_count(self) -> int:
        return int(self.station_edges.shape[0])

    @cached_property
    def adjacency(self) -> "SatAdjacency":
        """Both directions of every inter-satellite edge, grouped by row;
        built on first use and shared by every routing solve on the graph."""
        i = self.sat_edges[:, 0]
        j = self.sat_edges[:, 1]
        rows = np.concatenate([j, i])
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.sat_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.sat_count), out=indptr[1:])
        return SatAdjacency(
            indptr=indptr,
            neighbors=np.concatenate([i, j])[order],
            delays_ms=np.concatenate([self.sat_delays_ms, self.sat_delays_ms])[order],
        )


@dataclass(frozen=True)
class SatAdjacency:
    """Compressed sparse rows over satellites: row ``u`` lists its
    neighbours ``neighbors[indptr[u]:indptr[u + 1]]`` and the one-way
    delays to them.  Every edge appears once in each endpoint's row."""

    indptr: np.ndarray  # (sat_count + 1,) int64
    neighbors: np.ndarray  # (2E,) int32
    delays_ms: np.ndarray  # (2E,) float64


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


def _pair_distances(pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    dx = pa[:, 0:1] - qa[np.newaxis, :, 0]
    dy = pa[:, 1:2] - qa[np.newaxis, :, 1]
    dz = pa[:, 2:3] - qa[np.newaxis, :, 2]
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def _delays_ms(distances: np.ndarray) -> np.ndarray:
    return distances / SPEED_OF_LIGHT_KM_S * 1000.0


def _sat_block(
    positions: np.ndarray, scaled: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges (i, j) with lo <= i < hi and j > i."""
    visible = _visible_mask(scaled[lo:hi], scaled)
    cols = np.arange(positions.shape[0])
    upper = cols[np.newaxis, :] > (np.arange(lo, hi)[:, np.newaxis])
    rows, cols_idx = np.nonzero(visible & upper)
    dist = _pair_distances(positions[lo:hi], positions)[rows, cols_idx]
    return rows + lo, cols_idx, _delays_ms(dist)


def build_visibility_graph(
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...] = (),
    e: EllipsoidModel = WGS84,
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
    inv_ae = 1.0 / (e.semi_major_a + margin_km)
    inv_be = 1.0 / (e.semi_minor_b + margin_km)
    scaled = positions * np.array([inv_ae, inv_ae, inv_be])

    blocks = [(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK)]
    workers = min(resolve_thread_count(threads), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda b: _sat_block(positions, scaled, *b), blocks))
    else:
        results = [_sat_block(positions, scaled, lo, hi) for lo, hi in blocks]

    sat_i = np.concatenate([r[0] for r in results])
    sat_j = np.concatenate([r[1] for r in results])
    sat_delays = np.concatenate([r[2] for r in results])
    sat_edges = np.stack([sat_i, sat_j], axis=1).astype(np.int32)

    if stations:
        st_pos = np.array([s.ecef.as_tuple() for s in stations], dtype=np.float64)
        st_scaled = st_pos * np.array([inv_ae, inv_ae, inv_be])
        visible = _visible_mask(scaled, st_scaled)
        if min_elevation_deg is not None:
            visible &= _elevation_mask(positions, stations, min_elevation_deg)
        rows, cols = np.nonzero(visible)
        dist = _pair_distances(positions, st_pos)[rows, cols]
        station_edges = np.stack([rows, cols], axis=1).astype(np.int32)
        station_delays = _delays_ms(dist)
    else:
        station_edges = np.empty((0, 2), dtype=np.int32)
        station_delays = np.empty(0, dtype=np.float64)

    return VisibilityGraph(
        sat_count=n,
        station_count=len(stations),
        sat_edges=sat_edges,
        sat_delays_ms=sat_delays,
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


def json_number(raw, name: str, kind: type = float):
    """``raw`` as ``kind`` when it is a finite JSON number (for ``kind=int``,
    an integer); a bool or a string is never one.  Raises ``ValueError``
    prefixed by ``name``.  Every numeric config value goes through here."""
    integer = kind is int
    if isinstance(raw, bool) or not isinstance(raw, int if integer else (int, float)):
        raise ValueError(f"{name}: must be {'an integer' if integer else 'a number'}, got {raw!r}")
    if integer:
        return raw
    if not abs(raw) <= sys.float_info.max:  # NaN, infinities, integers beyond a float
        raise ValueError(f"{name}: must be finite")
    return float(raw)


def reroute_penalty(raw, name: str = "reroute_penalty_ms") -> float:
    """``raw`` as a per-relay-hop penalty: a number by :func:`json_number`
    and >= 0.  The config and the overlay penalty both go through here."""
    value = json_number(raw, name)
    if value < 0.0:
        raise ValueError(f"{name}: must be >= 0, got {value}")
    return value


def json_string(raw, name: str) -> str:
    """``raw`` when it is a JSON string; raises ``ValueError`` prefixed by
    ``name``.  Config ids and paths go through here, never ``str()``."""
    if not isinstance(raw, str):
        raise ValueError(f"{name}: must be a string, got {raw!r}")
    return raw


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
    e: EllipsoidModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes whose sub-point falls inside any jam region (the surface
    distance reads only latitude and longitude)."""
    n = len(snapshot)
    if not regions:
        return np.zeros(n, dtype=bool), np.zeros(len(stations), dtype=bool)
    subs = [ecef_to_geodetic(EcefPosition(*p), e) for p in snapshot.positions.tolist()]
    subs += [st.geodetic for st in stations]
    jammed = np.array([
        any(surface_distance_km(sub, r.center, e) <= r.radius_km for r in regions) for sub in subs
    ], dtype=bool)
    return jammed[:n], jammed[n:]


def _clear_listed(keep: np.ndarray, edges: np.ndarray, width: int, keys: list[int]) -> None:
    """Clear ``keep`` at every edge whose key ``edges[:, 0] * width +
    edges[:, 1]`` is in ``keys``.  The edge keys must be strictly
    increasing; one int64 key array is the only edge-sized transient."""
    if not keys or not len(edges):
        return
    edge_keys = edges[:, 0].astype(np.int64)
    edge_keys *= width
    edge_keys += edges[:, 1]
    wanted = np.array(keys, dtype=np.int64)
    pos = np.minimum(np.searchsorted(edge_keys, wanted), len(edge_keys) - 1)
    keep[pos[edge_keys[pos] == wanted]] = False


def apply_overlay(
    graph: VisibilityGraph,
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    overlay: AttackOverlay,
    e: EllipsoidModel = WGS84,
) -> VisibilityGraph:
    """Remove every edge incident to a disabled or jammed node, plus the
    explicitly listed links.  The result's edge set is a subset of the
    input's, in the same canonical order.

    Listed links are matched by index key, not by id: a satellite pair
    (i, j) is the key ``min(i, j) * sat_count + max(i, j)`` and a
    satellite-station pair (i, g) is ``i * station_count + g``; both edge
    arrays are sorted by these keys, so one binary search finds each link.
    A link between two stations, from a node to itself, or between nodes
    with no edge removes nothing.  Ids the snapshot and the stations do not
    know raise ``ValueError`` (:meth:`AttackOverlay.check_ids`)."""
    sat_index = {s: i for i, s in enumerate(snapshot.ids)}
    station_index = {st.id: i for i, st in enumerate(stations)}
    overlay.check_ids(sat_index, station_index)

    sat_dead = np.zeros(graph.sat_count, dtype=bool)
    for s in overlay.disabled_satellites:
        sat_dead[sat_index[s]] = True
    st_dead = np.zeros(graph.station_count, dtype=bool)
    for s in overlay.disabled_stations:
        st_dead[station_index[s]] = True
    sat_jam, st_jam = _jammed_mask(snapshot, stations, overlay.jam_regions, e)
    sat_dead |= sat_jam
    st_dead |= st_jam

    keep_ss = ~(sat_dead[graph.sat_edges[:, 0]] | sat_dead[graph.sat_edges[:, 1]])
    keep_sg = ~(
        sat_dead[graph.station_edges[:, 0]] | st_dead[graph.station_edges[:, 1]]
    ) if graph.station_edge_count else np.zeros(0, dtype=bool)

    n, stations_n = graph.sat_count, graph.station_count
    ss_keys, sg_keys = [], []
    for a, b in overlay.disabled_links:
        ia, ib = sat_index.get(a), sat_index.get(b)
        if ia is not None and ib is not None:
            ss_keys.append(min(ia, ib) * n + max(ia, ib))
        for i, g in ((ia, station_index.get(b)), (ib, station_index.get(a))):
            if i is not None and g is not None:
                sg_keys.append(i * stations_n + g)
    _clear_listed(keep_ss, graph.sat_edges, n, ss_keys)
    _clear_listed(keep_sg, graph.station_edges, stations_n, sg_keys)

    return VisibilityGraph(
        sat_count=graph.sat_count,
        station_count=graph.station_count,
        sat_edges=graph.sat_edges[keep_ss],
        sat_delays_ms=graph.sat_delays_ms[keep_ss],
        station_edges=graph.station_edges[keep_sg],
        station_delays_ms=graph.station_delays_ms[keep_sg],
    )
