"""Visibility graphs over constellation snapshots, and attack overlays.

The satellite build tests each pair once, in the upper triangle, in row
blocks that may run on worker threads.  A tangent bound prunes, an inner
bound accepts, and the exact test decides the band between them: the
pruned pairs cannot see each other, and the accepted ones pass the exact
test.  That test uses the same floating-point expressions as the scalar
reference ``min_scaled_norm_sq`` in the tests' ``oracle_utils`` (including
the lexicographic endpoint ordering), so the edge set is bit-identical to a
scalar double loop and independent of the thread count.  The symmetric CSR
is assembled from the upper pairs without sorting its 2E entries.  The
station edges go through the same exact test.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationSnapshot, GroundStationNode
from .geo import (
    LOS_THRESHOLD_SQ,
    MEAN_RADIUS_KM,
    SEMI_MAJOR_A_KM,
    SEMI_MINOR_B_KM,
    SPEED_OF_LIGHT_KM_S,
    EcefPosition,
    GeodeticPosition,
    ecef_to_geodetic,
    surface_distance_km,
)
from .jsonvalues import config_key, json_number, json_object, json_string

_ROW_BLOCK = 128
# Satellite pairs each worker thread must have before the build splits
# across threads: about 40 ms of single-thread work.  Below it the workers
# gain little and contend for the interpreter lock, so a build of a few
# hundred satellites is faster and far steadier on one thread.
_PAIRS_PER_WORKER = 500_000


@dataclass(frozen=True)
class SatAdjacency:
    """Compressed sparse rows over satellites: row ``u`` lists its
    neighbours ``neighbors[indptr[u]:indptr[u + 1]]`` in ascending order,
    and the one-way delays to them.  Every edge appears once in each
    endpoint's row, with the same delay bits; no row lists its own
    satellite; an entry's row is found from ``indptr``."""

    indptr: np.ndarray  # (sat_count + 1,) int64
    neighbors: np.ndarray  # (2E,) int32
    delays_ms: np.ndarray  # (2E,) float64


@dataclass(frozen=True)
class VisibilityGraph:
    """Immutable weighted visibility graph.

    Satellite ``i`` is ``sat_ids[i]``, row ``i`` of the snapshot the graph
    was built from.  ``adjacency`` holds the inter-satellite links;
    ``station_edges`` holds (satellite index, station index) pairs in
    ascending (i, g) order, which :func:`apply_overlay` relies on.  Delays
    are one-way propagation times in milliseconds.
    """

    sat_ids: tuple[str, ...]
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

    def _upper_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry's int32 row, and the mask of the entries above their row."""
        adj = self.adjacency
        rows = np.repeat(np.arange(self.sat_count, dtype=np.int32), np.diff(adj.indptr))
        return rows, adj.neighbors > rows

    @property
    def sat_edges(self) -> np.ndarray:
        """(E, 2) int32 read-only pairs (i, j) with i < j in ascending (i, j)
        order, derived from the adjacency on each access."""
        rows, upper = self._upper_entries()
        edges = np.stack([rows[upper], self.adjacency.neighbors[upper]], axis=1)
        edges.flags.writeable = False
        return edges

    @property
    def sat_delays_ms(self) -> np.ndarray:
        """(E,) float64 read-only delays aligned with :attr:`sat_edges`."""
        delays = self.adjacency.delays_ms[self._upper_entries()[1]]
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


def _line_of_sight(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Visibility of each pair (``p[:, k]``, ``q[:, k]``) of pre-scaled
    (3, k) endpoint columns.

    The endpoints are put in lexicographic (x, y, z) order first, mirroring
    the scalar LOS, so the result does not depend on which endpoint is
    ``p``.  Coincident points produce NaN and compare as not visible.
    """
    px, py, pz = p
    qx, qy, qz = q
    swap = (qx < px) | ((qx == px) & ((qy < py) | ((qy == py) & (qz < pz))))
    ax = np.where(swap, qx, px)
    ay = np.where(swap, qy, py)
    az = np.where(swap, qz, pz)
    dx = np.where(swap, px, qx) - ax
    dy = np.where(swap, py, qy) - ay
    dz = np.where(swap, pz, qz) - az
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


def _upper_block(
    positions: np.ndarray,
    scaled: np.ndarray,
    sq: np.ndarray,
    tangent: np.ndarray,
    inner: np.ndarray,
    slack: float,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (i, j) with lo <= i < hi and i < j, in ascending (i, j)
    order, and their delays: the pairs that pass the tangent bound and then
    either the inner bound or the exact LOS test (see
    :func:`_sat_adjacency`).  ``slack`` is 1e-12 max(1, max |a|^2)."""
    # |a - b|^2 in the Gram form sq[i] + sq[j] - 2 a.b, with a.b summed from
    # three outer products: a BLAS product with inner size 3 saves nothing,
    # and its own threads would compete with the row-block workers.
    d2 = np.add.outer(sq[lo:hi], sq[lo:])
    left, right = -2.0 * scaled[lo:hi], scaled.T[:, lo:]
    for k in range(3):
        d2 += np.multiply.outer(left[:, k], right[k])
    limit = tangent[lo:hi, np.newaxis] + tangent[np.newaxis, lo:]
    limit *= limit
    limit *= 1.0 + 1e-9
    limit += 1e-12
    candidate = d2 <= limit
    del limit
    candidate[np.tril_indices(hi - lo)] = False  # the pairs with j <= i
    gram = d2[candidate]
    del d2
    rows, cols = np.nonzero(candidate)
    del candidate
    i = (rows + lo).astype(np.int32)
    j = (cols + lo).astype(np.int32)
    del rows, cols
    # ``inner`` is NaN where the inner tangent length is not > 0, so such a
    # pair fails the bound; so does one whose Gram value may be that of two
    # equal scaled points.  Both go to the exact test.
    bound = inner[i] + inner[j]
    bound *= bound
    bound *= 1.0 - 1e-9
    bound -= 1e-12
    visible = (gram <= bound) & (gram > slack)
    del gram, bound
    band = np.flatnonzero(~visible)
    visible[band] = _line_of_sight(scaled.T[:, i[band]], scaled.T[:, j[band]])
    i, j = i[visible], j[visible]
    return i, j, _delays_ms(_distances(positions[i], positions[j]))


def _sat_adjacency(positions: np.ndarray, scaled: np.ndarray, threads: int | None) -> SatAdjacency:
    """The satellite CSR: each pair i < j is tested once, in row blocks
    that may run on worker threads, and listed under both endpoints.  Each
    worker gets at least ``_PAIRS_PER_WORKER`` pairs.

    A tangent bound prunes, an inner bound accepts, and the exact LOS test
    decides the band between them, so the edges are exactly the pairs the
    exact test accepts.  In the scaled coordinates the test asks whether
    the segment a-b keeps a squared norm >= T (``LOS_THRESHOLD_SQ``).  Let
    m be its point nearest the origin.  If m lies inside the segment, m is
    orthogonal to b - a, so |a - m|^2 = |a|^2 - |m|^2, and the same for b;
    if m is the endpoint a, then a.(b - a) >= 0 and |b - a|^2 <= |b|^2 -
    |a|^2.

    - The tangent bound keeps every visible pair: a pair with |m|^2 >= T'
      has |a - b| <= t_a + t_b, where t_a = sqrt(|a|^2 - T') is the
      tangent length from a to the sphere of radius sqrt(T').  A satellite
      with |a|^2 < T' sees nothing, as |m| <= |a|, so its t = 0 loses no
      pair.
    - The inner bound accepts only visible pairs: let s_a = sqrt(|a|^2 -
      T'').  If a != b, |a|^2 and |b|^2 are both >= T'' and |a - b| <= s_a
      + s_b, then |m|^2 >= T''.  With m inside the segment, |a - b| =
      sqrt(|a|^2 - |m|^2) + sqrt(|b|^2 - |m|^2), which falls as |m|^2
      grows; with m at an endpoint, |m|^2 is that endpoint's squared norm.

    With u = 2**-53 and S = max(1, max |a|^2), these rounding gaps remain:

    - The exact test finds m with a dozen roundings, so it may accept a
      pair whose true |m|^2 lies below T by up to about 20 u S.  It
      evaluates a point a + t d with t clipped to [0, 1], so it cannot
      read below the true minimum by more than that either.  The tangent
      lengths are therefore taken to T' = T - 1e-12 S and the inner ones to
      T'' = T + 1e-12 S, which also absorbs the rounding of |a|^2.  With
      T' = T, a satellite on the threshold sphere (t = 0) would lose the
      partners whose segment dips below its tangent plane by less than the
      test resolves: an error of 1e-16 in |m|^2 moves that tangent length
      by 1e-8.
    - The Gram form |a|^2 + |b|^2 - 2 a.b of |a - b|^2 errs by less than
      16 u (|a|^2 + |b|^2), summed in any order.  The slack
      (t_a + t_b)^2 (1 + 1e-9) + 1e-12 covers it on its own: the absolute
      1e-12 while |a|^2 + |b|^2 < 500; beyond that, (t_a + t_b)^2 >=
      max(|a|^2, |b|^2) - 1 > 240, and the relative 1e-9 does.  The
      relative term also absorbs the roundings of t_a + t_b and its square.
      The inner bound (s_a + s_b)^2 (1 - 1e-9) - 1e-12 mirrors it.
    - A Gram value <= 1e-12 S may belong to two satellites whose scaled
      points are equal, coincident or a few ulp apart before the scaling,
      and the exact test rejects those.  Above it the Gram error (< 32 u S)
      leaves a != b.  Such pairs, and every pair of a satellite with
      |a|^2 <= T'' (no s > 0), go to the exact test.

    The upper pairs arrive in ascending (i, j) order.  Row r lists its
    lower neighbours first, the pairs (i, r), which a stable sort of the
    columns yields in ascending i; its upper neighbours, the pairs (r, j),
    follow as they arrive.  One mask of per-row runs places both kinds, so
    the 2E entries are never sorted.  Each E-sized transient is dropped as
    soon as it has been used.
    """
    n = positions.shape[0]
    sq = np.einsum("ij,ij->i", scaled, scaled)
    slack = 1e-12 * max(1.0, float(sq.max()))
    tangent = np.sqrt(np.maximum(sq - (LOS_THRESHOLD_SQ - slack), 0.0))
    above = sq - (LOS_THRESHOLD_SQ + slack)
    inner = np.sqrt(above, out=np.full(n, np.nan), where=above > 0.0)
    blocks = [(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK)]
    workers = min(resolve_thread_count(threads), len(blocks), max(1, n * (n - 1) // 2 // _PAIRS_PER_WORKER))

    def block(bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _upper_block(positions, scaled, sq, tangent, inner, slack, *bounds)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block, blocks))
    else:
        results = list(map(block, blocks))
    i, j, delays = (np.concatenate(part) for part in zip(*results))
    del results

    # The LOS test orders the two endpoints and (p - q)**2 == (q - p)**2, so
    # each pair's one test and one delay serve both of its entries.  A
    # satellite never sees itself: coincident points are not visible.
    lower = np.bincount(j, minlength=n)
    upper = np.bincount(i, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + upper, out=indptr[1:])
    by_column = np.argsort(j, kind="stable")
    lower_neighbors = i[by_column]
    del i
    lower_delays = delays[by_column]
    del by_column
    in_lower = np.repeat(np.tile(np.array([True, False]), n), np.stack([lower, upper], axis=1).ravel())
    delays_ms = np.empty(indptr[-1], dtype=np.float64)
    delays_ms[in_lower] = lower_delays
    del lower_delays
    neighbors = np.empty(indptr[-1], dtype=np.int32)
    neighbors[in_lower] = lower_neighbors
    del lower_neighbors
    np.logical_not(in_lower, out=in_lower)
    delays_ms[in_lower] = delays
    del delays
    neighbors[in_lower] = j
    del j, in_lower
    return SatAdjacency(indptr=indptr, neighbors=neighbors, delays_ms=delays_ms)


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
    axes = np.array([1.0 / (SEMI_MAJOR_A_KM + margin_km)] * 2 + [1.0 / (SEMI_MINOR_B_KM + margin_km)])
    scaled = positions * axes
    adjacency = _sat_adjacency(positions, scaled, threads)

    # Every (satellite, station) pair in ascending (i, g) order.
    st_pos = np.array([s.ecef.as_tuple() for s in stations], dtype=np.float64).reshape(-1, 3)
    sats = np.repeat(np.arange(n), len(stations))
    grounds = np.tile(np.arange(len(stations)), n)
    visible = _line_of_sight(scaled.T[:, sats], (st_pos * axes).T[:, grounds])
    if min_elevation_deg is not None:
        visible &= _elevation_mask(positions, stations, min_elevation_deg).ravel()
    sats, grounds = sats[visible], grounds[visible]
    return VisibilityGraph(
        sat_ids=snapshot.ids,
        station_count=len(stations),
        adjacency=adjacency,
        station_edges=np.stack([sats, grounds], axis=1).astype(np.int32),
        station_delays_ms=_delays_ms(_distances(positions[sats], st_pos[grounds])),
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
        radius = json_number(self.radius_km, "radius_km")
        if radius <= 0.0:
            raise ValueError(f"jam radius must be positive, got {radius}")
        object.__setattr__(self, "radius_km", radius)

    @classmethod
    def from_dict(cls, raw, name: str) -> "JamRegion":
        """The region the JSON object ``raw`` describes; raises ``ValueError``
        keyed ``name``."""
        data = json_object(raw, name, required=("lat_deg", "lon_deg", "radius_km"))
        with config_key(name):
            return cls(GeodeticPosition(data["lat_deg"], data["lon_deg"]), data["radius_km"])


@dataclass(frozen=True)
class AttackOverlay:
    """Link-layer availability attack: disabled nodes and links, jammed
    regions, and a per-relay-hop monitoring penalty.  It holds frozensets of
    ids, :meth:`normalize_link` pairs, a tuple of regions and a float penalty.

    Each collection field is a list (a tuple or a set too), each id a string
    by :func:`json_string` keyed like ``disabled_satellites[k]``, and each
    link a pair of ids."""

    disabled_satellites: frozenset[str] = frozenset()
    disabled_stations: frozenset[str] = frozenset()
    disabled_links: frozenset[tuple[str, str]] = frozenset()
    jam_regions: tuple[JamRegion, ...] = ()
    reroute_penalty_ms: float = 0.0

    def __post_init__(self) -> None:
        def entries(key: str):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple, set, frozenset)):
                raise ValueError(f"{key}: must be a list, got {value!r}")
            return value

        links = []
        for k, pair in enumerate(entries("disabled_links")):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"disabled_links entries must be id pairs, got {pair!r}")
            links.append(self.normalize_link(
                *(json_string(node, f"disabled_links[{k}][{end}]") for end, node in enumerate(pair))
            ))
        object.__setattr__(self, "disabled_links", frozenset(links))
        object.__setattr__(self, "jam_regions", tuple(entries("jam_regions")))
        for key in ("disabled_satellites", "disabled_stations"):
            ids = frozenset(json_string(v, f"{key}[{k}]") for k, v in enumerate(entries(key)))
            object.__setattr__(self, key, ids)
        object.__setattr__(self, "reroute_penalty_ms", reroute_penalty(self.reroute_penalty_ms))

    @staticmethod
    def normalize_link(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def check_ids(self, sat_ids, station_ids) -> None:
        """Raise ``ValueError`` keyed ``overlay`` at the first id that is
        neither in ``sat_ids`` nor in ``station_ids``."""
        sats, stations = set(sat_ids), set(station_ids)
        unknown = sorted(self.disabled_satellites - sats)
        if unknown:
            raise ValueError(f"overlay: names unknown satellites: {', '.join(unknown)}")
        unknown = sorted(self.disabled_stations - stations)
        if unknown:
            raise ValueError(f"overlay: names unknown stations: {', '.join(unknown)}")
        for a, b in sorted(self.disabled_links):
            for node in (a, b):
                if node not in sats and node not in stations:
                    raise ValueError(f"overlay: link names unknown node: {node}")

    @classmethod
    def from_dict(cls, raw) -> "AttackOverlay":
        """The overlay the JSON object ``raw`` describes; raises ``ValueError``
        keyed ``overlay``."""
        data = dict(json_object(raw, "overlay", optional=(
            "disabled_satellites", "disabled_stations", "disabled_links", "jam_regions", "reroute_penalty_ms",
        )))
        with config_key("overlay"):
            regions = data.get("jam_regions")
            if isinstance(regions, (list, tuple)):
                data["jam_regions"] = [JamRegion.from_dict(r, f"jam_regions[{k}]") for k, r in enumerate(regions)]
            return cls(**data)

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


# The geodetic and the geocentric latitude of a point above the ellipsoid
# differ by at most 0.1924 degrees; the bound rounds that up.
_LATITUDE_GAP_RAD = math.radians(0.2)


def _jammed_mask(
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    regions: tuple[JamRegion, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes whose sub-point falls inside any jam region (the surface
    distance reads only latitude and longitude).

    Only the satellites near a region get the exact test.  A sub-point and
    the satellite's own direction share a meridian and differ in latitude
    by at most the geodetic-geocentric gap, so the triangle inequality on
    the sphere puts every jammed satellite within radius / MEAN_RADIUS_KM
    plus that gap of a region's centre, as seen from the Earth's centre.
    The cosine cut is lowered by 1e-9, far above the rounding of the unit
    vectors and of their dot product."""
    n = len(snapshot)
    if not regions:
        return np.zeros(n, dtype=bool), np.zeros(len(stations), dtype=bool)
    positions = snapshot.positions
    directions = positions / np.sqrt(np.einsum("ij,ij->i", positions, positions))[:, np.newaxis]
    near = np.zeros(n, dtype=bool)
    for r in regions:
        lat, lon = math.radians(r.center.latitude_deg), math.radians(r.center.longitude_deg)
        centre = np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])
        reach = min(r.radius_km / MEAN_RADIUS_KM + _LATITUDE_GAP_RAD, math.pi)
        near |= directions @ centre >= math.cos(reach) - 1e-9

    def jammed(sub: GeodeticPosition) -> bool:
        return any(surface_distance_km(sub, r.center) <= r.radius_km for r in regions)

    sat_jam = np.zeros(n, dtype=bool)
    for k in np.flatnonzero(near).tolist():
        sat_jam[k] = jammed(ecef_to_geodetic(EcefPosition(*positions[k].tolist())))
    return sat_jam, np.array([jammed(st.geodetic) for st in stations], dtype=bool)


def _listed_entry(indptr: np.ndarray, targets: np.ndarray, row: int, target: int) -> list[int]:
    """The index of the entry ``target`` in row ``row`` of a CSR whose rows
    list ascending ``targets``, as a one-element list; empty if the row
    does not list it."""
    lo, hi = int(indptr[row]), int(indptr[row + 1])
    k = lo + int(np.searchsorted(targets[lo:hi], target))
    return [k] if k < hi and targets[k] == target else []


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

    Listed links are matched by index, not by id: a satellite pair (i, j)
    clears the entry j of row i and the entry i of row j, and a
    satellite-station pair (i, g) clears the station edge (i, g).  Each row
    lists its neighbours, and the station edges their stations, in
    ascending order, so one binary search inside the row finds each entry.
    A link between two stations, from a node to itself, or between nodes
    with no edge removes nothing.  Ids the snapshot and the stations do not
    know raise ``ValueError`` (:meth:`AttackOverlay.check_ids`)."""
    sat_index = {s: i for i, s in enumerate(snapshot.ids)}
    station_index = {st.id: i for i, st in enumerate(stations)}
    overlay.check_ids(sat_index, station_index)

    sat_dead, st_dead = _jammed_mask(snapshot, stations, overlay.jam_regions)
    sat_dead[[sat_index[s] for s in overlay.disabled_satellites]] = True
    st_dead[[station_index[s] for s in overlay.disabled_stations]] = True

    n, adj = graph.sat_count, graph.adjacency
    counts = np.diff(adj.indptr)
    dead_ss = np.repeat(sat_dead, counts)
    dead_ss |= sat_dead[adj.neighbors]
    sats, grounds = graph.station_edges[:, 0], graph.station_edges[:, 1]
    dead_sg = sat_dead[sats] | st_dead[grounds]
    station_indptr = np.searchsorted(sats, np.arange(n + 1))

    for a, b in overlay.disabled_links:
        ia, ib = sat_index.get(a), sat_index.get(b)
        if ia is not None and ib is not None:
            dead_ss[_listed_entry(adj.indptr, adj.neighbors, ia, ib)] = True
            dead_ss[_listed_entry(adj.indptr, adj.neighbors, ib, ia)] = True
        for i, g in ((ia, station_index.get(b)), (ib, station_index.get(a))):
            if i is not None and g is not None:
                dead_sg[_listed_entry(station_indptr, grounds, i, g)] = True

    removed = np.flatnonzero(dead_ss)
    counts -= np.bincount(np.searchsorted(adj.indptr, removed, side="right") - 1, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    keep_ss, keep_sg = np.logical_not(dead_ss, out=dead_ss), ~dead_sg
    return VisibilityGraph(
        sat_ids=graph.sat_ids,
        station_count=graph.station_count,
        adjacency=SatAdjacency(indptr, adj.neighbors[keep_ss], adj.delays_ms[keep_ss]),
        station_edges=graph.station_edges[keep_sg],
        station_delays_ms=graph.station_delays_ms[keep_sg],
    )
