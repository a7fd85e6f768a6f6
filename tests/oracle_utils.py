"""Independent oracles shared by the unit and acceptance tests.

These deliberately re-derive results through different code paths than the
package (sampling instead of minimization, naive sums instead of fsum,
double loops instead of vectorization, a heap Dijkstra with per-node parent
scans instead of frontier sweeps over the adjacency, per-edge id matching
instead of index keys for overlays, a per-edge loop instead of a sort for
downlink seeds, station and terminus nodes instead of seeded downlink
offers for downhaul-optimal, a stable sort of an edge list instead of the
build's row blocks for the satellite adjacency).  The scalar geometry references
(``min_scaled_norm_sq``, ``has_line_of_sight``, ``euclidean_km``) and the
TLE writer live here too: only the tests call them.
"""

from __future__ import annotations

import heapq
import math
import random
from datetime import datetime, timedelta

import numpy as np

from sda_netlab.constellation import ConstellationSnapshot
from sda_netlab.geo import (
    LOS_THRESHOLD_SQ,
    SEMI_MAJOR_A_KM,
    SEMI_MINOR_B_KM,
    EcefPosition,
    GeodeticPosition,
    propagation_delay_ms,
    surface_distance_km,
)
from sda_netlab.experiments import TERMINUS_NAME
from sda_netlab.routing import ArchitectureMode, LatencyReport, RelaySeeds
from sda_netlab.tle import _J2000, TleElements, line_checksum
from sda_netlab.topology import AttackOverlay, SatAdjacency, VisibilityGraph, _jammed_mask


def euclidean_km(p: EcefPosition, q: EcefPosition) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    dz = p.z - q.z
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def min_scaled_norm_sq(
    p: EcefPosition,
    q: EcefPosition,
    margin_km: float = 0.0,
) -> float:
    """Squared minimum norm of the segment p-q after scaling the
    margin-inflated ellipsoid to the unit sphere.

    The endpoints are put in lexicographic (x, y, z) order first so the
    result is exactly symmetric in (p, q), bit for bit.  The vectorized
    graph builder mirrors this expression; keep the two in sync.
    """
    if margin_km < 0.0:
        raise ValueError(f"margin_km must be >= 0, got {margin_km}")
    if p.as_tuple() == q.as_tuple():
        raise ValueError("line-of-sight is undefined for coincident points")
    if q.as_tuple() < p.as_tuple():
        p, q = q, p
    inv_ae = 1.0 / (SEMI_MAJOR_A_KM + margin_km)
    inv_be = 1.0 / (SEMI_MINOR_B_KM + margin_km)
    phx = p.x * inv_ae
    phy = p.y * inv_ae
    phz = p.z * inv_be
    qhx = q.x * inv_ae
    qhy = q.y * inv_ae
    qhz = q.z * inv_be
    dx = qhx - phx
    dy = qhy - phy
    dz = qhz - phz
    dd = (dx * dx + dy * dy) + dz * dz
    pd = (phx * dx + phy * dy) + phz * dz
    t = -pd / dd
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    ex = phx + t * dx
    ey = phy + t * dy
    ez = phz + t * dz
    return (ex * ex + ey * ey) + ez * ez


def min_scaled_norm(
    p: EcefPosition,
    q: EcefPosition,
    margin_km: float = 0.0,
) -> float:
    return math.sqrt(min_scaled_norm_sq(p, q, margin_km))


def has_line_of_sight(
    p: EcefPosition,
    q: EcefPosition,
    margin_km: float = 0.0,
) -> bool:
    """True iff the open segment between p and q stays outside the ellipsoid
    inflated by ``margin_km``.  Endpoints on the surface do not block."""
    return min_scaled_norm_sq(p, q, margin_km) >= LOS_THRESHOLD_SQ


def format_tle_lines(el: TleElements) -> tuple[str, str]:
    """Render the stored fields back to fixed columns.

    Fields this simulator does not keep (derivatives, drag, designators)
    are written as canonical zeros, so formatting is only faithful for the
    numeric fields round-tripped by :func:`sda_netlab.tle.parse_tle`.
    """
    moment = _J2000 + timedelta(seconds=el.epoch_seconds)
    year = moment.year
    day = (moment - datetime(year, 1, 1)).total_seconds() / 86400.0 + 1.0
    catalog = (el.catalog_id or "0")[:5]
    body1 = (
        f"1 {catalog:>5}U 00000A   {year % 100:02d}{day:012.8f}  "
        f".00000000  00000-0  00000-0 0    0"
    )
    ecc_digits = f"{round(el.eccentricity * 1e7):07d}"
    body2 = (
        f"2 {catalog:>5} {el.inclination_deg:8.4f} {el.raan_deg:8.4f} "
        f"{ecc_digits} {el.arg_perigee_deg:8.4f} {el.mean_anomaly_deg:8.4f} "
        f"{el.mean_motion_rev_per_day:11.8f}    0"
    )
    return body1 + str(line_checksum(body1)), body2 + str(line_checksum(body2))


_SAMPLE_CACHE: dict[int, np.ndarray] = {}


def segment_blocked_by_sampling(
    p: EcefPosition,
    q: EcefPosition,
    margin_km: float = 0.0,
    samples: int = 100_000,
) -> bool:
    """True iff any of ``samples`` evenly spaced points on the segment lies
    strictly inside the margin-inflated ellipsoid."""
    t = _SAMPLE_CACHE.get(samples)
    if t is None:
        t = np.linspace(0.0, 1.0, samples)
        _SAMPLE_CACHE[samples] = t
    scale = np.array([
        1.0 / (SEMI_MAJOR_A_KM + margin_km),
        1.0 / (SEMI_MAJOR_A_KM + margin_km),
        1.0 / (SEMI_MINOR_B_KM + margin_km),
    ])
    a = np.array(p.as_tuple()) * scale
    b = np.array(q.as_tuple()) * scale
    d = b - a
    n2 = (
        (a[0] + t * d[0]) ** 2
        + (a[1] + t * d[1]) ** 2
        + (a[2] + t * d[2]) ** 2
    )
    return bool(np.min(n2) < 1.0)


def random_shell(seed: int, count: int = 50, alt_lo_km: float = 400.0, alt_hi_km: float = 1500.0) -> ConstellationSnapshot:
    """Satellites in uniformly random directions at random shell altitudes."""
    rng = random.Random(seed)
    points = [random_orbital_point(rng, alt_lo_km, alt_hi_km).as_tuple() for _ in range(count)]
    return ConstellationSnapshot(tuple(f"s{k:03d}" for k in range(count)), points)


def random_orbital_point(rng: random.Random, alt_lo_km: float = 300.0, alt_hi_km: float = 2500.0) -> EcefPosition:
    """Uniform random direction at a random shell altitude."""
    while True:
        gx, gy, gz = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(gx * gx + gy * gy + gz * gz)
        if norm > 1e-6:
            break
    r = SEMI_MAJOR_A_KM + rng.uniform(alt_lo_km, alt_hi_km)
    return EcefPosition(gx / norm * r, gy / norm * r, gz / norm * r)


def grazing_pair(rng: random.Random, radius_km: float) -> tuple[EcefPosition, EcefPosition]:
    """Two same-radius points separated by a central angle near the spherical
    grazing limit, to stress the LOS boundary."""
    theta = 2.0 * math.acos(SEMI_MAJOR_A_KM / radius_km) + rng.uniform(-2e-4, 2e-4)
    # Random plane: orthonormal u, v.
    u = random_orbital_point(rng)
    un = u.norm()
    ux, uy, uz = u.x / un, u.y / un, u.z / un
    w = random_orbital_point(rng)
    dot = (w.x * ux + w.y * uy + w.z * uz) / w.norm()
    vx = w.x / w.norm() - dot * ux
    vy = w.y / w.norm() - dot * uy
    vz = w.z / w.norm() - dot * uz
    vn = math.sqrt(vx * vx + vy * vy + vz * vz)
    vx, vy, vz = vx / vn, vy / vn, vz / vn
    p = EcefPosition(radius_km * ux, radius_km * uy, radius_km * uz)
    c, s = math.cos(theta), math.sin(theta)
    q = EcefPosition(
        radius_km * (c * ux + s * vx),
        radius_km * (c * uy + s * vy),
        radius_km * (c * uz + s * vz),
    )
    return p, q


def elevation_angle_deg(station: GeodeticPosition, station_ecef: EcefPosition, target: EcefPosition) -> float:
    """Elevation of ``target`` above the station's geodetic horizon, degrees:
    the scalar reference for ``topology._elevation_mask``."""
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    up = (
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    )
    vx = target.x - station_ecef.x
    vy = target.y - station_ecef.y
    vz = target.z - station_ecef.z
    vnorm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if vnorm == 0.0:
        raise ValueError("elevation is undefined for coincident points")
    sin_el = (up[0] * vx + up[1] * vy + up[2] * vz) / vnorm
    if sin_el > 1.0:
        sin_el = 1.0
    elif sin_el < -1.0:
        sin_el = -1.0
    return math.degrees(math.asin(sin_el))


def seed_rows(seeds: RelaySeeds) -> list[tuple]:
    """(node, label_ms, hops, next_hop, terminal) for every seed."""
    return list(zip(*(
        getattr(seeds, name).tolist() for name in ("node", "label_ms", "hops", "next_hop", "terminal")
    )))


def terminus_legs_ms(stations, terminus) -> list[float]:
    """Each station's surface leg to the terminus, in ms."""
    return [propagation_delay_ms(surface_distance_km(st.geodetic, terminus)) for st in stations]


def downlink_seeds_oracle(graph, stations, terminus, mode) -> RelaySeeds:
    """Downlink seeds by a loop over the station edges in order: a strictly
    lower rank (the downlink delay for greedy, delay plus surface leg for
    optimal) takes a satellite's downlink, so ties stay with the lower
    station index.  The reference for ``routing.downlink_seeds``."""
    legs = terminus_legs_ms(stations, terminus)
    optimal = mode is ArchitectureMode.DOWNHAUL_OPTIMAL
    best_rank = [math.inf] * graph.sat_count
    best = [None] * graph.sat_count
    for (i, g), d in zip(graph.station_edges.tolist(), graph.station_delays_ms.tolist()):
        rank = d + legs[g] if optimal else d
        if rank < best_rank[i]:
            best_rank[i] = rank
            best[i] = (g, d + legs[g])
    nodes = [i for i, pick in enumerate(best) if pick is not None]
    labels = [best[i][1] for i in nodes]
    ids = [stations[best[i][0]].id for i in nodes]
    return RelaySeeds(nodes, labels, 2, ids, ids)


def dijkstra_oracle(graph, snapshot, sources, penalty=0.0, exempt=False) -> LatencyReport:
    """Shortest relay paths over the inter-satellite links from the given
    immutable sources (a ``RelaySeeds``).  Every hop pays ``penalty``
    unless ``exempt`` is set and the hop leaves a source."""
    rows = seed_rows(sources)
    exempt_nodes = {row[0] for row in rows} if exempt else set()
    edges = []
    for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist()):
        for u, v in ((i, j), (j, i)):
            edges.append((u, v, d if u in exempt_nodes else d + penalty))
    return _dijkstra_report(snapshot, graph.sat_count, edges, rows, list(snapshot.ids), {})


def dijkstra_oracle_optimal(graph, snapshot, stations, terminus, penalty=0.0) -> LatencyReport:
    """downhaul-optimal on the augmented graph: the terminus (the one
    source) reaches each station over its surface leg, each station reaches
    the satellites it sees, and satellites relay with the penalty."""
    n_sat = graph.sat_count
    t = n_sat + len(stations)
    edges = []
    for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist()):
        edges += [(i, j, d + penalty), (j, i, d + penalty)]
    for (i, g), d in zip(graph.station_edges.tolist(), graph.station_delays_ms.tolist()):
        edges.append((n_sat + g, i, d))
    for g, leg in enumerate(terminus_legs_ms(stations, terminus)):
        edges.append((t, n_sat + g, leg))
    names = list(snapshot.ids) + [st.id for st in stations] + [TERMINUS_NAME]
    overrides = {n_sat + g: st.id for g, st in enumerate(stations)}
    seeds = [(t, 0.0, 0, None, TERMINUS_NAME)]
    return _dijkstra_report(snapshot, t + 1, edges, seeds, names, overrides)


def _dijkstra_report(snapshot, node_count, edges, sources, names, overrides) -> LatencyReport:
    """Heap Dijkstra to every node, then the report's path fields.

    ``sources`` are (node, label_ms, hops, next_hop, terminal) rows.  A
    node's parent is, among its in-edges whose candidate equals its label
    exactly, the lowest-index one from a strictly smaller label.  Failing
    that, it is taken in rounds from an equal label: each round gives every
    node left the lowest-index such in-edge whose source had a parent
    before the round.  Nothing relaxes into a source; a source is a root
    and keeps its own report fields.
    """
    seed = {}
    dist = [math.inf] * node_count
    for node, label_ms, hops, next_hop, terminal in sources:
        if label_ms < dist[node]:
            dist[node] = label_ms
            seed[node] = (hops, next_hop, terminal)
    out = [[] for _ in range(node_count)]
    into = [[] for _ in range(node_count)]
    for u, v, w in edges:
        if v not in seed:
            out[u].append((v, w))
            into[v].append((u, w))

    heap = [(dist[v], v) for v in seed]
    heapq.heapify(heap)
    done = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done or du > dist[u]:
            continue
        done.add(u)
        for v, w in out[u]:
            if w + du < dist[v]:
                dist[v] = w + du
                heapq.heappush(heap, (dist[v], v))

    parent = {v: v for v in seed}
    equal = {}  # node -> the sources of its attaining in-edges, all at its label
    for v in range(node_count):
        if v in parent or not math.isfinite(dist[v]):
            continue
        attaining = [u for u, w in into[v] if w + dist[u] == dist[v]]
        strict = [u for u in attaining if dist[u] < dist[v]]
        if strict:
            parent[v] = min(strict)
        else:
            equal[v] = attaining
    while True:
        found = {
            v: min(u for u in us if u in parent)
            for v, us in equal.items() if any(u in parent for u in us)
        }
        if not found:
            break
        parent.update(found)
        for v in found:
            del equal[v]
    assert not equal, "no attaining in-edge"

    fields = dict(seed)
    for start in range(node_count):
        chain, v = [], start
        while v not in fields and v in parent:
            chain.append(v)
            v = parent[v]
            assert len(chain) <= node_count, "parent cycle"
        for child in reversed(chain):
            hops, _, terminal = fields[v]
            fields[child] = (hops + 1, names[v], overrides.get(v, terminal))
            v = child

    rows = [
        fields[i] if math.isfinite(dist[i]) else (-1, None, None) for i in range(len(snapshot))
    ]
    return LatencyReport(
        sat_ids=snapshot.ids,
        latency_ms=np.array(dist[: len(snapshot)], dtype=np.float64),
        hops=np.array([hops for hops, _, _ in rows], dtype=np.int64),
        next_hop=np.array([next_hop for _, next_hop, _ in rows], dtype=object),
        terminal=np.array([terminal for _, _, terminal in rows], dtype=object),
    )


def overlay_oracle(graph, snapshot, stations, overlay) -> VisibilityGraph:
    """The attacked graph by matching every surviving edge's id pair
    against ``overlay.disabled_links`` in a Python loop."""
    sat_ids = snapshot.ids
    station_ids = [st.id for st in stations]
    sat_dead, st_dead = _jammed_mask(snapshot, stations, overlay.jam_regions)
    sat_dead |= np.array([s in overlay.disabled_satellites for s in sat_ids], dtype=bool)
    st_dead |= np.array([s in overlay.disabled_stations for s in station_ids], dtype=bool)

    sat_edges = graph.sat_edges  # derived on each access
    keep_ss = ~(sat_dead[sat_edges[:, 0]] | sat_dead[sat_edges[:, 1]])
    keep_sg = ~(
        sat_dead[graph.station_edges[:, 0]] | st_dead[graph.station_edges[:, 1]]
    ) if graph.station_edge_count else np.zeros(0, dtype=bool)
    links = overlay.disabled_links
    for k in np.nonzero(keep_ss)[0]:
        i, j = sat_edges[k]
        if AttackOverlay.normalize_link(sat_ids[i], sat_ids[j]) in links:
            keep_ss[k] = False
    for k in np.nonzero(keep_sg)[0]:
        i, g = graph.station_edges[k]
        if AttackOverlay.normalize_link(sat_ids[i], station_ids[g]) in links:
            keep_sg[k] = False

    return graph_from_edges(
        graph.sat_count, graph.station_count,
        sat_edges[keep_ss], graph.sat_delays_ms[keep_ss],
        graph.station_edges[keep_sg], graph.station_delays_ms[keep_sg],
    )


def graph_from_edges(
    sat_count, station_count, sat_edges, sat_delays_ms, station_edges, station_delays_ms
) -> VisibilityGraph:
    """The graph whose satellite links are the (i, j) pairs of ``sat_edges``
    (i < j, ascending), listed under both endpoints by a stable argsort of
    the rows: the reference adjacency for the build and the overlay."""
    sat_edges = np.asarray(sat_edges, dtype=np.int32).reshape(-1, 2)
    sat_delays_ms = np.asarray(sat_delays_ms, dtype=np.float64)
    i, j = sat_edges[:, 0], sat_edges[:, 1]
    rows = np.concatenate([j, i])
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(sat_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=sat_count), out=indptr[1:])
    adjacency = SatAdjacency(
        indptr=indptr,
        neighbors=np.concatenate([i, j])[order],
        delays_ms=np.concatenate([sat_delays_ms, sat_delays_ms])[order],
    )
    return VisibilityGraph(
        station_count,
        adjacency,
        np.asarray(station_edges, dtype=np.int32).reshape(-1, 2),
        np.asarray(station_delays_ms, dtype=np.float64),
    )
