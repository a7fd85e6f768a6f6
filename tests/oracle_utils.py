"""Independent oracles shared by the unit and acceptance tests.

These deliberately re-derive results through different code paths than the
package (sampling instead of minimization, naive sums instead of fsum,
double loops instead of vectorization, a heap Dijkstra with per-node parent
scans instead of frontier sweeps over the adjacency, per-edge id matching
instead of index keys for overlays).
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from sda_netlab.constellation import ConstellationSnapshot, SatelliteNode
from sda_netlab.geo import (
    EcefPosition,
    EllipsoidModel,
    GeodeticPosition,
    WGS84,
    propagation_delay_ms,
    surface_distance_km,
)
from sda_netlab.routing import TERMINUS_NAME, LatencyReport, RelaySource
from sda_netlab.topology import AttackOverlay, VisibilityGraph, _jammed_mask

_SAMPLE_CACHE: dict[int, np.ndarray] = {}


def segment_blocked_by_sampling(
    p: EcefPosition,
    q: EcefPosition,
    e: EllipsoidModel = WGS84,
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
        1.0 / (e.semi_major_a + margin_km),
        1.0 / (e.semi_major_a + margin_km),
        1.0 / (e.semi_minor_b + margin_km),
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
    sats = [
        SatelliteNode(f"s{k:03d}", random_orbital_point(rng, alt_lo_km, alt_hi_km))
        for k in range(count)
    ]
    return ConstellationSnapshot("random", tuple(sats))


def random_orbital_point(rng: random.Random, alt_lo_km: float = 300.0, alt_hi_km: float = 2500.0) -> EcefPosition:
    """Uniform random direction at a random shell altitude."""
    while True:
        gx, gy, gz = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(gx * gx + gy * gy + gz * gz)
        if norm > 1e-6:
            break
    r = WGS84.semi_major_a + rng.uniform(alt_lo_km, alt_hi_km)
    return EcefPosition(gx / norm * r, gy / norm * r, gz / norm * r)


def grazing_pair(rng: random.Random, radius_km: float) -> tuple[EcefPosition, EcefPosition]:
    """Two same-radius points separated by a central angle near the spherical
    grazing limit, to stress the LOS boundary."""
    theta = 2.0 * math.acos(WGS84.semi_major_a / radius_km) + rng.uniform(-2e-4, 2e-4)
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


def dijkstra_oracle(graph, snapshot, sources, penalty=0.0, exempt=False) -> LatencyReport:
    """Shortest relay paths over the inter-satellite links from the given
    immutable sources.  Every hop pays ``penalty`` unless ``exempt`` is set
    and the hop leaves a source."""
    exempt_nodes = {s.node for s in sources} if exempt else set()
    edges = []
    for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist()):
        for u, v in ((i, j), (j, i)):
            edges.append((u, v, d if u in exempt_nodes else d + penalty))
    return _dijkstra_report(snapshot, graph.sat_count, edges, sources, snapshot.ids(), {})


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
    for g, st in enumerate(stations):
        leg = propagation_delay_ms(surface_distance_km(st.geodetic, terminus.geodetic))
        edges.append((t, n_sat + g, leg))
    names = snapshot.ids() + [st.id for st in stations] + [TERMINUS_NAME]
    overrides = {n_sat + g: st.id for g, st in enumerate(stations)}
    seeds = [RelaySource(node=t, label_ms=0.0, terminal=TERMINUS_NAME, next_hop=None, hops=0)]
    return _dijkstra_report(snapshot, t + 1, edges, seeds, names, overrides)


def _dijkstra_report(snapshot, node_count, edges, sources, names, overrides) -> LatencyReport:
    """Heap Dijkstra to every node, then the report's path fields.

    A node's parent is, among its in-edges whose candidate equals its label
    exactly, one from a strictly smaller label if any, then the lowest index.
    Nothing relaxes into a source; a source keeps its own report fields.
    """
    seed = {}
    dist = [math.inf] * node_count
    for s in sources:
        if s.label_ms < dist[s.node]:
            dist[s.node] = s.label_ms
            seed[s.node] = s
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

    fields = {v: (s.hops, s.next_hop, s.terminal) for v, s in seed.items()}
    for start in range(node_count):
        chain, v = [], start
        while v not in fields and math.isfinite(dist[v]):
            attaining = [u for u, w in into[v] if w + dist[u] == dist[v]]
            strict = [u for u in attaining if dist[u] < dist[v]]
            chain.append(v)
            v = min(strict or attaining)
            assert len(chain) <= node_count, "parent cycle"
        for child in reversed(chain):
            hops, _, terminal = fields[v]
            fields[child] = (hops + 1, names[v], overrides.get(v, terminal))
            v = child

    rows = [
        fields[i] if math.isfinite(dist[i]) else (-1, None, None) for i in range(len(snapshot))
    ]
    return LatencyReport(
        sat_ids=tuple(snapshot.ids()),
        latency_ms=np.array(dist[: len(snapshot)], dtype=np.float64),
        hops=np.array([hops for hops, _, _ in rows], dtype=np.int64),
        next_hop=np.array([next_hop for _, next_hop, _ in rows], dtype=object),
        terminal=np.array([terminal for _, _, terminal in rows], dtype=object),
    )


def overlay_oracle(graph, snapshot, stations, overlay) -> VisibilityGraph:
    """The attacked graph by matching every surviving edge's id pair
    against ``overlay.disabled_links`` in a Python loop."""
    sat_ids = snapshot.ids()
    station_ids = [st.id for st in stations]
    sat_dead, st_dead = _jammed_mask(snapshot, stations, overlay.jam_regions, WGS84)
    sat_dead |= np.array([s in overlay.disabled_satellites for s in sat_ids], dtype=bool)
    st_dead |= np.array([s in overlay.disabled_stations for s in station_ids], dtype=bool)

    keep_ss = ~(sat_dead[graph.sat_edges[:, 0]] | sat_dead[graph.sat_edges[:, 1]])
    keep_sg = ~(
        sat_dead[graph.station_edges[:, 0]] | st_dead[graph.station_edges[:, 1]]
    ) if graph.station_edge_count else np.zeros(0, dtype=bool)
    links = overlay.disabled_links
    for k in np.nonzero(keep_ss)[0]:
        i, j = graph.sat_edges[k]
        if AttackOverlay.normalize_link(sat_ids[i], sat_ids[j]) in links:
            keep_ss[k] = False
    for k in np.nonzero(keep_sg)[0]:
        i, g = graph.station_edges[k]
        if AttackOverlay.normalize_link(sat_ids[i], station_ids[g]) in links:
            keep_sg[k] = False

    return VisibilityGraph(
        sat_count=graph.sat_count,
        station_count=graph.station_count,
        sat_edges=graph.sat_edges[keep_ss],
        sat_delays_ms=graph.sat_delays_ms[keep_ss],
        station_edges=graph.station_edges[keep_sg],
        station_delays_ms=graph.station_delays_ms[keep_sg],
    )
