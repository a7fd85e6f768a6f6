import json
import math
import random
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sda_netlab.constellation import (
    ConstellationSnapshot,
    WalkerSpec,
    generate_walker,
    load_ground_stations_csv,
)
from sda_netlab.geo import EcefPosition, GeodeticPosition, propagation_delay_ms
from sda_netlab.topology import (
    AttackOverlay,
    JamRegion,
    _elevation_mask,
    apply_overlay,
    build_visibility_graph,
    resolve_thread_count,
)
from oracle_utils import (
    elevation_angle_deg,
    euclidean_km,
    graph_from_edges,
    grazing_pair,
    has_line_of_sight,
    overlay_oracle,
    random_shell,
)

STATIONS = load_ground_stations_csv(
    "id,lat_deg,lon_deg,alt_km\n"
    "g-eq,0,0,0\n"
    "g-mid,45,60,0.1\n"
    "g-south,-50,-120,0.3\n"
)


def brute_force_edges(snapshot, stations, margin_km=0.0):
    sat_edges, sat_delays = [], []
    sats = [EcefPosition(*p) for p in snapshot.positions.tolist()]
    for i in range(len(sats)):
        for j in range(i + 1, len(sats)):
            # Coincident satellites do not see each other.
            if sats[i] != sats[j] and has_line_of_sight(sats[i], sats[j], margin_km=margin_km):
                sat_edges.append((i, j))
                sat_delays.append(propagation_delay_ms(euclidean_km(sats[i], sats[j])))
    st_edges, st_delays = [], []
    for i in range(len(sats)):
        for g, st in enumerate(stations):
            if has_line_of_sight(sats[i], st.ecef, margin_km=margin_km):
                st_edges.append((i, g))
                st_delays.append(propagation_delay_ms(euclidean_km(sats[i], st.ecef)))
    return sat_edges, sat_delays, st_edges, st_delays


def test_build_matches_brute_force_double_loop_exactly():
    snap = random_shell(1)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    ss, sd, gs, gd = brute_force_edges(snap, STATIONS)
    assert [tuple(e) for e in graph.sat_edges] == ss
    assert graph.sat_delays_ms.tolist() == sd  # bit-exact, same expressions
    assert [tuple(e) for e in graph.station_edges] == gs
    assert graph.station_delays_ms.tolist() == gd


@settings(max_examples=25, deadline=None, database=None)
@given(
    shells=st.lists(
        st.tuples(st.integers(0, 2**31), st.integers(1, 100), st.floats(300.0, 2500.0), st.floats(0.0, 1500.0)),
        min_size=1, max_size=3,
    ),
    grazing_seed=st.integers(0, 2**31),
    grazing_pairs=st.integers(0, 4),
    margin_km=st.just(0.0) | st.floats(0.0, 200.0),
    coincident=st.booleans(),
)
def test_adjacency_equals_the_edge_list_reference(shells, grazing_seed, grazing_pairs, margin_km, coincident):
    # Multi-shell snapshots with pairs near the limb and, maybe, two
    # satellites at one point.
    points = []
    for seed, count, alt_lo, span in shells:
        points += random_shell(seed, count, alt_lo, alt_lo + span).positions.tolist()
    rng = random.Random(grazing_seed)
    for _ in range(grazing_pairs):
        points += [p.as_tuple() for p in grazing_pair(rng, rng.uniform(6800.0, 8500.0))]
    if coincident:
        points.append(points[-1])
    snap = ConstellationSnapshot(tuple(f"s{k:03d}" for k in range(len(points))), points)
    graph = build_visibility_graph(snap, STATIONS, margin_km=margin_km, threads=1)

    reference = graph_from_edges(len(snap), len(STATIONS), *brute_force_edges(snap, STATIONS, margin_km))
    assert_same_graph(graph, reference)
    adj = graph.adjacency
    assert np.all(adj.neighbors != adj.rows)
    same_row = adj.rows[1:] == adj.rows[:-1]
    assert np.all(np.diff(adj.neighbors.astype(np.int64))[same_row] > 0)
    for threads in (2, 3):
        assert_same_graph(build_visibility_graph(snap, STATIONS, margin_km=margin_km, threads=threads), graph)


def test_adjacency_lists_each_edge_under_both_endpoints():
    graph = build_visibility_graph(random_shell(11, count=40), threads=1)
    adj = graph.adjacency
    expected = sorted(
        (u, v, d)
        for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist())
        for u, v in ((i, j), (j, i))
    )
    listed = sorted(
        (u, int(v), float(d))
        for u in range(graph.sat_count)
        for v, d in zip(
            adj.neighbors[adj.indptr[u]:adj.indptr[u + 1]],
            adj.delays_ms[adj.indptr[u]:adj.indptr[u + 1]],
        )
    )
    assert listed == expected
    assert adj.indptr[0] == 0 and adj.indptr[-1] == 2 * graph.sat_edge_count


def test_build_trivial_two_satellite_cases():
    over = ConstellationSnapshot(("a", "b"), [(7000, 0, 0), (8000, 0, 0)])
    assert build_visibility_graph(over).sat_edge_count == 1
    anti = ConstellationSnapshot(("a", "b"), [(7000, 0, 0), (-7000, 0, 0)])
    assert build_visibility_graph(anti).sat_edge_count == 0


def test_build_is_independent_of_thread_count():
    snap = generate_walker(WalkerSpec(1200.0, 87.9, 6, 12, phasing_f=1))
    one = build_visibility_graph(snap, STATIONS, threads=1)
    four = build_visibility_graph(snap, STATIONS, threads=4)
    assert np.array_equal(one.sat_edges, four.sat_edges)
    assert np.array_equal(one.sat_delays_ms, four.sat_delays_ms)
    assert np.array_equal(one.station_edges, four.station_edges)
    assert np.array_equal(one.station_delays_ms, four.station_delays_ms)


def test_oneweb_like_shell_build_is_bit_reproducible():
    snap = generate_walker(WalkerSpec(1200.0, 87.9, 18, 35, phasing_f=1), id_prefix="ow")
    first = build_visibility_graph(snap, threads=1)
    second = build_visibility_graph(snap, threads=3)
    assert first.sat_edge_count == second.sat_edge_count
    assert np.array_equal(first.sat_edges, second.sat_edges)
    assert np.array_equal(first.sat_delays_ms, second.sat_delays_ms)


def test_build_is_order_independent_up_to_relabeling():
    snap = random_shell(2, count=40)
    rng = random.Random(9)
    order = list(range(len(snap)))
    rng.shuffle(order)
    shuffled = ConstellationSnapshot(
        tuple(snap.ids[i] for i in order), snap.positions[order]
    )
    g1 = build_visibility_graph(snap, STATIONS, threads=1)
    g2 = build_visibility_graph(shuffled, STATIONS, threads=1)

    def edge_map(graph, snapshot):
        ids = snapshot.ids
        sat = {
            frozenset((ids[i], ids[j])): d
            for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist())
        }
        st = {
            (ids[i], g): d
            for (i, g), d in zip(graph.station_edges.tolist(), graph.station_delays_ms.tolist())
        }
        return sat, st

    assert edge_map(g1, snap) == edge_map(g2, shuffled)


def test_min_elevation_knob_prunes_grazing_links():
    snap = random_shell(3)
    base = build_visibility_graph(snap, STATIONS, threads=1)
    pruned = build_visibility_graph(snap, STATIONS, min_elevation_deg=25.0, threads=1)
    base_set = {tuple(e) for e in base.station_edges.tolist()}
    pruned_set = {tuple(e) for e in pruned.station_edges.tolist()}
    assert pruned_set < base_set
    assert base.sat_edge_count == pruned.sat_edge_count  # satellite links untouched


def test_elevation_mask_agrees_with_the_scalar_elevation_angle():
    rng = random.Random(17)
    snap = random_shell(17, count=150, alt_lo_km=300.0, alt_hi_km=2500.0)
    stations = load_ground_stations_csv("id,lat_deg,lon_deg,alt_km\n" + "".join(
        f"g{k},{rng.uniform(-90.0, 90.0)!r},{rng.uniform(-180.0, 180.0)!r},{rng.uniform(0.0, 3.0)!r}\n"
        for k in range(12)
    ))
    angles = np.array([
        [elevation_angle_deg(st.geodetic, st.ecef, EcefPosition(*p)) for st in stations]
        for p in snap.positions.tolist()
    ])
    positions = snap.positions
    for min_elev in (-90.0, -20.0, 0.0, 10.0, 47.5, 90.0):
        clear = np.abs(angles - min_elev) > 1e-9
        assert clear.mean() > 0.99
        mask = _elevation_mask(positions, stations, min_elev)
        assert np.array_equal(mask[clear], (angles >= min_elev)[clear]), min_elev


def test_resolve_thread_count(monkeypatch):
    monkeypatch.delenv("SDA_NETLAB_THREADS", raising=False)
    assert resolve_thread_count(3) == 3
    assert resolve_thread_count(None) >= 1
    monkeypatch.setenv("SDA_NETLAB_THREADS", "5")
    assert resolve_thread_count(None) == 5
    with pytest.raises(ValueError):
        resolve_thread_count(0)


def test_overlay_identity_and_full_station_denial():
    snap = random_shell(4)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    same = apply_overlay(graph, snap, STATIONS, AttackOverlay())
    assert np.array_equal(same.sat_edges, graph.sat_edges)
    assert np.array_equal(same.station_edges, graph.station_edges)

    denied = apply_overlay(
        graph, snap, STATIONS, AttackOverlay(disabled_stations=frozenset(s.id for s in STATIONS))
    )
    assert denied.station_edge_count == 0
    assert denied.sat_edge_count == graph.sat_edge_count


def test_overlay_disable_satellite_and_link():
    snap = random_shell(5)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    victim = snap.ids[7]
    no_sat = apply_overlay(graph, snap, STATIONS, AttackOverlay(disabled_satellites=frozenset({victim})))
    assert all(7 not in pair for pair in no_sat.sat_edges.tolist())
    assert all(pair[0] != 7 for pair in no_sat.station_edges.tolist())

    first_edge = tuple(graph.sat_edges[0])
    ids = snap.ids
    link = AttackOverlay.normalize_link(ids[first_edge[0]], ids[first_edge[1]])
    cut = apply_overlay(graph, snap, STATIONS, AttackOverlay(disabled_links=frozenset({link})))
    assert cut.sat_edge_count == graph.sat_edge_count - 1
    assert first_edge not in {tuple(e) for e in cut.sat_edges.tolist()}


def test_overlay_unknown_ids_are_rejected():
    snap = random_shell(6)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    with pytest.raises(ValueError, match="unknown satellites"):
        apply_overlay(graph, snap, STATIONS, AttackOverlay(disabled_satellites=frozenset({"nope"})))
    with pytest.raises(ValueError, match="unknown stations"):
        apply_overlay(graph, snap, STATIONS, AttackOverlay(disabled_stations=frozenset({"nope"})))
    with pytest.raises(ValueError, match="unknown node"):
        apply_overlay(
            graph, snap, STATIONS, AttackOverlay(disabled_links=frozenset({("s000", "nope")}))
        )


def test_jam_region_isolates_exactly_the_satellite_underneath():
    # Chain of satellites along one meridian, 30 deg apart; index 0 is polar.
    phis = [math.radians(lat) for lat in (90.0, 60.0, 30.0, 0.0, -30.0)]
    snap = ConstellationSnapshot(
        tuple(f"m{k}" for k in range(5)),
        [(7000 * math.cos(phi), 0.0, 7000 * math.sin(phi)) for phi in phis],
    )
    graph = build_visibility_graph(snap, threads=1)
    overlay = AttackOverlay(jam_regions=(JamRegion(GeodeticPosition(90.0, 0.0, 0.0), 500.0),))
    jammed = apply_overlay(graph, snap, (), overlay)
    removed = {tuple(e) for e in graph.sat_edges.tolist()} - {tuple(e) for e in jammed.sat_edges.tolist()}
    assert removed == {tuple(e) for e in graph.sat_edges.tolist() if 0 in e}
    assert len(removed) > 0


def test_overlay_monotone_edge_subsets():
    snap = random_shell(7)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    rng = random.Random(21)
    ids = snap.ids
    small = AttackOverlay(disabled_satellites=frozenset(rng.sample(ids, 4)))
    large = AttackOverlay(
        disabled_satellites=small.disabled_satellites | frozenset(rng.sample(ids, 6)),
        disabled_stations=frozenset({STATIONS[0].id}),
    )
    g_small = apply_overlay(graph, snap, STATIONS, small)
    g_large = apply_overlay(graph, snap, STATIONS, large)

    def edge_sets(g):
        return (
            {tuple(e) for e in g.sat_edges.tolist()},
            {tuple(e) for e in g.station_edges.tolist()},
        )

    ss_small, sg_small = edge_sets(g_small)
    ss_large, sg_large = edge_sets(g_large)
    ss_base, sg_base = edge_sets(graph)
    assert ss_large <= ss_small <= ss_base
    assert sg_large <= sg_small <= sg_base


def test_overlay_json_round_trip():
    overlay = AttackOverlay(
        disabled_satellites=frozenset({"a", "b"}),
        disabled_links=frozenset({AttackOverlay.normalize_link("x", "w")}),
        jam_regions=(JamRegion(GeodeticPosition(10.0, 20.0, 0.0), 300.0),),
        reroute_penalty_ms=0.25,
    )
    back = AttackOverlay.from_dict(json.loads(json.dumps(overlay.to_dict())))
    assert back == overlay
    with pytest.raises(ValueError, match="unknown overlay key"):
        AttackOverlay.from_dict({"disabled_sats": []})
    with pytest.raises(ValueError, match="radius"):
        AttackOverlay.from_dict({"jam_regions": [{"lat_deg": 0, "lon_deg": 0, "radius_km": 0}]})


GRAPH_FIELDS = (
    "adjacency.indptr", "adjacency.neighbors", "adjacency.delays_ms", "adjacency.rows",
    "sat_edges", "sat_delays_ms", "station_edges", "station_delays_ms",
)


def assert_same_graph(got, want):
    assert (got.sat_count, got.station_count) == (want.sat_count, want.station_count)
    for field in GRAPH_FIELDS:
        a, b = attrgetter(field)(got), attrgetter(field)(want)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def assert_keys_increase(graph):
    for edges, width in ((graph.sat_edges, graph.sat_count), (graph.station_edges, graph.station_count)):
        keys = edges[:, 0].astype(np.int64) * width + edges[:, 1]
        assert np.all(np.diff(keys) > 0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    shell_seed=st.integers(0, 2**31),
    count=st.integers(2, 300),
    sites=st.lists(st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 180.0)), max_size=4),
    data=st.data(),
)
def test_overlay_equals_the_id_matching_oracle(shell_seed, count, sites, data):
    # Ids sort apart from indices: station ids fall on both sides of the
    # satellite ids, and the satellites are shuffled.
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\n"
        + "".join(f"{'at'[k % 2]}{k},{lat!r},{lon!r},0\n" for k, (lat, lon) in enumerate(sites))
    )
    shell = random_shell(shell_seed, count=count)
    order = data.draw(st.permutations(range(count)))
    snap = ConstellationSnapshot(tuple(shell.ids[k] for k in order), shell.positions[order])
    graph = build_visibility_graph(snap, stations, threads=1)
    assert_same_graph(build_visibility_graph(snap, stations, threads=2), graph)
    assert_keys_increase(graph)

    sat_ids = list(snap.ids)
    st_ids = [s.id for s in stations]
    dead_sats = data.draw(st.lists(st.sampled_from(sat_ids), max_size=4))
    dead_stations = data.draw(st.lists(st.sampled_from(st_ids), max_size=2)) if st_ids else []
    sat_links = [(sat_ids[i], sat_ids[j]) for i, j in graph.sat_edges.tolist()]
    station_links = [(sat_ids[i], st_ids[g]) for i, g in graph.station_edges.tolist()]
    # Links from a disabled satellite, so some listed links are already gone.
    on_dead = [pair for pair in sat_links + station_links if set(dead_sats) & set(pair)]
    nodes = sat_ids + st_ids
    links = []
    for pool in (sat_links, station_links, on_dead):
        if pool:
            links += data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    # Non-edges, station-station pairs and self-pairs remove nothing.
    any_pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    self_pair = st.sampled_from(nodes).map(lambda v: (v, v))
    links += data.draw(st.lists(any_pair | self_pair, max_size=4))
    if st_ids:
        links += data.draw(st.lists(st.tuples(st.sampled_from(st_ids), st.sampled_from(st_ids)), max_size=2))
    flips = data.draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links)))
    regions = data.draw(st.lists(
        st.tuples(st.floats(-80.0, 80.0), st.floats(-180.0, 180.0), st.floats(200.0, 2500.0)),
        max_size=2,
    ))
    overlay = AttackOverlay.from_dict({
        "disabled_satellites": dead_sats,
        "disabled_stations": dead_stations,
        "disabled_links": [[b, a] if flip else [a, b] for (a, b), flip in zip(links, flips)],
        "jam_regions": [{"lat_deg": lat, "lon_deg": lon, "radius_km": r} for lat, lon, r in regions],
    })

    for ov in (overlay, AttackOverlay()):
        attacked = apply_overlay(graph, snap, stations, ov)
        assert_same_graph(attacked, overlay_oracle(graph, snap, stations, ov))
        assert_keys_increase(attacked)
