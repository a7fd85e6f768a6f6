import json
import math
import os
import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sda_netlab.constellation import (
    ConstellationSnapshot,
    WalkerSpec,
    generate_walker,
    load_ground_stations_csv,
)
from sda_netlab.geo import (
    LOS_THRESHOLD_SQ,
    MEAN_RADIUS_KM,
    SEMI_MAJOR_A_KM,
    SEMI_MINOR_B_KM,
    SPEED_OF_LIGHT_KM_S,
    EcefPosition,
    GeodeticPosition,
    geodetic_to_ecef,
    propagation_delay_ms,
)
from sda_netlab import topology
from sda_netlab.topology import (
    AttackOverlay,
    JamRegion,
    _elevation_mask,
    _jammed_mask,
    _line_of_sight,
    apply_overlay,
    build_visibility_graph,
    resolve_thread_count,
)
from oracle_utils import (
    assert_same_graph,
    compact_graph,
    elevation_angle_deg,
    entry_rows,
    euclidean_km,
    graph_from_edges,
    grazing_pair,
    has_line_of_sight,
    jammed_nodes,
    live_entries,
    overlay_oracle,
    random_orbital_point,
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


def threaded_build(*args, **kwargs):
    """``build_visibility_graph`` with no minimum of pairs per worker, so a
    small snapshot still splits across the requested threads."""
    with mock.patch.object(topology, "_PAIRS_PER_WORKER", 1):
        return build_visibility_graph(*args, **kwargs)


def test_build_matches_brute_force_double_loop_exactly():
    snap = random_shell(1)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    ss, sd, gs, gd = brute_force_edges(snap, STATIONS)
    assert [tuple(e) for e in graph.sat_edges] == ss
    assert graph.sat_delays_ms.tolist() == sd  # bit-exact, same expressions
    assert [tuple(e) for e in graph.station_edges] == gs
    assert graph.station_delays_ms.tolist() == gd


def on_inflated_surface(rng, margin_km):
    """A point on the ellipsoid inflated by ``margin_km``: its scaled norm is
    1 up to rounding, so its tangent length is close to 0."""
    lat, lon = rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(-math.pi, math.pi)
    return (
        (SEMI_MAJOR_A_KM + margin_km) * math.cos(lat) * math.cos(lon),
        (SEMI_MAJOR_A_KM + margin_km) * math.cos(lat) * math.sin(lon),
        (SEMI_MINOR_B_KM + margin_km) * math.sin(lat),
    )


def snapshot_of(points):
    return ConstellationSnapshot(tuple(f"s{k:03d}" for k in range(len(points))), points)


def mixed_snapshot(shells, extra_seed, grazing_pairs, ulp_pairs, surface_points, margin_km, coincident, size):
    """A multi-shell snapshot with pairs near the limb, pairs 1 ulp apart,
    points on the inflated ellipsoid and, maybe, two satellites at one
    point, and the LOS margin to build it with.  The special points come
    first, so a cut to ``size`` keeps them."""
    rng = random.Random(extra_seed)
    points = []
    for _ in range(grazing_pairs):
        points += [p.as_tuple() for p in grazing_pair(rng, rng.uniform(6800.0, 8500.0))]
    for _ in range(ulp_pairs):
        p = random_orbital_point(rng).as_tuple()
        axis = rng.randrange(3)
        points += [p, tuple(math.nextafter(v, math.inf) if k == axis else v for k, v in enumerate(p))]
    if margin_km > 25.0:  # the inflated poles are then above the surface
        points += [on_inflated_surface(rng, margin_km) for _ in range(surface_points)]
    if coincident:
        p = random_orbital_point(rng).as_tuple()
        points += [p, p]
    for seed, count, alt_lo, span in shells:
        points += random_shell(seed, count, alt_lo, alt_lo + span).positions.tolist()
    if size is not None and len(points) < size:
        points += random_shell(extra_seed, size - len(points)).positions.tolist()
    return snapshot_of(points[:size]), margin_km


MIXED_SNAPSHOTS = st.builds(
    mixed_snapshot,
    shells=st.lists(
        st.tuples(st.integers(0, 2**31), st.integers(1, 100), st.floats(300.0, 2500.0), st.floats(0.0, 1500.0)),
        min_size=1, max_size=3,
    ),
    extra_seed=st.integers(0, 2**31),
    grazing_pairs=st.integers(0, 4),
    ulp_pairs=st.integers(0, 3),
    surface_points=st.integers(0, 4),
    # Up to 200 km, or at and above the shell altitudes, where some
    # satellites sit inside the inflated ellipsoid.
    margin_km=st.just(0.0) | st.floats(0.0, 200.0) | st.floats(300.0, 4000.0),
    coincident=st.booleans(),
    # Around the row-block edges.
    size=st.none() | st.sampled_from((1, 127, 128, 129, 257)),
)


@settings(max_examples=40, deadline=None, database=None)
@given(case=MIXED_SNAPSHOTS)
def test_adjacency_equals_the_edge_list_reference(case):
    snap, margin_km = case
    graph = build_visibility_graph(snap, STATIONS, margin_km=margin_km, threads=1)

    reference = graph_from_edges(snap.ids, len(STATIONS), *brute_force_edges(snap, STATIONS, margin_km))
    assert_same_graph(graph, reference)
    adj, rows = graph.adjacency, entry_rows(graph.adjacency)
    assert np.all(adj.neighbors != rows)
    same_row = rows[1:] == rows[:-1]
    assert np.all(np.diff(adj.neighbors.astype(np.int64))[same_row] > 0)
    for threads in (2, 3):
        assert_same_graph(threaded_build(snap, STATIONS, margin_km=margin_km, threads=threads), graph)


def scaling_axes(margin_km):
    """The factors that map ECEF kilometres to the build's scaled
    coordinates, in which the ellipsoid inflated by ``margin_km`` is the
    unit sphere."""
    return np.array([1.0 / (SEMI_MAJOR_A_KM + margin_km)] * 2 + [1.0 / (SEMI_MINOR_B_KM + margin_km)])


def exact_edges_over_all_pairs(snap, margin_km):
    """The satellite edges and delays of the exact LOS test run over every
    pair i < j, with no prune."""
    n = len(snap)
    i, j = np.triu_indices(n, 1)
    scaled = (snap.positions * scaling_axes(margin_km)).T
    visible = _line_of_sight(scaled[:, i], scaled[:, j])
    i, j = i[visible], j[visible]
    d = snap.positions[i] - snap.positions[j]
    dist = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
    return np.stack([i, j], axis=1).astype(np.int32), dist / SPEED_OF_LIGHT_KM_S * 1000.0


@pytest.mark.parametrize("margin_km", [0.0, 1200.0])
def test_pruned_build_equals_the_exact_test_over_all_pairs(margin_km):
    # At 1200 km the oneweb-like shell lies on the inflated ellipsoid.
    snap = generate_walker(WalkerSpec(1200.0, 87.9, 18, 35, phasing_f=1, id_prefix="ow"))
    graph = threaded_build(snap, margin_km=margin_km, threads=2)
    edges, delays = exact_edges_over_all_pairs(snap, margin_km)
    assert graph.sat_edge_count > 0
    assert graph.sat_edges.tobytes() == edges.tobytes()
    assert graph.sat_delays_ms.tobytes() == delays.tobytes()


def test_prune_keeps_partners_on_the_tangent_plane_of_a_threshold_satellite():
    # Satellites whose scaled norm is sqrt(LOS_THRESHOLD_SQ) up to rounding,
    # each with partners whose segment dips below its tangent plane by less
    # than the exact test resolves.  The exact test accepts some of these
    # pairs, so a tangent bound taken to the threshold sphere itself drops
    # them.
    rng = random.Random(3)
    margin_km = 550.0
    radii = np.array([SEMI_MAJOR_A_KM + margin_km] * 2 + [SEMI_MINOR_B_KM + margin_km])
    r = math.sqrt(LOS_THRESHOLD_SQ)
    points = []
    for _ in range(4):
        u = np.array([rng.gauss(0, 1) for _ in range(3)])
        u /= np.linalg.norm(u)
        w = np.cross(u, rng.choice(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))))
        w /= np.linalg.norm(w)
        points.append(tuple(r * u * radii))
        for _ in range(40):
            phi, beta = rng.uniform(-0.3, 0.3), rng.uniform(-3e-8, 3e-8)
            along = math.cos(phi) * w + math.sin(phi) * np.cross(u, w)  # in the tangent plane
            v = math.cos(beta) * along - math.sin(beta) * u
            points.append(tuple((r * u + rng.uniform(0.2, 1.0) * v) * radii))
    snap = ConstellationSnapshot(tuple(f"s{k:03d}" for k in range(len(points))), points)
    graph = build_visibility_graph(snap, margin_km=margin_km, threads=1)
    edges, delays = exact_edges_over_all_pairs(snap, margin_km)
    assert graph.sat_edges.tobytes() == edges.tobytes()
    assert graph.sat_delays_ms.tobytes() == delays.tobytes()
    ss, sd, _, _ = brute_force_edges(snap, (), margin_km)
    assert [tuple(e) for e in graph.sat_edges.tolist()] == ss


def edges_if_the_exact_test_says(verdict, snap, margin_km):
    """The satellite edges of a build whose exact test returns ``verdict``
    for every pair it is given: with False the pairs the inner bound
    accepts, with True the pairs the tangent bound keeps."""
    with mock.patch.object(topology, "_line_of_sight", lambda p, q: np.full(p.shape[1], verdict)):
        return edge_set(build_visibility_graph(snap, margin_km=margin_km, threads=1).sat_edges)


def edge_set(edges):
    return {tuple(e) for e in edges.tolist()}


def assert_build_equals_the_exact_test(snap, margin_km):
    """The one- and two-thread builds list exactly the exact test's edges
    over all pairs, with its delays; returns those edges as a set."""
    edges, delays = exact_edges_over_all_pairs(snap, margin_km)
    for graph in (build_visibility_graph(snap, margin_km=margin_km, threads=1),
                  threaded_build(snap, margin_km=margin_km, threads=2)):
        assert graph.sat_edges.tobytes() == edges.tobytes()
        assert graph.sat_delays_ms.tobytes() == delays.tobytes()
    return edge_set(edges)


def test_coincident_satellites_do_not_see_each_other():
    # Two pairs of satellites at one point each, in a shell: the Gram value
    # of each pair is zero up to rounding, far inside both bounds.
    shell = random_shell(12, count=60).positions.tolist()
    snap = snapshot_of([shell[0], shell[0], shell[1], shell[1]] + shell[2:])
    visible = assert_build_equals_the_exact_test(snap, 0.0)
    assert (0, 1) not in visible and (2, 3) not in visible
    partners = [{j for i, j in visible if i == k and j > 3} for k in range(4)]
    assert partners[0] == partners[1] and partners[2] == partners[3] and partners[0]


def collapsing_ulp_pair(rng, margin_km):
    """Two satellites 1 ulp apart in one coordinate whose scaled
    coordinates are equal."""
    axes = scaling_axes(margin_km)
    while True:
        p = np.array(random_orbital_point(rng).as_tuple())
        q = p.copy()
        axis = rng.randrange(3)
        q[axis] = math.nextafter(q[axis], math.inf)
        if np.array_equal(p * axes, q * axes):
            return tuple(p), tuple(q)


def test_satellites_one_ulp_apart_that_scale_to_one_point_do_not_see_each_other():
    rng = random.Random(5)
    pairs = [collapsing_ulp_pair(rng, 0.0) for _ in range(3)]
    snap = snapshot_of([p for pair in pairs for p in pair] + random_shell(13, count=60).positions.tolist())
    visible = assert_build_equals_the_exact_test(snap, 0.0)
    assert not {(0, 1), (2, 3), (4, 5)} & visible
    assert len(visible) > 100


def test_satellites_below_the_inner_sphere_go_to_the_exact_test():
    # With a 600 km margin a 450-550 km shell sits inside the inflated
    # ellipsoid, under a 1100-1300 km shell, so many low satellites are
    # closer to a high one than its inner tangent length and see nothing.
    # Satellites whose squared scaled norm lies within 1e-12 of the
    # threshold have no inner tangent length either.
    margin_km = 600.0
    rng = random.Random(14)
    points = random_shell(14, count=50, alt_lo_km=1100.0, alt_hi_km=1300.0).positions.tolist()
    points += random_shell(15, count=50, alt_lo_km=450.0, alt_hi_km=550.0).positions.tolist()
    radii = 1.0 / scaling_axes(margin_km)
    scale = max(1.0, float(np.max(np.sum((np.array(points) / radii) ** 2, axis=1))))
    for offset in (-0.5, 0.0, 0.5, 0.9):
        u = np.array(random_orbital_point(rng).as_tuple())
        u /= np.linalg.norm(u)
        points.append(tuple(math.sqrt(LOS_THRESHOLD_SQ + offset * 1e-12 * scale) * u * radii))
    snap = snapshot_of(points)
    visible = assert_build_equals_the_exact_test(snap, margin_km)
    sure = edges_if_the_exact_test_says(False, snap, margin_km)
    assert not any(j >= 50 for _, j in sure)
    assert not any(50 <= k < 100 for pair in visible for k in pair)
    assert any(j >= 100 for _, j in visible)


def bound_straddling_pairs(rng, excess):
    """Pairs of scaled points, each in a random plane, whose segment has its
    point nearest the origin inside it at squared norm ``LOS_THRESHOLD_SQ +
    e`` for each ``e`` in ``excess``."""
    points = []
    for e in excess:
        u, w = (np.array([rng.gauss(0, 1) for _ in range(3)]) for _ in range(2))
        u /= np.linalg.norm(u)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        rho = math.sqrt(LOS_THRESHOLD_SQ + e)
        r_a, r_b = rng.uniform(1.1, 1.3), rng.uniform(1.1, 1.3)
        angle = math.acos(rho / r_a) + math.acos(rho / r_b)
        points += [r_a * u, r_b * (math.cos(angle) * u + math.sin(angle) * w)]
    return points


def test_pairs_just_inside_and_just_outside_the_inner_bound():
    # Segments that pass the threshold sphere by -2e-9 to 2e-9 in squared
    # norm straddle the inner bound and the exact test: the inner bound
    # accepts some, and beside them lie pairs the exact test accepts and
    # pairs it rejects.  Those that pass it by -4e-6 to -4e-7 straddle the
    # float32 prune, whose slack keeps pairs down to about 1.7e-6 below the
    # threshold sphere here: it drops some and keeps some.
    radii = 1.0 / scaling_axes(0.0)
    excess = np.linspace(-2e-9, 2e-9, 41).tolist() * 2 + np.linspace(-4e-6, -4e-7, 19).tolist() * 2
    points = bound_straddling_pairs(random.Random(6), excess)
    snap = snapshot_of([tuple(p * radii) for p in points])
    visible = assert_build_equals_the_exact_test(snap, 0.0)
    sure, kept = (edges_if_the_exact_test_says(verdict, snap, 0.0) for verdict in (False, True))
    constructed = {(k, k + 1) for k in range(0, len(points), 2)}
    assert sure & constructed < visible & constructed < kept & constructed < constructed
    near = {(2 * k, 2 * k + 1) for k, e in enumerate(excess) if abs(e) <= 2e-9}
    assert near <= kept and near - visible and near & visible - sure
    assert constructed - near - kept and constructed - near & kept


@settings(max_examples=40, deadline=None, database=None)
@given(case=MIXED_SNAPSHOTS)
def test_every_pair_the_inner_bound_accepts_passes_the_exact_test(case):
    snap, margin_km = case
    sure = edges_if_the_exact_test_says(False, snap, margin_km)
    assert sure <= edge_set(exact_edges_over_all_pairs(snap, margin_km)[0])


# The largest norm a snapshot takes: 4 times its square is the largest finite double.
FAR_OUT_KM = math.sqrt(np.finfo(np.float64).max / 4.0)


@settings(max_examples=40, deadline=None, database=None)
@given(
    case=MIXED_SNAPSHOTS,
    far=st.lists(
        st.tuples(st.integers(0, 2**31), st.floats(4.0, 7.0) | st.floats(150.0, math.log10(FAR_OUT_KM))),
        max_size=3,
    ),
)
def test_the_float32_prune_keeps_every_pair_the_exact_test_accepts(case, far):
    # Satellites from 10,000 km out up to the far-out bound widen S, so the
    # prune's vectors shrink toward float32's underflow and its cut may drop
    # below zero.
    snap, margin_km = case
    points = snap.positions.tolist()
    for seed, exponent in far:
        u = np.random.default_rng(seed).normal(size=3)
        points.append(tuple(min(10.0**exponent, 0.999999 * FAR_OUT_KM) * u / np.linalg.norm(u)))
    snap = snapshot_of(points)
    visible = assert_build_equals_the_exact_test(snap, margin_km)
    assert visible <= edges_if_the_exact_test_says(True, snap, margin_km)


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


@pytest.mark.parametrize("attacked", [False, True])
@pytest.mark.parametrize("count", [1, 2, 40, 300])
def test_light_hops_are_the_entries_at_most_the_cut_in_row_order(count, attacked):
    # Empty rows at the ends and inside come from the satellites that see
    # no other; the cut is about the 10% quantile of the delays.  Under an
    # overlay the light hops are the live entries at most the cut, and the
    # cut is taken over the live delays alone, as in a compacted copy.
    snap = random_shell(7, count=count)
    graph = build_visibility_graph(snap, threads=1)
    if attacked:
        overlay = AttackOverlay(disabled_satellites=frozenset(snap.ids[::3]),
                                jam_regions=(JamRegion(GeodeticPosition(20.0, 30.0, 0.0), 2000.0),))
        graph = apply_overlay(graph, snap, (), overlay)
    adj = graph.adjacency
    cut, light = adj.light
    rows = entry_rows(adj)
    keep = (adj.delays_ms <= cut) & live_entries(adj)
    assert light.indptr.tolist() == np.concatenate([[0], np.cumsum(np.bincount(
        rows[keep], minlength=adj.indptr.size - 1))]).tolist()
    assert light.neighbors.tobytes() == adj.neighbors[keep].tobytes()
    assert light.delays_ms.tobytes() == adj.delays_ms[keep].tobytes()
    sample = np.sort(compact_graph(graph).adjacency.delays_ms[::16])
    assert cut == (sample[int(0.1 * sample.size)] if sample.size else 0.0)
    assert adj.light is adj.light
    for forced in (-1.0, 0.0, math.inf):
        assert topology._light_hops(adj, forced).adjacency.indptr[-1] == np.count_nonzero(
            (adj.delays_ms <= forced) & live_entries(adj))


def test_light_hops_are_derived_once_under_many_threads(monkeypatch):
    adj = build_visibility_graph(random_shell(3, count=60), threads=1).adjacency
    derive, calls = topology._light_hops, []

    def slow(adjacency):
        calls.append(adjacency)
        time.sleep(0.05)
        return derive(adjacency)

    monkeypatch.setattr(topology, "_light_hops", slow)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            seen = list(pool.map(lambda _: adj.light, range(12), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1 and calls[0] is adj
    assert all(light is seen[0] for light in seen)


def test_build_trivial_two_satellite_cases():
    over = ConstellationSnapshot(("a", "b"), [(7000, 0, 0), (8000, 0, 0)])
    assert build_visibility_graph(over).sat_edge_count == 1
    anti = ConstellationSnapshot(("a", "b"), [(7000, 0, 0), (-7000, 0, 0)])
    assert build_visibility_graph(anti).sat_edge_count == 0


def test_build_is_independent_of_thread_count():
    snap = generate_walker(WalkerSpec(1200.0, 87.9, 6, 12, phasing_f=1))
    one = build_visibility_graph(snap, STATIONS, threads=1)
    four = threaded_build(snap, STATIONS, threads=4)
    assert np.array_equal(one.sat_edges, four.sat_edges)
    assert np.array_equal(one.sat_delays_ms, four.sat_delays_ms)
    assert np.array_equal(one.station_edges, four.station_edges)
    assert np.array_equal(one.station_delays_ms, four.station_delays_ms)


def test_workers_write_the_same_csr_under_frequent_thread_switches():
    # Both passes share the output arrays among more workers than cores;
    # a lost or misplaced write would change the CSR bytes.
    snap = random_shell(21, count=700)
    one = build_visibility_graph(snap, threads=1).adjacency
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = threaded_build(snap, threads=6).adjacency
    finally:
        sys.setswitchinterval(interval)
    for name in ("indptr", "neighbors", "delays_ms"):
        assert getattr(many, name).tobytes() == getattr(one, name).tobytes(), name


def test_oneweb_like_shell_build_is_bit_reproducible():
    snap = generate_walker(WalkerSpec(1200.0, 87.9, 18, 35, phasing_f=1, id_prefix="ow"))
    first = build_visibility_graph(snap, threads=1)
    second = threaded_build(snap, threads=3)
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


def test_build_splits_across_threads_only_with_enough_pairs_per_worker(monkeypatch):
    # 630 satellites are too few pairs for two workers: the build stays on
    # the calling thread.  1500 satellites are enough for two, not three.
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(topology, "ThreadPoolExecutor", CountingPool)
    oneweb = generate_walker(WalkerSpec(1200.0, 87.9, 18, 35, phasing_f=1, id_prefix="ow"))
    build_visibility_graph(oneweb, threads=2)
    assert pools == []
    build_visibility_graph(random_shell(2, count=1500), threads=3)
    assert pools == [2]


def test_resolve_thread_count():
    assert resolve_thread_count(3) == 3
    assert resolve_thread_count(None) == (os.cpu_count() or 1)
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


def test_the_build_names_the_snapshot_rows_and_an_overlay_keeps_the_names():
    snap = random_shell(8)
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    assert graph.sat_ids == snap.ids and graph.sat_count == len(snap)
    overlay = AttackOverlay(
        disabled_satellites=frozenset({snap.ids[3]}),
        disabled_links=frozenset({AttackOverlay.normalize_link(*(snap.ids[k] for k in graph.sat_edges[0]))}),
        jam_regions=(JamRegion(GeodeticPosition(0.0, 0.0, 0.0), 2500.0),),
    )
    attacked = apply_overlay(graph, snap, STATIONS, overlay)
    assert attacked.sat_edge_count < graph.sat_edge_count
    assert attacked.sat_ids is graph.sat_ids


def test_an_overlay_shares_the_baseline_buffers_and_adds_about_two_bytes_per_entry():
    # 2,400 satellites and about 890,000 entries.  Copying the kept entries,
    # as the overlay once did, took about 13 bytes per entry here.
    snap = generate_walker(WalkerSpec(550.0, 53.0, 40, 60, phasing_f=1, id_prefix="m"))
    graph = build_visibility_graph(snap, STATIONS, threads=1)
    adj, ids = graph.adjacency, snap.ids
    names = ("indptr", "neighbors", "delays_ms")
    before = {name: getattr(adj, name).tobytes() for name in names}
    overlay = AttackOverlay(
        disabled_satellites=frozenset(ids[::120]),
        disabled_stations=frozenset({STATIONS[1].id}),
        disabled_links=frozenset(AttackOverlay.normalize_link(ids[k], ids[k + 1]) for k in range(0, 2000, 20)),
        jam_regions=(JamRegion(GeodeticPosition(20.0, 30.0, 0.0), 1000.0),),
    )
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        attacked = apply_overlay(graph, snap, STATIONS, overlay)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The mask and one temporary bool per entry, plus per-satellite data
    # such as the id index.
    assert peak - live <= 2 * adj.neighbors.size + 128 * graph.sat_count
    assert adj.live is None and attacked.adjacency.live.dtype == bool
    assert 0 < attacked.sat_edge_count < graph.sat_edge_count
    # Applied again, the masks are ANDed; no graph writes another's buffers.
    mask = attacked.adjacency.live.tobytes()
    again = apply_overlay(attacked, snap, STATIONS, AttackOverlay(disabled_satellites=frozenset(ids[1::120])))
    assert again.sat_edge_count < attacked.sat_edge_count
    assert attacked.adjacency.live.tobytes() == mask
    for name in names:
        for masked in (attacked, again):
            assert np.shares_memory(getattr(masked.adjacency, name), getattr(adj, name)), name
        assert getattr(adj, name).tobytes() == before[name], name
    # A row's live count is its row length in a compacted copy.
    for g in (graph, attacked, again):
        assert g.adjacency.live_counts.tolist() == np.diff(compact_graph(g).adjacency.indptr).tolist()
        assert g.adjacency.live_counts is g.adjacency.live_counts


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


def near_edge(center, radius_km, scale, bearing_rad, alt_km):
    """The geodetic point ``scale * radius_km`` from ``center`` along the
    great circle at ``bearing_rad``, at ``alt_km``."""
    lat1, lon1 = math.radians(center.latitude_deg), math.radians(center.longitude_deg)
    delta = scale * radius_km / MEAN_RADIUS_KM
    lat2 = math.asin(math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(bearing_rad))
    lon2 = lon1 + math.atan2(
        math.sin(bearing_rad) * math.sin(delta) * math.cos(lat1), math.cos(delta) - math.sin(lat1) * math.sin(lat2)
    )
    return GeodeticPosition(math.degrees(lat2), math.degrees(lon2), alt_km)


def test_jammed_mask_equals_the_scalar_oracle_near_region_edges():
    # Nodes just inside and just outside each region's edge, at latitudes
    # where the geodetic and the geocentric latitude differ most, at orbit
    # altitudes and on the surface; one region covers the whole Earth.
    rng = random.Random(8)
    regions = tuple(
        JamRegion(GeodeticPosition(lat, rng.uniform(-180.0, 180.0), 0.0), radius)
        for lat, radius in ((45.0, 40.0), (-44.0, 900.0), (0.0, 2500.0), (89.5, 300.0), (62.0, 20100.0))
    )
    sites = [
        near_edge(region.center, region.radius_km, scale, rng.uniform(-math.pi, math.pi), alt)
        for region in regions[:4]
        for scale in (0.99, 0.999999, 1.000001, 1.01)
        for alt in (0.0, 550.0, 1200.0, 20000.0)
        for _ in range(6)
    ]
    sats = [geodetic_to_ecef(g).as_tuple() for g in sites if g.altitude_km > 0.0]
    snap = ConstellationSnapshot(tuple(f"s{k:03d}" for k in range(len(sats))), sats)
    stations = load_ground_stations_csv("id,lat_deg,lon_deg,alt_km\n" + "".join(
        f"g{k},{g.latitude_deg!r},{g.longitude_deg!r},0\n" for k, g in enumerate(sites) if g.altitude_km == 0.0
    ))
    for picked in (regions[:1], regions[1:2], regions[2:4], regions[:4], regions):
        got, want = _jammed_mask(snap, stations, picked), jammed_nodes(snap, stations, picked)
        assert 0 < got[0].sum() < len(snap) or picked == regions
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
    with pytest.raises(ValueError, match="^overlay: disabled_sats: unknown key$"):
        AttackOverlay.from_dict({"disabled_sats": []})
    with pytest.raises(ValueError, match="radius"):
        AttackOverlay.from_dict({"jam_regions": [{"lat_deg": 0, "lon_deg": 0, "radius_km": 0}]})


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
    assert_same_graph(threaded_build(snap, stations, threads=2), graph)
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
    # Links that name the last row, or a satellite whose row is empty here or
    # once the overlay has disabled it.
    empty = [sat_ids[k] for k in np.flatnonzero(np.diff(graph.adjacency.indptr) == 0)]
    ends = st.sampled_from(empty + dead_sats + [sat_ids[-1]])
    links += data.draw(st.lists(st.tuples(ends, st.sampled_from(nodes)), min_size=1, max_size=4))
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

    attacked = apply_overlay(graph, snap, stations, overlay)
    # Applied again, the overlay names satellites whose rows it emptied.
    for base, ov in ((graph, overlay), (graph, AttackOverlay()), (attacked, overlay)):
        got = apply_overlay(base, snap, stations, ov)
        assert_same_graph(got, overlay_oracle(base, snap, stations, ov))
        assert_keys_increase(got)
