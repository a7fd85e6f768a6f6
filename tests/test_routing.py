import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sda_netlab.constellation import (
    ConstellationSnapshot,
    load_ground_stations_csv,
    select_actuators,
)
from sda_netlab.geo import GeodeticPosition, propagation_delay_ms
from sda_netlab.routing import (
    ArchitectureMode,
    RelaySeeds,
    _relax,
    _sat_problem,
    actuator_sources,
    downhaul_latencies,
    downlink_seeds,
    onorbit_latencies,
)
from sda_netlab.topology import (
    AttackOverlay,
    JamRegion,
    apply_overlay,
    build_visibility_graph,
)
from oracle_utils import (
    dijkstra_oracle,
    dijkstra_oracle_optimal,
    downlink_seeds_oracle,
    graph_from_edges,
    random_shell,
    seed_rows,
    terminus_legs_ms,
)

MEAN_R = 6371.0088


def manual_graph(sat_count, station_count, sat_links, station_links):
    """Graph from explicit (i, j, distance_km) triples."""
    sat_edges = np.array([(i, j) for i, j, _ in sat_links], dtype=np.int32).reshape(-1, 2)
    sat_delays = np.array([propagation_delay_ms(d) for _, _, d in sat_links])
    st_edges = np.array([(i, g) for i, g, _ in station_links], dtype=np.int32).reshape(-1, 2)
    st_delays = np.array([propagation_delay_ms(d) for _, _, d in station_links])
    return graph_from_edges(sat_count, station_count, sat_edges, sat_delays, st_edges, st_delays)


def single_sat_snapshot():
    return ConstellationSnapshot(("sat",), [(7000.0, 0.0, 0.0)])


def station_at_arc(station_id, arc_km):
    lat = math.degrees(arc_km / MEAN_R)
    return load_ground_stations_csv(f"id,lat_deg,lon_deg,alt_km\n{station_id},{lat},0,0\n")[0]


TERMINUS = GeodeticPosition(0.0, 0.0, 0.0)
GREEDY = ArchitectureMode.DOWNHAUL_GREEDY
OPTIMAL = ArchitectureMode.DOWNHAUL_OPTIMAL


def test_greedy_picks_nearest_station_optimal_picks_cheapest_path():
    # Station A: 500 km uplink but 9000 km of ground; B: 800 km uplink, 2000 km ground.
    snapshot = single_sat_snapshot()
    stations = [station_at_arc("A", 9000.0), station_at_arc("B", 2000.0)]
    graph = manual_graph(1, 2, [], [(0, 0, 500.0), (0, 1, 800.0)])

    greedy = downhaul_latencies(graph, snapshot, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    assert greedy.latency_ms[0] == pytest.approx(31.688589043824443, abs=2e-3)
    assert greedy.terminal[0] == "A"
    assert greedy.next_hop[0] == "A"
    assert greedy.hops[0] == 2

    optimal = downhaul_latencies(graph, snapshot, stations, TERMINUS, ArchitectureMode.DOWNHAUL_OPTIMAL)
    assert optimal.latency_ms[0] == pytest.approx(9.339794665548258, abs=2e-3)
    assert optimal.terminal[0] == "B"
    assert optimal.hops[0] == 2


def test_downhaul_unreachable_and_colocated_terminus():
    snapshot = single_sat_snapshot()
    stations = [station_at_arc("A", 9000.0)]
    isolated = manual_graph(1, 1, [], [])
    report = downhaul_latencies(isolated, snapshot, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    assert report.latency_ms[0] == math.inf
    assert report.hops[0] == -1 and report.terminal[0] is None

    graph = manual_graph(1, 1, [], [(0, 0, 500.0)])
    colocated = stations[0].geodetic
    report = downhaul_latencies(graph, snapshot, stations, colocated, ArchitectureMode.DOWNHAUL_GREEDY)
    assert report.latency_ms[0] == propagation_delay_ms(500.0)

    with pytest.raises(ValueError, match="ground station"):
        downhaul_latencies(graph, snapshot, [], TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)


def assert_same_seeds(got, want):
    for name in ("node", "label_ms", "hops", "next_hop", "terminal"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_relay_seeds_broadcast_scalars_and_reject_repeats_and_negative_labels():
    seeds = RelaySeeds([3, 1], 0.5, 2, None, ["a", "b"])
    assert seeds.node.dtype == np.int64 and seeds.hops.tolist() == [2, 2]
    assert seeds.label_ms.tolist() == [0.5, 0.5] and seeds.next_hop.tolist() == [None, None]
    with pytest.raises(ValueError, match="more than once"):
        RelaySeeds([3, 1, 3], 0.0, 0, None, "a")
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="must be >= 0"):
            RelaySeeds([0, 1], [0.0, bad], 0, None, "a")
    with pytest.raises(ValueError):
        RelaySeeds([0, 1], 0.0, 0, None, ["a", "b", "c"])  # a column of the wrong length


def test_greedy_ties_go_to_the_lower_station_index():
    # Both modes rank with one stable sort: greedy by downlink delay, optimal
    # by downlink delay plus surface leg.  s0 sees both stations at the same
    # delay; s1 sees B nearer.
    snapshot = ConstellationSnapshot(("s0", "s1"), [(7000.0, 0.0, 0.0), (7000.0, 100.0, 0.0)])
    graph = manual_graph(2, 2, [], [(0, 0, 500.0), (0, 1, 500.0), (1, 0, 800.0), (1, 1, 300.0)])
    stations = {
        GREEDY: [station_at_arc("A", 9000.0), station_at_arc("B", 2000.0)],
        # Equal surface legs, so s0's two offers tie as well.
        OPTIMAL: [station_at_arc("A", 2000.0), station_at_arc("B", 2000.0)],
    }
    for mode, at in stations.items():
        seeds = downlink_seeds(graph, at, TERMINUS, mode)
        assert seeds.terminal.tolist() == ["A", "B"], mode
        assert_same_seeds(seeds, downlink_seeds_oracle(graph, at, TERMINUS, mode))
        report = downhaul_latencies(graph, snapshot, at, TERMINUS, mode)
        assert report.terminal.tolist() == ["A", "B"], mode


def test_an_optimal_relay_path_that_ties_the_own_downlink_wins():
    # Exact binary delays and a terminus at station 0, whose leg is 0:
    # A downlinks at 1.0 ms, B at 0.5 ms, and the A-B link is 0.5 ms, so
    # A's relay via B ties A's own downlink at 1.0 ms.
    snapshot = ConstellationSnapshot(("A", "B"), [(7000.0, 0.0, 0.0), (7000.0, 100.0, 0.0)])
    stations = [station_at_arc("g0", 0.0)]
    graph = graph_from_edges(2, 1, [(0, 1)], [0.5], [(0, 0), (1, 0)], [1.0, 0.5])
    terminus = stations[0].geodetic
    report = downhaul_latencies(graph, snapshot, stations, terminus, OPTIMAL)
    assert report.latency_ms.tolist() == [1.0, 0.5]
    assert (report.next_hop[0], report.hops[0], report.terminal[0]) == ("B", 3, "g0")
    assert report == dijkstra_oracle_optimal(graph, snapshot, stations, terminus)


@settings(max_examples=60, deadline=None, database=None)
@given(
    shell_seed=st.integers(0, 2**31),
    count=st.integers(1, 80),
    sites=st.lists(st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 180.0)), min_size=1, max_size=6),
    min_elevation_deg=st.sampled_from([None, 10.0]),
    mode=st.sampled_from([GREEDY, OPTIMAL]),
)
def test_greedy_sources_equal_the_loop_oracle(shell_seed, count, sites, min_elevation_deg, mode):
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\n" + "".join(f"g{k},{lat!r},{lon!r},0\n" for k, (lat, lon) in enumerate(sites))
    )
    terminus = stations[-1].geodetic
    snap = random_shell(shell_seed, count=count)
    graph = build_visibility_graph(snap, stations, min_elevation_deg=min_elevation_deg, threads=1)
    assert_same_seeds(
        downlink_seeds(graph, stations, terminus, mode),
        downlink_seeds_oracle(graph, stations, terminus, mode),
    )


def chain_snapshot(actuators=(False, False, True)):
    positions = [(7000.0, 0.0, 0.0), (7000.0, 1000.0, 0.0), (7000.0, 2000.0, 0.0)]
    return ConstellationSnapshot(("A", "B", "C"), positions, actuators)


def test_onorbit_trivial_cases_and_forced_chain():
    snap = chain_snapshot()
    graph = manual_graph(3, 0, [(0, 1, 1000.0), (1, 2, 1000.0)], [])

    all_act = chain_snapshot(actuators=(True, True, True))
    report = onorbit_latencies(graph, all_act)
    assert all(
        latency == 0.0 and hops == 0 and terminal == sat_id
        for sat_id, latency, hops, terminal in zip(report.sat_ids, report.latency_ms, report.hops, report.terminal)
    )

    none_act = chain_snapshot(actuators=(False, False, False))
    report = onorbit_latencies(graph, none_act)
    assert all(latency == math.inf for latency in report.latency_ms)

    report = onorbit_latencies(graph, snap)
    assert report.latency_ms[0] == pytest.approx(6.671281903963041, abs=1e-9)
    assert (report.hops[0], report.next_hop[0], report.terminal[0]) == (2, "B", "C")
    assert (report.hops[1], report.next_hop[1], report.terminal[1]) == (1, "C", "C")
    assert (report.latency_ms[2], report.hops[2], report.next_hop[2], report.terminal[2]) == (0.0, 0, None, "C")


def test_onorbit_penalty_applies_beyond_first_hop():
    snap = chain_snapshot()
    graph = manual_graph(3, 0, [(0, 1, 1000.0), (1, 2, 1000.0)], [])
    pen = 0.5
    report = onorbit_latencies(graph, snap, reroute_penalty_ms=pen)
    w = propagation_delay_ms(1000.0)
    assert report.latency_ms[1] == w  # direct hop to the actuator: no penalty
    assert report.latency_ms[0] == pytest.approx((w + pen) + w, abs=0.0)


def test_onorbit_ties_break_to_lower_index():
    snap = ConstellationSnapshot(
        ("mid", "left", "right"),
        [(7000.0, 0.0, 0.0), (7000.0, -500.0, 0.0), (7000.0, 500.0, 0.0)],
        actuators=(False, True, True),
    )
    graph = build_visibility_graph(snap, threads=1)
    report = onorbit_latencies(graph, snap)
    mid = report.sat_ids.index("mid")
    assert report.terminal[mid] == "left"
    assert report.next_hop[mid] == "left"


def _line_snapshot(actuator):
    return ConstellationSnapshot(
        ("s0", "s1", "s2"), [(7000.0, 100.0 * k, 0.0) for k in range(3)],
        actuators=np.arange(3) == actuator,
    )


def test_a_node_tied_with_a_higher_index_seed_gets_its_path_fields():
    # Node 0 reaches the seed at node 1 over a zero-delay link, so it ties
    # the seed's label and precedes it in label order; node 2 hangs off node 0.
    snap = _line_snapshot(actuator=1)
    graph = manual_graph(3, 0, [(0, 1, 0.0), (0, 2, 100.0)], [])
    report = onorbit_latencies(graph, snap)
    assert report == dijkstra_oracle(graph, snap, actuator_sources(snap), exempt=True)
    assert report.hops.tolist() == [1, 0, 2]
    assert report.next_hop.tolist() == ["s1", None, "s0"]


def test_a_zero_delay_chain_is_oriented_toward_the_seed():
    # Every label is 0, so no in-hop makes strict progress.  Node 1 takes
    # the seed at node 2 in the first round; node 0 may take node 1 only
    # once node 1 has a parent, so 0 and 1 never parent each other.
    snap = _line_snapshot(actuator=2)
    graph = manual_graph(3, 0, [(0, 1, 0.0), (1, 2, 0.0)], [])
    report = onorbit_latencies(graph, snap)
    assert report == dijkstra_oracle(graph, snap, actuator_sources(snap), exempt=True)
    assert report.hops.tolist() == [2, 1, 0]
    assert report.next_hop.tolist() == ["s1", "s2", None]


def test_star_topology_single_sweep_matches_dijkstra():
    snap = ConstellationSnapshot(
        ("hub",) + tuple(f"leaf{k}" for k in range(5)),
        [(7000.0, 100.0 * k, 0.0) for k in range(6)],
        actuators=np.arange(6) == 0,
    )
    graph = manual_graph(6, 0, [(0, k + 1, 100.0 * (k + 1)) for k in range(5)], [])
    sources = actuator_sources(snap)
    assert _relax(_sat_problem(graph, snap, sources, 0.0, True)).sweeps == 1
    assert onorbit_latencies(graph, snap) == dijkstra_oracle(graph, snap, sources, exempt=True)


def test_single_pass_cannot_resolve_a_relay_chain():
    snap = chain_snapshot()
    graph = manual_graph(3, 0, [(0, 1, 1000.0), (1, 2, 1000.0)], [])
    sources = actuator_sources(snap)
    # One sweep labels only B; the far node A needs a second.
    assert _relax(_sat_problem(graph, snap, sources, 0.0, True)).sweeps == 2
    full = onorbit_latencies(graph, snap)
    assert full == dijkstra_oracle(graph, snap, sources, exempt=True)
    assert math.isfinite(full.latency_ms[full.sat_ids.index("A")])


def test_frontier_relaxes_a_long_path_in_linear_work():
    # 3000 satellites in a line with the actuator at one end: full Jacobi
    # sweeps would relax all 2E directed edges in each of ~3000 sweeps.
    n = 3000
    snap = ConstellationSnapshot(
        tuple(f"p{k:04d}" for k in range(n)), [(7000.0, 10.0 * k, 0.0) for k in range(n)],
        actuators=np.arange(n) == 0,
    )
    graph = manual_graph(n, 0, [(k, k + 1, 10.0 + k % 7) for k in range(n - 1)], [])
    sources = actuator_sources(snap)
    fixpoint = _relax(_sat_problem(graph, snap, sources, 0.25, True))
    assert fixpoint.sweeps == n - 1
    assert fixpoint.relaxed_edges <= 2 * graph.sat_edge_count
    engine = onorbit_latencies(graph, snap, 0.25)
    assert engine == dijkstra_oracle(graph, snap, sources, 0.25, exempt=True)
    assert engine.hops[-1] == n - 1


def _random_instance(seed):
    rng = random.Random(seed)
    snap = random_shell(seed, count=50)
    snap = select_actuators(snap, rng.randint(0, 12), seed)
    graph = build_visibility_graph(snap, threads=1)
    penalty = rng.choice([0.0, 0.0, 0.25, 1.75])
    return snap, graph, penalty


def test_dijkstra_oracle_equals_onorbit_engine_on_random_instances():
    for seed in range(40):
        snap, graph, penalty = _random_instance(seed)
        engine = onorbit_latencies(graph, snap, penalty)
        oracle = dijkstra_oracle(graph, snap, actuator_sources(snap), penalty, exempt=True)
        assert engine == oracle


def test_dijkstra_oracle_equals_greedy_downhaul_engine_on_random_instances():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,10,30,0\ng2,-40,150,0\ng3,65,-100,0\n"
    )
    terminus = stations[0].geodetic
    for seed in range(25):
        snap, graph, penalty = _random_instance(seed + 1000)
        graph = build_visibility_graph(snap, stations, threads=1)
        engine = downhaul_latencies(
            graph, snap, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty
        )
        oracle = dijkstra_oracle(graph, snap, downlink_seeds_oracle(graph, stations, terminus, GREEDY), penalty)
        assert engine == oracle


def test_bellman_solver_equals_dijkstra_for_optimal_mode():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,10,30,0\ng2,-40,150,0\ng3,65,-100,0\n"
    )
    terminus = stations[1].geodetic
    for seed in range(15):
        snap, _, penalty = _random_instance(seed + 2000)
        graph = build_visibility_graph(snap, stations, threads=1)
        via_bellman = downhaul_latencies(
            graph, snap, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty
        )
        via_dijkstra = dijkstra_oracle_optimal(graph, snap, stations, terminus, penalty)
        assert via_dijkstra == via_bellman


PROPERTY_STATIONS = load_ground_stations_csv(
    "id,lat_deg,lon_deg,alt_km\ng1,10,30,0\ng2,-40,150,0\ng3,65,-100,0\ng4,-5,-60,0\n"
)


def _engine_and_oracle(graph, snap, stations, terminus, penalty):
    """(engine report, oracle report) for every mode."""
    greedy = ArchitectureMode.DOWNHAUL_GREEDY
    optimal = ArchitectureMode.DOWNHAUL_OPTIMAL
    greedy_sources = downlink_seeds_oracle(graph, stations, terminus, greedy)
    return {
        "onorbit": (
            onorbit_latencies(graph, snap, penalty),
            dijkstra_oracle(graph, snap, actuator_sources(snap), penalty, exempt=True),
        ),
        "greedy": (
            downhaul_latencies(graph, snap, stations, terminus, greedy, penalty),
            dijkstra_oracle(graph, snap, greedy_sources, penalty),
        ),
        "optimal": (
            downhaul_latencies(graph, snap, stations, terminus, optimal, penalty),
            dijkstra_oracle_optimal(graph, snap, stations, terminus, penalty),
        ),
    }


def _draw_overlay(data, graph, snap, stations):
    ids = snap.ids
    links = [(ids[i], ids[j]) for i, j in graph.sat_edges.tolist()]
    links += [(ids[i], stations[g].id) for i, g in graph.station_edges.tolist()]
    some_links = st.lists(st.sampled_from(links), max_size=8) if links else st.just([])
    regions = st.lists(
        st.tuples(st.floats(-80.0, 80.0), st.floats(-180.0, 180.0), st.floats(200.0, 2500.0)),
        max_size=2,
    )
    return AttackOverlay(
        disabled_satellites=frozenset(data.draw(st.lists(st.sampled_from(ids), max_size=5))),
        disabled_stations=frozenset(
            data.draw(st.lists(st.sampled_from([s.id for s in stations]), max_size=2))
        ),
        disabled_links=frozenset(AttackOverlay.normalize_link(a, b) for a, b in data.draw(some_links)),
        jam_regions=tuple(
            JamRegion(GeodeticPosition(lat, lon, 0.0), radius)
            for lat, lon, radius in data.draw(regions)
        ),
        reroute_penalty_ms=data.draw(st.sampled_from([0.0, 0.3])),
    )


@settings(max_examples=100, deadline=None, database=None)
@given(shell_seed=st.integers(0, 2**31), count=st.integers(2, 45), data=st.data())
def test_every_mode_equals_the_oracle_and_overlays_never_help(shell_seed, count, data):
    stations = PROPERTY_STATIONS
    snap = random_shell(shell_seed, count=count)
    snap = select_actuators(snap, data.draw(st.integers(0, count)), shell_seed)
    terminus = data.draw(st.sampled_from(stations)).geodetic
    penalty = data.draw(st.sampled_from([0.0, 0.25, 1.75]))
    graph = build_visibility_graph(snap, stations, threads=1)
    overlay = _draw_overlay(data, graph, snap, stations)
    attacked = apply_overlay(graph, snap, stations, overlay)

    before = _engine_and_oracle(graph, snap, stations, terminus, penalty)
    after = _engine_and_oracle(
        attacked, snap, stations, terminus, penalty + overlay.reroute_penalty_ms
    )
    for mode in before:
        assert before[mode][0] == before[mode][1], mode
        assert after[mode][0] == after[mode][1], mode

    # Shortest paths only lose edges and gain penalty.  Greedy labels can
    # drop when an attack moves a satellite's downlink, so greedy is held to
    # this only when every attacked source is a baseline source and every
    # dropped source lost all its inter-satellite links.
    monotone = ["onorbit", "optimal"]
    base_sources = set(seed_rows(downlink_seeds(graph, stations, terminus, GREEDY)))
    attacked_sources = set(seed_rows(downlink_seeds(attacked, stations, terminus, GREEDY)))
    dropped = {node for node, *_ in base_sources - attacked_sources}
    if attacked_sources <= base_sources and not dropped & set(attacked.sat_edges.ravel().tolist()):
        monotone.append("greedy")
    for mode in monotone:
        for b, a in zip(before[mode][0].latency_ms, after[mode][0].latency_ms):
            assert a >= b, mode


def test_optimal_never_exceeds_greedy_pointwise():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,0,0,0\ng2,30,90,0\ng3,-30,-90,0\ng4,60,180,0\n"
    )
    terminus = stations[0].geodetic
    for seed in range(10):
        snap, _, penalty = _random_instance(seed + 3000)
        graph = build_visibility_graph(snap, stations, threads=1)
        greedy = downhaul_latencies(
            graph, snap, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty
        )
        optimal = downhaul_latencies(
            graph, snap, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty
        )
        for g, o in zip(greedy.latency_ms, optimal.latency_ms):
            assert o <= g


def test_more_actuators_never_hurt():
    for seed in range(8):
        snap = random_shell(seed + 4000, count=60)
        graph = build_visibility_graph(snap, threads=1)
        small = onorbit_latencies(graph, select_actuators(snap, 6, 77))
        large = onorbit_latencies(graph, select_actuators(snap, 14, 77))  # nested superset
        for s, l in zip(small.latency_ms, large.latency_ms):
            assert l <= s


def test_edge_removal_never_decreases_shortest_path_latency():
    rng = random.Random(31)
    for seed in range(8):
        snap = random_shell(seed + 5000, count=60)
        snap = select_actuators(snap, 8, seed)
        graph = build_visibility_graph(snap, threads=1)
        keep = np.array([rng.random() > 0.3 for _ in range(graph.sat_edge_count)])
        pruned = graph_from_edges(
            graph.sat_count, graph.station_count,
            graph.sat_edges[keep], graph.sat_delays_ms[keep],
            graph.station_edges, graph.station_delays_ms,
        )
        before = onorbit_latencies(graph, snap)
        after = onorbit_latencies(pruned, snap)
        for b, a in zip(before.latency_ms, after.latency_ms):
            assert a >= b


def test_greedy_latency_can_legitimately_drop_when_an_edge_is_removed():
    # Removing the nearest-station link reroutes the greedy downlink to a
    # station with a far shorter ground leg: greedy is not monotone.
    snapshot = single_sat_snapshot()
    stations = [station_at_arc("A", 9000.0), station_at_arc("B", 2000.0)]
    full = manual_graph(1, 2, [], [(0, 0, 500.0), (0, 1, 800.0)])
    cut = manual_graph(1, 2, [], [(0, 1, 800.0)])
    before = downhaul_latencies(full, snapshot, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    after = downhaul_latencies(cut, snapshot, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    assert after.latency_ms[0] < before.latency_ms[0]


def test_all_visible_means_direct_delay_to_nearest_actuator():
    # Cluster a high shell inside a 40-degree cap so every pair clears Earth.
    rng = random.Random(6000)
    positions = []
    for k in range(25):
        z = rng.uniform(math.cos(math.radians(40.0)), 1.0)
        az = rng.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(1.0 - z * z)
        r = 6378.137 + 5000.0
        positions.append((r * s * math.cos(az), r * s * math.sin(az), r * z))
    snap = ConstellationSnapshot(tuple(f"s{k:03d}" for k in range(25)), positions)
    snap = select_actuators(snap, 5, 3)
    graph = build_visibility_graph(snap, threads=1)
    assert graph.sat_edge_count == 25 * 24 // 2
    report = onorbit_latencies(graph, snap)
    delays = {tuple(sorted((int(i), int(j)))): d for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist())}
    actuators = set(np.flatnonzero(snap.actuators).tolist())
    for idx in range(len(report)):
        if idx in actuators:
            assert report.latency_ms[idx] == 0.0
            continue
        direct = min(delays[tuple(sorted((idx, a)))] for a in actuators)
        assert report.latency_ms[idx] == direct
        assert report.hops[idx] == 1


def _edge_delay_maps(graph, snapshot, stations):
    ids = snapshot.ids
    sat = {}
    for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist()):
        sat[frozenset((ids[i], ids[j]))] = d
    st = {}
    for (i, g), d in zip(graph.station_edges.tolist(), graph.station_delays_ms.tolist()):
        st[(ids[i], stations[g].id)] = d
    return sat, st


def resum_report(report, graph, snapshot, stations, terminus, penalty, mode):
    """Re-add each reported path's hop delays by walking next_hop chains."""
    sat_w, st_w = _edge_delay_maps(graph, snapshot, stations)
    ground = dict(zip((s.id for s in stations), terminus_legs_ms(stations, terminus)))
    station_ids = {s.id for s in stations}
    actuators = {sat_id for sat_id, flag in zip(snapshot.ids, snapshot.actuators) if flag}
    index = {sid: k for k, sid in enumerate(report.sat_ids)}
    memo = {}

    def total(sid):
        if sid in memo:
            return memo[sid]
        nh = report.next_hop[index[sid]]
        if nh is None:
            value = 0.0  # actuator self-delivery
        elif nh in station_ids:
            value = st_w[(sid, nh)] + ground[nh]
        else:
            w = sat_w[frozenset((sid, nh))]
            if mode is ArchitectureMode.ON_ORBIT and nh in actuators:
                pen = 0.0
            else:
                pen = penalty
            value = (w + pen) + total(nh)
        memo[sid] = value
        return value

    for sid, latency in zip(report.sat_ids, report.latency_ms):
        if math.isfinite(latency):
            assert abs(total(sid) - latency) <= 1e-9


def test_reported_paths_resum_to_reported_latency():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,20,-10,0\ng2,-55,140,0\n"
    )
    terminus = stations[0].geodetic
    for seed in (1, 2, 3):
        snap, _, penalty = _random_instance(seed + 7000)
        graph = build_visibility_graph(snap, stations, threads=1)
        resum_report(
            onorbit_latencies(graph, snap, penalty), graph, snap, stations, terminus,
            penalty, ArchitectureMode.ON_ORBIT,
        )
        resum_report(
            downhaul_latencies(graph, snap, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty),
            graph, snap, stations, terminus, penalty, ArchitectureMode.DOWNHAUL_GREEDY,
        )
        resum_report(
            downhaul_latencies(graph, snap, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty),
            graph, snap, stations, terminus, penalty, ArchitectureMode.DOWNHAUL_OPTIMAL,
        )


def test_report_covers_every_satellite_exactly_once():
    snap, graph, _ = _random_instance(8000)
    report = onorbit_latencies(graph, snap)
    assert report.sat_ids == snap.ids
