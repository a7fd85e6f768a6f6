import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sda_netlab import routing
from sda_netlab.constellation import (
    ConstellationSnapshot,
    load_ground_stations_csv,
    select_actuators,
)
from sda_netlab.geo import GeodeticPosition, propagation_delay_ms
from sda_netlab.routing import (
    ArchitectureMode,
    RelaySeeds,
    _RelayProblem,
    _relax,
    _row_blocks,
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
    entry_rows,
    graph_from_edges,
    random_shell,
    seed_rows,
    terminus_legs_ms,
)

MEAN_R = 6371.0088

# Block sizes for the pull: rows longer than a block, blocks that start or
# end on empty rows, a last block that ends the adjacency, and the default.
BLOCK_SIZES = [1, 2, 3, 7, 64, routing._BLOCK_ENTRIES]


# Compaction cut-offs on both sides of every solve: 0 compacts the free rows
# of every solve, 2 never does (the fixed rows are masked instead).
COMPACT_CUTS = [0.0, 2.0]


def blocked_pull(block_entries, solve, *args, compact_cut=None, **kwargs):
    """``solve(*args, **kwargs)`` with every pull walking the free rows in
    blocks, and every push the frontier in runs, of ``block_entries``
    entries; with ``compact_cut``, the free rows are compacted once the
    fixed rows hold that share of the entries."""
    with mock.patch.object(routing, "_BLOCK_ENTRIES", block_entries):
        if compact_cut is None:
            return solve(*args, **kwargs)
        with mock.patch.object(routing, "_COMPACT_WHEN_FIXED_ENTRIES_REACH", compact_cut):
            return solve(*args, **kwargs)


def attaining_pairs(problem, labels, fixed):
    """The (dst, src) hops into free rows of finite label whose candidate,
    unblocked and uncompacted, equals the label of dst, in ascending order."""
    adj = problem.adjacency
    rows = entry_rows(adj).astype(np.int64)
    candidates = problem.sat_weights(adj.neighbors, adj.delays_ms) + labels[adj.neighbors]
    attain = (candidates == labels[rows]) & ~fixed[rows] & np.isfinite(labels[rows])
    return rows[attain], adj.neighbors[attain].astype(np.int64)


def seed_mask(problem):
    fixed = np.zeros(problem.adjacency.indptr.size - 1, dtype=bool)
    fixed[problem.seeds.node] = problem.fixed_seeds
    return fixed


def same_fixpoint(a, b):
    return (a.labels.tobytes() == b.labels.tobytes() and a.sweeps == b.sweeps
            and a.attain_dst.tobytes() == b.attain_dst.tobytes()
            and a.attain_src.tobytes() == b.attain_src.tobytes())


def manual_graph(sat_ids, station_count, sat_links, station_links):
    """Graph over the satellites ``sat_ids`` from explicit (i, j, distance_km) triples."""
    sat_edges = np.array([(i, j) for i, j, _ in sat_links], dtype=np.int32).reshape(-1, 2)
    sat_delays = np.array([propagation_delay_ms(d) for _, _, d in sat_links])
    st_edges = np.array([(i, g) for i, g, _ in station_links], dtype=np.int32).reshape(-1, 2)
    st_delays = np.array([propagation_delay_ms(d) for _, _, d in station_links])
    return graph_from_edges(sat_ids, station_count, sat_edges, sat_delays, st_edges, st_delays)


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
    graph = manual_graph(snapshot.ids, 2, [], [(0, 0, 500.0), (0, 1, 800.0)])

    greedy = downhaul_latencies(graph, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    assert greedy.latency_ms[0] == pytest.approx(31.688589043824443, abs=2e-3)
    assert greedy.terminal[0] == "A"
    assert greedy.next_hop[0] == "A"
    assert greedy.hops[0] == 2

    optimal = downhaul_latencies(graph, stations, TERMINUS, ArchitectureMode.DOWNHAUL_OPTIMAL)
    assert optimal.latency_ms[0] == pytest.approx(9.339794665548258, abs=2e-3)
    assert optimal.terminal[0] == "B"
    assert optimal.hops[0] == 2


def test_downhaul_unreachable_and_colocated_terminus():
    snapshot = single_sat_snapshot()
    stations = [station_at_arc("A", 9000.0)]
    isolated = manual_graph(snapshot.ids, 1, [], [])
    report = downhaul_latencies(isolated, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    assert report.latency_ms[0] == math.inf
    assert report.hops[0] == -1 and report.terminal[0] is None

    graph = manual_graph(snapshot.ids, 1, [], [(0, 0, 500.0)])
    colocated = stations[0].geodetic
    report = downhaul_latencies(graph, stations, colocated, ArchitectureMode.DOWNHAUL_GREEDY)
    assert report.latency_ms[0] == propagation_delay_ms(500.0)

    with pytest.raises(ValueError, match="ground station"):
        downhaul_latencies(graph, [], TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)


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
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be >= 0"):
            RelaySeeds([0, 1], [0.0, bad], 0, None, "a")
    with pytest.raises(ValueError):
        RelaySeeds([0, 1], 0.0, 0, None, ["a", "b", "c"])  # a column of the wrong length


def test_greedy_ties_go_to_the_lower_station_index():
    # Both modes rank with one stable sort: greedy by downlink delay, optimal
    # by downlink delay plus surface leg.  s0 sees both stations at the same
    # delay; s1 sees B nearer.
    snapshot = ConstellationSnapshot(("s0", "s1"), [(7000.0, 0.0, 0.0), (7000.0, 100.0, 0.0)])
    graph = manual_graph(snapshot.ids, 2, [], [(0, 0, 500.0), (0, 1, 500.0), (1, 0, 800.0), (1, 1, 300.0)])
    stations = {
        GREEDY: [station_at_arc("A", 9000.0), station_at_arc("B", 2000.0)],
        # Equal surface legs, so s0's two offers tie as well.
        OPTIMAL: [station_at_arc("A", 2000.0), station_at_arc("B", 2000.0)],
    }
    for mode, at in stations.items():
        seeds = downlink_seeds(graph, at, TERMINUS, mode)
        assert seeds.terminal.tolist() == ["A", "B"], mode
        assert_same_seeds(seeds, downlink_seeds_oracle(graph, at, TERMINUS, mode))
        report = downhaul_latencies(graph, at, TERMINUS, mode)
        assert report.terminal.tolist() == ["A", "B"], mode


def test_an_optimal_relay_path_that_ties_the_own_downlink_wins():
    # Exact binary delays and a terminus at station 0, whose leg is 0:
    # A downlinks at 1.0 ms, B at 0.5 ms, and the A-B link is 0.5 ms, so
    # A's relay via B ties A's own downlink at 1.0 ms.
    snapshot = ConstellationSnapshot(("A", "B"), [(7000.0, 0.0, 0.0), (7000.0, 100.0, 0.0)])
    stations = [station_at_arc("g0", 0.0)]
    graph = graph_from_edges(snapshot.ids, 1, [(0, 1)], [0.5], [(0, 0), (1, 0)], [1.0, 0.5])
    terminus = stations[0].geodetic
    report = downhaul_latencies(graph, stations, terminus, OPTIMAL)
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


def chain_snapshot():
    positions = [(7000.0, 0.0, 0.0), (7000.0, 1000.0, 0.0), (7000.0, 2000.0, 0.0)]
    return ConstellationSnapshot(("A", "B", "C"), positions)


CHAIN_ACTUATORS = np.array([False, False, True])


def test_onorbit_trivial_cases_and_forced_chain():
    snap = chain_snapshot()
    graph = manual_graph(snap.ids, 0, [(0, 1, 1000.0), (1, 2, 1000.0)], [])

    all_act = np.array([True, True, True])
    report = onorbit_latencies(graph, all_act)
    assert all(
        latency == 0.0 and hops == 0 and terminal == sat_id
        for sat_id, latency, hops, terminal in zip(report.sat_ids, report.latency_ms, report.hops, report.terminal)
    )

    none_act = np.array([False, False, False])
    report = onorbit_latencies(graph, none_act)
    assert all(latency == math.inf for latency in report.latency_ms)

    report = onorbit_latencies(graph, CHAIN_ACTUATORS)
    assert report.latency_ms[0] == pytest.approx(6.671281903963041, abs=1e-9)
    assert (report.hops[0], report.next_hop[0], report.terminal[0]) == (2, "B", "C")
    assert (report.hops[1], report.next_hop[1], report.terminal[1]) == (1, "C", "C")
    assert (report.latency_ms[2], report.hops[2], report.next_hop[2], report.terminal[2]) == (0.0, 0, None, "C")


def test_onorbit_latencies_rejects_a_mask_of_the_wrong_shape_or_dtype():
    snap = random_shell(3, count=20)
    graph = build_visibility_graph(snap, threads=1)
    mask = np.arange(len(snap)) % 3 == 0
    report = onorbit_latencies(graph, mask)
    assert report.sat_ids == snap.ids
    assert (report.hops == 0).tolist() == mask.tolist()
    for bad in (mask[:-1], np.ones((len(snap), 1), dtype=bool)):
        with pytest.raises(ValueError, match="shape"):
            onorbit_latencies(graph, bad)
    for bad in (mask.astype(np.int64), mask.astype(float)):
        with pytest.raises(ValueError, match="bool"):
            onorbit_latencies(graph, bad)


def test_onorbit_penalty_applies_beyond_first_hop():
    snap = chain_snapshot()
    graph = manual_graph(snap.ids, 0, [(0, 1, 1000.0), (1, 2, 1000.0)], [])
    pen = 0.5
    report = onorbit_latencies(graph, CHAIN_ACTUATORS, reroute_penalty_ms=pen)
    w = propagation_delay_ms(1000.0)
    assert report.latency_ms[1] == w  # direct hop to the actuator: no penalty
    assert report.latency_ms[0] == pytest.approx((w + pen) + w, abs=0.0)


def test_onorbit_ties_break_to_lower_index():
    snap = ConstellationSnapshot(
        ("mid", "left", "right"),
        [(7000.0, 0.0, 0.0), (7000.0, -500.0, 0.0), (7000.0, 500.0, 0.0)],
    )
    graph = build_visibility_graph(snap, threads=1)
    report = onorbit_latencies(graph, np.array([False, True, True]))
    mid = report.sat_ids.index("mid")
    assert report.terminal[mid] == "left"
    assert report.next_hop[mid] == "left"


def _line_snapshot(actuator):
    """Three satellites in a line, and the mask of the one actuator."""
    snap = ConstellationSnapshot(("s0", "s1", "s2"), [(7000.0, 100.0 * k, 0.0) for k in range(3)])
    return snap, np.arange(3) == actuator


def test_a_node_tied_with_a_higher_index_seed_gets_its_path_fields():
    # Node 0 reaches the seed at node 1 over a zero-delay link, so it ties
    # the seed's label and precedes it in label order; node 2 hangs off node 0.
    snap, actuators = _line_snapshot(actuator=1)
    graph = manual_graph(snap.ids, 0, [(0, 1, 0.0), (0, 2, 100.0)], [])
    report = onorbit_latencies(graph, actuators)
    assert report == dijkstra_oracle(graph, snap, actuator_sources(graph, actuators), exempt=True)
    assert report.hops.tolist() == [1, 0, 2]
    assert report.next_hop.tolist() == ["s1", None, "s0"]


def test_a_zero_delay_chain_is_oriented_toward_the_seed():
    # Every label is 0, so no in-hop makes strict progress.  Node 1 takes
    # the seed at node 2 in the first round; node 0 may take node 1 only
    # once node 1 has a parent, so 0 and 1 never parent each other.
    snap, actuators = _line_snapshot(actuator=2)
    graph = manual_graph(snap.ids, 0, [(0, 1, 0.0), (1, 2, 0.0)], [])
    report = onorbit_latencies(graph, actuators)
    assert report == dijkstra_oracle(graph, snap, actuator_sources(graph, actuators), exempt=True)
    assert report.hops.tolist() == [2, 1, 0]
    assert report.next_hop.tolist() == ["s1", "s2", None]


def test_star_topology_single_sweep_matches_dijkstra():
    snap = ConstellationSnapshot(
        ("hub",) + tuple(f"leaf{k}" for k in range(5)),
        [(7000.0, 100.0 * k, 0.0) for k in range(6)],
    )
    actuators = np.arange(6) == 0
    graph = manual_graph(snap.ids, 0, [(0, k + 1, 100.0 * (k + 1)) for k in range(5)], [])
    sources = actuator_sources(graph, actuators)
    assert _relax(_RelayProblem(graph.adjacency, 0.0, sources, exempt_seeds=True)).sweeps == 1
    assert onorbit_latencies(graph, actuators) == dijkstra_oracle(graph, snap, sources, exempt=True)


def test_single_pass_cannot_resolve_a_relay_chain():
    snap = chain_snapshot()
    graph = manual_graph(snap.ids, 0, [(0, 1, 1000.0), (1, 2, 1000.0)], [])
    sources = actuator_sources(graph, CHAIN_ACTUATORS)
    # One sweep labels only B; the far node A needs a second.
    assert _relax(_RelayProblem(graph.adjacency, 0.0, sources, exempt_seeds=True)).sweeps == 2
    full = onorbit_latencies(graph, CHAIN_ACTUATORS)
    assert full == dijkstra_oracle(graph, snap, sources, exempt=True)
    assert math.isfinite(full.latency_ms[full.sat_ids.index("A")])


def test_frontier_relaxes_a_long_path_in_linear_work():
    # 3000 satellites in a line with the actuator at one end: full Jacobi
    # sweeps would relax all 2E directed edges in each of ~3000 sweeps.
    n = 3000
    snap = ConstellationSnapshot(
        tuple(f"p{k:04d}" for k in range(n)), [(7000.0, 10.0 * k, 0.0) for k in range(n)],
    )
    actuators = np.arange(n) == 0
    graph = manual_graph(snap.ids, 0, [(k, k + 1, 10.0 + k % 7) for k in range(n - 1)], [])
    sources = actuator_sources(graph, actuators)
    fixpoint = _relax(_RelayProblem(graph.adjacency, 0.25, sources, exempt_seeds=True))
    assert fixpoint.sweeps == n - 1
    assert fixpoint.relaxed_edges <= 2 * graph.sat_edge_count
    engine = onorbit_latencies(graph, actuators, 0.25)
    assert engine == dijkstra_oracle(graph, snap, sources, 0.25, exempt=True)
    assert engine.hops[-1] == n - 1


def _random_instance(seed):
    rng = random.Random(seed)
    snap = random_shell(seed, count=50)
    actuators = select_actuators(snap, rng.randint(0, 12), seed)
    graph = build_visibility_graph(snap, threads=1)
    penalty = rng.choice([0.0, 0.0, 0.25, 1.75])
    return snap, actuators, graph, penalty


def test_dijkstra_oracle_equals_onorbit_engine_on_random_instances():
    for seed in range(40):
        snap, actuators, graph, penalty = _random_instance(seed)
        engine = onorbit_latencies(graph, actuators, penalty)
        oracle = dijkstra_oracle(graph, snap, actuator_sources(graph, actuators), penalty, exempt=True)
        assert engine == oracle


def test_dijkstra_oracle_equals_greedy_downhaul_engine_on_random_instances():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,10,30,0\ng2,-40,150,0\ng3,65,-100,0\n"
    )
    terminus = stations[0].geodetic
    for seed in range(25):
        snap, _, graph, penalty = _random_instance(seed + 1000)
        graph = build_visibility_graph(snap, stations, threads=1)
        engine = downhaul_latencies(
            graph, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty
        )
        oracle = dijkstra_oracle(graph, snap, downlink_seeds_oracle(graph, stations, terminus, GREEDY), penalty)
        assert engine == oracle


def test_bellman_solver_equals_dijkstra_for_optimal_mode():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,10,30,0\ng2,-40,150,0\ng3,65,-100,0\n"
    )
    terminus = stations[1].geodetic
    for seed in range(15):
        snap, _, _, penalty = _random_instance(seed + 2000)
        graph = build_visibility_graph(snap, stations, threads=1)
        via_bellman = downhaul_latencies(
            graph, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty
        )
        via_dijkstra = dijkstra_oracle_optimal(graph, snap, stations, terminus, penalty)
        assert via_dijkstra == via_bellman


PROPERTY_STATIONS = load_ground_stations_csv(
    "id,lat_deg,lon_deg,alt_km\ng1,10,30,0\ng2,-40,150,0\ng3,65,-100,0\ng4,-5,-60,0\n"
)


def _engine_and_oracle(graph, snap, actuators, stations, terminus, penalty):
    """(engine report, oracle report) for every mode."""
    greedy = ArchitectureMode.DOWNHAUL_GREEDY
    optimal = ArchitectureMode.DOWNHAUL_OPTIMAL
    greedy_sources = downlink_seeds_oracle(graph, stations, terminus, greedy)
    return {
        "onorbit": (
            onorbit_latencies(graph, actuators, penalty),
            dijkstra_oracle(graph, snap, actuator_sources(graph, actuators), penalty, exempt=True),
        ),
        "greedy": (
            downhaul_latencies(graph, stations, terminus, greedy, penalty),
            dijkstra_oracle(graph, snap, greedy_sources, penalty),
        ),
        "optimal": (
            downhaul_latencies(graph, stations, terminus, optimal, penalty),
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
    actuators = select_actuators(snap, data.draw(st.integers(0, count)), shell_seed)
    terminus = data.draw(st.sampled_from(stations)).geodetic
    penalty = data.draw(st.sampled_from([0.0, 0.25, 1.75]))
    block_entries = data.draw(st.sampled_from([3, routing._BLOCK_ENTRIES]))
    graph = build_visibility_graph(snap, stations, threads=1)
    overlay = _draw_overlay(data, graph, snap, stations)
    attacked = apply_overlay(graph, snap, stations, overlay)

    before = blocked_pull(block_entries, _engine_and_oracle, graph, snap, actuators, stations, terminus, penalty)
    after = blocked_pull(
        block_entries, _engine_and_oracle,
        attacked, snap, actuators, stations, terminus, penalty + overlay.reroute_penalty_ms,
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


def _relay_problem(graph, actuators, stations, terminus, mode, penalty):
    """The relay problem the engine of ``mode`` solves."""
    if mode is ArchitectureMode.ON_ORBIT:
        return _RelayProblem(graph.adjacency, penalty, actuator_sources(graph, actuators), exempt_seeds=True)
    seeds = downlink_seeds(graph, stations, terminus, mode)
    return _RelayProblem(graph.adjacency, penalty, seeds, fixed_seeds=mode is GREEDY)


@settings(max_examples=60, deadline=None, database=None)
@given(
    shell_seed=st.integers(0, 2**31),
    count=st.integers(2, 45),
    mode=st.sampled_from(list(ArchitectureMode)),
    penalty=st.sampled_from([0.0, 0.25]),
    attacked=st.booleans(),
    block_entries=st.sampled_from(BLOCK_SIZES),
    compact_cut=st.sampled_from(COMPACT_CUTS),
    data=st.data(),
)
def test_the_closing_pull_holds_the_exact_attaining_entries_and_lowers_nothing(
    shell_seed, count, mode, penalty, attacked, block_entries, compact_cut, data
):
    stations = PROPERTY_STATIONS
    snap = random_shell(shell_seed, count=count)
    actuators = select_actuators(snap, data.draw(st.integers(0, count)), shell_seed)
    terminus = data.draw(st.sampled_from(stations)).geodetic
    graph = build_visibility_graph(snap, stations, threads=1)
    if attacked:
        graph = apply_overlay(graph, snap, stations, _draw_overlay(data, graph, snap, stations))
    problem = _relay_problem(graph, actuators, stations, terminus, mode, penalty)
    fixpoint = blocked_pull(block_entries, _relax, problem, compact_cut=compact_cut)
    adj, labels, fixed = graph.adjacency, fixpoint.labels, seed_mask(problem)
    dst, src = attaining_pairs(problem, labels, fixed)
    assert fixpoint.attain_dst.dtype == fixpoint.attain_src.dtype == np.int64
    assert fixpoint.attain_dst.tobytes() == dst.tobytes()
    assert fixpoint.attain_src.tobytes() == src.tobytes()
    # No hop lowers a free label: the unblocked candidates of every hop.
    rows = entry_rows(adj)
    candidates = problem.sat_weights(adj.neighbors, adj.delays_ms) + labels[adj.neighbors]
    assert ((candidates >= labels[rows]) | fixed[rows]).all()


@pytest.mark.parametrize("block_entries", BLOCK_SIZES)
def test_only_a_pull_that_lowers_no_free_label_keeps_its_attaining_entries(block_entries):
    snap = random_shell(4, count=40)
    graph = build_visibility_graph(snap, threads=1)
    problem = _RelayProblem(graph.adjacency, 0.25, actuator_sources(graph, select_actuators(snap, 2, 4)),
                            exempt_seeds=True)
    adj = graph.adjacency
    none_fixed = np.zeros(graph.sat_count, dtype=bool)
    rows = blocked_pull(block_entries, routing._free_rows, problem, none_fixed)
    assert rows.indptr is adj.indptr and rows.nodes.tolist() == list(range(graph.sat_count))
    # From the seed labels alone, the pull lowers the actuators' neighbours.
    labels = np.full(graph.sat_count, math.inf)
    labels[problem.seeds.node] = 0.0
    best, attain = routing._pull(rows, labels)
    assert attain is None and (best < labels).any()
    # At the fixpoint it lowers nothing and keeps every attaining entry.
    labels = _relax(problem).labels

    def attaining(fixed):
        weights = problem.sat_weights(adj.neighbors, adj.delays_ms)
        rows = entry_rows(adj)
        return np.flatnonzero((weights + labels[adj.neighbors] == labels[rows])
                              & np.isfinite(labels[rows]) & ~fixed[rows])

    best, attain = routing._pull(rows, labels)
    assert attain.tobytes() == attaining(none_fixed).tobytes()
    # Raised above the fixpoint, the last relayed label is lowered again;
    # where it is fixed, that does not count, and its row records nothing.
    raised = np.flatnonzero(np.isfinite(labels) & (labels > 0.0))[-1]
    labels[raised] += 1.0
    assert routing._pull(rows, labels)[1] is None
    only_raised = np.arange(graph.sat_count) == raised
    masked = blocked_pull(block_entries, routing._free_rows, problem, only_raised, compact_cut=2.0)
    assert masked.indptr is adj.indptr and masked.fixed.tolist() == only_raised.tolist()
    best, attain = routing._pull(masked, labels)
    assert best[raised] < labels[raised] and attain.size > 0
    assert attain.tobytes() == attaining(only_raised).tobytes()


@pytest.mark.parametrize("block_entries", BLOCK_SIZES)
def test_pull_blocks_cover_the_rows_in_order_within_the_block_size(block_entries):
    # Empty rows at both ends and inside, and a row of 9 entries.
    counts = np.array([0, 0, 3, 1, 0, 9, 2, 0, 0, 4, 1, 0])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    with mock.patch.object(routing, "_BLOCK_ENTRIES", block_entries):
        blocks = _row_blocks(indptr)
    assert [r0 for r0, _ in blocks] == [0] + [r1 for _, r1 in blocks[:-1]]
    assert blocks[-1][1] == counts.size
    for r0, r1 in blocks:
        assert r1 > r0
        assert indptr[r1] - indptr[r0] <= block_entries or r1 == r0 + 1


PATH_LINKS = [(k, k + 1, 100.0 + k) for k in range(5)]


@pytest.mark.parametrize("links, actuators, sweeps, relaxed_edges", [
    # From one end of a path: pushes, the last of which lowers nothing.
    (PATH_LINKS, [0], 5, 10),
    # From the hub of a star: one lowering pull over the leaves' rows, as the
    # hub's row holds half the entries and is compacted away.
    ([(0, k, 100.0 * k) for k in range(1, 6)], [0], 1, 5),
    # Every satellite an actuator: no free row, so no sweep at all.
    (PATH_LINKS, range(6), 0, 0),
])
def test_every_way_into_the_closing_pull_gives_the_oracle_report(links, actuators, sweeps, relaxed_edges):
    snap = ConstellationSnapshot(
        tuple(f"s{k}" for k in range(6)), [(7000.0, 100.0 * k, 0.0) for k in range(6)],
    )
    actuators = np.isin(np.arange(6), list(actuators))
    graph = manual_graph(snap.ids, 0, links, [])
    sources = actuator_sources(graph, actuators)
    fixpoint = _relax(_RelayProblem(graph.adjacency, 0.25, sources, exempt_seeds=True))
    # The closing pull replaces the report's pass over the hops, so it is not
    # counted; a pull counts the entries of the rows it reads.
    assert (fixpoint.sweeps, fixpoint.relaxed_edges) == (sweeps, relaxed_edges)
    assert onorbit_latencies(graph, actuators, 0.25) == dijkstra_oracle(graph, snap, sources, 0.25, exempt=True)


@pytest.mark.parametrize("block_entries", BLOCK_SIZES)
@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.7, 1.0])
def test_free_row_solves_equal_the_oracle_and_the_full_csr_path(fraction, block_entries):
    # The same solves with the fixed rows compacted away and with them
    # masked: every mode, penalised, at fractions with no fixed actuator
    # rows, with all of them, and on either side of the default cut-off.
    snap = random_shell(17, count=40)
    actuators = select_actuators(snap, round(fraction * len(snap)), 17)
    stations = PROPERTY_STATIONS
    terminus = stations[1].geodetic
    graph = build_visibility_graph(snap, stations, threads=1)
    reports = {
        cut: blocked_pull(block_entries, _engine_and_oracle, graph, snap, actuators, stations, terminus, 0.25,
                          compact_cut=cut)
        for cut in COMPACT_CUTS
    }
    for mode, (engine, oracle) in reports[COMPACT_CUTS[0]].items():
        assert engine == oracle, mode
        assert reports[COMPACT_CUTS[1]][mode][0] == engine, mode
    for mode in ArchitectureMode:
        problem = _relay_problem(graph, actuators, stations, terminus, mode, 0.25)
        compacted, masked = (
            blocked_pull(block_entries, _relax, problem, compact_cut=cut) for cut in COMPACT_CUTS
        )
        assert same_fixpoint(compacted, masked), mode
        dst, src = attaining_pairs(problem, compacted.labels, seed_mask(problem))
        assert (compacted.attain_dst.tobytes(), compacted.attain_src.tobytes()) == (dst.tobytes(), src.tobytes())


def test_free_rows_that_are_all_empty_return_without_a_pull():
    # s0 and s1 are actuators linked to each other; s2 and s3 have no link.
    snap = ConstellationSnapshot(
        ("s0", "s1", "s2", "s3"), [(7000.0, 100.0 * k, 0.0) for k in range(4)],
    )
    actuators = np.arange(4) < 2
    graph = manual_graph(snap.ids, 0, [(0, 1, 100.0)], [])
    sources = actuator_sources(graph, actuators)
    with mock.patch.object(routing, "_pull", side_effect=AssertionError("pulled")), \
            mock.patch.object(routing, "_push", side_effect=AssertionError("pushed")):
        fixpoint = _relax(_RelayProblem(graph.adjacency, 0.25, sources, exempt_seeds=True))
        report = onorbit_latencies(graph, actuators, 0.25)
    assert fixpoint.labels.tolist() == [0.0, 0.0, math.inf, math.inf]
    assert (fixpoint.sweeps, fixpoint.relaxed_edges, fixpoint.attain_dst.size) == (0, 0, 0)
    assert report == dijkstra_oracle(graph, snap, sources, 0.25, exempt=True)
    assert report.hops.tolist() == [0, 0, -1, -1]


@pytest.mark.parametrize("compact_cut", COMPACT_CUTS)
def test_a_hop_that_ties_a_fixed_label_is_no_attaining_hop(compact_cut):
    # Actuators s0 and s1 coincide, so each attains the other's label 0; s2
    # hangs off s1.  Only the hop into the free row counts, masked or not.
    snap = ConstellationSnapshot(
        ("s0", "s1", "s2"), [(7000.0, 100.0 * k, 0.0) for k in range(3)],
    )
    actuators = np.arange(3) < 2
    graph = manual_graph(snap.ids, 0, [(0, 1, 0.0), (1, 2, 100.0)], [])
    problem = _RelayProblem(graph.adjacency, 0.0, actuator_sources(graph, actuators), exempt_seeds=True)
    fixpoint = blocked_pull(routing._BLOCK_ENTRIES, _relax, problem, compact_cut=compact_cut)
    assert (fixpoint.attain_dst.tolist(), fixpoint.attain_src.tolist()) == ([2], [1])
    assert onorbit_latencies(graph, actuators) == dijkstra_oracle(graph, snap, actuator_sources(graph, actuators),
                                                                  exempt=True)


@pytest.mark.parametrize("compact_cut", COMPACT_CUTS)
def test_penalised_free_rows_exempt_only_the_hops_from_actuators(compact_cut):
    # A ring of 8 with actuators at 0, 3 and 4: the free rows 2 and 5 take
    # one hop from an actuator (penalty-free) and one from a relay (penalised).
    n, penalty = 8, 0.75
    snap = ConstellationSnapshot(
        tuple(f"r{k}" for k in range(n)), [(7000.0, 100.0 * k, 0.0) for k in range(n)],
    )
    actuators = np.isin(np.arange(n), [0, 3, 4])
    graph = manual_graph(snap.ids, 0, [(k, (k + 1) % n, 300.0 + 10.0 * k) for k in range(n)], [])
    sources = actuator_sources(graph, actuators)
    problem = _RelayProblem(graph.adjacency, penalty, sources, exempt_seeds=True)
    rows = blocked_pull(routing._BLOCK_ENTRIES, routing._free_rows, problem, seed_mask(problem),
                        compact_cut=compact_cut)
    adj = graph.adjacency
    delay = {(int(v), int(u)): d for v, u, d in zip(entry_rows(adj), adj.neighbors, adj.delays_ms)}
    hop_rows = np.repeat(rows.nodes, np.diff(rows.indptr))
    for v, u, weight in zip(hop_rows.tolist(), rows.neighbors.tolist(), rows.weights.tolist()):
        assert weight == delay[v, u] + (0.0 if actuators[u] else penalty), (u, v)
    assert rows.fixed.any() == (compact_cut > 1.0)
    assert rows.nodes.size == (n if compact_cut > 1.0 else n - 3)
    fixpoint = blocked_pull(routing._BLOCK_ENTRIES, _relax, problem, compact_cut=compact_cut)
    report = blocked_pull(routing._BLOCK_ENTRIES, onorbit_latencies, graph, actuators, penalty,
                          compact_cut=compact_cut)
    assert report == dijkstra_oracle(graph, snap, sources, penalty, exempt=True)
    assert fixpoint.labels[2] == delay[2, 3] and fixpoint.labels[5] == delay[5, 4]
    assert fixpoint.labels[1] == delay[1, 0]
    # Relay 6 is two hops from either actuator: the hop from relay 5 pays.
    assert fixpoint.labels[6] == min(delay[6, 5] + penalty + delay[5, 4], delay[6, 7] + penalty + delay[7, 0])


@settings(max_examples=40, deadline=None, database=None)
@given(
    shell_seed=st.integers(0, 2**31),
    count=st.integers(2, 45),
    actuators=st.integers(1, 3),
    penalty=st.sampled_from([0.0, 0.25]),
    block_entries=st.sampled_from(BLOCK_SIZES[:-1]),
)
def test_a_blocked_push_is_the_unblocked_sweep(shell_seed, count, actuators, penalty, block_entries):
    snap = random_shell(shell_seed, count=count)
    graph = build_visibility_graph(snap, threads=1)
    mask = select_actuators(snap, min(actuators, count), shell_seed)
    problem = _RelayProblem(graph.adjacency, penalty, actuator_sources(graph, mask), exempt_seeds=True)
    pushes = []
    for entries in (block_entries, 1 << 62):  # the last: every push is a single run
        with mock.patch.object(routing, "_push", wraps=routing._push) as push:
            pushes.append((blocked_pull(entries, _relax, problem), push.call_count))
    (blocked, blocked_pushes), (unblocked, unblocked_pushes) = pushes
    assert same_fixpoint(blocked, unblocked)
    assert (blocked.relaxed_edges, blocked_pushes) == (unblocked.relaxed_edges, unblocked_pushes)


def test_optimal_never_exceeds_greedy_pointwise():
    stations = load_ground_stations_csv(
        "id,lat_deg,lon_deg,alt_km\ng1,0,0,0\ng2,30,90,0\ng3,-30,-90,0\ng4,60,180,0\n"
    )
    terminus = stations[0].geodetic
    for seed in range(10):
        snap, _, _, penalty = _random_instance(seed + 3000)
        graph = build_visibility_graph(snap, stations, threads=1)
        greedy = downhaul_latencies(
            graph, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty
        )
        optimal = downhaul_latencies(
            graph, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty
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
        actuators = select_actuators(snap, 8, seed)
        graph = build_visibility_graph(snap, threads=1)
        keep = np.array([rng.random() > 0.3 for _ in range(graph.sat_edge_count)])
        pruned = graph_from_edges(
            graph.sat_ids, graph.station_count,
            graph.sat_edges[keep], graph.sat_delays_ms[keep],
            graph.station_edges, graph.station_delays_ms,
        )
        before = onorbit_latencies(graph, actuators)
        after = onorbit_latencies(pruned, actuators)
        for b, a in zip(before.latency_ms, after.latency_ms):
            assert a >= b


def test_greedy_latency_can_legitimately_drop_when_an_edge_is_removed():
    # Removing the nearest-station link reroutes the greedy downlink to a
    # station with a far shorter ground leg: greedy is not monotone.
    snapshot = single_sat_snapshot()
    stations = [station_at_arc("A", 9000.0), station_at_arc("B", 2000.0)]
    full = manual_graph(snapshot.ids, 2, [], [(0, 0, 500.0), (0, 1, 800.0)])
    cut = manual_graph(snapshot.ids, 2, [], [(0, 1, 800.0)])
    before = downhaul_latencies(full, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
    after = downhaul_latencies(cut, stations, TERMINUS, ArchitectureMode.DOWNHAUL_GREEDY)
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
    mask = select_actuators(snap, 5, 3)
    graph = build_visibility_graph(snap, threads=1)
    assert graph.sat_edge_count == 25 * 24 // 2
    report = onorbit_latencies(graph, mask)
    delays = {tuple(sorted((int(i), int(j)))): d for (i, j), d in zip(graph.sat_edges.tolist(), graph.sat_delays_ms.tolist())}
    actuators = set(np.flatnonzero(mask).tolist())
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


def resum_report(report, graph, snapshot, actuators, stations, terminus, penalty, mode):
    """Re-add each reported path's hop delays by walking next_hop chains."""
    sat_w, st_w = _edge_delay_maps(graph, snapshot, stations)
    ground = dict(zip((s.id for s in stations), terminus_legs_ms(stations, terminus)))
    station_ids = {s.id for s in stations}
    actuators = {sat_id for sat_id, flag in zip(snapshot.ids, actuators) if flag}
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
        snap, actuators, _, penalty = _random_instance(seed + 7000)
        graph = build_visibility_graph(snap, stations, threads=1)
        resum_report(
            onorbit_latencies(graph, actuators, penalty), graph, snap, actuators, stations, terminus,
            penalty, ArchitectureMode.ON_ORBIT,
        )
        resum_report(
            downhaul_latencies(graph, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty),
            graph, snap, actuators, stations, terminus, penalty, ArchitectureMode.DOWNHAUL_GREEDY,
        )
        resum_report(
            downhaul_latencies(graph, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty),
            graph, snap, actuators, stations, terminus, penalty, ArchitectureMode.DOWNHAUL_OPTIMAL,
        )


def test_report_covers_every_satellite_exactly_once():
    snap, actuators, graph, _ = _random_instance(8000)
    report = onorbit_latencies(graph, actuators)
    assert report.sat_ids == snap.ids
