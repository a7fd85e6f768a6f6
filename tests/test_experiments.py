import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sda_netlab import experiments
from sda_netlab.constellation import WalkerSpec, generate_walker, select_actuators
from sda_netlab.experiments import (
    ArchitectureComparison,
    ConstellationSource,
    ScenarioConfig,
    SweepPoint,
    actuator_sweep,
    attack_scenario,
    compare_architectures,
    config_to_dict,
    half_up_count,
    nearest_rank_percentile,
    prepare,
    report_to_csv,
    resolve_actuator_count,
    run_scenario,
    summarize,
    validate_config,
)
from sda_netlab.geo import GeodeticPosition
from sda_netlab.routing import ArchitectureMode, LatencyReport
from sda_netlab.topology import AttackOverlay, JamRegion

from oracle_utils import SplitMix64


def report_of(latencies, hops=None):
    n = len(latencies)
    return LatencyReport(
        sat_ids=tuple(f"s{k}" for k in range(n)),
        latency_ms=np.array(latencies, dtype=np.float64),
        hops=np.array([-1 if math.isinf(value) else (hops[k] if hops else 1)
                       for k, value in enumerate(latencies)], dtype=np.int64),
        parent=np.full(n, -1, dtype=np.int64),
        terminal=np.full(n, None, dtype=object),
    )


def small_source(planes=4, spp=8, altitude=1200.0):
    return ConstellationSource(
        walker_shells=(WalkerSpec(altitude, 87.9, planes, spp, phasing_f=1, id_prefix="t", label="tiny"),)
    )


def write_stations(tmp_path, rows=None):
    rows = rows or [
        "gA,5,-20,0", "gB,48,2,0", "gC,-33,151,0", "gD,64,-21,0", "gE,-45,-70,0",
    ]
    path = tmp_path / "stations.csv"
    path.write_text("id,lat_deg,lon_deg,alt_km\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def test_summarize_basic_examples():
    s = summarize(report_of([1.0, 2.0, 3.0, math.inf]))
    assert s.mean_ms == pytest.approx(2.0)
    assert s.unreachable_count == 1
    assert s.reachable_fraction == pytest.approx(0.75)
    assert s.satellite_count == 4

    zeros = summarize(report_of([0.0, 0.0, 0.0]))
    assert zeros.mean_ms == 0.0 and zeros.median_ms == 0.0 and zeros.max_ms == 0.0

    dark = summarize(report_of([math.inf] * 5))
    assert dark.unreachable_count == 5
    assert dark.mean_ms is None and dark.median_ms is None and dark.max_ms is None
    assert dark.mean_hops is None
    assert dark.reachable_fraction == 0.0


def test_summarize_matches_naive_reference():
    rng = random.Random(123)
    values = [rng.uniform(0.1, 60.0) for _ in range(1000)]
    s = summarize(report_of(values))
    exact_mean = float(sum(Fraction(v) for v in values) / len(values))
    assert s.mean_ms == pytest.approx(exact_mean, rel=1e-12)
    ordered = sorted(values)

    def naive_percentile(pct):
        return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]

    assert s.p5_ms == naive_percentile(5)
    assert s.median_ms == naive_percentile(50)
    assert s.p95_ms == naive_percentile(95)
    assert s.max_ms == ordered[-1]
    assert s.p5_ms <= s.median_ms <= s.p95_ms <= s.max_ms


def test_summarize_is_permutation_invariant():
    rng = random.Random(5)
    values = [rng.uniform(0.1, 60.0) for _ in range(257)] + [math.inf] * 3
    shuffled = values[:]
    rng.shuffle(shuffled)
    assert summarize(report_of(values)) == summarize(report_of(shuffled))


def test_nearest_rank_percentile_edges():
    assert nearest_rank_percentile([10.0], 5) == 10.0
    assert nearest_rank_percentile([1.0, 2.0], 50) == 1.0
    assert nearest_rank_percentile([1.0, 2.0], 95) == 2.0
    with pytest.raises(ValueError):
        nearest_rank_percentile([], 50)


def test_report_csv_format():
    text = report_to_csv(report_of([1.5, math.inf]))
    lines = text.splitlines()
    assert lines[0] == "sat_id,latency_ms,hops,terminal"
    assert lines[1] == "s0,1.5,1,"
    assert lines[2] == "s1,inf,,"


def test_half_up_count_and_resolution():
    assert half_up_count(0.0, 630) == 0
    assert half_up_count(1.0, 630) == 630
    assert half_up_count(0.15, 630) == 95  # 0.15 * 630 rounds to exactly 94.5
    assert half_up_count(0.5, 630) == 315
    cfg = ScenarioConfig(constellation=small_source(), actuator_count=7)
    assert resolve_actuator_count(cfg, 32) == 7
    five = generate_walker(WalkerSpec(1200.0, 87.9, 1, 5))
    with pytest.raises(ValueError, match="actuator_count: 7 exceeds 5 satellites"):
        select_actuators(five, resolve_actuator_count(cfg, len(five)), cfg.seed)


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="mutually exclusive"):
        ScenarioConfig(constellation=small_source(), actuator_fraction=0.1, actuator_count=3)
    with pytest.raises(ValueError, match="actuator_fraction"):
        ScenarioConfig(constellation=small_source(), actuator_fraction=1.5)
    with pytest.raises(ValueError, match="sorted"):
        ScenarioConfig(constellation=small_source(), sweep_fractions=(0.5, 0.1))
    with pytest.raises(ValueError, match="exactly one constellation source"):
        ConstellationSource()
    with pytest.raises(ValueError, match=r"^reroute_penalty_ms: must be >= 0, got -1.0$"):
        AttackOverlay(reroute_penalty_ms=-1.0)
    with pytest.raises(ValueError, match=r"^reroute_penalty_ms: must be finite$"):
        AttackOverlay(reroute_penalty_ms=math.inf)
    cfg = ScenarioConfig(constellation=small_source())
    assert cfg.actuator_fraction == 0.15


def test_run_scenario_all_actuators_is_zero_latency(tmp_path):
    cfg = ScenarioConfig(constellation=small_source(), actuator_fraction=1.0, seed=2)
    run = run_scenario(cfg, threads=1)
    assert run.summary.mean_ms == 0.0
    assert run.summary.unreachable_count == 0
    assert run.summary.mean_hops == 0.0


def test_compare_architectures_orders_means(tmp_path):
    stations = write_stations(tmp_path)
    source = small_source()
    cfg = ScenarioConfig(
        constellation=source, stations_csv=stations, mode=ArchitectureMode.DOWNHAUL_GREEDY, seed=4
    )
    result = compare_architectures(cfg, threads=1)
    assert isinstance(result, ArchitectureComparison)
    assert result.onorbit.mean_ms < result.downhaul.mean_ms
    assert len(result.downhaul_report) == len(result.onorbit_report)


def test_actuator_sweep_nested_monotonicity_and_endpoints():
    cfg = ScenarioConfig(constellation=small_source(planes=6, spp=10), seed=9)
    fractions = tuple(i / 10 for i in range(0, 11))
    points = actuator_sweep(replace(cfg, sweep_fractions=fractions), threads=1)
    assert [p.fraction for p in points] == list(fractions)

    zero = points[0]
    assert zero.actuator_count == 0
    assert zero.summary.unreachable_count == zero.summary.satellite_count

    full = points[-1]
    assert full.actuator_count == 60
    assert full.summary.mean_ms == 0.0

    means = [p.summary.mean_ms for p in points[1:]]
    assert all(m is not None for m in means)
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier  # exact, by nested-set construction

    fractions_reached = [p.summary.reachable_fraction for p in points]
    for earlier, later in zip(fractions_reached, fractions_reached[1:]):
        assert later >= earlier

    counts = [p.actuator_count for p in points]
    assert counts == sorted(counts)


def test_actuator_sweep_independent_draws_runs_and_differs():
    cfg = ScenarioConfig(constellation=small_source(planes=6, spp=10), seed=9)
    cfg = replace(cfg, sweep_fractions=(0.2, 0.5))
    nested = actuator_sweep(cfg, threads=1)
    independent = actuator_sweep(cfg, independent_draws=True, threads=1)
    assert len(independent) == 2
    assert [p.actuator_count for p in independent] == [p.actuator_count for p in nested]


def serial_sweep(cfg, independent_draws):
    """The sweep as one loop over the fractions, each point's seed drawn as
    the loop reaches it."""
    network = prepare(cfg, threads=1)
    n = len(network.snapshot)
    rng = SplitMix64(cfg.seed)
    points = []
    for fraction in cfg.sweep_fractions:
        point_seed = rng.next_u64() if independent_draws else cfg.seed
        actuators = select_actuators(network.snapshot, half_up_count(fraction, n), point_seed)
        report = replace(network, actuators=actuators).route(cfg.mode)
        points.append(SweepPoint(fraction, int(actuators.sum()), summarize(report)))
    return points


@settings(max_examples=25, deadline=None, database=None)
@given(
    planes=st.integers(1, 5),
    spp=st.integers(2, 9),
    altitude=st.floats(500.0, 2000.0),
    inclination=st.floats(30.0, 98.0),
    downhaul=st.sampled_from([ArchitectureMode.DOWNHAUL_GREEDY, ArchitectureMode.DOWNHAUL_OPTIMAL]),
    seed=st.integers(0, 2**64 - 1),
    penalty=st.sampled_from([0.0, 0.3]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7).map(sorted),
    independent_draws=st.booleans(),
)
def test_actuator_sweep_equals_the_serial_loop_at_every_thread_count(
    stations_csv, planes, spp, altitude, inclination, downhaul, seed, penalty, fractions, independent_draws
):
    source = ConstellationSource(walker_shells=(
        WalkerSpec(altitude, inclination, planes, spp, phasing_f=planes - 1, id_prefix="r", label="random"),
    ))
    # Only on-orbit latencies depend on the actuators, so every example runs
    # it, which pins each point's seed; a downhaul mode runs the other solves.
    for mode in (ArchitectureMode.ON_ORBIT, downhaul):
        cfg = ScenarioConfig(
            constellation=source, stations_csv=stations_csv, mode=mode, seed=seed,
            reroute_penalty_ms=penalty, sweep_fractions=tuple(fractions),
        )
        want = serial_sweep(cfg, independent_draws)
        for threads in (1, 2, 3):
            assert actuator_sweep(cfg, independent_draws=independent_draws, threads=threads) == want, (mode, threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_failing_sweep_point_raises_the_lowest_failing_fraction(threads):
    # 40 satellites: the fractions flag 4, 12, 20, 28 and 36 actuators, and
    # the points at 12 and 28 fail.  The lower one fails last in time, after
    # the higher one has raised on another worker.
    cfg = ScenarioConfig(constellation=small_source(planes=4, spp=10), seed=5,
                         sweep_fractions=(0.1, 0.3, 0.5, 0.7, 0.9))
    solve = experiments.onorbit_latencies

    def failing(graph, actuators, penalty_ms):
        count = int(actuators.sum())
        if count == 12:
            time.sleep(0.2)
        if count in (12, 28):
            raise RuntimeError(f"point with {count} actuators failed")
        return solve(graph, actuators, penalty_ms)

    with mock.patch.object(experiments, "onorbit_latencies", failing):
        with pytest.raises(RuntimeError, match="point with 12 actuators failed"):
            actuator_sweep(cfg, threads=threads)


def test_attack_scenario_identity_and_total_station_denial(tmp_path):
    stations = write_stations(tmp_path)
    cfg = ScenarioConfig(
        constellation=small_source(), stations_csv=stations,
        mode=ArchitectureMode.DOWNHAUL_GREEDY, seed=6,
    )
    identity = attack_scenario(replace(cfg, overlay=AttackOverlay()), threads=1)
    assert identity.delta_mean_ms == 0.0
    assert identity.availability_loss == 0

    all_stations = AttackOverlay(disabled_stations=frozenset({"gA", "gB", "gC", "gD", "gE"}))
    denial = attack_scenario(replace(cfg, overlay=all_stations), threads=1)
    assert denial.attacked.unreachable_count == denial.attacked.satellite_count
    assert denial.availability_loss == denial.baseline.satellite_count - denial.baseline.unreachable_count
    assert denial.delta_mean_ms is None  # nothing is reachable in both runs


def test_attack_scenario_jamming_the_sole_actuator():
    cfg = ScenarioConfig(constellation=small_source(planes=6, spp=10), actuator_count=1, seed=11)
    base = run_scenario(cfg, threads=1)
    (the_actuator,) = np.flatnonzero(select_actuators(base.snapshot, 1, cfg.seed))
    overlay = AttackOverlay(disabled_satellites=frozenset({base.snapshot.ids[the_actuator]}))
    outcome = attack_scenario(replace(cfg, overlay=overlay), threads=1)
    # A jammed actuator loses its links, not its own data: every OTHER
    # satellite becomes unreachable.
    assert outcome.attacked.unreachable_count == outcome.attacked.satellite_count - 1
    assert outcome.attacked.max_ms == 0.0
    assert outcome.availability_loss == outcome.attacked.satellite_count - 1


@pytest.fixture(scope="module")
def stations_csv(tmp_path_factory):
    return write_stations(tmp_path_factory.mktemp("stations"))


_MONOTONE_SATS = [f"t-p{p:03d}-s{k:03d}" for p in range(6) for k in range(10)]
_MONOTONE_STATIONS = ["gA", "gB", "gC", "gD", "gE"]


@settings(max_examples=150, deadline=None, database=None)
@given(
    mode=st.sampled_from([ArchitectureMode.ON_ORBIT, ArchitectureMode.DOWNHAUL_OPTIMAL]),
    seed=st.integers(0, 2**64 - 1),
    disabled_satellites=st.frozensets(st.sampled_from(_MONOTONE_SATS), max_size=8),
    disabled_stations=st.frozensets(st.sampled_from(_MONOTONE_STATIONS), max_size=3),
    links=st.lists(
        st.tuples(st.sampled_from(_MONOTONE_SATS), st.sampled_from(_MONOTONE_SATS + _MONOTONE_STATIONS)),
        max_size=12,
    ),
    jam_regions=st.lists(
        st.builds(
            JamRegion,
            st.builds(GeodeticPosition, st.floats(-80.0, 80.0), st.floats(-180.0, 180.0)),
            st.floats(200.0, 1500.0),
        ),
        max_size=1,
    ),
    penalty=st.sampled_from([0.0, 0.2]),
)
def test_attack_scenario_random_overlays_are_monotone(
    stations_csv, mode, seed, disabled_satellites, disabled_stations, links, jam_regions, penalty
):
    # Shortest paths only lose edges and gain penalty under an overlay.
    # Greedy stays out: its latency can legitimately drop (see
    # test_greedy_latency_can_legitimately_drop_when_an_edge_is_removed).
    cfg = ScenarioConfig(
        constellation=small_source(planes=6, spp=10), stations_csv=stations_csv, mode=mode, seed=seed,
        overlay=AttackOverlay(
            disabled_satellites=disabled_satellites,
            disabled_stations=disabled_stations,
            disabled_links=frozenset(AttackOverlay.normalize_link(a, b) for a, b in links),
            jam_regions=tuple(jam_regions),
            reroute_penalty_ms=penalty,
        ),
    )
    outcome = attack_scenario(cfg, threads=1)
    assert outcome.availability_loss >= 0
    assert outcome.delta_mean_ms is None or outcome.delta_mean_ms >= 0.0


def test_attack_overlay_penalty_applies_only_to_attacked_run():
    cfg = ScenarioConfig(constellation=small_source(planes=6, spp=10), actuator_count=2, seed=3)
    overlay = AttackOverlay(reroute_penalty_ms=5.0)
    outcome = attack_scenario(replace(cfg, overlay=overlay), threads=1)
    assert outcome.delta_mean_ms is not None and outcome.delta_mean_ms > 0.0
    assert outcome.availability_loss == 0


def test_a_python_built_walker_shell_obeys_the_json_string_rules():
    with pytest.raises(ValueError, match=r"^id_prefix: must be a string, got 5$"):
        WalkerSpec(550.0, 53.0, 4, 8, id_prefix=5)
    with pytest.raises(ValueError, match=r"^label: must be a string, got None$"):
        WalkerSpec(550.0, 53.0, 4, 8, id_prefix="s", label=None)
    # The range rules run first: a bad range and a bad id_prefix report the range.
    with pytest.raises(ValueError, match=r"^planes and sats_per_plane must be >= 1$"):
        WalkerSpec(550.0, 53.0, 0, 8, id_prefix=5)
    # A shell it accepts echoes a config that validates back to the same config.
    spec = WalkerSpec(550.0, 53.0, 4, 8, id_prefix="s", label="x")
    cfg = ScenarioConfig(constellation=ConstellationSource(walker_shells=(spec,)))
    assert validate_config(json.dumps(config_to_dict(cfg))) == (cfg, [])


def test_a_python_built_overlay_equals_its_json_twin():
    overlay = AttackOverlay(
        disabled_satellites={"x"}, disabled_stations=["gA", "gA"], disabled_links={("b", "a")},
        jam_regions=[JamRegion(GeodeticPosition(10.0, 20.0), 300)], reroute_penalty_ms=1,
    )
    twin = AttackOverlay.from_dict({
        "disabled_satellites": ["x"], "disabled_stations": ["gA"], "disabled_links": [["a", "b"]],
        "jam_regions": [{"lat_deg": 10.0, "lon_deg": 20.0, "radius_km": 300.0}], "reroute_penalty_ms": 1.0,
    })
    assert overlay == twin and hash(overlay) == hash(twin)
    assert json.dumps(overlay.to_dict()) == json.dumps(twin.to_dict())
    assert overlay.to_dict()["disabled_links"] == [["a", "b"]]
    assert overlay.reroute_penalty_ms == 1.0 and isinstance(overlay.reroute_penalty_ms, float)
    with pytest.raises(ValueError, match=r"^radius_km: must be a number, got '300'$"):
        JamRegion(GeodeticPosition(10.0, 20.0), "300")


def test_a_downhaul_sweep_routes_once_and_draws_no_point_actuators(stations_csv):
    cfg = ScenarioConfig(
        constellation=small_source(planes=6, spp=10), stations_csv=stations_csv,
        mode=ArchitectureMode.DOWNHAUL_GREEDY, seed=3, sweep_fractions=(0.0, 0.25, 1.0),
    )
    want = serial_sweep(cfg, independent_draws=True)
    with mock.patch.object(experiments, "downhaul_latencies", wraps=experiments.downhaul_latencies) as solve, \
            mock.patch.object(experiments, "select_actuators", wraps=experiments.select_actuators) as draw:
        points = actuator_sweep(cfg, independent_draws=True, threads=2)
    assert points == want
    assert [p.actuator_count for p in points] == [0, 15, 60]
    assert solve.call_count == 1
    assert draw.call_count == 1  # the network's own mask, drawn by prepare


def test_config_echo_is_stable():
    cfg = ScenarioConfig(constellation=small_source(), seed=5, actuator_fraction=0.3)
    echo = config_to_dict(cfg)
    assert echo["seed"] == 5
    assert echo["actuator_fraction"] == 0.3
    assert echo["mode"] == "onorbit"
    assert echo["constellation"]["walker"][0]["planes"] == 4
