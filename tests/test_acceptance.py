"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import os
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from sda_netlab.cli import run as cli_run
from sda_netlab.constellation import (
    load_ground_stations_csv,
    select_actuators,
)
from sda_netlab.experiments import (
    PRESETS,
    ConstellationSource,
    ScenarioConfig,
    actuator_sweep,
    attack_scenario,
    half_up_count,
    resolve_snapshot,
    summarize,
)
from sda_netlab.geo import SEMI_MAJOR_A_KM, GeodeticPosition
from sda_netlab.routing import (
    ArchitectureMode,
    downhaul_latencies,
    onorbit_latencies,
)
from sda_netlab.topology import AttackOverlay, JamRegion, build_visibility_graph
from oracle_utils import (
    actuator_seed_rows,
    dijkstra_oracle,
    dijkstra_oracle_optimal,
    downlink_seeds_oracle,
    grazing_pair,
    has_line_of_sight,
    min_scaled_norm,
    random_orbital_point,
    random_shell,
    segment_blocked_by_sampling,
)

STATIONS_FILE = os.path.join(os.path.dirname(__file__), "..", "configs", "stations_13.csv")
ACTUATOR_FRACTION = 0.15
SEEDS = (1, 2, 3, 4, 5)


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def stations():
    with open(STATIONS_FILE, "r", encoding="utf-8") as fh:
        return load_ground_stations_csv(fh.read())


@pytest.fixture(scope="module")
def oneweb_bundle(stations):
    """OneWeb-analog snapshot and graph plus the 5-seed on-orbit means."""
    snapshot = resolve_snapshot(ConstellationSource(walker_shells=PRESETS["oneweb-like"]))
    start = time.perf_counter()
    graph = build_visibility_graph(snapshot, stations)
    means = []
    for seed in SEEDS:
        actuators = select_actuators(snapshot, half_up_count(ACTUATOR_FRACTION, len(snapshot)), seed)
        means.append(summarize(onorbit_latencies(graph, actuators)).mean_ms)
    elapsed = time.perf_counter() - start
    return {"snapshot": snapshot, "graph": graph, "means": means, "seconds": elapsed}


@pytest.fixture(scope="module")
def starlink_bundle(stations):
    """Starlink-analog run, timed end to end including the O(N^2) build."""
    snapshot = resolve_snapshot(ConstellationSource(walker_shells=PRESETS["starlink-like"]))
    start = time.perf_counter()
    graph = build_visibility_graph(snapshot, stations)
    actuators = select_actuators(snapshot, half_up_count(ACTUATOR_FRACTION, len(snapshot)), SEEDS[0])
    summary = summarize(onorbit_latencies(graph, actuators))
    elapsed = time.perf_counter() - start
    return {"snapshot": snapshot, "graph": graph, "summary": summary, "seconds": elapsed}


@pytest.fixture(scope="module")
def combined_bundle(stations):
    source = ConstellationSource(walker_shells=PRESETS["combined"])
    snapshot = resolve_snapshot(source)
    graph = build_visibility_graph(snapshot, stations)
    actuators = select_actuators(snapshot, half_up_count(ACTUATOR_FRACTION, len(snapshot)), SEEDS[0])
    summary = summarize(onorbit_latencies(graph, actuators))
    return {"snapshot": snapshot, "graph": graph, "summary": summary}


def test_criterion_1_oneweb_analog_band(oneweb_bundle):
    means = oneweb_bundle["means"]
    avg = sum(means) / len(means)
    ok = 2.5 <= avg <= 7.0 and oneweb_bundle["seconds"] < 5.0
    report_line(
        1, ok,
        f"oneweb-like on-orbit mean {avg:.3f} ms over seeds {SEEDS} "
        f"(band [2.5, 7.0], reference 4.50), runtime {oneweb_bundle['seconds']:.2f}s < 5s",
    )


def test_criterion_2_starlink_analog_band(starlink_bundle):
    mean = starlink_bundle["summary"].mean_ms
    ok = 0.7 <= mean <= 2.5 and starlink_bundle["seconds"] < 60.0
    report_line(
        2, ok,
        f"starlink-like on-orbit mean {mean:.3f} ms (band [0.7, 2.5], reference 1.35), "
        f"build+route {starlink_bundle['seconds']:.1f}s < 60s",
    )


def test_criterion_3_combined_band_and_below_oneweb(combined_bundle, oneweb_bundle):
    mean = combined_bundle["summary"].mean_ms
    oneweb_avg = sum(oneweb_bundle["means"]) / len(oneweb_bundle["means"])
    ok = 0.8 <= mean <= 2.5 and mean < oneweb_avg
    report_line(
        3, ok,
        f"combined on-orbit mean {mean:.3f} ms (band [0.8, 2.5], reference 1.45) "
        f"and strictly below oneweb-analog {oneweb_avg:.3f} ms",
    )


def test_criterion_4_downhaul_dominates_onorbit(
    stations, oneweb_bundle, starlink_bundle, combined_bundle
):
    default_terminus = stations[0].geodetic
    greedy_means = {}
    details = []
    ok = True

    cases = {
        "oneweb": (oneweb_bundle["snapshot"], oneweb_bundle["graph"],
                   sum(oneweb_bundle["means"]) / len(oneweb_bundle["means"])),
        "starlink": (starlink_bundle["snapshot"], starlink_bundle["graph"],
                     starlink_bundle["summary"].mean_ms),
        "combined": (combined_bundle["snapshot"], combined_bundle["graph"],
                     combined_bundle["summary"].mean_ms),
    }
    for name, (snapshot, graph, onorbit_mean) in cases.items():
        greedy = summarize(
            downhaul_latencies(graph, stations, default_terminus,
                               ArchitectureMode.DOWNHAUL_GREEDY)
        ).mean_ms
        greedy_means[name] = greedy
        ratio = greedy / onorbit_mean
        ok &= ratio >= 5.0
        details.append(f"{name}: greedy {greedy:.2f} ms = {ratio:.1f}x on-orbit")

    # The terminus choice must not rescue the ordering: try two more.
    for terminus in (GeodeticPosition(0.0, 0.0, 0.0),
                     GeodeticPosition(-5.0, 160.0, 0.0)):
        snapshot, graph, onorbit_mean = cases["oneweb"]
        greedy = summarize(
            downhaul_latencies(graph, stations, terminus,
                               ArchitectureMode.DOWNHAUL_GREEDY)
        ).mean_ms
        ok &= greedy / onorbit_mean >= 5.0
        details.append(
            f"oneweb@({terminus.latitude_deg:.0f},{terminus.longitude_deg:.0f}): "
            f"{greedy / onorbit_mean:.1f}x"
        )

    pair_ratio = max(greedy_means["oneweb"], greedy_means["starlink"]) / min(
        greedy_means["oneweb"], greedy_means["starlink"]
    )
    ok &= pair_ratio <= 1.5
    details.append(f"single-shell greedy means within 50%: ratio {pair_ratio:.2f}")
    report_line(4, ok, "; ".join(details))


def test_criterion_5_trivial_actuator_endpoints(oneweb_bundle):
    snapshot, graph = oneweb_bundle["snapshot"], oneweb_bundle["graph"]
    none = onorbit_latencies(graph, select_actuators(snapshot, 0, SEEDS[0]))
    all_unreachable = all(not math.isfinite(latency) for latency in none.latency_ms)
    every = onorbit_latencies(graph, select_actuators(snapshot, len(snapshot), SEEDS[0]))
    mean = summarize(every).mean_ms
    ok = all_unreachable and mean == 0.0
    report_line(
        5, ok,
        f"fraction 0: {summarize(none).unreachable_count}/{len(none)} unreachable (exact); "
        f"fraction 1: mean exactly {mean}",
    )


def test_criterion_6_diminishing_returns():
    cfg = ScenarioConfig(
        constellation=ConstellationSource(walker_shells=PRESETS["oneweb-like"]),
        seed=SEEDS[0],
    )
    fractions = tuple(i / 20 for i in range(1, 21))
    points = actuator_sweep(replace(cfg, sweep_fractions=fractions))
    means = [p.summary.mean_ms for p in points]
    non_increasing = all(b <= a for a, b in zip(means, means[1:]))
    m10, m50, m100 = means[1], means[9], means[19]
    curvature = (m10 - m50) > (m50 - m100)
    ok = non_increasing and curvature and m100 == 0.0
    report_line(
        6, ok,
        f"sweep non-increasing exactly; mean@0.1 {m10:.3f} - mean@0.5 {m50:.3f} = "
        f"{m10 - m50:.3f} > mean@0.5 - mean@1.0 = {m50 - m100:.3f}",
    )


def test_criterion_7_oracle_equivalence(stations):
    mismatches = 0
    for seed in range(100):
        rng = random.Random(seed)
        snap = random_shell(seed, count=50)
        actuators = select_actuators(snap, rng.randint(0, 12), seed)
        graph = build_visibility_graph(snap, stations, threads=1)
        penalty = rng.choice([0.0, 0.0, 0.3, 1.1])
        engine = onorbit_latencies(graph, actuators, penalty)
        oracle = dijkstra_oracle(graph, snap, actuator_seed_rows(graph, actuators), penalty, exempt=True)
        if engine != oracle:
            mismatches += 1
        terminus = stations[0].geodetic
        greedy_engine = downhaul_latencies(
            graph, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY, penalty
        )
        greedy_oracle = dijkstra_oracle(
            graph, snap,
            downlink_seeds_oracle(graph, stations, terminus, ArchitectureMode.DOWNHAUL_GREEDY),
            penalty,
        )
        if greedy_engine != greedy_oracle:
            mismatches += 1
        optimal_engine = downhaul_latencies(
            graph, stations, terminus, ArchitectureMode.DOWNHAUL_OPTIMAL, penalty
        )
        if optimal_engine != dijkstra_oracle_optimal(graph, snap, stations, terminus, penalty):
            mismatches += 1

    rng = random.Random(424242)
    pairs = [(random_orbital_point(rng), random_orbital_point(rng)) for _ in range(7000)]
    pairs += [grazing_pair(rng, SEMI_MAJOR_A_KM + 550.0) for _ in range(1500)]
    pairs += [grazing_pair(rng, SEMI_MAJOR_A_KM + 1200.0) for _ in range(1500)]
    in_band = 0
    los_disagreements = 0
    for p, q in pairs:
        if abs(min_scaled_norm(p, q) - 1.0) <= 1e-6:
            in_band += 1
            continue
        if has_line_of_sight(p, q) != (not segment_blocked_by_sampling(p, q, samples=100_000)):
            los_disagreements += 1
    ok = mismatches == 0 and los_disagreements == 0
    report_line(
        7, ok,
        f"100 random 50-node instances x 3 modes: {mismatches} engine/Dijkstra-oracle "
        f"mismatches (exact compare); "
        f"LOS vs 1e5-sample oracle on {len(pairs)} pairs: {los_disagreements} disagreements "
        f"({in_band} pairs inside the 1e-6 band skipped)",
    )


def test_criterion_8_attack_properties(stations):
    source = ConstellationSource(walker_shells=PRESETS["oneweb-like"])
    downhaul_cfg = ScenarioConfig(
        constellation=source, stations_csv=os.path.abspath(STATIONS_FILE),
        mode=ArchitectureMode.DOWNHAUL_GREEDY, seed=SEEDS[0],
    )
    station_denial = AttackOverlay(disabled_stations=frozenset(s.id for s in stations))
    denial = attack_scenario(replace(downhaul_cfg, overlay=station_denial))
    total = denial.baseline.satellite_count
    denial_ok = (
        denial.attacked.unreachable_count == total
        and denial.availability_loss == total - denial.baseline.unreachable_count
        and denial.baseline.unreachable_count == 0
    )

    solo_cfg = ScenarioConfig(constellation=source, actuator_count=1, seed=SEEDS[0])
    snap = resolve_snapshot(source)
    solo_id = snap.ids[int(np.flatnonzero(select_actuators(snap, 1, SEEDS[0]))[0])]
    solo = attack_scenario(
        replace(solo_cfg, overlay=AttackOverlay(disabled_satellites=frozenset({solo_id})))
    )
    solo_ok = solo.attacked.unreachable_count == solo.attacked.satellite_count - 1

    rng = random.Random(777)
    ids = snap.ids
    station_ids = [s.id for s in stations]
    onorbit_cfg = ScenarioConfig(
        constellation=source, stations_csv=os.path.abspath(STATIONS_FILE), seed=SEEDS[1],
    )
    violations = 0
    for _ in range(50):
        overlay = AttackOverlay(
            disabled_satellites=frozenset(rng.sample(ids, rng.randint(0, 25))),
            disabled_stations=frozenset(rng.sample(station_ids, rng.randint(0, 4))),
            jam_regions=(
                JamRegion(
                    GeodeticPosition(rng.uniform(-85, 85), rng.uniform(-180, 180), 0.0),
                    rng.uniform(200.0, 2500.0),
                ),
            )
            if rng.random() < 0.6
            else (),
            reroute_penalty_ms=rng.choice([0.0, 0.0, 0.4]),
        )
        outcome = attack_scenario(replace(onorbit_cfg, overlay=overlay))
        if outcome.availability_loss < 0:
            violations += 1
        if outcome.delta_mean_ms is not None and outcome.delta_mean_ms < -1e-12:
            violations += 1
    ok = denial_ok and solo_ok and violations == 0
    report_line(
        8, ok,
        f"station denial: 100% availability loss ({denial.availability_loss}/{total}); "
        f"sole-actuator jam: {solo.attacked.unreachable_count}/{solo.attacked.satellite_count - 1} "
        f"others unreachable; 50 random overlays: {violations} monotonicity violations",
    )


def test_criterion_9_determinism_across_thread_counts(tmp_path):
    config = {
        "constellation": {"preset": "oneweb-like"},
        "stations_csv": os.path.abspath(STATIONS_FILE),
        "mode": "onorbit",
        "actuator_fraction": ACTUATOR_FRACTION,
        "seed": SEEDS[0],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        code = cli_run([
            "simulate", "--config", str(cfg_path), "--out", str(out),
            "--threads", str(threads), "--quiet",
        ])
        assert code == 0
        outputs[threads] = (
            (out / "report.csv").read_bytes(), (out / "summary.json").read_bytes()
        )
    ok = outputs[1] == outputs[4]
    report_line(
        9, ok,
        "report.csv and summary.json byte-identical for --threads 1 vs --threads 4 "
        f"({len(outputs[1][0])} + {len(outputs[1][1])} bytes)",
    )
