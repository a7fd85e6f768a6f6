"""Seeded inputs for the benchmark workloads.

Every file the program reads during a run (scenario configs, the station
list) is generated here from the workload seed; the same seed always gives
the same files.  Nothing here imports the program: shell sizes and
satellite ids follow the documented preset shapes and the Walker id format
``<prefix>-p<plane:03d>-s<slot:03d>``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

THREADS = 2
DEFAULT_SEED = 1
SWEEP_GRID = tuple(i / 20 for i in range(1, 21))  # the program's default grid
BATCH_COMMANDS = 100

# (id_prefix, planes, sats_per_plane) of the bundled presets.
PRESETS = {
    "starlink-like": (("sl", 72, 80),),
    "oneweb-like": (("ow", 18, 35),),
    "combined": (("sl", 72, 80), ("ow", 18, 35)),
}
# The self-test shell: 130 satellites (two row blocks, so the visibility build
# splits across threads), adjacent in-plane slots in view.
TINY_SHELL = {
    "altitude_km": 1000.0, "inclination_deg": 60.0, "planes": 10,
    "sats_per_plane": 13, "phasing_f": 1, "id_prefix": "tw", "label": "tiny",
}
TINY_SHELLS = (("tw", 10, 13),)

STATIONS_CSV = """id,lat_deg,lon_deg,alt_km
gs01,64.8,-147.7,0.2
gs02,37.9,-75.5,0.0
gs03,-33.1,-70.7,0.5
gs04,78.2,15.4,0.0
gs05,52.2,0.1,0.0
gs06,-25.9,27.7,1.4
gs07,36.0,139.0,0.0
gs08,-35.4,148.9,0.6
gs09,13.0,77.5,0.9
gs10,68.4,23.4,0.3
gs11,19.0,-155.6,3.7
gs12,-51.6,-69.3,0.0
gs13,1.3,103.8,0.0
"""
STATION_IDS = [line.split(",")[0] for line in STATIONS_CSV.splitlines()[1:]]

WORKLOAD_PRESET = {
    "sweep-starlink": "starlink-like",
    "attack-combined": "combined",
    "batch-oneweb": "oneweb-like",
}
WORKLOADS = tuple(WORKLOAD_PRESET)


@dataclass
class Command:
    """One CLI invocation of a workload round.

    ``argv`` lacks ``--out``; the round adds its own output directory.
    ``crosscheck`` holds ``simulate`` invocations whose report CSVs let the
    output check re-derive this command's statistics.
    """

    kind: str
    argv: list[str]
    config: dict
    crosscheck: list[list[str]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    preset: str
    shells: tuple  # (id_prefix, planes, sats_per_plane) per Walker shell
    sats: int
    routing_calls: int  # satellite-latency solves per round
    inputs_dir: str
    commands: list[Command]

    def sat_ids(self) -> list[str]:
        return _sat_ids(self.shells)


def _sat_ids(shells) -> list[str]:
    return [
        f"{prefix}-p{p:03d}-s{k:03d}"
        for prefix, planes, spp in shells
        for p in range(planes)
        for k in range(spp)
    ]


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _argv(kind: str, config_path: str) -> list[str]:
    return [kind, "--config", config_path, "--threads", str(THREADS), "--quiet"]


def make_workload(name: str, seed: int, inputs_dir: str, tiny: bool = False) -> Workload:
    """Write the workload's input files for ``seed`` and describe its round."""
    if name not in WORKLOAD_PRESET:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    os.makedirs(inputs_dir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    preset = "tiny" if tiny else WORKLOAD_PRESET[name]
    shells = TINY_SHELLS if tiny else PRESETS[preset]
    constellation = {"walker": TINY_SHELL} if tiny else {"preset": preset}
    sats = sum(planes * spp for _, planes, spp in shells)
    stations = os.path.join(inputs_dir, "stations.csv")
    with open(stations, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(STATIONS_CSV)
    base = {"constellation": constellation, "stations_csv": "stations.csv"}

    def config(stem: str, cfg: dict) -> str:
        return _write_config(os.path.join(inputs_dir, f"{stem}.json"), cfg)

    if name == "sweep-starlink":
        cfg = {**base, "mode": "onorbit", "seed": rng.getrandbits(64)}
        # Cross-check one grid point, drawn from the seed, with `simulate`.
        point = {**cfg, "actuator_fraction": rng.choice(SWEEP_GRID[:-1])}
        commands = [Command("sweep", _argv("sweep", config("sweep", cfg)), cfg,
                            [_argv("simulate", config("sweep_point", point))])]
        routing_calls = len(SWEEP_GRID)
    elif name == "attack-combined":
        overlay = _attack_overlay(rng, shells)
        cfg = {
            **base, "mode": "downhaul-greedy", "seed": rng.getrandbits(64),
            "actuator_fraction": 0.15,
            "reroute_penalty_ms": round(rng.uniform(0.1, 1.0), 3),
            "overlay": overlay,
        }
        baseline = {k: v for k, v in cfg.items() if k != "overlay"}
        commands = [Command("attack", _argv("attack", config("attack", cfg)), cfg, [
            _argv("simulate", config("attack_baseline", baseline)),
            _argv("simulate", config("attack_attacked", cfg)),
        ])]
        routing_calls = 2
    else:
        # One fraction per stratum of [0.05, 0.5], in seeded order, so every
        # seed covers the range alike and only the draws within strata vary.
        strata = rng.sample(range(BATCH_COMMANDS), BATCH_COMMANDS)
        commands = []
        for k in range(BATCH_COMMANDS):
            cfg = {
                **base, "mode": "downhaul-optimal", "seed": rng.getrandbits(64),
                "actuator_fraction": 0.05 + 0.45 * (strata[k] + rng.random()) / BATCH_COMMANDS,
            }
            commands.append(Command("compare", _argv("compare", config(f"compare_{k:03d}", cfg)), cfg))
        routing_calls = 2 * BATCH_COMMANDS
    return Workload(name, seed, preset, shells, sats, routing_calls,
                    os.path.abspath(inputs_dir), commands)


def _attack_overlay(rng: random.Random, shells) -> dict:
    """About 100 links between in-plane neighbours (always in line of sight),
    3 jam regions of roughly 1000 km, 20 disabled satellites and 2 disabled
    stations, plus a per-relay-hop monitoring penalty."""
    neighbour_links = [
        (f"{prefix}-p{p:03d}-s{k:03d}", f"{prefix}-p{p:03d}-s{(k + 1) % spp:03d}")
        for prefix, planes, spp in shells
        for p in range(planes)
        for k in range(spp)
    ]
    links = rng.sample(neighbour_links, min(100, len(neighbour_links) // 2))
    return {
        "disabled_links": [list(pair) for pair in links],
        "jam_regions": [
            {
                "lat_deg": round(rng.uniform(-60.0, 60.0), 3),
                "lon_deg": round(rng.uniform(-180.0, 180.0), 3),
                "radius_km": round(rng.uniform(900.0, 1100.0), 1),
            }
            for _ in range(3)
        ],
        "disabled_satellites": sorted(rng.sample(_sat_ids(shells), 20)),
        "disabled_stations": sorted(rng.sample(STATION_IDS, 2)),
        "reroute_penalty_ms": round(rng.uniform(0.5, 2.0), 3),
    }
