import contextlib
import fnmatch
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sda_netlab import experiments, topology
from sda_netlab.cli import _sweep_csv, run, validate_config
from sda_netlab.constellation import (
    ConstellationSnapshot, GroundStationNode, WalkerSpec, generate_walker, snapshot_to_csv,
)
from sda_netlab.experiments import PRESETS, ConstellationSource, ScenarioConfig, config_to_dict
from sda_netlab.geo import GeodeticPosition
from sda_netlab.routing import ArchitectureMode
from sda_netlab.topology import AttackOverlay, JamRegion
from oracle_utils import actuator_seed_rows, dijkstra_oracle, dijkstra_oracle_optimal, downlink_seeds_oracle

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def stations_csv(tmp_path):
    return write(
        tmp_path / "stations.csv",
        "id,lat_deg,lon_deg,alt_km\n"
        "gA,5,-20,0\ngB,48,2,0\ngC,-33,151,0\ngD,64,-21,0\ngE,-45,-70,0\n",
    )


def tiny_config(tmp_path, **extra):
    cfg = {
        "constellation": {"walker": {
            "altitude_km": 1200.0, "inclination_deg": 87.9,
            "planes": 4, "sats_per_plane": 8, "phasing_f": 1, "id_prefix": "t",
        }},
        "stations_csv": stations_csv(tmp_path),
        "mode": "onorbit",
        "actuator_fraction": 0.2,
        "seed": 7,
    }
    cfg.update(extra)
    return write(tmp_path / "scenario.json", json.dumps(cfg))


def test_validate_config_minimal_defaults(tmp_path):
    text = json.dumps({"constellation": {"preset": "oneweb-like"}})
    cfg, errors = validate_config(text, base_dir=str(tmp_path))
    assert errors == []
    assert cfg.actuator_fraction == 0.15
    assert cfg.seed == 0
    assert cfg.mode is ArchitectureMode.ON_ORBIT
    assert cfg.constellation.walker_shells[0].planes == 18

    text = json.dumps({"constellation": {"preset": "oneweb-like"}, "min_elevation_deg": None})
    cfg, errors = validate_config(text, base_dir=str(tmp_path))
    assert errors == [] and cfg.min_elevation_deg is None


def test_validate_config_reports_all_errors_at_once(tmp_path):
    text = json.dumps({
        "constellation": {"walker": {"altitude_km": 550}, "snapshot_csv": "x.csv"},
        "actuator_fraction": 1.5,
        "los_margin_km": -2,
        "bogus_key": 1,
        "mode": "teleport",
    })
    cfg, errors = validate_config(text, base_dir=str(tmp_path))
    assert cfg is None
    joined = "\n".join(errors)
    assert "bogus_key" in joined
    assert "actuator_fraction" in joined
    assert "los_margin_km" in joined
    assert "exactly one of preset / walker / snapshot_csv / tle_file" in joined
    assert "mode" in joined
    assert len(errors) >= 5


def test_validate_config_mutual_exclusion_and_missing_file(tmp_path):
    cfg, errors = validate_config(
        json.dumps({"constellation": {"snapshot_csv": "missing.csv"}}), base_dir=str(tmp_path)
    )
    assert cfg is None
    assert any("snapshot_csv" in e and "not found" in e for e in errors)

    cfg, errors = validate_config(
        json.dumps({
            "constellation": {"preset": "oneweb-like"},
            "actuator_fraction": 0.2,
            "actuator_count": 5,
        })
    )
    assert cfg is None
    assert any("mutually exclusive" in e for e in errors)


def test_validate_config_rejects_non_json():
    cfg, errors = validate_config("{not json")
    assert cfg is None and "not valid JSON" in errors[0]


SHELL = {"altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 4, "sats_per_plane": 8}
PRESET = {"constellation": {"preset": "oneweb-like"}}


def _preset(**extra):
    return {**PRESET, **extra}


def _walker(*shells):
    return {"constellation": {"walker": list(shells)}}


# Files the rejected configs name, by path relative to the config.
CORPUS_FILES = {
    "stations.csv": "id,lat_deg,lon_deg,alt_km\ngA,5,-20,0\n",
    "sats.csv": "id,x_km,y_km,z_km\na,7000,0,0\n",
    "sats.tle": "",
    "list.json": "[]",
    "broken.json": "{",
    "latin1.json": b"\xff",
    "typo.json": '{"disabled_sats": []}',
    "repeated.json": '{"disabled_satellites": [], "disabled_satellites": ["x"]}',
}

# One row per message the config stage prints: (id, config document or
# object, flags, the stderr lines without their "error: " prefix).  Every
# row exits 1; each names one problem, except the last rows.
REJECTED_CONFIGS = [
    ("not-json", "{not json", [],
     ["config: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"]),
    ("array-root", "[1]", [], ["config: must be an object"]),
    ("unknown-key", _preset(foo=1), [], ["foo: unknown key"]),
    # A repeated key is an error wherever it is; json.dumps cannot write one.
    ("duplicate-key", '{"constellation": {"preset": "oneweb-like"}, "seed": 1, "seed": 2}', [],
     ["seed: duplicate key"]),
    ("duplicate-preset", '{"constellation": {"preset": "oneweb-like", "preset": "combined"}}', [],
     ["constellation: preset: duplicate key"]),
    ("duplicate-walker-key",
     '{"constellation": {"walker": [{"altitude_km": 1200, "inclination_deg": 87.9, "planes": 4, '
     '"planes": 5, "sats_per_plane": 8}]}}', [],
     ["constellation.walker[0]: planes: duplicate key"]),
    ("duplicate-jam-key",
     '{"constellation": {"preset": "oneweb-like"}, '
     '"overlay": {"jam_regions": [{"lat_deg": 0, "lat_deg": 10, "lon_deg": 0, "radius_km": 500}]}}', [],
     ["overlay: jam_regions[0]: lat_deg: duplicate key"]),
    ("no-constellation", {}, [], ["constellation: required key is missing"]),
    ("constellation-not-object", {"constellation": "oneweb-like"}, [], ["constellation: must be an object"]),
    ("no-source", {"constellation": {}}, [],
     ["constellation: exactly one of preset / walker / snapshot_csv / tle_file must be given, found none"]),
    ("two-sources", {"constellation": {"preset": "oneweb-like", "tle_file": "sats.tle"}}, [],
     ["constellation: exactly one of preset / walker / snapshot_csv / tle_file must be given, "
      "found ['preset', 'tle_file']"]),
    ("constellation-unknown-keys", {"constellation": {"preset": "oneweb-like", "b": 1, "a": 2}}, [],
     ["constellation: a: unknown key"]),
    ("tle-epoch-without-tle", {"constellation": {"preset": "oneweb-like", "tle_at_seconds": 0}}, [],
     ["constellation: tle_at_seconds requires tle_file"]),
    ("unknown-preset", {"constellation": {"preset": "iridium"}}, [],
     ["constellation.preset: unknown preset 'iridium'"]),
    ("preset-not-string", {"constellation": {"preset": 5}}, [], ["constellation.preset: unknown preset 5"]),
    ("preset-unhashable", {"constellation": {"preset": ["oneweb-like"]}}, [],
     ["constellation.preset: unknown preset ['oneweb-like']"]),
    ("walker-not-object", _walker(SHELL, 5), [], ["constellation.walker[1]: must be an object"]),
    ("walker-unknown-key", _walker({**SHELL, "a": 1}), [], ["constellation.walker[0]: a: unknown key"]),
    ("walker-missing-key", _walker({k: v for k, v in SHELL.items() if k != "planes"}), [],
     ["constellation.walker[0]: planes: required key is missing"]),
    ("walker-empty", _walker(), [], ["constellation.walker: at least one shell is required"]),
    ("walker-string-number", _walker({**SHELL, "altitude_km": "550"}), [],
     ["constellation.walker[0]: altitude_km: must be a number, got '550'"]),
    ("walker-bool-number", _walker({**SHELL, "inclination_deg": True}), [],
     ["constellation.walker[0]: inclination_deg: must be a number, got True"]),
    ("walker-fractional-count", _walker(SHELL, {**SHELL, "planes": 2.7}), [],
     ["constellation.walker[1]: planes: must be an integer, got 2.7"]),
    ("walker-nan", _walker({**SHELL, "raan_offset_deg": math.nan}), [],
     ["constellation.walker[0]: raan_offset_deg: must be finite"]),
    ("walker-no-planes", _walker({**SHELL, "planes": 0}), [],
     ["constellation.walker[0]: planes and sats_per_plane must be >= 1"]),
    ("walker-phasing", _walker({**SHELL, "phasing_f": 4}), [],
     ["constellation.walker[0]: phasing_f must be in [0, 3], got 4"]),
    ("walker-altitude", _walker({**SHELL, "altitude_km": -10}), [],
     ["constellation.walker[0]: altitude_km must be positive"]),
    ("walker-id-prefix", _walker({**SHELL, "id_prefix": 5}), [],
     ["constellation.walker[0]: id_prefix: must be a string, got 5"]),
    ("walker-label", _walker({**SHELL, "label": None}), [],
     ["constellation.walker[0]: label: must be a string, got None"]),
    ("snapshot-not-string", {"constellation": {"snapshot_csv": 5}}, [],
     ["constellation.snapshot_csv: must be a string, got 5"]),
    ("snapshot-missing", {"constellation": {"snapshot_csv": "missing.csv"}}, [],
     ["constellation.snapshot_csv: file not found: missing.csv"]),
    ("tle-not-string", {"constellation": {"tle_file": ["a.tle"]}}, [],
     ["constellation.tle_file: must be a string, got ['a.tle']"]),
    ("tle-missing", {"constellation": {"tle_file": "missing.tle"}}, [],
     ["constellation.tle_file: file not found: missing.tle"]),
    ("tle-epoch-string", {"constellation": {"tle_file": "sats.tle", "tle_at_seconds": "abc"}}, [],
     ["constellation.tle_at_seconds: must be a number, got 'abc'"]),
    ("tle-epoch-infinite", {"constellation": {"tle_file": "sats.tle", "tle_at_seconds": math.inf}}, [],
     ["constellation.tle_at_seconds: must be finite"]),
    ("stations-not-string", _preset(stations_csv=5), [], ["stations_csv: must be a string, got 5"]),
    ("stations-missing", _preset(stations_csv="missing.csv"), [],
     ["stations_csv: file not found: missing.csv"]),
    ("terminus-not-object", _preset(terminus=[64.8, -147.7]), [], ["terminus: must be an object"]),
    ("terminus-missing-key", _preset(terminus={"lat_deg": 64.8}), [],
     ["terminus: lon_deg: required key is missing"]),
    ("terminus-misspelled-key", _preset(terminus={"lat_deg": 1, "lon_deg": 2, "altitude_km": 5}), [],
     ["terminus: altitude_km: unknown key"]),
    ("terminus-bool", _preset(terminus={"lat_deg": True, "lon_deg": 0}), [],
     ["terminus: lat_deg: must be a number, got True"]),
    ("terminus-infinite", _preset(terminus={"lat_deg": 0, "lon_deg": math.inf}), [],
     ["terminus: lon_deg: must be finite"]),
    ("terminus-latitude", _preset(terminus={"lat_deg": 100, "lon_deg": 0}), [],
     ["terminus: latitude must be in [-90, 90], got 100.0"]),
    ("terminus-altitude", _preset(terminus={"lat_deg": 0, "lon_deg": 0, "alt_km": -1}), [],
     ["terminus: altitude must be >= -0.5 km, got -1.0"]),
    ("mode-not-string", _preset(mode=5), [], ["mode: must be a string, got 5"]),
    ("mode-unknown", _preset(mode="teleport"), [],
     ["mode: unknown architecture mode 'teleport'; expected one of downhaul-greedy, downhaul-optimal, onorbit"]),
    ("fraction-range", _preset(actuator_fraction=1.5), [], ["actuator_fraction: must be in [0, 1], got 1.5"]),
    ("fraction-bool", _preset(actuator_fraction=True), [], ["actuator_fraction: must be a number, got True"]),
    ("count-fractional", _preset(actuator_count=1.5), [], ["actuator_count: must be an integer, got 1.5"]),
    ("count-negative", _preset(actuator_count=-1), [], ["actuator_count: must be >= 0, got -1"]),
    ("fraction-and-count", _preset(actuator_fraction=0.2, actuator_count=5), [],
     ["actuator_fraction: mutually exclusive with actuator_count"]),
    ("seed-bool", _preset(seed=True), [], ["seed: must be an integer, got True"]),
    ("seed-range", _preset(seed=2**64), [], [f"seed: must be an unsigned 64-bit integer, got {2**64}"]),
    ("margin-negative", _preset(los_margin_km=-2), [], ["los_margin_km: must be >= 0, got -2.0"]),
    ("margin-infinite", _preset(los_margin_km=math.inf), [], ["los_margin_km: must be finite"]),
    ("elevation-range", _preset(min_elevation_deg=1000), [],
     ["min_elevation_deg: must be in [-90, 90], got 1000.0"]),
    ("penalty-negative", _preset(reroute_penalty_ms=-1), [], ["reroute_penalty_ms: must be >= 0, got -1.0"]),
    # Until the penalty had an upper bound, 1e308 overflowed the relay labels
    # and the run ended as a runtime error (exit 2).
    ("penalty-huge", _preset(reroute_penalty_ms=1e308), [], ["reroute_penalty_ms: must be <= 1e+12, got 1e+308"]),
    ("sweep-not-array", _preset(sweep_fractions="0.5"), [],
     ["sweep_fractions: must be a non-empty array of numbers"]),
    ("sweep-string", _preset(sweep_fractions=["0.1", 0.2]), [],
     ["sweep_fractions[0]: must be a number, got '0.1'"]),
    ("sweep-range", _preset(sweep_fractions=[0.2, 1.4]), [], ["sweep_fractions: fraction 1.4 outside [0, 1]"]),
    ("sweep-order", _preset(sweep_fractions=[0.5, 0.2]), [], ["sweep_fractions: must be sorted ascending"]),
    ("overlay-not-object", _preset(overlay=5), [], ["overlay: must be a path or an object"]),
    ("overlay-missing", _preset(overlay="missing.json"), [], ["overlay: file not found: missing.json"]),
    ("overlay-file-not-json", _preset(overlay="broken.json"), [],
     ["overlay: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"]),
    ("overlay-file-not-utf8", _preset(overlay="latin1.json"), [],
     ["overlay: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"]),
    ("overlay-file-not-object", _preset(overlay="list.json"), [], ["overlay: must be an object"]),
    ("overlay-file-unknown-key", _preset(overlay="typo.json"), [], ["overlay: disabled_sats: unknown key"]),
    ("overlay-file-duplicate-key", _preset(overlay="repeated.json"), [],
     ["overlay: disabled_satellites: duplicate key"]),
    ("overlay-unknown-key", _preset(overlay={"x": 1}), [], ["overlay: x: unknown key"]),
    ("overlay-links-not-list", _preset(overlay={"disabled_links": 5}), [],
     ["overlay: disabled_links: must be a list, got 5"]),
    ("overlay-satellites-not-list", _preset(overlay={"disabled_satellites": 5}), [],
     ["overlay: disabled_satellites: must be a list, got 5"]),
    ("overlay-station-id", _preset(overlay={"disabled_stations": ["gA", 5, None]}), [],
     ["overlay: disabled_stations[1]: must be a string, got 5"]),
    ("overlay-link-not-pair", _preset(overlay={"disabled_links": ["solo"]}), [],
     ["overlay: disabled_links entries must be id pairs, got 'solo'"]),
    ("overlay-link-id", _preset(overlay={"disabled_links": [["a", "b"], ["a", 7]]}), [],
     ["overlay: disabled_links[1][1]: must be a string, got 7"]),
    ("jam-not-object", _preset(overlay={"jam_regions": [5]}), [],
     ["overlay: jam_regions[0]: must be an object"]),
    ("jam-missing-key", _preset(overlay={"jam_regions": [{"lat_deg": 0, "lon_deg": 0}]}), [],
     ["overlay: jam_regions[0]: radius_km: required key is missing"]),
    ("jam-misspelled-key",
     _preset(overlay={"jam_regions": [{"lat_deg": 0, "lon_deg": 0, "radius_km": 500, "alt_km": 1}]}), [],
     ["overlay: jam_regions[0]: alt_km: unknown key"]),
    ("jam-number", _preset(overlay={"jam_regions": [{"lat_deg": None, "lon_deg": 0, "radius_km": 500}]}), [],
     ["overlay: jam_regions[0]: lat_deg: must be a number, got None"]),
    ("jam-latitude", _preset(overlay={"jam_regions": [{"lat_deg": 100, "lon_deg": 0, "radius_km": 500}]}), [],
     ["overlay: jam_regions[0]: latitude must be in [-90, 90], got 100.0"]),
    ("jam-radius", _preset(overlay={"jam_regions": [{"lat_deg": 0, "lon_deg": 0, "radius_km": 0}]}), [],
     ["overlay: jam_regions[0]: jam radius must be positive, got 0.0"]),
    ("overlay-penalty-null", _preset(overlay={"reroute_penalty_ms": None}), [],
     ["overlay: reroute_penalty_ms: must be a number, got None"]),
    ("overlay-penalty-string", _preset(overlay={"reroute_penalty_ms": "1.5"}), [],
     ["overlay: reroute_penalty_ms: must be a number, got '1.5'"]),
    ("overlay-penalty-negative", _preset(overlay={"reroute_penalty_ms": -1}), [],
     ["overlay: reroute_penalty_ms: must be >= 0, got -1.0"]),
    ("overlay-penalty-huge", _preset(overlay={"reroute_penalty_ms": 1e308}), [],
     ["overlay: reroute_penalty_ms: must be <= 1e+12, got 1e+308"]),
    ("penalty-sum-huge", _preset(reroute_penalty_ms=6e11, overlay={"reroute_penalty_ms": 6e11}), [],
     ["reroute_penalty_ms: 600000000000.0 plus the overlay's 600000000000.0 must be <= 1e+12"]),
    ("many-problems", {
        "constellation": {"walker": {"altitude_km": 550}, "snapshot_csv": "x.csv"},
        "terminus": 5, "mode": "teleport", "actuator_fraction": 1.5, "los_margin_km": -2,
        "overlay": {"disabled_links": 5}, "zeta": 1, "bogus_key": 1,
    }, [], [
        "bogus_key: unknown key",
        "zeta: unknown key",
        "constellation: exactly one of preset / walker / snapshot_csv / tle_file must be given, "
        "found ['walker', 'snapshot_csv']",
        "terminus: must be an object",
        "mode: unknown architecture mode 'teleport'; expected one of downhaul-greedy, downhaul-optimal, onorbit",
        "overlay: disabled_links: must be a list, got 5",
        "actuator_fraction: must be in [0, 1], got 1.5",
        "los_margin_km: must be >= 0, got -2.0",
    ]),
    # A bad flag is reported before the config is read.
    ("bad-flag-and-config", _preset(foo=1), ["--seed", "abc"], ["--seed: must be an integer, got 'abc'"]),
    # A flag that overrides a key leaves the config's own errors as they are.
    ("mode-flag", _preset(mode=5, seed=-1), ["--mode", "onorbit"],
     ["mode: must be a string, got 5", "seed: must be an unsigned 64-bit integer, got -1"]),
]


def _write_corpus_files(tmp_path):
    for name, content in CORPUS_FILES.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            write(tmp_path / name, content)


def _config_text(config):
    return config if isinstance(config, str) else json.dumps(config)


@pytest.mark.parametrize(
    "config, flags, expected", [row[1:] for row in REJECTED_CONFIGS], ids=[row[0] for row in REJECTED_CONFIGS]
)
def test_rejected_configs_print_exactly_their_error_lines(tmp_path, capsys, config, flags, expected):
    _write_corpus_files(tmp_path)
    path = write(tmp_path / "scenario.json", _config_text(config))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--quiet", *flags]) == 1
    assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in expected)


def test_every_rejected_config_line_names_its_key():
    keyed = re.compile(r"^(--)?[A-Za-z_][A-Za-z0-9_.\[\]]*: ")
    for name, _, _, expected in REJECTED_CONFIGS:
        for line in expected:
            assert keyed.match(line), (name, line)


def test_validate_config_rejects_malformed_overlays_and_numbers(tmp_path):
    # validate_config itself returns the lines of every corpus row that sets no flag.
    _write_corpus_files(tmp_path)
    for name, config, flags, expected in REJECTED_CONFIGS:
        if not flags:
            assert validate_config(_config_text(config), base_dir=str(tmp_path)) == (None, expected), name


# Config documents that the JSON reader cannot read: (id, the config file's
# bytes, the keys its one error line may name).  Each ended as a traceback.
# The digit limit's message is Python's own, and a Python without the limit
# reads the number and rejects it as a seed.
UNREADABLE_CONFIGS = [
    ("config-not-utf8", b'{"constellation": {"preset": "oneweb-like"}, "seed": "\xff"}', "config"),
    ("config-integer-past-digit-limit", b'{"constellation": {"preset": "oneweb-like"}, "seed": ' + b"9" * 5000 + b"}",
     "config|seed"),
    ("config-nested-too-deep", b"[" * 100_000, "config"),
    ("overlay-file-nested-too-deep", b'{"constellation": {"preset": "oneweb-like"}, "overlay": "deep.json"}',
     "overlay"),
]


@pytest.mark.parametrize(
    "config, keys", [row[1:] for row in UNREADABLE_CONFIGS], ids=[row[0] for row in UNREADABLE_CONFIGS]
)
def test_a_config_that_cannot_be_read_is_one_keyed_error_line(tmp_path, capsys, config, keys):
    (tmp_path / "deep.json").write_bytes(b"[" * 100_000)
    (tmp_path / "scenario.json").write_bytes(config)
    assert run(["simulate", "--config", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "out"),
                "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.fullmatch(rf"error: ({keys}): [^\n]+\n", err), err


def test_an_unreadable_overlay_file_is_an_overlay_error(tmp_path, monkeypatch):
    def unreadable(path):
        raise PermissionError(13, "Permission denied", path)

    write(tmp_path / "overlay.json", "{}")
    monkeypatch.setattr(experiments, "_read", unreadable)
    text = json.dumps(_preset(overlay="overlay.json"))
    message = f"overlay: [Errno 13] Permission denied: {str(tmp_path / 'overlay.json')!r}"
    assert validate_config(text, base_dir=str(tmp_path)) == (None, [message])


@pytest.mark.parametrize("key", ["constellation.snapshot_csv", "constellation.tle_file", "stations_csv"])
def test_an_unreadable_input_file_is_an_error_of_its_key(tmp_path, monkeypatch, capsys, key):
    def unreadable(path):
        raise PermissionError(13, "Permission denied", path)

    path = write(tmp_path / "input", "")
    cfg = {"constellation": {"preset": "oneweb-like"}}
    if key == "stations_csv":
        cfg["stations_csv"] = path
    else:
        cfg["constellation"] = {key.split(".")[1]: path}
    monkeypatch.setattr(experiments, "_read", unreadable)
    config = write(tmp_path / "scenario.json", json.dumps(cfg))
    assert run(["simulate", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {key}: [Errno 13] Permission denied: {path!r}\n"


def test_validate_config_rejects_ids_and_paths_that_are_not_strings(tmp_path, capsys):
    base = {"constellation": {"preset": "oneweb-like"}}
    shell = {"altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 4, "sats_per_plane": 8}
    cases = [
        ({"constellation": {"walker": {**shell, "id_prefix": 5}}},
         "constellation.walker[0]: id_prefix: must be a string, got 5"),
        ({"constellation": {"walker": {**shell, "label": None}}},
         "constellation.walker[0]: label: must be a string, got None"),
        ({**base, "overlay": {"disabled_stations": ["gA", 5, None]}},
         "overlay: disabled_stations[1]: must be a string, got 5"),
        ({**base, "overlay": {"disabled_satellites": [None]}},
         "overlay: disabled_satellites[0]: must be a string, got None"),
        ({**base, "overlay": {"disabled_links": [["a", "b"], ["a", 7]]}},
         "overlay: disabled_links[1][1]: must be a string, got 7"),
        ({**base, "stations_csv": 5}, "stations_csv: must be a string, got 5"),
        ({"constellation": {"snapshot_csv": 5}}, "constellation.snapshot_csv: must be a string, got 5"),
        ({"constellation": {"tle_file": ["a.tle"]}},
         "constellation.tle_file: must be a string, got ['a.tle']"),
        ({**base, "mode": 5}, "mode: must be a string, got 5"),
    ]
    for payload, message in cases:
        cfg, errors = validate_config(json.dumps(payload), base_dir=str(tmp_path))
        assert (cfg, errors) == (None, [message])

    cfg = tiny_config(tmp_path, overlay={"disabled_stations": [5, None]})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: overlay: disabled_stations[0]: must be a string, got 5\n"


def test_validate_config_range_checks_min_elevation(tmp_path, capsys):
    for raw in (-90, 0.5, 90):
        cfg, errors = validate_config(json.dumps({"constellation": {"preset": "oneweb-like"},
                                                  "min_elevation_deg": raw}))
        assert errors == [] and cfg.min_elevation_deg == raw
    for raw in (1000, -90.5):
        cfg, errors = validate_config(json.dumps({"constellation": {"preset": "oneweb-like"},
                                                  "min_elevation_deg": raw}))
        assert (cfg, errors) == (None, [f"min_elevation_deg: must be in [-90, 90], got {float(raw)}"])

    cfg = tiny_config(tmp_path, min_elevation_deg=1000)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: min_elevation_deg: must be in [-90, 90], got 1000.0\n"


def test_cli_reports_a_wrong_typed_overlay_field_as_an_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path, overlay={"disabled_links": 5})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: overlay: disabled_links: must be a list, got 5\n"


def test_cli_rejects_station_ids_that_collide(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    write(tmp_path / "stations.csv", "id,lat_deg,lon_deg,alt_km\ngA,5,-20,0\nt-p000-s003,48,2,0\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: stations_csv: station id 't-p000-s003' is a satellite id\n"


def test_a_station_may_be_named_terminus(tmp_path):
    # No output names a terminus node, so the name is free for a station.
    cfg = tiny_config(tmp_path)
    write(tmp_path / "stations.csv", "id,lat_deg,lon_deg,alt_km\ngA,5,-20,0\nterminus,48,2,0\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--mode", "downhaul-greedy", "--out", str(out), "--quiet"]) == 0
    assert ",terminus\n" in (out / "report.csv").read_text()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _or_any_json(valid):
    """A plausible value three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: _JSON if k == 0 else valid)


def _schema(required=(), **fields):
    """Objects over the schema's keys; the ``required`` ones always present."""
    return st.fixed_dictionaries(
        {key: _or_any_json(fields[key]) for key in required},
        optional={key: _or_any_json(v) for key, v in fields.items() if key not in required},
    )


_UNIT = st.floats(0.0, 1.0)
_WALKER = _schema(
    ("altitude_km", "inclination_deg", "planes", "sats_per_plane"),
    altitude_km=st.floats(-10.0, 2000.0), inclination_deg=st.floats(0.0, 180.0),
    planes=st.integers(0, 6), sats_per_plane=st.integers(0, 6), phasing_f=st.integers(0, 6),
    raan_offset_deg=st.floats(0.0, 360.0), id_prefix=st.text(max_size=3), label=st.text(max_size=3),
)
_CONFIG = _schema(
    ("constellation",),
    constellation=st.one_of(
        _schema(("preset",), preset=st.sampled_from(tuple(PRESETS))),
        _schema(("walker",), walker=_WALKER | st.lists(_WALKER, max_size=2)),
        _schema(
            preset=st.sampled_from(tuple(PRESETS)), walker=_WALKER,
            snapshot_csv=st.text(max_size=4), tle_file=st.text(max_size=4), tle_at_seconds=st.floats(),
        ),
    ),
    stations_csv=st.none(),
    terminus=_schema(
        ("lat_deg", "lon_deg"),
        lat_deg=st.floats(-100.0, 100.0), lon_deg=st.floats(-400.0, 400.0), alt_km=st.floats(-1.0, 9.0),
    ),
    mode=st.sampled_from([m.value for m in ArchitectureMode]),
    actuator_fraction=_UNIT,
    actuator_count=st.integers(0, 50),
    seed=st.integers(0, 2**64 - 1),
    los_margin_km=st.floats(0.0, 50.0),
    min_elevation_deg=st.none() | st.floats(-10.0, 90.0),
    reroute_penalty_ms=st.floats(0.0, 5.0),
    overlay=_schema(
        disabled_satellites=st.lists(st.text(max_size=3), max_size=2),
        disabled_stations=st.lists(st.text(max_size=3), max_size=2),
        disabled_links=st.lists(st.lists(st.text(max_size=3), min_size=2, max_size=2), max_size=2),
        jam_regions=st.lists(
            _schema(("lat_deg", "lon_deg", "radius_km"),
                    lat_deg=st.floats(-90.0, 90.0), lon_deg=st.floats(-180.0, 180.0),
                    radius_km=st.floats(-10.0, 3000.0)),
            max_size=2,
        ),
        reroute_penalty_ms=st.floats(0.0, 5.0),
    ),
    sweep_fractions=st.lists(_UNIT, min_size=1, max_size=3).map(sorted),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_CONFIG)
def test_validate_config_returns_a_config_or_errors_and_never_raises(tmp_path, payload):
    cfg, errors = validate_config(json.dumps(payload), base_dir=str(tmp_path))
    if cfg is None:
        assert errors and all(isinstance(e, str) for e in errors)
    else:
        assert errors == []


def _around(lo, hi, step):
    """Finite numbers on both sides of [lo, hi], the bounds themselves included."""
    kind = st.integers if isinstance(step, int) else st.floats
    return st.sampled_from([lo, hi]) | kind(lo - step, lo + step) | kind(hi - step, hi + step)


_FIELDS = st.fixed_dictionaries({}, optional={
    "actuator_fraction": _around(0.0, 1.0, 0.5),
    "actuator_count": _around(0, 630, 3),
    "seed": _around(0, 2**64 - 1, 3),
    "los_margin_km": _around(0.0, 0.0, 5.0),
    "min_elevation_deg": _around(-90.0, 90.0, 1000.0),
    "reroute_penalty_ms": _around(0.0, 1e12, 5.0),
    "sweep_fractions": st.lists(_around(0.0, 1.0, 0.5), max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(fields=_FIELDS)
def test_python_and_json_configs_obey_the_same_rules(fields):
    validated, errors = validate_config(json.dumps({"constellation": {"preset": "oneweb-like"}, **fields}))
    source = ConstellationSource(walker_shells=list(PRESETS["oneweb-like"]))
    try:
        direct = ScenarioConfig(constellation=source, **fields)  # lists and ints as drawn
    except ValueError as exc:
        assert validated is None and str(exc) in errors, (exc, errors)
    else:
        assert errors == [] and validated == direct
        assert json.dumps(config_to_dict(direct)) == json.dumps(config_to_dict(validated))
        assert hash(direct) == hash(validated)


def test_a_python_built_mode_is_the_mode_member_and_obeys_the_json_rule():
    source = ConstellationSource(walker_shells=(WalkerSpec(1200.0, 87.9, 4, 8, phasing_f=1, id_prefix="t"),))
    cfg = ScenarioConfig(constellation=source, mode="onorbit")
    assert cfg.mode is ArchitectureMode.ON_ORBIT
    assert config_to_dict(cfg) == config_to_dict(ScenarioConfig(constellation=source))
    # The name routes as its member: on-orbit needs no ground station.
    assert experiments.run_scenario(cfg, threads=1).summary == experiments.run_scenario(
        ScenarioConfig(constellation=source), threads=1
    ).summary
    _, errors = validate_config(json.dumps({"constellation": {"preset": "oneweb-like"}, "mode": "x"}))
    with pytest.raises(ValueError) as exc:
        ScenarioConfig(constellation=source, mode="x")
    assert errors == [str(exc.value)]


_WALKER_NUMBER = st.integers(-2, 40) | st.floats(-100.0, 2000.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan, True, "4", 2.5, None]
)


_GEO_NUMBER = st.integers(-400, 400) | st.floats(-400.0, 400.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan, True, "4", None, 10**400, -0.5, -0.6, 90.0, -90.5]
)
_ID = st.text(max_size=2) | st.sampled_from([5, None, 1.5, ["a"]])
_IDS = st.lists(_ID, max_size=3) | _ID
_PRESET = {"preset": "oneweb-like"}

# Each input a user writes as a JSON object: how to draw the object, the
# config that holds it, the key that prefixes its errors, how Python builds
# it from the same values, and where the validated config holds it.
_TWINS = {
    "walker-shell": (
        st.fixed_dictionaries(
            {key: _WALKER_NUMBER for key in ("altitude_km", "inclination_deg", "planes", "sats_per_plane")},
            optional={"phasing_f": _WALKER_NUMBER, "raan_offset_deg": _WALKER_NUMBER, "id_prefix": _ID,
                      "label": _ID},
        ),
        lambda raw: {"constellation": {"walker": raw}},
        "constellation.walker[0]",
        lambda raw: WalkerSpec(**raw),
        lambda cfg: cfg.constellation.walker_shells[0],
    ),
    "terminus": (
        st.fixed_dictionaries({"lat_deg": _GEO_NUMBER, "lon_deg": _GEO_NUMBER}, optional={"alt_km": _GEO_NUMBER}),
        lambda raw: {"constellation": _PRESET, "terminus": raw},
        "terminus",
        lambda raw: GeodeticPosition(raw["lat_deg"], raw["lon_deg"], raw.get("alt_km", 0.0)),
        lambda cfg: cfg.terminus,
    ),
    "jam-region": (
        st.fixed_dictionaries({key: _GEO_NUMBER for key in ("lat_deg", "lon_deg", "radius_km")}),
        lambda raw: {"constellation": _PRESET, "overlay": {"jam_regions": [raw]}},
        "overlay: jam_regions[0]",
        lambda raw: JamRegion(GeodeticPosition(raw["lat_deg"], raw["lon_deg"]), raw["radius_km"]),
        lambda cfg: cfg.overlay.jam_regions[0],
    ),
    "overlay-ids": (
        st.fixed_dictionaries({}, optional={
            "disabled_satellites": _IDS, "disabled_stations": _IDS,
            "disabled_links": st.lists(_IDS, max_size=3) | _ID,
        }),
        lambda raw: {"constellation": _PRESET, "overlay": raw},
        "overlay",
        lambda raw: AttackOverlay(**raw),
        lambda cfg: cfg.overlay,
    ),
}


@pytest.mark.parametrize("name", _TWINS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_python_and_json_walker_shells_obey_the_same_rules(name, data):
    # Built in Python, an input raises the error validate_config reports for
    # its JSON twin, without the key, or it equals the validated value.
    draw, config, key, build, held = _TWINS[name]
    raw = data.draw(draw)
    validated, errors = validate_config(json.dumps(config(raw)))
    try:
        value = build(raw)
    except ValueError as exc:
        assert validated is None and errors == [f"{key}: {exc}"], (exc, errors)
    else:
        assert errors == [] and held(validated) == value


def test_a_python_built_terminus_echoes_its_json_twin():
    source = ConstellationSource(walker_shells=PRESETS["oneweb-like"])
    direct = ScenarioConfig(constellation=source, terminus=GeodeticPosition(10, 20))
    terminus = {"lat_deg": 10, "lon_deg": 20}
    validated, errors = validate_config(json.dumps({"constellation": _PRESET, "terminus": terminus}))
    assert errors == [] and direct == validated
    # The echo said `"lat_deg": 10` where the JSON twin's says `10.0`.
    assert json.dumps(config_to_dict(direct)) == json.dumps(config_to_dict(validated))
    assert json.dumps(config_to_dict(direct)["terminus"]) == '{"lat_deg": 10.0, "lon_deg": 20.0, "alt_km": 0.0}'


@pytest.mark.parametrize("build, message", [
    (lambda: WalkerSpec(550.0, math.inf, 2, 2), "inclination_deg: must be finite"),
    (lambda: WalkerSpec(550.0, 53.0, 2.5, 2), "planes: must be an integer, got 2.5"),
    (lambda: WalkerSpec(True, 53.0, 2, 2), "altitude_km: must be a number, got True"),
    (lambda: ConstellationSource(tle_file="x", tle_at_seconds=math.nan), "tle_at_seconds: must be finite"),
    (lambda: GeodeticPosition("10", 20), "lat_deg: must be a number, got '10'"),
    (lambda: JamRegion(GeodeticPosition(0.0, math.inf), 300.0), "lon_deg: must be finite"),
], ids=["infinite-inclination", "fractional-planes", "bool-altitude", "nan-tle-epoch", "string-latitude",
        "infinite-jam-longitude"])
def test_python_built_sources_obey_the_json_number_rule(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: AttackOverlay(disabled_satellites={5}), "disabled_satellites[0]: must be a string, got 5"),
    (lambda: AttackOverlay(disabled_links=[("a",)]), "disabled_links entries must be id pairs, got ('a',)"),
    (lambda: AttackOverlay(disabled_stations="gA"), "disabled_stations: must be a list, got 'gA'"),
    (lambda: ConstellationSnapshot(("",), [(7000.0, 0.0, 0.0)]), "empty satellite id"),
    (lambda: GroundStationNode("a,b", GeodeticPosition(10.0, 20.0)),
     "station id 'a,b' must not contain a comma or a line break, nor start or end with whitespace"),
    (lambda: GroundStationNode("", GeodeticPosition(10.0, 20.0)), "empty station id"),
    (lambda: GroundStationNode("a", GeodeticPosition(10.0, 20.0, 500.0)),
     "station altitude must be in [-0.5, 9] km, got 500.0"),
    (lambda: GroundStationNode("", GeodeticPosition(10.0, 20.0, 500.0)),
     "station altitude must be in [-0.5, 9] km, got 500.0"),
], ids=["int-overlay-id", "one-id-link", "string-overlay-ids", "empty-satellite-id", "comma-station-id",
        "empty-station-id", "high-station", "high-station-empty-id"])
def test_python_built_ids_obey_the_file_rules(build, message):
    # Each of these was accepted, or failed with a TypeError, until the
    # types held the rules that only the file readers ran.
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build, twin, key", [
    (lambda: ConstellationSource(snapshot_csv=0), {"constellation": {"snapshot_csv": 0}}, "constellation."),
    (lambda: ConstellationSource(tle_file=["a.tle"]), {"constellation": {"tle_file": ["a.tle"]}}, "constellation."),
    (lambda: ScenarioConfig(ConstellationSource(PRESETS["oneweb-like"]), stations_csv=0),
     {"constellation": _PRESET, "stations_csv": 0}, ""),
], ids=["snapshot-fd", "tle-list", "stations-fd"])
def test_python_built_paths_obey_the_json_string_rule(build, twin, key):
    # Each was accepted; snapshot_csv=0 then read file descriptor 0 (stdin).
    with pytest.raises(ValueError) as exc:
        build()
    assert validate_config(json.dumps(twin)) == (None, [f"{key}{exc.value}"])


def test_an_overlay_path_needs_an_overlay():
    # The path was echoed as the overlay into summary.json, yet no overlay applied.
    source = ConstellationSource(PRESETS["oneweb-like"])
    with pytest.raises(ValueError, match=r"^overlay_path: requires an overlay$"):
        ScenarioConfig(source, overlay_path="/x.json")
    with pytest.raises(ValueError, match=r"^overlay_path: must be a string, got 5$"):
        ScenarioConfig(source, overlay=AttackOverlay(), overlay_path=5)
    cfg = ScenarioConfig(source, overlay=AttackOverlay(), overlay_path="/x.json")
    assert config_to_dict(cfg)["overlay"] == "/x.json"


_NO_STATIONS = {"stations_csv": None, "terminus": {"lat_deg": 64.8, "lon_deg": -147.7}}


@pytest.mark.parametrize("command, extra, flags, expected", [
    ("simulate", {"overlay": {"disabled_satellites": ["nope"]}}, [],
     "overlay: names unknown satellites: nope"),
    ("attack", {"overlay": {"disabled_stations": ["nope"]}}, [],
     "overlay: names unknown stations: nope"),
    ("sweep", {"overlay": {"disabled_links": [["gA", "nope"]]}}, [],
     "overlay: link names unknown node: nope"),
    ("attack", {"overlay": {"reroute_penalty_ms": -1}}, [],
     "overlay: reroute_penalty_ms: must be >= 0, got -1.0"),
    ("simulate", {}, ["--seed", str(2**64)],
     f"--seed: must be an unsigned 64-bit integer, got {2**64}"),
    ("simulate", {}, ["--threads", "0"], "--threads: must be >= 1, got 0"),
    ("generate", {"constellation": {"snapshot_csv": "header_only.csv"}}, [],
     "constellation.snapshot_csv: snapshot must contain at least one satellite"),
    ("simulate", _NO_STATIONS, ["--mode", "downhaul-greedy"],
     "stations_csv: downhaul modes need at least one ground station"),
    ("compare", _NO_STATIONS, [], "stations_csv: downhaul modes need at least one ground station"),
    ("simulate", {"min_elevation_deg": 1000}, [], "min_elevation_deg: must be in [-90, 90], got 1000.0"),
    ("simulate", {"los_margin_km": math.inf}, [], "los_margin_km: must be finite"),
    ("sweep", {"sweep_fractions": []}, [], "sweep_fractions: must be a non-empty array of numbers"),
    ("simulate", {}, ["--seed", "abc"], "--seed: must be an integer, got 'abc'"),
    ("simulate", {}, ["--threads", "x"], "--threads: must be an integer, got 'x'"),
    ("simulate", {"foo": 1}, [], "foo: unknown key"),
], ids=["overlay-satellite", "overlay-station", "overlay-link", "overlay-penalty", "seed-flag",
        "threads-flag", "header-only-snapshot", "downhaul-no-stations",
        "compare-no-stations", "min-elevation", "infinite-margin", "empty-sweep",
        "non-integer-seed", "non-integer-threads", "unknown-top-key"])
def test_every_rejected_input_ends_as_keyed_error_lines(
    tmp_path, capsys, command, extra, flags, expected
):
    write(tmp_path / "header_only.csv", "id,x_km,y_km,z_km\n")
    cfg = tiny_config(tmp_path, **extra)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet", *flags]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(re.match(r"^error: (--)?[A-Za-z_][\w.\[\]-]*: ", line) for line in err.splitlines()), err
    assert err == f"error: {expected}\n"


def test_an_out_that_cannot_be_created_is_a_flag_error(tmp_path, capsys):
    out = write(tmp_path / "out", "a file, not a directory")
    cfg = tiny_config(tmp_path)
    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: --out: [Errno 17] File exists: {out!r}\n"


@pytest.mark.parametrize("command, blocked", [("simulate", "report.csv"), ("compare", "report_onorbit.csv")])
def test_an_output_path_that_is_a_directory_fails_before_any_work_and_writes_nothing(
    tmp_path, monkeypatch, capsys, command, blocked
):
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(experiments, "build_visibility_graph", no_build)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = tiny_config(tmp_path)
    assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    path = str(out / blocked)
    assert capsys.readouterr().err == f"error: --out: [Errno 21] Is a directory: {path!r}\n"
    assert [p.name for p in out.iterdir()] == [blocked]


def test_an_output_file_that_may_not_be_written_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # The summary exists and may not be written; the report does not exist
    # yet, so its directory is what must be writable.
    out = tmp_path / "out"
    out.mkdir()
    summary = write(out / "summary.json", "kept")
    cfg = tiny_config(tmp_path)
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: path != summary and access(path, mode))
    assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: --out: [Errno 13] Permission denied: {summary!r}\n"
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    assert (out / "summary.json").read_text() == "kept"
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(out) and access(path, mode))
    assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = str(out / "report.csv")
    assert capsys.readouterr().err == f"error: --out: [Errno 13] Permission denied: {report!r}\n"


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare", "attack"])
def test_overlay_ids_are_checked_before_the_graph_build(tmp_path, monkeypatch, capsys, command):
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(experiments, "build_visibility_graph", no_build)
    cfg = tiny_config(tmp_path, overlay={"disabled_satellites": ["t-p000-s000", "nope"]})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: overlay: names unknown satellites: nope\n"


def test_compare_writes_what_two_simulate_runs_write(tmp_path):
    # The overlay disables two stations and adds a relay penalty, so it
    # changes both architectures' reports.
    overlay = {"disabled_stations": ["gA", "gB"], "reroute_penalty_ms": 0.5}
    cfg = tiny_config(tmp_path, overlay=overlay)
    out = tmp_path / "compare"
    assert run(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    compared = json.loads((out / "summary.json").read_text())
    for mode, block in (("downhaul-greedy", "downhaul"), ("onorbit", "onorbit")):
        sim = tmp_path / mode
        assert run(["simulate", "--config", cfg, "--out", str(sim), "--mode", mode, "--quiet"]) == 0
        assert (out / f"report_{block}.csv").read_bytes() == (sim / "report.csv").read_bytes()
        simulated = json.loads((sim / "summary.json").read_text())
        del simulated["config"]
        assert compared[block] == simulated


@pytest.mark.parametrize("argv, derived", [
    # A downhaul mode never reads the light hops, with or without an overlay.
    *((["simulate", "attack_links_oneweb.json", "--mode", mode], 0) for mode in ("downhaul-greedy", "downhaul-optimal")),
    *((["attack", "attack_links_oneweb.json", "--mode", mode], 0) for mode in ("downhaul-greedy", "downhaul-optimal")),
    # The sweep points share one graph and derive its light hops once.
    (["sweep", "oneweb_like.json", "--threads", "2"], 1),
    # The overlaid graph is a graph of its own, so it derives its own.
    (["attack", "attack_links_oneweb.json", "--mode", "onorbit"], 2),
])
def test_the_light_hops_are_derived_only_where_an_on_orbit_solve_reads_them(tmp_path, monkeypatch, argv, derived):
    derive, adjacencies = topology._light_hops, []

    def counted(adjacency):
        adjacencies.append(adjacency)
        return derive(adjacency)

    monkeypatch.setattr(topology, "_light_hops", counted)
    command, config, *flags = argv
    assert run([command, "--config", os.path.join(CONFIG_DIR, config), "--out", str(tmp_path), "--quiet",
                *flags]) == 0
    assert len(adjacencies) == derived
    assert len({id(adjacency) for adjacency in adjacencies}) == derived


def test_a_satellite_on_its_station_is_invisible_without_a_numpy_warning(tmp_path, capsys):
    # The station stands 9 km up on the equator at longitude 0, where the
    # satellite is: the elevation mask divided 0 by 0 there, and numpy warned.
    write(tmp_path / "sats.csv", "id,x_km,y_km,z_km\non,6387.137,0,0\n")
    write(tmp_path / "stations.csv", "id,lat_deg,lon_deg,alt_km\ng,0,0,9\n")
    cfg = write(tmp_path / "scenario.json", json.dumps({
        "constellation": {"snapshot_csv": "sats.csv"}, "stations_csv": "stations.csv", "min_elevation_deg": 5,
    }))
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    station = GroundStationNode("g", GeodeticPosition(0.0, 0.0, 9.0))
    assert station.ecef.as_tuple() == (6387.137, 0.0, 0.0)
    graph = topology.build_visibility_graph(ConstellationSnapshot(("on",), [(6387.137, 0.0, 0.0)]), [station],
                                            min_elevation_deg=5.0)
    assert graph.station_edges.shape == (0, 2)


def test_cli_rejects_a_non_numeric_tle_epoch(tmp_path, capsys):
    tle = write(tmp_path / "sats.tle", "")
    cfg = write(tmp_path / "tle.json", json.dumps({
        "constellation": {"tle_file": tle, "tle_at_seconds": "abc"},
    }))
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: constellation.tle_at_seconds: must be a number, got 'abc'\n"


def test_validate_config_rejects_non_integral_walker_counts(tmp_path, capsys):
    shell = {"altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 4, "sats_per_plane": 8}
    cases = [("planes", 2.7), ("sats_per_plane", True), ("phasing_f", 1.5), ("planes", "4")]
    for key, raw in cases:
        text = json.dumps({"constellation": {"walker": [shell, {**shell, key: raw}]}})
        cfg, errors = validate_config(text)
        assert cfg is None
        assert errors == [f"constellation.walker[1]: {key}: must be an integer, got {raw!r}"]

    bad = write(tmp_path / "planes.json", json.dumps({"constellation": {"walker": {**shell, "planes": 2.7}}}))
    assert run(["generate", "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: constellation.walker[0]: planes: must be an integer, got 2.7\n"


def test_cli_generate_and_simulate(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    snapshot = (out / "snapshot.csv").read_text()
    assert snapshot.splitlines()[0] == "id,x_km,y_km,z_km"
    assert len(snapshot.splitlines()) == 33

    assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "sat_id,latency_ms,hops,terminal"
    assert len(report) == 33
    summary = json.loads((out / "summary.json").read_text())
    assert summary["satellite_count"] == 32
    assert summary["config"]["seed"] == 7


def test_cli_simulate_full_actuators_mean_zero(tmp_path):
    cfg = tiny_config(tmp_path, actuator_fraction=1.0)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_ms"] == 0.0


_ECHO_SHELL = st.fixed_dictionaries(
    {"altitude_km": st.floats(300.0, 2000.0), "inclination_deg": st.floats(0.0, 180.0),
     "planes": st.integers(1, 6), "sats_per_plane": st.integers(1, 6)},
    optional={"phasing_f": st.just(0), "raan_offset_deg": st.floats(0.0, 360.0),
              "id_prefix": st.text(max_size=3), "label": st.text(max_size=3)},
)
_ECHO_CONFIG = st.fixed_dictionaries(
    {"constellation": st.one_of(
        st.fixed_dictionaries({"preset": st.sampled_from(tuple(PRESETS))}),
        st.fixed_dictionaries({"walker": _ECHO_SHELL | st.lists(_ECHO_SHELL, min_size=1, max_size=2)}),
        st.just({"snapshot_csv": "sats.csv"}),
        st.fixed_dictionaries({"tle_file": st.just("sats.tle")},
                              optional={"tle_at_seconds": st.none() | st.floats(-1e6, 1e6)}),
    )},
    optional={
        "stations_csv": st.none() | st.just("stations.csv"),
        "terminus": st.none() | st.fixed_dictionaries(
            {"lat_deg": st.floats(-90.0, 90.0), "lon_deg": st.floats(-400.0, 400.0)},
            optional={"alt_km": st.floats(-0.5, 9.0)},
        ),
        "mode": st.sampled_from([m.value for m in ArchitectureMode]),
        "actuator_fraction": st.none() | st.floats(0.0, 1.0),
        "seed": st.integers(0, 2**64 - 1),
        "los_margin_km": st.floats(0.0, 50.0),
        "min_elevation_deg": st.none() | st.floats(-90.0, 90.0),
        "reroute_penalty_ms": st.floats(0.0, 5.0),
        "sweep_fractions": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(sorted),
    },
)
_ECHO_OVERLAY = st.fixed_dictionaries({}, optional={
    "disabled_satellites": st.lists(st.text(max_size=3), max_size=2),
    "disabled_stations": st.lists(st.text(max_size=3), max_size=2),
    "disabled_links": st.lists(st.lists(st.text(max_size=3), min_size=2, max_size=2), max_size=2),
    "jam_regions": st.lists(st.fixed_dictionaries({
        "lat_deg": st.floats(-90.0, 90.0), "lon_deg": st.floats(-400.0, 400.0),
        "radius_km": st.floats(1.0, 3000.0),
    }), max_size=2),
    "reroute_penalty_ms": st.floats(0.0, 5.0),
})


@settings(max_examples=200, deadline=None)
@given(config=_ECHO_CONFIG, overlay_at=st.sampled_from([None, "inline", "path"]), overlay=_ECHO_OVERLAY)
def test_cli_summary_config_echo_revalidates_to_same_config(config, overlay_at, overlay):
    # The echo summary.json carries is config_to_dict of the run's config.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name in ("sats.csv", "sats.tle", "stations.csv"):
            write(tmp / name, "")
        if overlay_at == "inline":
            config["overlay"] = overlay
        elif overlay_at == "path":
            write(tmp / "overlay.json", json.dumps(overlay))
            config["overlay"] = "overlay.json"
        cfg, errors = validate_config(json.dumps(config), base_dir=str(tmp))
        assert errors == []
        echo = config_to_dict(cfg)
        again, errors = validate_config(json.dumps(echo, allow_nan=False), base_dir=str(tmp / "elsewhere"))
        assert errors == [] and again == cfg
        assert config_to_dict(again) == echo


ISS_TLE = (
    "ISS\n"
    "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992\n"
    "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298\n"
)
TINY_SHELL = {"altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 4, "sats_per_plane": 8, "phasing_f": 1}
ECHO_OVERLAY = {
    "disabled_satellites": ["t-p000-s001"], "disabled_links": [["gB", "t-p001-s002"]],
    "jam_regions": [{"lat_deg": 10.0, "lon_deg": 200.0, "radius_km": 400.0}], "reroute_penalty_ms": 0.25,
}

# sha256 of the config block that `simulate` writes into summary.json, laid
# out as summary.json lays it out, with the config's directory written as
# "<dir>"; one config of each shape the echo takes.
ECHO_SHAPES = {
    "two-shell-walker": ({"constellation": {"walker": [
        {**TINY_SHELL, "id_prefix": "a", "label": "low"},
        {**TINY_SHELL, "altitude_km": 1300.5, "raan_offset_deg": 7.5, "id_prefix": "b", "label": "high"},
    ]}}, "e62169b07dc5736fdd24a66fb57a9e5d9eec3b60b5e1c9fee793d8977e7d0d92"),
    "snapshot-csv": ({"constellation": {"snapshot_csv": "sats.csv"}, "actuator_count": 1},
                     "b601e3ec77175a968673f5f147d8f06e99bed320bb5f89caa2f393c7ca8f5bf9"),
    "tle-file": ({"constellation": {"tle_file": "sats.tle", "tle_at_seconds": 600.0}, "seed": 3},
                 "3ca587d5cc04a949814c549ec30c54a90dc05fa0c2e0a05bb0d295ab0aafe530"),
    "terminus": ({
        "constellation": {"walker": {**TINY_SHELL, "id_prefix": "t"}}, "stations_csv": "stations.csv",
        "terminus": {"lat_deg": 64.8, "lon_deg": -147.7, "alt_km": 0.2}, "mode": "downhaul-greedy",
        "min_elevation_deg": 5.0, "los_margin_km": 1.5,
    }, "57cf07395c29af891ed1db42815d17f11d174bbf61dade27f21d44993208a3bf"),
    "inline-overlay": ({
        "constellation": {"walker": {**TINY_SHELL, "id_prefix": "t"}}, "stations_csv": "stations.csv",
        "overlay": ECHO_OVERLAY, "reroute_penalty_ms": 0.5, "sweep_fractions": [0.0, 0.5],
    }, "b9f213d470cf6bb7a41e464874af8ef3e89d95e13b41892219bfd5354c529123"),
    "path-overlay": ({
        "constellation": {"walker": {**TINY_SHELL, "id_prefix": "t"}}, "stations_csv": "stations.csv",
        "overlay": "overlay.json", "mode": "downhaul-optimal",
    }, "d81cbaf7b5a4d7f2b16afcb06169ce056cc35f1cfbe05096aee107fc84969c3f"),
}


@pytest.mark.parametrize("config, sha", ECHO_SHAPES.values(), ids=ECHO_SHAPES.keys())
def test_simulate_echoes_the_pinned_config(tmp_path, config, sha):
    write(tmp_path / "sats.csv", "id,x_km,y_km,z_km\na,7000,0,0\nb,0,7100.25,0\n")
    write(tmp_path / "sats.tle", ISS_TLE)
    write(tmp_path / "stations.csv", "id,lat_deg,lon_deg,alt_km\ngA,5,-20,0\ngB,48,2,0\n")
    write(tmp_path / "overlay.json", json.dumps(ECHO_OVERLAY))
    path = write(tmp_path / "scenario.json", json.dumps(config))
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    text = json.dumps(echo, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert hashlib.sha256(text.replace(str(tmp_path), "<dir>").encode()).hexdigest() == sha
    # The echo is a config: read back from anywhere, it is the same scenario.
    assert validate_config(json.dumps(echo), base_dir=str(out)) == validate_config(
        json.dumps(config), base_dir=str(tmp_path))


def test_cli_outputs_are_byte_identical_across_thread_counts(tmp_path):
    cfg = tiny_config(tmp_path)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert run(["simulate", "--config", cfg, "--out", str(out1), "--threads", "1", "--quiet"]) == 0
    assert run(["simulate", "--config", cfg, "--out", str(out4), "--threads", "4", "--quiet"]) == 0
    assert (out1 / "report.csv").read_bytes() == (out4 / "report.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out4 / "summary.json").read_bytes()


# 25 to 150 satellites a shell, so runs span one and several row blocks of
# the visibility build, which is where the thread count enters.
_SHELL = st.tuples(
    st.floats(400.0, 2000.0), st.floats(0.0, 98.0), st.integers(5, 15), st.integers(5, 10), st.integers(0, 14)
)


# The largest norm a snapshot accepts: 4 times its square is the largest float.
_FAR_BOUND = math.sqrt(sys.float_info.max / 4.0)


def _far_position(log_norm, lat, lon):
    norm = 10.0 ** log_norm
    lat, lon = math.radians(lat), math.radians(lon)
    return (norm * math.cos(lat) * math.cos(lon), norm * math.cos(lat) * math.sin(lon), norm * math.sin(lat))


# Satellites from just above the surface out to the largest accepted norm,
# their norms log-uniform.
_FAR = st.builds(
    _far_position, st.floats(math.log10(6400.0), math.log10(_FAR_BOUND)), st.floats(-90.0, 90.0),
    st.floats(-180.0, 180.0),
)


@settings(max_examples=30, deadline=None, database=None)
@given(
    shells=st.lists(_SHELL, min_size=1, max_size=2),
    far=st.lists(_FAR, max_size=3),
    mode=st.sampled_from([m.value for m in ArchitectureMode]),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_whole_runs_do_not_depend_on_the_thread_count(shells, far, mode, fraction, seed, data):
    walker, ids = [], []
    for prefix, (altitude, inclination, planes, per_plane, phasing) in zip("ab", shells):
        walker.append({
            "altitude_km": altitude, "inclination_deg": inclination, "planes": planes,
            "sats_per_plane": per_plane, "phasing_f": phasing % planes, "id_prefix": prefix,
        })
        ids += [f"{prefix}-p{p:03d}-s{k:03d}" for p in range(planes) for k in range(per_plane)]
    ids += [f"far{k}" for k in range(len(far))]
    nodes = ids + ["gA", "gB", "gC", "gD", "gE"]
    overlay = data.draw(st.none() | st.fixed_dictionaries({
        "disabled_satellites": st.lists(st.sampled_from(ids), max_size=3),
        "disabled_stations": st.lists(st.sampled_from(nodes[len(ids):]), max_size=1),
        "disabled_links": st.lists(st.lists(st.sampled_from(nodes), min_size=2, max_size=2), max_size=6),
        "jam_regions": st.lists(st.fixed_dictionaries({
            "lat_deg": st.floats(-80.0, 80.0), "lon_deg": st.floats(-180.0, 180.0),
            "radius_km": st.floats(200.0, 2500.0),
        }), max_size=1),
        "reroute_penalty_ms": st.floats(0.0, 1.0),
    }))
    commands = ["simulate"] if overlay is None else ["simulate", "attack"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = {
            "constellation": {"walker": walker}, "stations_csv": stations_csv(tmp), "mode": mode,
            "actuator_fraction": fraction, "seed": seed,
        }
        if overlay is not None:
            cfg["overlay"] = overlay
        if far:
            # The walker satellites and the far ones, as one snapshot file.
            snapshot = generate_walker(*(WalkerSpec(**shell) for shell in walker))
            rows = "".join(f"far{k},{x!r},{y!r},{z!r}\n" for k, (x, y, z) in enumerate(far))
            cfg["constellation"] = {"snapshot_csv": write(tmp / "snapshot.csv", snapshot_to_csv(snapshot) + rows)}
        path = write(tmp / "scenario.json", json.dumps(cfg))
        # A run may fail on its config; then it must fail alike under
        # either thread count, and never with a runtime error.
        outcomes = {}
        for threads in ("1", "2"):
            for command in commands:
                out = str(tmp / threads / command)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run([command, "--config", path, "--out", out, "--threads", threads, "--quiet"])
                outcomes.setdefault(command, []).append((code, err.getvalue()))
        for command in commands:
            assert outcomes[command][0] == outcomes[command][1]
            assert outcomes[command][0][0] != 2, outcomes[command][0]
            one, two = tmp / "1" / command, tmp / "2" / command
            assert sorted(os.listdir(one)) == sorted(os.listdir(two))
            for name in os.listdir(one):
                assert (one / name).read_bytes() == (two / name).read_bytes(), (command, name)
            # A satellite is unreachable (latency inf) exactly when its row
            # names no hop count and no terminal.
            for name in fnmatch.filter(os.listdir(one), "report*.csv"):
                for row in (one / name).read_text().splitlines()[1:]:
                    _, latency, hops, terminal = row.split(",")
                    assert (latency == "inf") == (hops == terminal == ""), (name, row)


def test_near_coincident_satellites_route_in_every_mode(tmp_path):
    # Two equatorial shells at 400 km with phasing 0 and 1 place satellites
    # about 1e-12 km apart, and the sum absorbs their link delay.  The
    # label-only parent rule once made such a pair each other's parent, and
    # both downhaul modes failed with exit 2.
    cfg = {
        "constellation": {"walker": [
            {"altitude_km": 400.0, "inclination_deg": 0.0, "planes": 3, "sats_per_plane": 5,
             "phasing_f": phasing, "id_prefix": prefix}
            for prefix, phasing in (("a", 0), ("b", 1))
        ]},
        "stations_csv": os.path.abspath(os.path.join(CONFIG_DIR, "stations_13.csv")),
        "actuator_fraction": 0.15, "seed": 1,
    }
    path = write(tmp_path / "scenario.json", json.dumps(cfg))
    net = experiments.prepare(validate_config(json.dumps(cfg))[0], threads=1)
    adj = net.graph.adjacency
    oracles = {
        ArchitectureMode.ON_ORBIT: lambda: dijkstra_oracle(
            net.graph, net.snapshot, actuator_seed_rows(net.graph, net.actuators), exempt=True),
        ArchitectureMode.DOWNHAUL_GREEDY: lambda: dijkstra_oracle(
            net.graph, net.snapshot,
            downlink_seeds_oracle(net.graph, net.stations, net.terminus, ArchitectureMode.DOWNHAUL_GREEDY)),
        ArchitectureMode.DOWNHAUL_OPTIMAL: lambda: dijkstra_oracle_optimal(
            net.graph, net.snapshot, net.stations, net.terminus),
    }
    for mode, oracle in oracles.items():
        out = str(tmp_path / mode.value)
        assert run(["simulate", "--config", path, "--mode", mode.value, "--out", out, "--quiet"]) == 0, mode
        report = net.route(mode)
        assert report == oracle(), mode
        if mode is not ArchitectureMode.ON_ORBIT:
            # The case arises: some reachable label absorbs a link delay.
            label = report.latency_ms[adj.neighbors]
            assert (np.isfinite(label) & (adj.delays_ms + label == label)).any(), mode


ONEWEB_CONFIG = os.path.join(CONFIG_DIR, "oneweb_like.json")

# sha256 of report.csv and of summary.json without its config block (which
# echoes absolute paths) for `simulate` on configs/oneweb_like.json.
ONEWEB_SIMULATE_SHA256 = {
    "downhaul-greedy": (
        "08bcadd915e768e0ee86937b2cf4183d2e3df62cad40036a648ef9024672f627",
        "6256ee4951e3803f826175354317044cb67c0c6828ee6d50950fdd4a73747e6d",
    ),
    "downhaul-optimal": (
        "68f3424143621940bba9ab1824ff2fc159eaabc9732c60d0b2c9ee53d137feb0",
        "f7b7670573492e008663b730eca170b9ae141456fe619dbb59e3a2cf0b901e0e",
    ),
    "onorbit": (
        "aa1385b9ee10f939bf04696c39bc150788988fd50423e51c041d7c68ccd99354",
        "7366e0286e46d7434e99c2478ef3e584b6318f07042ccbd392ffc0647001f327",
    ),
}


def test_simulate_writes_the_pinned_bytes_in_every_mode(tmp_path):
    for mode, (report_sha, summary_sha) in ONEWEB_SIMULATE_SHA256.items():
        out = tmp_path / mode
        assert run(["simulate", "--config", ONEWEB_CONFIG, "--mode", mode, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        del summary["config"]
        summary_bytes = (json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
        assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == report_sha, mode
        assert hashlib.sha256(summary_bytes).hexdigest() == summary_sha, mode


COMBINED_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "combined.json")
# sha256 of the snapshot.csv that `generate` writes for configs/combined.json
# (two Walker shells merged into one snapshot).
COMBINED_SNAPSHOT_SHA256 = "eb9dfe4a74897a61c72609f7e97599566e4131ea8356f1217769bc3c623dd860"


def test_generate_writes_the_pinned_merged_snapshot(tmp_path):
    assert run(["generate", "--config", COMBINED_CONFIG, "--out", str(tmp_path), "--quiet"]) == 0
    assert hashlib.sha256((tmp_path / "snapshot.csv").read_bytes()).hexdigest() == COMBINED_SNAPSHOT_SHA256


WALKER_SHELL = {"altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 1, "sats_per_plane": 4}
ISS_TLE = (
    "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992\n"
    "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298\n"
)
ID_RULE = "must not contain a comma or a line break, nor start or end with whitespace"


@pytest.mark.parametrize("source, files, expected", [
    # A Walker error names its shell, a TLE snapshot error its entry's first line.
    ({"walker": [dict(WALKER_SHELL, id_prefix="a"), dict(WALKER_SHELL, id_prefix="a")]}, {},
     "constellation.walker[1]: duplicate satellite id 'a-p000-s000'"),
    ({"snapshot_csv": "sats.csv"}, {"sats.csv": "id,x_km,y_km,z_km\na,7000,0,0\na,7100,0,0\n"},
     "constellation.snapshot_csv: line 3: duplicate satellite id 'a'"),
    ({"tle_file": "empty.tle"}, {"empty.tle": "\n"},
     "constellation.tle_file: no TLE entries to build a snapshot from"),
    ({"walker": WALKER_SHELL}, {"stations.csv": "id,lat_deg,lon_deg,alt_km\ng1,0,0,0\ng1,10,0,0\n"},
     "stations_csv: line 3: duplicate station id 'g1'"),
    # Ids that snapshot.csv and report.csv could not hold as one field.
    ({"walker": dict(WALKER_SHELL, id_prefix="a,b")}, {},
     f"constellation.walker[0]: satellite id 'a,b-p000-s000' {ID_RULE}"),
    ({"walker": [WALKER_SHELL, dict(WALKER_SHELL, id_prefix=" sat")]}, {},
     f"constellation.walker[1]: satellite id ' sat-p000-s000' {ID_RULE}"),
    ({"walker": dict(WALKER_SHELL, id_prefix="a\nb")}, {},
     f"constellation.walker[0]: satellite id 'a\\nb-p000-s000' {ID_RULE}"),
    ({"tle_file": "sats.tle"}, {"sats.tle": "ISS, ZARYA\n" + ISS_TLE},
     f"constellation.tle_file: line 1: satellite id 'ISS, ZARYA' {ID_RULE}"),
    ({"snapshot_csv": "sats.csv"}, {"sats.csv": "id,x_km,y_km,z_km\n,7000,0,0\n"},
     "constellation.snapshot_csv: line 2: empty satellite id"),
    # The station reader once named the line twice: `line 2: line 2: column ...`.
    ({"walker": WALKER_SHELL}, {"stations.csv": "id,lat_deg,lon_deg,alt_km\ng1,x,0,0\n"},
     "stations_csv: line 2: column 'lat_deg' is not a number: 'x'"),
    ({"walker": WALKER_SHELL}, {"stations.csv": "id,lat_deg,lon_deg,alt_km\ng1,0,0,0\n,10,0,0\n"},
     "stations_csv: line 3: empty station id"),
    # Its delays would overflow: the run wrote `a,inf,2,g1` and counted `a`
    # as unreachable in the summary.
    ({"snapshot_csv": "sats.csv"}, {
        "sats.csv": "id,x_km,y_km,z_km\na,1e155,0,0\nc,7000,10,0\n",
        "stations.csv": "id,lat_deg,lon_deg,alt_km\ng1,10,20,0\n",
    }, "constellation.snapshot_csv: line 2: satellite 'a' is too far out: 4 times its squared norm "
       "is not finite"),
    # Two shells of default ids, and a far second shell: both were keyed
    # `constellation.walker`, naming no shell.
    ({"walker": [dict(WALKER_SHELL, planes=2, sats_per_plane=3)] * 2}, {},
     "constellation.walker[1]: duplicate satellite id 'sat-p000-s000'"),
    ({"walker": [WALKER_SHELL, dict(WALKER_SHELL, altitude_km=1e300, id_prefix="b")]}, {},
     "constellation.walker[1]: satellite 'b-p000-s000' is too far out: 4 times its squared norm is not finite"),
    # A mean motion whose squared angular rate underflows was a float division
    # by zero (exit 2).
    ({"tle_file": "sats.tle"}, {"sats.tle": "N\n" + ISS_TLE.replace("15.49398617229298", "     1e-300229290")},
     "constellation.tle_file: line 3: mean motion 1e-300 is too small for a finite semi-major axis"),
], ids=["walker", "snapshot_csv", "tle_file", "stations_csv",
        "walker-id-comma", "walker-id-space", "walker-id-line-break", "tle-name-comma",
        "empty-satellite-id", "station-number", "empty-station-id", "far-satellite",
        "walker-duplicate", "walker-far", "tle-mean-motion-underflow"])
def test_cli_names_the_config_key_of_a_bad_input_file(tmp_path, capsys, source, files, expected):
    for name, text in files.items():
        write(tmp_path / name, text)
    cfg = {"constellation": source, "actuator_count": 0}
    if "stations.csv" in files:
        cfg["stations_csv"] = "stations.csv"
    path = write(tmp_path / "scenario.json", json.dumps(cfg))
    mode = ["--mode", "downhaul-greedy"] if "stations.csv" in files else []
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "out"), *mode]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_renamed_tle_repeats_stay_unique_and_read_back(tmp_path):
    # The third entry's first rename, A#2, is the second entry's own name.
    tle = write(tmp_path / "sats.tle", "".join(f"{name}\n{ISS_TLE}" for name in ("A", "A#2", "A", "A#2")))
    first = write(tmp_path / "tle.json", json.dumps({"constellation": {"tle_file": tle}}))
    assert run(["generate", "--config", first, "--out", str(tmp_path / "first"), "--quiet"]) == 0
    snapshot = tmp_path / "first" / "snapshot.csv"
    assert [line.split(",")[0] for line in snapshot.read_text().splitlines()] == ["id", "A", "A#2", "A#2#2", "A#2#3"]
    again = write(tmp_path / "csv.json", json.dumps({"constellation": {"snapshot_csv": str(snapshot)}}))
    assert run(["generate", "--config", again, "--out", str(tmp_path / "again"), "--quiet"]) == 0
    assert (tmp_path / "again" / "snapshot.csv").read_bytes() == snapshot.read_bytes()


def test_cli_sweep_and_compare(tmp_path):
    fractions = [0.0, 0.25, 0.5, 1.0]
    cfg = tiny_config(tmp_path, sweep_fractions=fractions)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,mean_ms,median_ms,p95_ms,unreachable"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == ""  # no actuators: stats absent
    assert lines[-1].split(",")[1] == "0.0"

    assert run(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["onorbit"]["mean_ms"] < summary["downhaul"]["mean_ms"]
    down = (out / "report_downhaul.csv").read_text().splitlines()
    orbit = (out / "report_onorbit.csv").read_text().splitlines()
    assert len(down) == len(orbit) == 33


def test_a_python_built_sweep_writes_the_sweep_csv_of_its_json_twin(tmp_path):
    cfg_path = tiny_config(tmp_path, sweep_fractions=[0, 1])
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    cfg = ScenarioConfig(
        constellation=ConstellationSource(walker_shells=[
            WalkerSpec(1200, 87.9, 4, 8, phasing_f=1, id_prefix="t"),
        ]),
        stations_csv=str(tmp_path / "stations.csv"), mode="onorbit", actuator_fraction=0.2, seed=7,
        sweep_fractions=[0, 1],
    )
    assert _sweep_csv(experiments.actuator_sweep(cfg, threads=1)) == (tmp_path / "out" / "sweep.csv").read_text()
    assert validate_config(pathlib.Path(cfg_path).read_text())[0] == cfg


def test_cli_attack(tmp_path):
    overlay_path = write(
        tmp_path / "overlay.json",
        json.dumps({"disabled_stations": ["gA", "gB", "gC", "gD", "gE"]}),
    )
    cfg = tiny_config(tmp_path, mode="downhaul-greedy", overlay="overlay.json")
    out = tmp_path / "out"
    assert run(["attack", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    attack = json.loads((out / "attack.json").read_text())
    assert attack["attacked"]["unreachable_count"] == attack["attacked"]["satellite_count"]
    assert attack["availability_loss"] == attack["baseline"]["satellite_count"]
    assert attack["delta_mean_ms"] is None

    no_overlay = tiny_config(tmp_path)
    assert run(["attack", "--config", no_overlay, "--out", str(out), "--quiet"]) == 1


def test_cli_exit_codes_for_bad_configs(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", json.dumps({
        "constellation": {"preset": "oneweb-like"}, "actuator_fraction": 1.5,
    }))
    assert run(["simulate", "--config", bad, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "actuator_fraction" in err

    unknown_key = write(tmp_path / "unknown.json", json.dumps({
        "constellation": {"preset": "oneweb-like"}, "actuatr_fraction": 0.1,
    }))
    assert run(["simulate", "--config", unknown_key, "--out", str(tmp_path)]) == 1
    assert "actuatr_fraction" in capsys.readouterr().err

    negative = write(tmp_path / "negative.json", json.dumps({
        "constellation": {"preset": "oneweb-like"}, "actuator_count": -1,
    }))
    assert run(["simulate", "--config", negative, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: actuator_count: must be >= 0, got -1\n"

    too_many = write(tmp_path / "too_many.json", json.dumps({
        "constellation": {"walker": {
            "altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 2, "sats_per_plane": 3,
        }},
        "actuator_count": 100,
    }))
    for command in ("simulate", "generate"):
        out = tmp_path / f"too_many_{command}"
        assert run([command, "--config", too_many, "--out", str(out)]) == 1, command
        assert capsys.readouterr().err == "error: actuator_count: 100 exceeds 6 satellites\n", command
        assert not (out / "snapshot.csv").exists()

    assert run(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert run(["simulate"]) == 1  # missing --config is a usage/validation error
    capsys.readouterr()


def test_cli_mode_and_seed_overrides(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    code = run([
        "simulate", "--config", cfg, "--out", str(out),
        "--mode", "downhaul-optimal", "--seed", "99", "--quiet",
    ])
    assert code == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert echo["mode"] == "downhaul-optimal"
    assert echo["seed"] == 99


def test_console_script_entry_point(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sda_netlab.cli", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
    assert "mean_ms" in proc.stdout
