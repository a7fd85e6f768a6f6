import contextlib
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

from sda_netlab import experiments
from sda_netlab.cli import run, validate_config
from sda_netlab.constellation import WalkerSpec
from sda_netlab.experiments import PRESET_NAMES, ConstellationSource, ScenarioConfig, preset_shells
from sda_netlab.routing import ArchitectureMode, actuator_sources
from oracle_utils import dijkstra_oracle, dijkstra_oracle_optimal, downlink_seeds_oracle

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
    assert cfg.constellation.walker_shells[0].spec.planes == 18

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


def test_validate_config_rejects_malformed_overlays_and_numbers():
    base = {"constellation": {"preset": "oneweb-like"}}
    shell = {"altitude_km": 1200.0, "inclination_deg": 87.9, "planes": 4, "sats_per_plane": 8}
    cases = [
        ({**base, "overlay": {"jam_regions": [{"lat_deg": 0}]}}, "jam_regions"),
        ({**base, "overlay": {"disabled_links": ["solo"]}}, "id pairs"),
        ({**base, "actuator_count": 1.5}, "integer"),
        ({**base, "seed": True}, "integer"),
        ({**base, "sweep_fractions": [0.2, 1.4]}, "sweep_fractions"),
        # Wrong-typed overlay fields are errors, not a TypeError.
        ({**base, "overlay": {"reroute_penalty_ms": None}},
         "overlay: reroute_penalty_ms: must be a number, got None"),
        ({**base, "overlay": {"disabled_links": 5}}, "overlay: disabled_links: must be a list, got 5"),
        ({**base, "overlay": {"disabled_satellites": 5}},
         "overlay: disabled_satellites: must be a list, got 5"),
        ({**base, "overlay": {"jam_regions": [{"lat_deg": None, "lon_deg": 0, "radius_km": 500}]}},
         "overlay: jam_regions[0].lat_deg: must be a number, got None"),
        # One number rule: a finite JSON number, never a bool or a string.
        ({**base, "sweep_fractions": ["0.1", 0.2]}, "sweep_fractions[0]: must be a number, got '0.1'"),
        ({**base, "terminus": {"lat_deg": True, "lon_deg": 0}},
         "terminus: lat_deg: must be a number, got True"),
        ({"constellation": {"walker": {**shell, "altitude_km": "550"}}},
         "constellation.walker[0]: altitude_km: must be a number, got '550'"),
        ({"constellation": {"walker": {**shell, "inclination_deg": True}}},
         "constellation.walker[0]: inclination_deg: must be a number, got True"),
        ({**base, "overlay": {"reroute_penalty_ms": "1.5"}},
         "overlay: reroute_penalty_ms: must be a number, got '1.5'"),
        ({**base, "actuator_fraction": True}, "actuator_fraction: must be a number, got True"),
    ]
    for payload, needle in cases:
        cfg, errors = validate_config(json.dumps(payload))
        assert cfg is None
        assert any(needle in e for e in errors), (payload, errors)


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
    for clash, why in [("t-p000-s003", "a satellite id"), ("terminus", "reserved for the terminus")]:
        write(tmp_path / "stations.csv", f"id,lat_deg,lon_deg,alt_km\ngA,5,-20,0\n{clash},48,2,0\n")
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: stations_csv: station id {clash!r} is {why}\n"


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
        _schema(("preset",), preset=st.sampled_from(PRESET_NAMES)),
        _schema(("walker",), walker=_WALKER | st.lists(_WALKER, max_size=2)),
        _schema(
            preset=st.sampled_from(PRESET_NAMES), walker=_WALKER,
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
    "reroute_penalty_ms": _around(0.0, 0.0, 5.0),
    "sweep_fractions": st.lists(_around(0.0, 1.0, 0.5), max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(fields=_FIELDS)
def test_python_and_json_configs_obey_the_same_rules(fields):
    validated, errors = validate_config(json.dumps({"constellation": {"preset": "oneweb-like"}, **fields}))
    source = ConstellationSource(walker_shells=preset_shells("oneweb-like"))
    python_fields = {k: tuple(v) if k == "sweep_fractions" else v for k, v in fields.items()}
    try:
        direct = ScenarioConfig(constellation=source, **python_fields)
    except ValueError as exc:
        assert validated is None and str(exc) in errors, (exc, errors)
    else:
        assert errors == [] and validated == direct


_WALKER_NUMBER = st.integers(-2, 40) | st.floats(-100.0, 2000.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan, True, "4", 2.5, None]
)


@settings(max_examples=300, deadline=None)
@given(shell=st.fixed_dictionaries(
    {key: _WALKER_NUMBER for key in ("altitude_km", "inclination_deg", "planes", "sats_per_plane")},
    optional={"phasing_f": _WALKER_NUMBER, "raan_offset_deg": _WALKER_NUMBER},
))
def test_python_and_json_walker_shells_obey_the_same_rules(shell):
    validated, errors = validate_config(json.dumps({"constellation": {"walker": shell}}))
    try:
        spec = WalkerSpec(**shell)
    except ValueError as exc:
        assert validated is None and errors == [f"constellation.walker[0]: {exc}"], (exc, errors)
    else:
        assert errors == [] and validated.constellation.walker_shells[0].spec == spec


@pytest.mark.parametrize("build, message", [
    (lambda: WalkerSpec(550.0, math.inf, 2, 2), "inclination_deg: must be finite"),
    (lambda: WalkerSpec(550.0, 53.0, 2.5, 2), "planes: must be an integer, got 2.5"),
    (lambda: WalkerSpec(True, 53.0, 2, 2), "altitude_km: must be a number, got True"),
    (lambda: ConstellationSource(tle_file="x", tle_at_seconds=math.nan), "tle_at_seconds: must be finite"),
], ids=["infinite-inclination", "fractional-planes", "bool-altitude", "nan-tle-epoch"])
def test_python_built_sources_obey_the_json_number_rule(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


_NO_STATIONS = {"stations_csv": None, "terminus": {"lat_deg": 64.8, "lon_deg": -147.7}}


@pytest.mark.parametrize("command, extra, flags, env, expected", [
    ("simulate", {"overlay": {"disabled_satellites": ["nope"]}}, [], {},
     "overlay: names unknown satellites: nope"),
    ("attack", {"overlay": {"disabled_stations": ["nope"]}}, [], {},
     "overlay: names unknown stations: nope"),
    ("sweep", {"overlay": {"disabled_links": [["gA", "nope"]]}}, [], {},
     "overlay: link names unknown node: nope"),
    ("attack", {"overlay": {"reroute_penalty_ms": -1}}, [], {},
     "overlay: reroute_penalty_ms: must be >= 0, got -1.0"),
    ("simulate", {}, ["--seed", str(2**64)], {},
     f"--seed: must be an unsigned 64-bit integer, got {2**64}"),
    ("simulate", {}, ["--threads", "0"], {}, "--threads: must be >= 1, got 0"),
    ("generate", {}, [], {"SDA_NETLAB_THREADS": "abc"},
     "SDA_NETLAB_THREADS: must be an integer >= 1, got 'abc'"),
    ("generate", {"constellation": {"snapshot_csv": "header_only.csv"}}, [], {},
     "constellation.snapshot_csv: snapshot must contain at least one satellite"),
    ("simulate", _NO_STATIONS, ["--mode", "downhaul-greedy"], {},
     "stations_csv: downhaul modes need at least one ground station"),
    ("compare", _NO_STATIONS, [], {}, "stations_csv: downhaul modes need at least one ground station"),
    ("simulate", {"min_elevation_deg": 1000}, [], {}, "min_elevation_deg: must be in [-90, 90], got 1000.0"),
    ("simulate", {"los_margin_km": math.inf}, [], {}, "los_margin_km: must be finite"),
    ("sweep", {"sweep_fractions": []}, [], {}, "sweep_fractions: must be a non-empty array of numbers"),
    ("simulate", {}, ["--seed", "abc"], {}, "--seed: must be an integer, got 'abc'"),
    ("simulate", {}, ["--threads", "x"], {}, "--threads: must be an integer, got 'x'"),
], ids=["overlay-satellite", "overlay-station", "overlay-link", "overlay-penalty", "seed-flag",
        "threads-flag", "threads-env", "header-only-snapshot", "downhaul-no-stations",
        "compare-no-stations", "min-elevation", "infinite-margin", "empty-sweep",
        "non-integer-seed", "non-integer-threads"])
def test_every_rejected_input_ends_as_keyed_error_lines(
    tmp_path, monkeypatch, capsys, command, extra, flags, env, expected
):
    write(tmp_path / "header_only.csv", "id,x_km,y_km,z_km\n")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = tiny_config(tmp_path, **extra)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet", *flags]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(re.match(r"^error: (--)?[A-Za-z_][\w.\[\]-]*: ", line) for line in err.splitlines()), err
    assert err == f"error: {expected}\n"


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


def test_cli_summary_config_echo_revalidates_to_same_config(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    original, errors = validate_config(
        (tmp_path / "scenario.json").read_text(), base_dir=str(tmp_path)
    )
    assert errors == []
    echo = json.loads((out / "summary.json").read_text())["config"]
    revalidated, errors = validate_config(json.dumps(echo), base_dir=str(out))
    assert errors == []
    assert revalidated == original


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


@settings(max_examples=30, deadline=None, database=None)
@given(
    shells=st.lists(_SHELL, min_size=1, max_size=2),
    mode=st.sampled_from([m.value for m in ArchitectureMode]),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_whole_runs_do_not_depend_on_the_thread_count(shells, mode, fraction, seed, data):
    walker, ids = [], []
    for prefix, (altitude, inclination, planes, per_plane, phasing) in zip("ab", shells):
        walker.append({
            "altitude_km": altitude, "inclination_deg": inclination, "planes": planes,
            "sats_per_plane": per_plane, "phasing_f": phasing % planes, "id_prefix": prefix,
        })
        ids += [f"{prefix}-p{p:03d}-s{k:03d}" for p in range(planes) for k in range(per_plane)]
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
            net.graph, net.snapshot, actuator_sources(net.snapshot), exempt=True),
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


@pytest.mark.parametrize("source, files, expected", [
    ({"walker": [dict(WALKER_SHELL, id_prefix="a"), dict(WALKER_SHELL, id_prefix="a")]}, {},
     "constellation.walker: duplicate satellite id 'a-p000-s000'"),
    ({"snapshot_csv": "sats.csv"}, {"sats.csv": "id,x_km,y_km,z_km\na,7000,0,0\na,7100,0,0\n"},
     "constellation.snapshot_csv: line 3: duplicate satellite id 'a'"),
    ({"tle_file": "empty.tle"}, {"empty.tle": "\n"},
     "constellation.tle_file: no TLE entries to build a snapshot from"),
    ({"walker": WALKER_SHELL}, {"stations.csv": "id,lat_deg,lon_deg,alt_km\ng1,0,0,0\ng1,10,0,0\n"},
     "stations_csv: line 3: duplicate station id 'g1'"),
], ids=["walker", "snapshot_csv", "tle_file", "stations_csv"])
def test_cli_names_the_config_key_of_a_bad_input_file(tmp_path, capsys, source, files, expected):
    for name, text in files.items():
        write(tmp_path / name, text)
    cfg = {"constellation": source, "actuator_count": 0}
    if "stations.csv" in files:
        cfg["stations_csv"] = "stations.csv"
    path = write(tmp_path / "scenario.json", json.dumps(cfg))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


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
    assert run(["simulate", "--config", too_many, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: actuator_count: 100 exceeds 6 satellites\n"

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
