import json
import subprocess
import sys

from sda_netlab.cli import run, validate_config
from sda_netlab.routing import ArchitectureMode


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
    cases = [
        ({**base, "overlay": {"jam_regions": [{"lat_deg": 0}]}}, "jam_regions"),
        ({**base, "overlay": {"disabled_links": ["solo"]}}, "id pairs"),
        ({**base, "actuator_count": 1.5}, "integer"),
        ({**base, "seed": True}, "integer"),
        ({**base, "sweep_fractions": [0.2, 1.4]}, "sweep_fractions"),
    ]
    for payload, needle in cases:
        cfg, errors = validate_config(json.dumps(payload))
        assert cfg is None
        assert any(needle in e for e in errors), (payload, errors)


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
