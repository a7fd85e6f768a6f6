"""Command-line front end.

Subcommands: generate, simulate, sweep, attack, compare.  All outputs are
plain CSV/JSON written with LF newlines and repr-precision floats, so runs
with identical inputs and seed are byte-identical regardless of the thread
count.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .constellation import WalkerSpec, snapshot_to_csv
from .experiments import (
    FIELD_RULES,
    PRESET_NAMES,
    ConstellationSource,
    ScenarioConfig,
    WalkerShell,
    actuator_sweep,
    attack_scenario,
    check_fields,
    compare_architectures,
    config_to_dict,
    flagged_snapshot,
    preset_shells,
    report_to_csv,
    run_scenario,
)
from .geo import GeodeticPosition
from .routing import ArchitectureMode
from .jsonvalues import json_number, json_string
from .topology import AttackOverlay, resolve_thread_count

SWEEP_CSV_HEADER = "fraction,mean_ms,median_ms,p95_ms,unreachable"

_WALKER_KEYS = {*(f.name for f in fields(WalkerSpec)), "id_prefix", "label"}
_TOP_KEYS = {"constellation", "stations_csv", "terminus", "mode", "overlay", *FIELD_RULES}


def _parse_walker_shell(data: dict, errors: list[str], where: str) -> WalkerShell | None:
    if not isinstance(data, dict):
        errors.append(f"{where}: walker shell must be an object")
        return None
    bad = sorted(set(data) - _WALKER_KEYS)
    if bad:
        errors.append(f"{where}: unknown walker key(s) {', '.join(bad)}")
        return None
    missing = [k for k in ("altitude_km", "inclination_deg", "planes", "sats_per_plane") if k not in data]
    if missing:
        errors.append(f"{where}: missing required key {missing[0]!r}")
        return None
    try:
        spec = WalkerSpec(**{key: value for key, value in data.items() if key not in ("id_prefix", "label")})
        return WalkerShell(
            spec, json_string(data.get("id_prefix", "sat"), "id_prefix"),
            json_string(data.get("label", "walker"), "label"),
        )
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _resolve_path(path, base_dir: str, key: str, errors: list[str]) -> str | None:
    try:
        path = json_string(path, key)
    except ValueError as exc:
        errors.append(str(exc))
        return None
    full = os.path.abspath(os.path.join(base_dir, path))
    if not os.path.isfile(full):
        errors.append(f"{key}: file not found: {path}")
        return None
    return full


def _parse_constellation(
    data, base_dir: str, errors: list[str]
) -> ConstellationSource | None:
    if not isinstance(data, dict):
        errors.append("constellation: must be an object")
        return None
    source_keys = [k for k in ("preset", "walker", "snapshot_csv", "tle_file") if k in data]
    if len(source_keys) != 1:
        errors.append(
            "constellation: exactly one of preset / walker / snapshot_csv / tle_file "
            f"must be given, found {source_keys or 'none'}"
        )
        return None
    extra = sorted(set(data) - {"preset", "walker", "snapshot_csv", "tle_file", "tle_at_seconds"})
    if extra:
        errors.append(f"constellation: unknown key(s) {', '.join(extra)}")
        return None
    if "tle_at_seconds" in data and source_keys != ["tle_file"]:
        errors.append("constellation: tle_at_seconds requires tle_file")
        return None

    if "preset" in data:
        name = data["preset"]
        if name not in PRESET_NAMES:
            errors.append(f"constellation.preset: unknown preset {name!r}")
            return None
        return ConstellationSource(walker_shells=preset_shells(name))
    if "walker" in data:
        raw = data["walker"]
        shell_dicts = raw if isinstance(raw, list) else [raw]
        shells = []
        for idx, sd in enumerate(shell_dicts):
            shell = _parse_walker_shell(sd, errors, f"constellation.walker[{idx}]")
            if shell is None:
                return None
            shells.append(shell)
        if not shells:
            errors.append("constellation.walker: at least one shell is required")
            return None
        return ConstellationSource(walker_shells=tuple(shells))
    if "snapshot_csv" in data:
        path = _resolve_path(data["snapshot_csv"], base_dir, "constellation.snapshot_csv", errors)
        return ConstellationSource(snapshot_csv=path) if path else None
    path = _resolve_path(data["tle_file"], base_dir, "constellation.tle_file", errors)
    if path is None:
        return None
    try:
        return ConstellationSource(tle_file=path, tle_at_seconds=data.get("tle_at_seconds"))
    except ValueError as exc:
        errors.append(f"constellation.{exc}")
        return None


def validate_config(text: str, base_dir: str = ".") -> tuple[ScenarioConfig | None, list[str]]:
    """Parse and fully validate a config document, reporting every error at
    once rather than stopping at the first."""
    errors: list[str] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: {exc}"]
    if not isinstance(data, dict):
        return None, ["config must be a JSON object"]

    for key in sorted(set(data) - _TOP_KEYS):
        errors.append(f"unknown config key {key!r}")

    if "constellation" not in data:
        errors.append("constellation: required key is missing")
        source = None
    else:
        source = _parse_constellation(data["constellation"], base_dir, errors)

    stations_csv = None
    if data.get("stations_csv") is not None:
        stations_csv = _resolve_path(data["stations_csv"], base_dir, "stations_csv", errors)

    terminus = None
    if data.get("terminus") is not None:
        t = data["terminus"]
        if not isinstance(t, dict) or not {"lat_deg", "lon_deg"} <= set(t):
            errors.append("terminus: must be an object with lat_deg and lon_deg")
        else:
            try:
                terminus = GeodeticPosition(
                    *(json_number(t.get(key, 0.0), key) for key in ("lat_deg", "lon_deg", "alt_km"))
                )
            except ValueError as exc:
                errors.append(f"terminus: {exc}")

    mode = ArchitectureMode.ON_ORBIT
    if "mode" in data:
        try:
            mode = ArchitectureMode.from_string(data["mode"])
        except ValueError as exc:
            errors.append(f"mode: {exc}")

    fields, field_errors = check_fields({key: data[key] for key in FIELD_RULES if key in data})
    errors += field_errors

    overlay = None
    overlay_path = None
    if data.get("overlay") is not None:
        raw = data["overlay"]
        if isinstance(raw, str):
            overlay_path = _resolve_path(raw, base_dir, "overlay", errors)
            if overlay_path is not None:
                try:
                    with open(overlay_path, "r", encoding="utf-8") as fh:
                        overlay = AttackOverlay.from_dict(json.load(fh))
                except (ValueError, OSError) as exc:
                    errors.append(f"overlay: {exc}")
        elif isinstance(raw, dict):
            try:
                overlay = AttackOverlay.from_dict(raw)
            except ValueError as exc:
                errors.append(f"overlay: {exc}")
        else:
            errors.append("overlay: must be a path or an object")

    if errors or source is None:
        return None, errors
    return ScenarioConfig(
        constellation=source,
        stations_csv=stations_csv,
        terminus=terminus,
        mode=mode,
        overlay=overlay,
        overlay_path=overlay_path,
        **fields,
    ), []


# --- Output writers -------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _sweep_csv(points) -> str:
    lines = [SWEEP_CSV_HEADER]
    for p in points:
        s = p.summary
        mean = "" if s.mean_ms is None else repr(s.mean_ms)
        median = "" if s.median_ms is None else repr(s.median_ms)
        p95 = "" if s.p95_ms is None else repr(s.p95_ms)
        lines.append(f"{p.fraction!r},{mean},{median},{p95},{s.unreachable_count}")
    return "\n".join(lines) + "\n"


# --- Command dispatch -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sda-netlab",
        description="Deterministic latency and resilience simulator for "
        "satellite data-delivery networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the scenario JSON config")
    common.add_argument("--out", default=".", help="output directory (created if missing)")
    # --seed and --threads stay text here: _load_config parses them, so a bad
    # one ends as a keyed error line rather than a usage block.
    common.add_argument("--seed", default=None, help="override the config seed")
    common.add_argument("--threads", default=None,
                        help="worker threads (default: SDA_NETLAB_THREADS or all cores)")
    common.add_argument("--mode", default=None,
                        choices=[m.value for m in ArchitectureMode],
                        help="override the architecture mode")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common],
                   help="write the resolved constellation snapshot as snapshot.csv")
    sub.add_parser("simulate", parents=[common],
                   help="run one architecture; writes report.csv and summary.json")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="sweep the actuator fraction; writes sweep.csv")
    sweep.add_argument("--independent-draws", action="store_true",
                       help="redraw the actuator selection per fraction instead of nesting")
    sub.add_parser("attack", parents=[common],
                   help="run the configured overlay against the baseline; writes attack.json")
    sub.add_parser("compare", parents=[common],
                   help="run downhaul and on-orbit on one snapshot; writes "
                        "report_downhaul.csv, report_onorbit.csv and summary.json")
    return parser


def _load_config(args) -> tuple[ScenarioConfig | None, list[str]]:
    errors = []
    for flag in ("seed", "threads"):
        raw = getattr(args, flag)
        if raw is not None:
            try:
                setattr(args, flag, int(raw))
            except ValueError:
                errors.append(f"--{flag}: must be an integer, got {raw!r}")
    if errors:
        return None, errors
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return None, [f"config: {exc}"]
    cfg, errors = validate_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))
    if cfg is None:
        return None, errors
    # A flag runs the rule of what it sets, whose error names the field or
    # the argument (``seed``, ``threads``); report it under the flag.
    if args.seed is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ValueError as exc:
            return None, [f"--{exc}"]
    try:
        resolve_thread_count(args.threads)
    except ValueError as exc:
        return None, [f"--{exc}" if args.threads is not None else str(exc)]
    if args.mode is not None:
        cfg = replace(cfg, mode=ArchitectureMode.from_string(args.mode))
    return cfg, []


def _cmd_generate(cfg: ScenarioConfig, args, out_dir: str, say) -> None:
    snapshot = flagged_snapshot(cfg)
    path = os.path.join(out_dir, "snapshot.csv")
    _write_text(path, snapshot_to_csv(snapshot))
    say(f"wrote {path} ({len(snapshot)} satellites)")


def _cmd_simulate(cfg: ScenarioConfig, args, out_dir: str, say) -> None:
    run = run_scenario(cfg, threads=args.threads)
    report_path = os.path.join(out_dir, "report.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    _write_text(report_path, report_to_csv(run.report))
    _write_json(summary_path, {**run.summary.to_dict(), "config": config_to_dict(cfg)})
    mean = run.summary.mean_ms
    say(f"wrote {report_path} and {summary_path}")
    say(f"mode={cfg.mode.value} mean_ms={'n/a' if mean is None else f'{mean:.4f}'} "
        f"unreachable={run.summary.unreachable_count}/{run.summary.satellite_count}")


def _cmd_sweep(cfg: ScenarioConfig, args, out_dir: str, say) -> None:
    points = actuator_sweep(
        cfg, independent_draws=args.independent_draws, threads=args.threads
    )
    path = os.path.join(out_dir, "sweep.csv")
    _write_text(path, _sweep_csv(points))
    say(f"wrote {path} ({len(points)} fractions)")


def _cmd_attack(cfg: ScenarioConfig, args, out_dir: str, say) -> None:
    outcome = attack_scenario(cfg, threads=args.threads)
    path = os.path.join(out_dir, "attack.json")
    _write_json(path, {
        "baseline": outcome.baseline.to_dict(),
        "attacked": outcome.attacked.to_dict(),
        "delta_mean_ms": outcome.delta_mean_ms,
        "availability_loss": outcome.availability_loss,
        "overlay": cfg.overlay.to_dict(),
        "config": config_to_dict(cfg),
    })
    say(f"wrote {path} (availability loss {outcome.availability_loss})")


def _cmd_compare(cfg: ScenarioConfig, args, out_dir: str, say) -> None:
    result = compare_architectures(cfg, threads=args.threads)
    down_path = os.path.join(out_dir, "report_downhaul.csv")
    orbit_path = os.path.join(out_dir, "report_onorbit.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    _write_text(down_path, report_to_csv(result.downhaul_report))
    _write_text(orbit_path, report_to_csv(result.onorbit_report))
    _write_json(summary_path, {
        "downhaul": result.downhaul.to_dict(),
        "onorbit": result.onorbit.to_dict(),
        "config": config_to_dict(cfg),
    })
    say(f"wrote {down_path}, {orbit_path} and {summary_path}")
    down_mean = result.downhaul.mean_ms
    orbit_mean = result.onorbit.mean_ms
    say(f"downhaul mean_ms={'n/a' if down_mean is None else f'{down_mean:.4f}'} "
        f"onorbit mean_ms={'n/a' if orbit_mean is None else f'{orbit_mean:.4f}'}")


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "attack": _cmd_attack,
    "compare": _cmd_compare,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are validation errors here.
        return 0 if exc.code in (0, None) else 1

    cfg, errors = _load_config(args)
    if cfg is None:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        out_dir = os.path.abspath(args.out)
        os.makedirs(out_dir, exist_ok=True)
        say = (lambda msg: None) if args.quiet else (lambda msg: print(msg))
        _COMMANDS[args.command](cfg, args, out_dir, say)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
