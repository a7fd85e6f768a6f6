"""Command-line front end.

Subcommands: generate, simulate, sweep, attack, compare.  All outputs are
plain CSV/JSON written with LF newlines and repr-precision floats, so runs
with identical inputs and seed are byte-identical regardless of the thread
count.

Exit codes: 0 success, 1 configuration/validation error (an unreadable
input file, and an ``--out`` that cannot be created or holds an output
path that cannot be written, among them), 2 runtime error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import replace

from .constellation import snapshot_to_csv
from .experiments import (
    ScenarioConfig,
    actuator_sweep,
    attack_scenario,
    compare_architectures,
    config_to_dict,
    report_to_csv,
    resolve_actuator_count,
    resolve_snapshot,
    run_scenario,
    validate_config,  # _load_config looks it up here, so cli.validate_config can be wrapped
)
from .routing import ArchitectureMode
from .topology import resolve_thread_count

SWEEP_CSV_HEADER = "fraction,mean_ms,median_ms,p95_ms,unreachable"


# --- Output writers -------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing the file ``path`` would meet
    first: it is a directory, or the process may not write it (or, while it
    does not exist, its directory).  Nothing is created."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else os.path.dirname(path), os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


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
                        help="worker threads (default: all cores)")
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
    except (OSError, UnicodeDecodeError) as exc:
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
        return None, [f"--{exc}"]
    if args.mode is not None:
        cfg = replace(cfg, mode=args.mode)
    return cfg, []


def _cmd_generate(cfg: ScenarioConfig, args, paths: list[str], say) -> None:
    snapshot = resolve_snapshot(cfg.constellation)
    resolve_actuator_count(cfg, len(snapshot))  # rejects a count above the satellites
    [path] = paths
    _write_text(path, snapshot_to_csv(snapshot))
    say(f"wrote {path} ({len(snapshot)} satellites)")


def _cmd_simulate(cfg: ScenarioConfig, args, paths: list[str], say) -> None:
    run = run_scenario(cfg, threads=args.threads)
    report_path, summary_path = paths
    _write_text(report_path, report_to_csv(run.report))
    _write_json(summary_path, {**run.summary.to_dict(), "config": config_to_dict(cfg)})
    mean = run.summary.mean_ms
    say(f"wrote {report_path} and {summary_path}")
    say(f"mode={cfg.mode.value} mean_ms={'n/a' if mean is None else f'{mean:.4f}'} "
        f"unreachable={run.summary.unreachable_count}/{run.summary.satellite_count}")


def _cmd_sweep(cfg: ScenarioConfig, args, paths: list[str], say) -> None:
    points = actuator_sweep(
        cfg, independent_draws=args.independent_draws, threads=args.threads
    )
    [path] = paths
    _write_text(path, _sweep_csv(points))
    say(f"wrote {path} ({len(points)} fractions)")


def _cmd_attack(cfg: ScenarioConfig, args, paths: list[str], say) -> None:
    outcome = attack_scenario(cfg, threads=args.threads)
    [path] = paths
    _write_json(path, {
        "baseline": outcome.baseline.to_dict(),
        "attacked": outcome.attacked.to_dict(),
        "delta_mean_ms": outcome.delta_mean_ms,
        "availability_loss": outcome.availability_loss,
        "overlay": cfg.overlay.to_dict(),
        "config": config_to_dict(cfg),
    })
    say(f"wrote {path} (availability loss {outcome.availability_loss})")


def _cmd_compare(cfg: ScenarioConfig, args, paths: list[str], say) -> None:
    result = compare_architectures(cfg, threads=args.threads)
    down_path, orbit_path, summary_path = paths
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


# Each command, and the files it writes under --out, in the order it takes
# their paths.
_COMMANDS = {
    "generate": (_cmd_generate, ("snapshot.csv",)),
    "simulate": (_cmd_simulate, ("report.csv", "summary.json")),
    "sweep": (_cmd_sweep, ("sweep.csv",)),
    "attack": (_cmd_attack, ("attack.json",)),
    "compare": (_cmd_compare, ("report_downhaul.csv", "report_onorbit.csv", "summary.json")),
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are validation errors here.
        return 0 if exc.code in (0, None) else 1

    cfg, errors = _load_config(args)
    out_dir = os.path.abspath(args.out)
    command, names = _COMMANDS[args.command]
    paths = [os.path.join(out_dir, name) for name in names]
    if cfg is not None:
        # Every output path is checked before any work, so a bad one writes nothing.
        try:
            os.makedirs(out_dir, exist_ok=True)
            for path in paths:
                _check_writable(path)
        except OSError as exc:
            cfg, errors = None, [f"--out: {exc}"]
    if cfg is None:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        say = (lambda msg: None) if args.quiet else (lambda msg: print(msg))
        command(cfg, args, paths, say)
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
