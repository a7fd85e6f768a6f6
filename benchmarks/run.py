#!/usr/bin/env python3
"""sda-netlab benchmark: one workload per invocation, each round in a fresh
child process, outputs checked, every metric printed by name and unit.

    python3 benchmarks/run.py --workload sweep-starlink --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports the program from
``src/`` and writes only under ``.benchwork/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See README.md next to this file for the workloads and the
metric-to-workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata

from verify import check_attack, check_compare, check_sweep, digest_outputs, rank
from workloads import DEFAULT_SEED, SWEEP_GRID, THREADS, WORKLOADS, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPEATS = 7
RUN_LIMIT_S = 150.0  # no round starts that is predicted to end after this
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "sat_routes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "scenario_p50_ms": "ms",
    "scenario_p90_ms": "ms",
}
ROUTING_MODES = ("onorbit", "downhaul_greedy", "downhaul_optimal")
PER_LAYER_UNITS = {
    "constellation.resolve.busy_s": "s",
    "constellation.select.busy_s": "s",
    "constellation.select.calls": "count",
    "constellation.stations.busy_s": "s",
    "topology.graph_build.busy_s": "s",
    "topology.graph_build.busy_s_1t": "s",
    "topology.graph_build.pairs_needed": "count",
    "topology.graph_build.sat_edges": "count",
    "topology.graph_build.station_edges": "count",
    "topology.graph_build.edge_yield": "ratio",
    "topology.overlay.busy_s": "s",
    "topology.overlay.edges_in": "count",
    "topology.overlay.edges_removed": "count",
    **{f"routing.{m}.busy_s": "s" for m in ROUTING_MODES},
    **{f"routing.{m}.calls": "count" for m in ROUTING_MODES},
    "routing.relay_edges": "count",
    "routing.unreachable": "count",
    "experiments.summarize.busy_s": "s",
    "experiments.report_csv.busy_s": "s",
    "experiments.report_csv.bytes": "bytes",
    "cli.validate.busy_s": "s",
    "cli.write.busy_s": "s",
    "cli.write.bytes": "bytes",
    "experiments.orchestration.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure anything (no result is printed)."""


def run_child(mode: str, commands: list[list[str]], round_dir: str) -> dict | None:
    """Run child.py in a fresh interpreter and wait for it; None if it failed."""
    os.makedirs(round_dir, exist_ok=True)
    spec = os.path.join(round_dir, "spec.json")
    result = os.path.join(round_dir, "result.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "commands": commands}, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(os.path.join(round_dir, "child.log"), "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec, result],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        # A blocking wait with a kill timer: Popen.wait(timeout=...) polls in
        # steps of up to 50 ms, which would quantise the set-up probe times.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            timer.join()
    if code != 0 or not os.path.exists(result):
        return None
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _out_dir(round_dir: str, k: int) -> str:
    return os.path.join(round_dir, f"cmd{k:03d}")


def execute_round(workload, round_dir: str, mode: str = "plain") -> dict:
    commands = [c.argv + ["--out", _out_dir(round_dir, k)] for k, c in enumerate(workload.commands)]
    result = run_child(mode, commands, round_dir)
    if result is None:
        return {"wall_s": None, "command_s": [], "maxrss_kb": None,
                "errors": [f"child process failed; see {round_dir}/child.log"] * len(commands)}
    return result


def measure_setup(workload) -> list[float]:
    """Fresh interpreters through import, validate_config and resolve_snapshot."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = run_child("setup", [workload.commands[0].argv], os.path.join(WORK, f"setup{k}"))
        elapsed = time.perf_counter() - t0
        if result is None or result["sats"] != workload.sats:
            raise BenchError("set-up child failed")
        times.append(elapsed)
    return times


def run_crosscheck(workload, xdir: str) -> tuple[list[list[str]], list[str | None]]:
    """``simulate`` runs that give per-satellite reports for each command;
    returns each command's output directories and cross-check error."""
    argvs, owners = [], []
    for k, cmd in enumerate(workload.commands):
        for j, argv in enumerate(cmd.crosscheck):
            argvs.append(argv + ["--out", os.path.join(xdir, f"cmd{k:03d}-{j}")])
            owners.append(k)
    dirs: list[list[str]] = [[] for _ in workload.commands]
    errors: list[str | None] = [None] * len(workload.commands)
    if argvs:
        result = run_child("plain", argvs, xdir) or {"errors": ["child process failed"] * len(argvs)}
        for argv, k, err in zip(argvs, owners, result["errors"]):
            dirs[k].append(argv[-1])
            if err is not None:
                errors[k] = f"cross-check simulate: {err}"
    return dirs, errors


def check_round(workload, round_dir: str, xdirs: list) -> list[list[str]]:
    """Problems per command; ``xdirs`` are the command's ``simulate``
    cross-check output directories."""
    ids = workload.sat_ids()
    problems = []
    for k, cmd in enumerate(workload.commands):
        out = _out_dir(round_dir, k)
        try:
            if cmd.kind == "compare":
                found = check_compare(cmd.config, out, ids)
            elif cmd.kind == "sweep":
                found = check_sweep(cmd.config, out, ids, SWEEP_GRID, xdirs[k][0])
            else:
                found = check_attack(cmd.config, out, ids, xdirs[k])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems.append(found)
    return problems


def round_digests(workload, round_dir: str) -> list[dict[str, str]]:
    return [digest_outputs(_out_dir(round_dir, k), workload.inputs_dir)
            for k in range(len(workload.commands))]


def load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def tail_ms(sorted_ms: list[float]) -> float:
    """Nearest-rank p90 once at least 10 samples lie beyond it (100 or more
    commands); with fewer commands no tail percentile is resolved, and the
    median stands in for it."""
    if len(sorted_ms) >= 100:
        return rank(sorted_ms, 90)
    return statistics.median(sorted_ms)


def collect(workload, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Run the rounds: untraced rounds filling ``seconds`` after the set-up
    measurement, or one untraced and one traced round."""
    start = time.perf_counter()
    if trace:
        rounds = [execute_round(workload, os.path.join(WORK, "round0")),
                  execute_round(workload, os.path.join(WORK, "round1"), mode="traced")]
        if any(r["wall_s"] is None for r in rounds):
            raise BenchError("a round of the traced run failed; see " + WORK)
        return rounds, []
    setup = measure_setup(workload)
    rounds = []
    measure_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(execute_round(workload, os.path.join(WORK, f"round{len(rounds)}")))
        now = time.perf_counter()
        took = now - t0
        if now - measure_start + took > seconds or now - start + took > RUN_LIMIT_S:
            return rounds, setup


def evaluate(workload, rounds: list[dict], setup: list[float], trace: bool,
             record_digests: bool = False) -> dict:
    """Check every round's outputs and turn the rounds into the record,
    whose ``result`` is the benchmark's last output line."""
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "threads": THREADS,
        },
        "inputs": {
            "workload": workload.name, "seed": workload.seed, "preset": workload.preset,
            "sats": workload.sats, "commands_per_round": len(workload.commands),
            "routing_calls_per_round": workload.routing_calls,
        },
        "rounds": len(rounds),
    }
    # Round 0 is checked in full, with cross-checks; every later round must
    # reproduce round 0 byte for byte.
    ncmd = len(workload.commands)
    failures: list[list[str]] = [[e] if e else [] for e in rounds[0]["errors"]]
    xdirs, xerrors = run_crosscheck(workload, os.path.join(WORK, "crosscheck"))
    for k, problems in enumerate(check_round(workload, os.path.join(WORK, "round0"), xdirs)):
        failures[k] += problems + ([xerrors[k]] if xerrors[k] else [])
    reference = round_digests(workload, os.path.join(WORK, "round0"))
    flat = {f"cmd{k:03d}/{f}": d for k in range(ncmd) for f, d in reference[k].items()}
    if record_digests:
        if workload.seed != DEFAULT_SEED or workload.preset == "tiny" or any(failures):
            raise BenchError("digests are recorded only from a clean run at the default seed")
        stored = load_digests()
        stored[workload.name] = flat
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif workload.seed == DEFAULT_SEED and workload.preset != "tiny":
        recorded = load_digests().get(workload.name, {})
        for key in sorted(set(flat) | set(recorded)):
            if flat.get(key) != recorded.get(key):
                failures[int(key[3:6])].append(f"{key}: digest differs from the default-seed record")
    for r, rnd in enumerate(rounds[1:], start=1):
        failures += [[e] if e else [] for e in rnd["errors"]]
        digests = round_digests(workload, os.path.join(WORK, f"round{r}"))
        for k in range(ncmd):
            if digests[k] != reference[k]:
                what = "traced round" if trace else f"round {r}"
                failures[r * ncmd + k].append(f"{what} outputs differ from the untraced round 0")
    if trace and not rounds[1].get("threads_identical", False):
        failures[ncmd].append("threads=1 and threads=2 visibility graphs differ")
    record["failures"] = {str(i): f for i, f in enumerate(failures) if f}
    failed = sum(1 for f in failures if f)

    walls = [r["wall_s"] for r in rounds if r["wall_s"] is not None]
    if not walls:
        raise BenchError("no round completed; see " + WORK)
    if trace:
        metrics, table = layer_metrics(rounds[1], rounds[0]["wall_s"])
        record["graph"] = {"preset": workload.preset, "sats": workload.sats, **table}
        units = PER_LAYER_UNITS
    else:
        wall = statistics.median(walls)
        command_ms = sorted(t * 1000.0 for r in rounds for t in r["command_s"])
        metrics = {
            "wall_s": wall,
            "sat_routes_per_s": workload.sats * workload.routing_calls / wall,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds if r["maxrss_kb"]) / 1024.0,
            "setup_s": statistics.median(setup),
            "scenario_p50_ms": statistics.median(command_ms),
            "scenario_p90_ms": tail_ms(command_ms),
        }
        record["samples"] = {"setup_s": setup, "round_wall_s": walls, "commands": len(command_ms)}
        units = END_TO_END_UNITS
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(WORK, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "spans": rounds[1]["spans"] if trace else None}, fh)
    return record


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            record_digests: bool = False) -> dict:
    """Generate the inputs, run the rounds and evaluate them."""
    shutil.rmtree(WORK, ignore_errors=True)
    workload = make_workload(name, seed, os.path.join(WORK, "inputs"), tiny=tiny)
    rounds, setup = collect(workload, seconds, trace)
    return evaluate(workload, rounds, setup, trace, record_digests)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children never overlap: every hooked call runs on the main thread)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(traced: dict, untraced_wall: float) -> tuple[dict, dict]:
    spans = traced["spans"]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    orchestration = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        busy[name] += span["end"] - span["start"]
        calls[name] += 1
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] += value
        if name in ("workload", "command"):
            orchestration += own
    builds = max(calls["topology.graph_build"], 1)
    sat_edges = counts["topology.graph_build.sat_edges"] / builds
    station_edges = counts["topology.graph_build.station_edges"] / builds
    pairs = counts["topology.graph_build.pairs_needed"] / builds
    metrics = {
        "constellation.resolve.busy_s": busy["constellation.resolve"],
        "constellation.select.busy_s": busy["constellation.select"],
        "constellation.select.calls": calls["constellation.select"],
        "constellation.stations.busy_s": busy["constellation.stations"],
        "topology.graph_build.busy_s": busy["topology.graph_build"],
        "topology.graph_build.busy_s_1t": busy["topology.graph_build_1t"],
        "topology.graph_build.pairs_needed": pairs,
        "topology.graph_build.sat_edges": sat_edges,
        "topology.graph_build.station_edges": station_edges,
        "topology.graph_build.edge_yield": (sat_edges + station_edges) / pairs if pairs else 0.0,
        "topology.overlay.busy_s": busy["topology.overlay"],
        "topology.overlay.edges_in": counts["topology.overlay.edges_in"],
        "topology.overlay.edges_removed": counts["topology.overlay.edges_removed"],
        "routing.relay_edges": sum(counts[f"routing.{m}.relay_edges"] for m in ROUTING_MODES),
        "routing.unreachable": counts["experiments.summarize.unreachable"],
        "experiments.summarize.busy_s": busy["experiments.summarize"],
        "experiments.report_csv.busy_s": busy["experiments.report_csv"],
        "experiments.report_csv.bytes": counts["experiments.report_csv.bytes"],
        "cli.validate.busy_s": busy["cli.validate"],
        "cli.write.busy_s": busy["cli.write"],
        "cli.write.bytes": counts["cli.write.bytes"],
        "experiments.orchestration.self_s": orchestration,
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }
    for m in ROUTING_MODES:
        metrics[f"routing.{m}.busy_s"] = busy[f"routing.{m}"]
        metrics[f"routing.{m}.calls"] = calls[f"routing.{m}"]
    table = {
        "isl_edges": sat_edges,
        "station_edges": station_edges,
        "graph_build_s": busy["topology.graph_build"] / builds,
        "graph_build_1t_s": busy["topology.graph_build_1t"],
        **{f"{m}_s": busy[f"table.routing.{m}"] for m in ROUTING_MODES},
    }
    return metrics, table


def _print_record(record: dict) -> None:
    machine = " ".join(f"{k}={v}" for k, v in record["machine"].items())
    inputs = " ".join(f"{k}={v}" for k, v in record["inputs"].items())
    print(f"# machine: {machine}")
    print(f"# inputs: {inputs} rounds={record['rounds']}")
    if "graph" in record:
        row = " ".join(f"{k}={v}" for k, v in record["graph"].items())
        print(f"# graph, and one solve per mode on it: {row}")
    result = record["result"]
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6f} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{'ops':40s} {result['attempted']:>16d} count")
    print(f"{'failed_frac':40s} {frac:>16.6f} ratio")
    for op, problems in record["failures"].items():
        print(f"# op {op} failed: {'; '.join(problems)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window for the untraced rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the default-seed reference")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sda_netlab", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         record_digests=args.record_digests)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
