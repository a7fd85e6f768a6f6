"""Output checks, written independently of the program.

Statistics are re-derived from report CSVs with naive code (plain sums,
nearest-rank percentiles on a sorted list) and compared with what the
program wrote.  ``sweep`` and ``attack`` emit no per-satellite reports, so
their check reads the reports of ``simulate`` cross-check runs on the same
inputs.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REPORT_HEADER = ["sat_id", "latency_ms", "hops", "terminal"]
SWEEP_HEADER = ["fraction", "mean_ms", "median_ms", "p95_ms", "unreachable"]
REL_TOL = 1e-9  # plain sum against the program's compensated sum


def read_report(path: str) -> list[tuple[str, float, int | None, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_HEADER:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    out = []
    for sat_id, latency, hops, terminal in rows[1:]:
        out.append((sat_id, float(latency), int(hops) if hops else None, terminal))
    return out


def rank(sorted_values: list[float], pct: float) -> float:
    k = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[min(max(k, 1), len(sorted_values)) - 1]


def naive_summary(rows) -> dict:
    finite = sorted(lat for _, lat, _, _ in rows if lat != math.inf)
    hops = [h for _, lat, h, _ in rows if lat != math.inf]
    out = {"satellite_count": len(rows), "unreachable_count": len(rows) - len(finite)}
    if not finite:
        return {**out, "mean_ms": None, "median_ms": None, "p5_ms": None, "p95_ms": None,
                "max_ms": None, "mean_hops": None}
    return {
        **out,
        "mean_ms": sum(finite) / len(finite),
        "median_ms": rank(finite, 50),
        "p5_ms": rank(finite, 5),
        "p95_ms": rank(finite, 95),
        "max_ms": finite[-1],
        "mean_hops": sum(hops) / len(hops),
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def compare_summary(naive: dict, got: dict, where: str, keys=None) -> list[str]:
    problems = []
    for key in keys or naive:
        if key not in got:
            problems.append(f"{where}: missing {key}")
        elif key in ("mean_ms", "mean_hops"):
            if not _close(naive[key], got[key]):
                problems.append(f"{where}: {key} {got[key]!r} != re-derived {naive[key]!r}")
        elif naive[key] != got[key]:
            problems.append(f"{where}: {key} {got[key]!r} != re-derived {naive[key]!r}")
    return problems


def actuator_count(fraction: float, sats: int) -> int:
    """The documented half-up rounding of fraction x satellites."""
    return int(math.floor(fraction * sats + 0.5))


def check_rows(rows, sat_ids: list[str], where: str) -> list[str]:
    if [r[0] for r in rows] != sat_ids:
        return [f"{where}: {len(rows)} rows, expected one per satellite ({len(sat_ids)}) in order"]
    return []


def check_onorbit(rows, actuators: int, where: str) -> list[str]:
    """Actuators deliver to themselves at 0 ms; every other satellite pays."""
    zero = [r for r in rows if r[1] == 0.0]
    problems = []
    if len(zero) != actuators:
        problems.append(f"{where}: {len(zero)} zero-latency rows, expected {actuators} actuators")
    if any(hops != 0 or terminal != sat for sat, _, hops, terminal in zero):
        problems.append(f"{where}: an actuator row has hops != 0 or terminal != itself")
    if any(lat < 0.0 for _, lat, _, _ in rows):
        problems.append(f"{where}: negative latency")
    return problems


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_compare(cfg: dict, out: str, sat_ids: list[str]) -> list[str]:
    down = read_report(os.path.join(out, "report_downhaul.csv"))
    orbit = read_report(os.path.join(out, "report_onorbit.csv"))
    summary = _load_json(os.path.join(out, "summary.json"))
    problems = check_rows(down, sat_ids, "report_downhaul.csv")
    problems += check_rows(orbit, sat_ids, "report_onorbit.csv")
    problems += check_onorbit(orbit, actuator_count(cfg["actuator_fraction"], len(sat_ids)),
                              "report_onorbit.csv")
    if any(lat <= 0.0 for _, lat, _, _ in down):
        problems.append("report_downhaul.csv: non-positive latency")
    problems += compare_summary(naive_summary(down), summary["downhaul"], "summary.downhaul")
    problems += compare_summary(naive_summary(orbit), summary["onorbit"], "summary.onorbit")
    echo = summary["config"]
    if echo["seed"] != cfg["seed"] or echo["actuator_fraction"] != cfg["actuator_fraction"]:
        problems.append("summary.config: seed or actuator_fraction differs from the input")
    return problems


def check_sweep(cfg: dict, out: str, sat_ids: list[str], grid, point_dir: str) -> list[str]:
    with open(os.path.join(out, "sweep.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SWEEP_HEADER:
        return ["sweep.csv: bad header"]
    rows = rows[1:]
    if [float(r[0]) for r in rows] != list(grid):
        return [f"sweep.csv: fractions differ from the {len(grid)}-point default grid"]
    problems = []
    unreachable = [int(r[4]) for r in rows]
    if any(b > a for a, b in zip(unreachable, unreachable[1:])):
        problems.append("sweep.csv: unreachable increases along the nested sweep")
    if rows[-1][1:] != ["0.0", "0.0", "0.0", "0"]:
        problems.append("sweep.csv: fraction 1.0 must give 0 ms everywhere and no unreachable")
    report = read_report(os.path.join(point_dir, "report.csv"))
    summary = _load_json(os.path.join(point_dir, "summary.json"))
    fraction = summary["config"]["actuator_fraction"]
    problems += check_rows(report, sat_ids, "cross-check report.csv")
    problems += check_onorbit(report, actuator_count(fraction, len(sat_ids)), "cross-check report.csv")
    naive = naive_summary(report)
    problems += compare_summary(naive, summary, "cross-check summary.json")
    row = rows[list(grid).index(fraction)]
    got = {"mean_ms": float(row[1]) if row[1] else None,
           "median_ms": float(row[2]) if row[2] else None,
           "p95_ms": float(row[3]) if row[3] else None,
           "unreachable_count": int(row[4])}
    problems += compare_summary(naive, got, f"sweep.csv row {fraction!r}", keys=got)
    return problems


def _normal_overlay(overlay: dict) -> dict:
    return {
        "disabled_satellites": sorted(overlay.get("disabled_satellites", [])),
        "disabled_stations": sorted(overlay.get("disabled_stations", [])),
        "disabled_links": sorted(sorted(pair) for pair in overlay.get("disabled_links", [])),
        "jam_regions": [{k: float(v) for k, v in r.items()} for r in overlay.get("jam_regions", [])],
        "reroute_penalty_ms": float(overlay.get("reroute_penalty_ms", 0.0)),
    }


def check_attack(cfg: dict, out: str, sat_ids: list[str], dirs: list[str]) -> list[str]:
    result = _load_json(os.path.join(out, "attack.json"))
    problems = []
    if _normal_overlay(result["overlay"]) != _normal_overlay(cfg["overlay"]):
        problems.append("attack.json: overlay echo differs from the input overlay")
    for part in ("baseline", "attacked"):
        if result[part]["satellite_count"] != len(sat_ids):
            problems.append(f"attack.json: {part} satellite_count != {len(sat_ids)}")
    if result["availability_loss"] != (
        result["attacked"]["unreachable_count"] - result["baseline"]["unreachable_count"]
    ):
        problems.append("attack.json: availability_loss != attacked - baseline unreachable")
    base = read_report(os.path.join(dirs[0], "report.csv"))
    hit = read_report(os.path.join(dirs[1], "report.csv"))
    problems += check_rows(base, sat_ids, "baseline report.csv")
    problems += check_rows(hit, sat_ids, "attacked report.csv")
    if problems:
        return problems
    problems += compare_summary(naive_summary(base), result["baseline"], "attack.baseline")
    problems += compare_summary(naive_summary(hit), result["attacked"], "attack.attacked")
    deltas = [a[1] - b[1] for a, b in zip(hit, base) if a[1] != math.inf and b[1] != math.inf]
    if not _close(sum(deltas) / len(deltas) if deltas else None, result["delta_mean_ms"]):
        problems.append(f"attack.json: delta_mean_ms {result['delta_mean_ms']!r} != re-derived")
    disabled = set(cfg["overlay"]["disabled_satellites"])
    if any(lat != math.inf for sat, lat, _, _ in hit if sat in disabled):
        problems.append("attack: a disabled satellite is still reachable")
    return problems


def digest_outputs(out: str, inputs_dir: str) -> dict[str, str]:
    """sha256 of every file under ``out``, with the absolute inputs path
    (echoed by config dumps) replaced so digests do not depend on where the
    checkout lives."""
    marker = json.dumps(inputs_dir)[1:-1].encode("utf-8")
    digests = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(marker, b"<inputs>")
            digests[os.path.relpath(path, out)] = hashlib.sha256(data).hexdigest()
    return dict(sorted(digests.items()))
