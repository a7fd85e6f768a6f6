"""Experiment orchestration: scenario configuration and its JSON schema,
metric summaries, the shared network stage, architecture comparison,
actuator-fraction sweeps, and attack scenarios.

A snapshot is geometry only.  The actuators are a study's choice: the
network stage draws them as a mask beside the snapshot, a sweep point swaps
that mask, and routing takes it as an input."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .constellation import (
    ConstellationSnapshot,
    GroundStationNode,
    WalkerSpec,
    generate_walker,
    load_ground_stations_csv,
    load_snapshot_csv,
    merge_snapshots,
    select_actuators,
    splitmix64,
)
from .geo import GeodeticPosition
from .jsonvalues import JsonObject, config_key, json_number, json_object, json_string, key_errors
from .routing import (
    ArchitectureMode,
    LatencyReport,
    downhaul_latencies,
    onorbit_latencies,
)
from .tle import load_tle_file, snapshot_from_tles
from .topology import (
    AttackOverlay, VisibilityGraph, apply_overlay, build_visibility_graph, reroute_penalty,
    resolve_thread_count,
)

DEFAULT_ACTUATOR_FRACTION = 0.15
DEFAULT_SWEEP_FRACTIONS = tuple(i / 20 for i in range(1, 21))


# --- Metric summaries -----------------------------------------------------------


@dataclass(frozen=True)
class MetricsSummary:
    """Statistics over the finite latencies of a report.

    When every satellite is unreachable the latency statistics are absent
    (None), never NaN.
    """

    satellite_count: int
    unreachable_count: int
    reachable_fraction: float
    mean_ms: float | None
    median_ms: float | None
    p5_ms: float | None
    p95_ms: float | None
    max_ms: float | None
    mean_hops: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def nearest_rank_percentile(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile on an ascending list (no interpolation)."""
    if not sorted_values:
        raise ValueError("percentile of an empty list is undefined")
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    rank = min(max(rank, 1), len(sorted_values))
    return sorted_values[rank - 1]


def summarize(report: LatencyReport) -> MetricsSummary:
    if len(report) == 0:
        raise ValueError("cannot summarize an empty report")
    reached = np.isfinite(report.latency_ms)
    finite = np.sort(report.latency_ms[reached]).tolist()
    unreachable = len(report) - len(finite)
    if not finite:
        return MetricsSummary(
            satellite_count=len(report),
            unreachable_count=unreachable,
            reachable_fraction=0.0,
            mean_ms=None,
            median_ms=None,
            p5_ms=None,
            p95_ms=None,
            max_ms=None,
            mean_hops=None,
        )
    hops = report.hops[reached].tolist()
    return MetricsSummary(
        satellite_count=len(report),
        unreachable_count=unreachable,
        reachable_fraction=1.0 - unreachable / len(report),
        mean_ms=math.fsum(finite) / len(finite),
        median_ms=nearest_rank_percentile(finite, 50.0),
        p5_ms=nearest_rank_percentile(finite, 5.0),
        p95_ms=nearest_rank_percentile(finite, 95.0),
        max_ms=finite[-1],
        mean_hops=math.fsum(hops) / len(hops),
    )


REPORT_CSV_HEADER = "sat_id,latency_ms,hops,terminal"


def report_to_csv(report: LatencyReport) -> str:
    """Per-satellite rows; unreachable satellites carry the literal `inf`
    and empty hops/terminal fields."""
    lines = [REPORT_CSV_HEADER]
    for sat_id, latency, hops, terminal in zip(
        report.sat_ids, report.latency_ms.tolist(), report.hops.tolist(), report.terminal.tolist()
    ):
        lines.append(f"{sat_id},{latency!r},{'' if hops < 0 else hops},{terminal or ''}")
    return "\n".join(lines) + "\n"


# --- Scenario configuration -----------------------------------------------------


@dataclass(frozen=True)
class WalkerShell:
    spec: WalkerSpec
    id_prefix: str = "sat"
    label: str = "walker"

    def __post_init__(self) -> None:
        json_string(self.id_prefix, "id_prefix")
        json_string(self.label, "label")


def starlink_like_shell() -> WalkerShell:
    """550 km / 53 deg shell sized to match a 5760-satellite constellation."""
    return WalkerShell(WalkerSpec(550.0, 53.0, 72, 80, phasing_f=1), "sl", "starlink-like")


def oneweb_like_shell() -> WalkerShell:
    """1200 km / 87.9 deg shell sized to match a 630-satellite constellation."""
    return WalkerShell(WalkerSpec(1200.0, 87.9, 18, 35, phasing_f=1), "ow", "oneweb-like")


PRESET_NAMES = ("starlink-like", "oneweb-like", "combined")


def preset_shells(name: str) -> tuple[WalkerShell, ...]:
    if name == "starlink-like":
        return (starlink_like_shell(),)
    if name == "oneweb-like":
        return (oneweb_like_shell(),)
    if name == "combined":
        return (starlink_like_shell(), oneweb_like_shell())
    raise ValueError(f"unknown preset {name!r}")


@dataclass(frozen=True)
class ConstellationSource:
    """Exactly one of: Walker shells, a snapshot CSV, or a TLE file."""

    walker_shells: tuple[WalkerShell, ...] = ()
    snapshot_csv: str | None = None
    tle_file: str | None = None
    tle_at_seconds: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "walker_shells", tuple(self.walker_shells))
        given = sum([bool(self.walker_shells), self.snapshot_csv is not None, self.tle_file is not None])
        if given != 1:
            raise ValueError("exactly one constellation source must be given")
        if self.tle_at_seconds is not None:
            if self.tle_file is None:
                raise ValueError("tle_at_seconds requires tle_file")
            object.__setattr__(self, "tle_at_seconds", json_number(self.tle_at_seconds, "tle_at_seconds"))


def _bounded(kind: type, test, text: str, optional: bool = False):
    """The rule of one numeric field: a number of ``kind`` by
    :func:`json_number` that passes ``test``; None too when ``optional``."""

    def rule(value, key: str):
        if value is None and optional:
            return None
        value = json_number(value, key, kind)
        if not test(value):
            raise ValueError(f"{key}: {text}, got {value}")
        return value

    return rule


def _sweep_fractions(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{key}: must be a non-empty array of numbers")
    fractions = tuple(json_number(f, f"{key}[{k}]") for k, f in enumerate(value))
    outside = [f for f in fractions if not 0.0 <= f <= 1.0]
    if outside:
        raise ValueError(f"{key}: fraction {outside[0]} outside [0, 1]")
    if list(fractions) != sorted(fractions):
        raise ValueError(f"{key}: must be sorted ascending")
    return fractions


# The rule of each checked ScenarioConfig field, by name: ``rule(value, key)``
# returns the value as the field holds it, or raises ``ValueError`` keyed
# ``key``.  ScenarioConfig holds what check_fields returns or raises its
# first error, and validate_config reports them all, so a JSON config and
# its Python twin obey one set and hold equal values.
FIELD_RULES = {
    "actuator_fraction": _bounded(float, lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]", optional=True),
    "actuator_count": _bounded(int, lambda v: v >= 0, "must be >= 0", optional=True),
    "seed": _bounded(int, lambda v: 0 <= v < 2**64, "must be an unsigned 64-bit integer"),
    "los_margin_km": _bounded(float, lambda v: v >= 0.0, "must be >= 0"),
    "min_elevation_deg": _bounded(float, lambda v: abs(v) <= 90.0, "must be in [-90, 90]", optional=True),
    "reroute_penalty_ms": reroute_penalty,
    "sweep_fractions": _sweep_fractions,
}


def check_fields(given: dict) -> tuple[dict, list[str]]:
    """Run :data:`FIELD_RULES` on the fields present in ``given`` and the
    rule that the actuator fraction and count exclude each other.  Returns
    the checked values and every error."""
    values, errors = {}, []
    for key, rule in FIELD_RULES.items():
        if key in given:
            try:
                values[key] = rule(given[key], key)
            except ValueError as exc:
                errors.append(str(exc))
    if given.get("actuator_fraction") is not None and given.get("actuator_count") is not None:
        errors.append("actuator_fraction: mutually exclusive with actuator_count")
    return values, errors


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_path(raw, base_dir: str, key: str) -> str:
    """The absolute path of the existing file ``raw`` names, relative to
    ``base_dir``; raises ``ValueError`` keyed ``key``."""
    path = json_string(raw, key)
    full = os.path.abspath(os.path.join(base_dir, path))
    if not os.path.isfile(full):
        raise ValueError(f"{key}: file not found: {path}")
    return full


def _shell_from_json(raw, name: str) -> WalkerShell:
    spec = fields(WalkerSpec)
    data = json_object(
        raw, name, required=[f.name for f in spec if f.default is MISSING],
        optional=[*(f.name for f in spec if f.default is not MISSING), "id_prefix", "label"],
    )
    with config_key(name):
        return WalkerShell(
            WalkerSpec(**{key: value for key, value in data.items() if key not in ("id_prefix", "label")}),
            **{key: data[key] for key in ("id_prefix", "label") if key in data},
        )


_SOURCES = ("preset", "walker", "snapshot_csv", "tle_file")


def _source_from_json(raw, base_dir: str) -> ConstellationSource:
    data = json_object(raw, "constellation", optional=(*_SOURCES, "tle_at_seconds"))
    given = [key for key in _SOURCES if key in data]
    if len(given) != 1:
        raise ValueError(
            f"constellation: exactly one of {' / '.join(_SOURCES)} must be given, found {given or 'none'}"
        )
    if "tle_at_seconds" in data and given != ["tle_file"]:
        raise ValueError("constellation: tle_at_seconds requires tle_file")
    if "preset" in data:
        with config_key("constellation.preset"):
            return ConstellationSource(walker_shells=preset_shells(data["preset"]))
    if "walker" in data:
        raw = data["walker"]
        shells = [
            _shell_from_json(shell, f"constellation.walker[{k}]")
            for k, shell in enumerate(raw if isinstance(raw, list) else [raw])
        ]
        if not shells:
            raise ValueError("constellation.walker: at least one shell is required")
        return ConstellationSource(walker_shells=shells)
    if "snapshot_csv" in data:
        return ConstellationSource(
            snapshot_csv=_resolve_path(data["snapshot_csv"], base_dir, "constellation.snapshot_csv")
        )
    path = _resolve_path(data["tle_file"], base_dir, "constellation.tle_file")
    at = data.get("tle_at_seconds")
    return ConstellationSource(
        tle_file=path, tle_at_seconds=None if at is None else json_number(at, "constellation.tle_at_seconds")
    )


def _source_to_json(cfg: ScenarioConfig) -> dict:
    source = cfg.constellation
    if source.walker_shells:
        return {"walker": [
            {**asdict(shell.spec), "id_prefix": shell.id_prefix, "label": shell.label}
            for shell in source.walker_shells
        ]}
    if source.snapshot_csv is not None:
        return {"snapshot_csv": source.snapshot_csv}
    if source.tle_at_seconds is None:
        return {"tle_file": source.tle_file}
    return {"tle_file": source.tle_file, "tle_at_seconds": source.tle_at_seconds}


def _terminus_from_json(raw, base_dir: str) -> dict:
    data = json_object(raw, "terminus", required=("lat_deg", "lon_deg"), optional=("alt_km",))
    with config_key("terminus"):
        return {"terminus": GeodeticPosition(data["lat_deg"], data["lon_deg"], data.get("alt_km", 0.0))}


def _terminus_to_json(cfg: ScenarioConfig) -> dict | None:
    t = cfg.terminus
    if t is None:
        return None
    return {"lat_deg": t.latitude_deg, "lon_deg": t.longitude_deg, "alt_km": t.altitude_km}


def _mode(raw) -> ArchitectureMode:
    """The mode ``raw`` names; raises ``ValueError`` keyed ``mode``."""
    with config_key("mode"):
        return ArchitectureMode.from_string(raw)


def _overlay_from_json(raw, base_dir: str) -> dict:
    """An inline overlay object, or the path of a JSON file holding one."""
    path = None
    if isinstance(raw, str):
        path = _resolve_path(raw, base_dir, "overlay")
        try:
            raw = json.loads(_read(path), object_pairs_hook=JsonObject)
        except (ValueError, OSError) as exc:
            raise ValueError(f"overlay: {exc}") from None
    elif not isinstance(raw, dict):
        raise ValueError("overlay: must be a path or an object")
    return {"overlay": AttackOverlay.from_dict(raw), "overlay_path": path}


def _overlay_to_json(cfg: ScenarioConfig) -> str | dict | None:
    if cfg.overlay_path is not None:
        return cfg.overlay_path
    return None if cfg.overlay is None else cfg.overlay.to_dict()


def _unless_null(parse):
    """``parse`` for a key that ``null`` leaves unset, as leaving it out does."""
    return lambda raw, base_dir: {} if raw is None else parse(raw, base_dir)


# The config keys that are not FIELD_RULES fields, by name: ``(parse, echo)``.
# ``parse(raw, base_dir)`` returns the ScenarioConfig fields the key sets, or
# raises ``ValueError`` keyed by the key (or a key inside it); ``echo(cfg)``
# returns the key's JSON value, or None to leave the key out.  validate_config
# and config_to_dict are loops over this table and FIELD_RULES.
CONFIG_KEYS = {
    "constellation": (
        lambda raw, base_dir: {"constellation": _source_from_json(raw, base_dir)}, _source_to_json,
    ),
    "stations_csv": (
        _unless_null(lambda raw, base_dir: {"stations_csv": _resolve_path(raw, base_dir, "stations_csv")}),
        lambda cfg: cfg.stations_csv,
    ),
    "terminus": (_unless_null(_terminus_from_json), _terminus_to_json),
    "mode": (lambda raw, base_dir: {"mode": _mode(raw)}, lambda cfg: cfg.mode.value),
    "overlay": (_unless_null(_overlay_from_json), _overlay_to_json),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One full experiment description; see README for the JSON schema.
    ``mode`` holds the :class:`ArchitectureMode` its name (or member) names."""

    constellation: ConstellationSource
    stations_csv: str | None = None
    terminus: GeodeticPosition | None = None
    mode: ArchitectureMode = ArchitectureMode.ON_ORBIT
    actuator_fraction: float | None = None
    actuator_count: int | None = None
    seed: int = 0
    los_margin_km: float = 0.0
    min_elevation_deg: float | None = None
    reroute_penalty_ms: float = 0.0
    overlay: AttackOverlay | None = None
    overlay_path: str | None = None
    sweep_fractions: tuple[float, ...] = field(default=DEFAULT_SWEEP_FRACTIONS)

    def __post_init__(self) -> None:
        if self.actuator_fraction is None and self.actuator_count is None:
            object.__setattr__(self, "actuator_fraction", DEFAULT_ACTUATOR_FRACTION)
        object.__setattr__(self, "mode", _mode(self.mode))
        values, errors = check_fields(vars(self))
        if errors:
            raise ValueError(errors[0])
        for key, value in values.items():
            object.__setattr__(self, key, value)


def validate_config(text: str, base_dir: str = ".") -> tuple[ScenarioConfig | None, list[str]]:
    """Parse and fully validate a config document, reporting every error at
    once rather than stopping at the first.  Relative paths resolve against
    ``base_dir``."""
    try:
        data = json.loads(text, object_pairs_hook=JsonObject)
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: {exc}"]
    if not isinstance(data, dict):
        return None, ["config must be a JSON object"]
    errors = key_errors(data, required=("constellation",), optional=(*CONFIG_KEYS, *FIELD_RULES))
    values = {}
    for key, (parse, _) in CONFIG_KEYS.items():
        if key in data:
            try:
                values.update(parse(data[key], base_dir))
            except ValueError as exc:
                errors.append(str(exc))
    given = {key: data[key] for key in FIELD_RULES if key in data}
    errors += check_fields(given)[1]
    if errors:
        return None, errors
    return ScenarioConfig(**values, **given), []


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Echo a fully resolved config; re-validating the echo yields an equal
    ScenarioConfig (paths are stored absolute)."""
    return {key: value for key, value in [
        *((key, echo(cfg)) for key, (_, echo) in CONFIG_KEYS.items()),
        *((key, getattr(cfg, key)) for key in FIELD_RULES),
    ] if value is not None}


def half_up_count(fraction: float, total: int) -> int:
    """Round half up; keeps fraction 0 -> 0 and fraction 1 -> total exact."""
    return int(math.floor(fraction * total + 0.5))


def resolve_actuator_count(cfg: ScenarioConfig, total: int) -> int:
    """The configured count, or the fraction of ``total``; a count above
    ``total`` raises ``ValueError`` keyed ``actuator_count``."""
    if cfg.actuator_count is None:
        return half_up_count(cfg.actuator_fraction, total)
    if cfg.actuator_count > total:
        raise ValueError(f"actuator_count: {cfg.actuator_count} exceeds {total} satellites")
    return cfg.actuator_count


def resolve_snapshot(source: ConstellationSource) -> ConstellationSnapshot:
    if source.walker_shells:
        with config_key("constellation.walker"):
            return merge_snapshots(*(
                generate_walker(shell.spec, id_prefix=shell.id_prefix) for shell in source.walker_shells
            ))
    if source.snapshot_csv is not None:
        with config_key("constellation.snapshot_csv"):
            return load_snapshot_csv(_read(source.snapshot_csv))
    with config_key("constellation.tle_file"):
        return snapshot_from_tles(load_tle_file(_read(source.tle_file)), source.tle_at_seconds)


def resolve_stations(cfg: ScenarioConfig) -> list[GroundStationNode]:
    if cfg.stations_csv is None:
        return []
    with config_key("stations_csv"):
        return load_ground_stations_csv(_read(cfg.stations_csv))


def resolve_terminus(cfg: ScenarioConfig, stations: list[GroundStationNode]) -> GeodeticPosition | None:
    """Configured terminus, else the first station's location."""
    if cfg.terminus is not None:
        return cfg.terminus
    if stations:
        return stations[0].geodetic
    return None


def route_report(
    graph: VisibilityGraph,
    actuators: np.ndarray,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition | None,
    mode: ArchitectureMode,
    reroute_penalty_ms: float,
) -> LatencyReport:
    """Route ``mode`` on ``graph``: on-orbit reads only the ``actuators``
    mask, a downhaul mode only the stations and the terminus."""
    if mode is ArchitectureMode.ON_ORBIT:
        return onorbit_latencies(graph, actuators, reroute_penalty_ms)
    return downhaul_latencies(graph, stations, terminus, mode, reroute_penalty_ms)


# --- The shared network stage ---------------------------------------------------


@dataclass(frozen=True)
class Network:
    """What every study routes: the snapshot, its actuator mask, the
    stations, the terminus, and the visibility graph with any overlay
    applied.  ``penalty_ms`` is the config's reroute penalty plus the
    overlay's."""

    snapshot: ConstellationSnapshot
    actuators: np.ndarray
    stations: tuple[GroundStationNode, ...]
    terminus: GeodeticPosition | None
    graph: VisibilityGraph
    penalty_ms: float

    def route(self, mode: ArchitectureMode) -> LatencyReport:
        return route_report(
            self.graph, self.actuators, self.stations, self.terminus, mode, self.penalty_ms
        )

    def with_overlay(self, overlay: AttackOverlay) -> "Network":
        return replace(
            self,
            graph=apply_overlay(self.graph, self.snapshot, self.stations, overlay),
            penalty_ms=self.penalty_ms + overlay.reroute_penalty_ms,
        )


def prepare(cfg: ScenarioConfig, threads: int | None = None, baseline: bool = False) -> Network:
    """The one network stage: resolve the snapshot and select its
    actuators, load the stations and the terminus, check the ids of
    ``cfg.overlay``, build the visibility graph, apply the overlay unless
    ``baseline``.  ``simulate``, ``sweep`` and ``compare`` route this
    network; ``attack`` routes the baseline and then applies the overlay."""
    snapshot = resolve_snapshot(cfg.constellation)
    actuators = select_actuators(snapshot, resolve_actuator_count(cfg, len(snapshot)), cfg.seed)
    stations = tuple(resolve_stations(cfg))
    sat_ids = set(snapshot.ids)
    for st in stations:
        if st.id in sat_ids:
            raise ValueError(f"stations_csv: station id {st.id!r} is a satellite id")
    if cfg.overlay is not None:
        cfg.overlay.check_ids(sat_ids, (st.id for st in stations))
    graph = build_visibility_graph(
        snapshot, stations, margin_km=cfg.los_margin_km,
        min_elevation_deg=cfg.min_elevation_deg, threads=threads,
    )
    network = Network(
        snapshot, actuators, stations, resolve_terminus(cfg, stations), graph, cfg.reroute_penalty_ms
    )
    return network if cfg.overlay is None or baseline else network.with_overlay(cfg.overlay)


@dataclass(frozen=True)
class ScenarioRun:
    snapshot: ConstellationSnapshot
    report: LatencyReport
    summary: MetricsSummary


def run_scenario(cfg: ScenarioConfig, threads: int | None = None) -> ScenarioRun:
    """Route ``cfg.mode`` on the prepared network."""
    network = prepare(cfg, threads)
    report = network.route(cfg.mode)
    return ScenarioRun(network.snapshot, report, summarize(report))


# --- Studies --------------------------------------------------------------------


@dataclass(frozen=True)
class ArchitectureComparison:
    downhaul: MetricsSummary
    onorbit: MetricsSummary
    downhaul_report: LatencyReport
    onorbit_report: LatencyReport


def compare_architectures(cfg: ScenarioConfig, threads: int | None = None) -> ArchitectureComparison:
    """Route a downhaul mode and the on-orbit mode on one prepared network.

    The downhaul mode is ``cfg.mode``, or greedy when that is on-orbit, so
    each report equals what ``run_scenario`` gives for that mode.
    """
    network = prepare(cfg, threads)
    down_mode = cfg.mode
    if down_mode is ArchitectureMode.ON_ORBIT:
        down_mode = ArchitectureMode.DOWNHAUL_GREEDY
    down = network.route(down_mode)
    orbit = network.route(ArchitectureMode.ON_ORBIT)
    return ArchitectureComparison(summarize(down), summarize(orbit), down, orbit)


@dataclass(frozen=True)
class SweepPoint:
    fraction: float
    actuator_count: int
    summary: MetricsSummary


def actuator_sweep(
    cfg: ScenarioConfig,
    independent_draws: bool = False,
    threads: int | None = None,
) -> list[SweepPoint]:
    """Latency as a function of ``cfg.sweep_fractions`` on one prepared network.

    By default the actuator sets are nested (prefixes of one seeded
    permutation), which makes the mean over finite latencies exactly
    non-increasing on a connected shell.  ``independent_draws`` redraws the
    selection per point instead.

    Only on-orbit routing reads the actuators, so a downhaul mode routes
    once and every point carries that summary.  On orbit, every point's seed
    is drawn first, in fraction order (draws 1 to k of ``splitmix64``); the
    points then run on up to ``threads`` workers and come back in fraction
    order, so the result does not depend on the thread count.  A failing
    point raises as it would serially: the lowest failing fraction's
    exception surfaces.
    """
    network = prepare(cfg, threads)
    n = len(network.snapshot)
    if cfg.mode is not ArchitectureMode.ON_ORBIT:
        summary = summarize(network.route(cfg.mode))
        return [SweepPoint(fraction, half_up_count(fraction, n), summary) for fraction in cfg.sweep_fractions]
    k = len(cfg.sweep_fractions)
    seeds = splitmix64(cfg.seed, k).tolist() if independent_draws else [cfg.seed] * k

    def point(fraction: float, seed: int) -> SweepPoint:
        actuators = select_actuators(network.snapshot, half_up_count(fraction, n), seed)
        report = replace(network, actuators=actuators).route(cfg.mode)
        return SweepPoint(fraction, int(actuators.sum()), summarize(report))

    workers = min(resolve_thread_count(threads), len(seeds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(point, cfg.sweep_fractions, seeds))
    return [point(fraction, seed) for fraction, seed in zip(cfg.sweep_fractions, seeds)]


@dataclass(frozen=True)
class AttackOutcome:
    baseline: MetricsSummary
    attacked: MetricsSummary
    delta_mean_ms: float | None
    availability_loss: int


def attack_scenario(cfg: ScenarioConfig, threads: int | None = None) -> AttackOutcome:
    """Route the network without and then with ``cfg.overlay``.

    ``delta_mean_ms`` averages the per-satellite latency increase over
    satellites reachable in both runs (None when that set is empty); the
    overlay's own reroute penalty applies only to the attacked run.
    """
    if cfg.overlay is None:
        raise ValueError("overlay: the attack subcommand requires an overlay in the config")
    network = prepare(cfg, threads, baseline=True)
    baseline = network.route(cfg.mode)
    # The attacked adjacency is a masked copy of the baseline's; rebinding frees
    # the baseline graph before the attacked solve.
    network = network.with_overlay(cfg.overlay)
    attacked = network.route(cfg.mode)
    both = np.isfinite(attacked.latency_ms) & np.isfinite(baseline.latency_ms)
    deltas = (attacked.latency_ms[both] - baseline.latency_ms[both]).tolist()
    baseline_summary = summarize(baseline)
    attacked_summary = summarize(attacked)
    return AttackOutcome(
        baseline=baseline_summary,
        attacked=attacked_summary,
        delta_mean_ms=math.fsum(deltas) / len(deltas) if deltas else None,
        availability_loss=attacked_summary.unreachable_count - baseline_summary.unreachable_count,
    )
