"""Experiment orchestration: scenario configuration, metric summaries, the
shared network stage, architecture comparison, actuator-fraction sweeps,
and attack scenarios."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .constellation import (
    ConstellationSnapshot,
    GroundStationNode,
    WalkerSpec,
    SplitMix64,
    generate_walker,
    load_ground_stations_csv,
    load_snapshot_csv,
    merge_snapshots,
    select_actuators,
)
from .geo import GeodeticPosition
from .jsonvalues import json_number
from .routing import (
    ArchitectureMode,
    LatencyReport,
    downhaul_latencies,
    onorbit_latencies,
)
from .tle import load_tle_file, snapshot_from_tles
from .topology import (
    AttackOverlay, VisibilityGraph, apply_overlay, build_visibility_graph, reroute_penalty,
)

# Reserved: a station id may not take the name of the terminus.
TERMINUS_NAME = "terminus"
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
    raise ValueError(f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}")


@dataclass(frozen=True)
class ConstellationSource:
    """Exactly one of: Walker shells, a snapshot CSV, or a TLE file."""

    walker_shells: tuple[WalkerShell, ...] = ()
    snapshot_csv: str | None = None
    tle_file: str | None = None
    tle_at_seconds: float | None = None

    def __post_init__(self) -> None:
        given = sum(
            [bool(self.walker_shells), self.snapshot_csv is not None, self.tle_file is not None]
        )
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
# ``key``.  ScenarioConfig raises the first error of check_fields, and
# validate_config reports them all, so JSON and Python configs obey one set.
FIELD_RULES = {
    "actuator_fraction": _bounded(float, lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]", optional=True),
    "actuator_count": _bounded(int, lambda v: v >= 0, "must be >= 0", optional=True),
    "seed": _bounded(int, lambda v: 0 <= v < 2**64, "must be an unsigned 64-bit integer"),
    "los_margin_km": _bounded(float, lambda v: v >= 0.0, "must be >= 0"),
    "min_elevation_deg": _bounded(float, lambda v: abs(v) <= 90.0, "must be in [-90, 90]", optional=True),
    "reroute_penalty_ms": reroute_penalty,
    "sweep_fractions": _sweep_fractions,
}


def check_fields(fields: dict) -> tuple[dict, list[str]]:
    """Run :data:`FIELD_RULES` on the fields present in ``fields`` and the
    rule that the actuator fraction and count exclude each other.  Returns
    the checked values and every error."""
    values, errors = {}, []
    for key, rule in FIELD_RULES.items():
        if key in fields:
            try:
                values[key] = rule(fields[key], key)
            except ValueError as exc:
                errors.append(str(exc))
    if fields.get("actuator_fraction") is not None and fields.get("actuator_count") is not None:
        errors.append("actuator_fraction: mutually exclusive with actuator_count")
    return values, errors


@dataclass(frozen=True)
class ScenarioConfig:
    """One full experiment description; see README for the JSON schema."""

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
        _, errors = check_fields(vars(self))
        if errors:
            raise ValueError(errors[0])


def half_up_count(fraction: float, total: int) -> int:
    """Round half up; keeps fraction 0 -> 0 and fraction 1 -> total exact."""
    return int(math.floor(fraction * total + 0.5))


def resolve_actuator_count(cfg: ScenarioConfig, total: int) -> int:
    """The configured count, or the fraction of ``total``; ``select_actuators``
    rejects a count above ``total``."""
    if cfg.actuator_count is not None:
        return cfg.actuator_count
    return half_up_count(cfg.actuator_fraction, total)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@contextmanager
def _config_key(key: str):
    """Prefix a ``ValueError`` raised inside with ``key``, the config key of its input."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def resolve_snapshot(source: ConstellationSource) -> ConstellationSnapshot:
    if source.walker_shells:
        with _config_key("constellation.walker"):
            return merge_snapshots(*(
                generate_walker(shell.spec, id_prefix=shell.id_prefix) for shell in source.walker_shells
            ))
    if source.snapshot_csv is not None:
        with _config_key("constellation.snapshot_csv"):
            return load_snapshot_csv(_read(source.snapshot_csv))
    with _config_key("constellation.tle_file"):
        return snapshot_from_tles(load_tle_file(_read(source.tle_file)), source.tle_at_seconds)


def resolve_stations(cfg: ScenarioConfig) -> list[GroundStationNode]:
    if cfg.stations_csv is None:
        return []
    with _config_key("stations_csv"):
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
    snapshot: ConstellationSnapshot,
    stations: list[GroundStationNode] | tuple[GroundStationNode, ...],
    terminus: GeodeticPosition | None,
    mode: ArchitectureMode,
    reroute_penalty_ms: float,
) -> LatencyReport:
    if mode is ArchitectureMode.ON_ORBIT:
        return onorbit_latencies(graph, snapshot, reroute_penalty_ms)
    return downhaul_latencies(graph, snapshot, stations, terminus, mode, reroute_penalty_ms)


# --- The shared network stage ---------------------------------------------------


@dataclass(frozen=True)
class Network:
    """What every study routes: the actuator-flagged snapshot, the stations,
    the terminus, and the visibility graph with any overlay applied.
    ``penalty_ms`` is the config's reroute penalty plus the overlay's."""

    snapshot: ConstellationSnapshot
    stations: tuple[GroundStationNode, ...]
    terminus: GeodeticPosition | None
    graph: VisibilityGraph
    penalty_ms: float

    def route(self, mode: ArchitectureMode) -> LatencyReport:
        return route_report(
            self.graph, self.snapshot, self.stations, self.terminus, mode, self.penalty_ms
        )

    def with_overlay(self, overlay: AttackOverlay) -> "Network":
        return replace(
            self,
            graph=apply_overlay(self.graph, self.snapshot, self.stations, overlay),
            penalty_ms=self.penalty_ms + overlay.reroute_penalty_ms,
        )


def flagged_snapshot(cfg: ScenarioConfig) -> ConstellationSnapshot:
    """The configured snapshot with the configured actuators flagged."""
    snapshot = resolve_snapshot(cfg.constellation)
    return select_actuators(snapshot, resolve_actuator_count(cfg, len(snapshot)), cfg.seed)


def prepare(cfg: ScenarioConfig, threads: int | None = None, baseline: bool = False) -> Network:
    """The one network stage: resolve and flag the snapshot, load the
    stations and the terminus, check the ids of ``cfg.overlay``, build the
    visibility graph, apply the overlay unless ``baseline``.  ``simulate``,
    ``sweep`` and ``compare`` route this network; ``attack`` routes the
    baseline and then applies the overlay."""
    snapshot = flagged_snapshot(cfg)
    stations = tuple(resolve_stations(cfg))
    sat_ids = set(snapshot.ids)
    for st in stations:
        if st.id in sat_ids or st.id == TERMINUS_NAME:
            what = "a satellite id" if st.id in sat_ids else "reserved for the terminus"
            raise ValueError(f"stations_csv: station id {st.id!r} is {what}")
    if cfg.overlay is not None:
        cfg.overlay.check_ids(sat_ids, (st.id for st in stations))
    graph = build_visibility_graph(
        snapshot, stations, margin_km=cfg.los_margin_km,
        min_elevation_deg=cfg.min_elevation_deg, threads=threads,
    )
    network = Network(
        snapshot, stations, resolve_terminus(cfg, stations), graph, cfg.reroute_penalty_ms
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
    """
    network = prepare(cfg, threads)
    n = len(network.snapshot)
    rng = SplitMix64(cfg.seed)
    points = []
    for fraction in cfg.sweep_fractions:
        point_seed = rng.next_u64() if independent_draws else cfg.seed
        flagged = select_actuators(network.snapshot, half_up_count(fraction, n), point_seed)
        report = replace(network, snapshot=flagged).route(cfg.mode)
        points.append(SweepPoint(fraction, int(flagged.actuators.sum()), summarize(report)))
    return points


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


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Echo a fully resolved config; re-validating the echo yields an equal
    ScenarioConfig (paths are stored absolute)."""
    source = cfg.constellation
    if source.walker_shells:
        constellation = {"walker": [
            {**asdict(shell.spec), "id_prefix": shell.id_prefix, "label": shell.label}
            for shell in source.walker_shells
        ]}
    elif source.snapshot_csv is not None:
        constellation = {"snapshot_csv": source.snapshot_csv}
    else:
        constellation = {"tle_file": source.tle_file}
        if source.tle_at_seconds is not None:
            constellation["tle_at_seconds"] = source.tle_at_seconds

    out: dict = {"constellation": constellation, "mode": cfg.mode.value}
    for key in FIELD_RULES:
        if getattr(cfg, key) is not None:
            out[key] = getattr(cfg, key)
    if cfg.stations_csv is not None:
        out["stations_csv"] = cfg.stations_csv
    if cfg.terminus is not None:
        out["terminus"] = {
            "lat_deg": cfg.terminus.latitude_deg,
            "lon_deg": cfg.terminus.longitude_deg,
            "alt_km": cfg.terminus.altitude_km,
        }
    if cfg.overlay_path is not None:
        out["overlay"] = cfg.overlay_path
    elif cfg.overlay is not None:
        out["overlay"] = cfg.overlay.to_dict()
    return out
