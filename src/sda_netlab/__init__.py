"""Deterministic latency and resilience simulator for satellite
data-delivery networks."""

from .constellation import (
    ConstellationSnapshot,
    GroundStationNode,
    WalkerSpec,
    generate_walker,
    load_ground_stations_csv,
    load_snapshot_csv,
    merge_snapshots,
    select_actuators,
    snapshot_to_csv,
)
from .experiments import (
    AttackOutcome,
    ArchitectureComparison,
    ConstellationSource,
    MetricsSummary,
    ScenarioConfig,
    SweepPoint,
    WalkerShell,
    actuator_sweep,
    attack_scenario,
    compare_architectures,
    run_scenario,
    summarize,
)
from .geo import (
    EcefPosition,
    GeodeticPosition,
    ecef_to_geodetic,
    geodetic_to_ecef,
    propagation_delay_ms,
    surface_distance_km,
)
from .routing import (
    ArchitectureMode,
    LatencyReport,
    downhaul_latencies,
    onorbit_latencies,
)
from .tle import TleElements, parse_tle, tle_to_position
from .topology import AttackOverlay, VisibilityGraph, apply_overlay, build_visibility_graph

__version__ = "0.1.0"
