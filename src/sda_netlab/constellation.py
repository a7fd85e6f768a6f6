"""Constellation snapshots: Walker-delta shells, CSV ingest, ground stations,
and deterministic actuator selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geo import SEMI_MAJOR_A_KM, EcefPosition, GeodeticPosition, geodetic_to_ecef
from .jsonvalues import json_number

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class GroundStationNode:
    id: str
    geodetic: GeodeticPosition
    ecef: EcefPosition

    @classmethod
    def from_geodetic(cls, station_id: str, geodetic: GeodeticPosition) -> "GroundStationNode":
        if not -0.5 <= geodetic.altitude_km <= 9.0:
            raise ValueError(
                f"station altitude must be in [-0.5, 9] km, got {geodetic.altitude_km}"
            )
        return cls(station_id, geodetic, geodetic_to_ecef(geodetic))


class SnapshotRowError(ValueError):
    """A snapshot rule broken by the satellite in row ``row``."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class ConstellationSnapshot:
    """Instantaneous, immutable set of satellites, one column per field.

    Row ``i`` is satellite ``ids[i]`` at ECEF ``positions[i]`` (km, an
    ``(n, 3)`` float64 array), flagged as an actuator where ``actuators[i]``
    (an ``(n,)`` bool array, all False unless given).  Both arrays are
    read-only copies.  A satellite that breaks a rule raises
    :class:`SnapshotRowError`.
    """

    ids: tuple[str, ...]
    positions: np.ndarray
    actuators: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        n = len(ids)
        positions = np.array(self.positions, dtype=np.float64)
        actuators = np.zeros(n, dtype=bool)
        if self.actuators is not None:
            actuators = np.array(self.actuators, dtype=bool)
        if n == 0:
            raise ValueError("snapshot must contain at least one satellite")
        if positions.shape != (n, 3) or actuators.shape != (n,):
            raise ValueError(f"{n} ids do not match the shape of positions {positions.shape} "
                             f"or of actuators {actuators.shape}")
        seen: set[str] = set()
        for row, sat_id in enumerate(ids):
            if sat_id in seen:
                raise SnapshotRowError(row, f"duplicate satellite id {sat_id!r}")
            seen.add(sat_id)
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise SnapshotRowError(row, f"satellite {ids[row]!r} has a non-finite position")
        x, y, z = positions.T
        buried = np.sqrt((x * x + y * y) + z * z) <= SEMI_MAJOR_A_KM
        if buried.any():
            row = int(np.argmax(buried))
            raise SnapshotRowError(row, f"satellite {ids[row]!r} is not above the surface")
        positions.flags.writeable = actuators.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "actuators", actuators)

    def __len__(self) -> int:
        return len(self.ids)


# The kind of each WalkerSpec field, in field order: an int field takes
# only an integer.
_WALKER_NUMBERS = {
    "altitude_km": float,
    "inclination_deg": float,
    "planes": int,
    "sats_per_plane": int,
    "phasing_f": int,
    "raan_offset_deg": float,
}


@dataclass(frozen=True)
class WalkerSpec:
    """Walker-delta shell: circular orbits on evenly spaced planes."""

    altitude_km: float
    inclination_deg: float
    planes: int
    sats_per_plane: int
    phasing_f: int = 0
    raan_offset_deg: float = 0.0

    def __post_init__(self) -> None:
        for name, kind in _WALKER_NUMBERS.items():
            object.__setattr__(self, name, json_number(getattr(self, name), name, kind))
        if self.planes < 1 or self.sats_per_plane < 1:
            raise ValueError("planes and sats_per_plane must be >= 1")
        if not 0 <= self.phasing_f <= self.planes - 1:
            raise ValueError(
                f"phasing_f must be in [0, {self.planes - 1}], got {self.phasing_f}"
            )
        if self.altitude_km <= 0.0:
            raise ValueError("altitude_km must be positive")

    @property
    def total(self) -> int:
        return self.planes * self.sats_per_plane


def generate_walker(spec: WalkerSpec, id_prefix: str = "sat") -> ConstellationSnapshot:
    """Build a snapshot of a Walker-delta shell.

    Plane p (0-indexed) has RAAN = raan_offset + 360*p/P; satellite k in
    plane p sits at in-plane angle u = 360*k/spp + 360*F*p/(P*spp).  The
    orbital frame is identified with ECEF at snapshot time: only relative
    geometry matters for latency.
    """
    radius = SEMI_MAJOR_A_KM + spec.altitude_km
    inc = math.radians(spec.inclination_deg)
    cos_i, sin_i = math.cos(inc), math.sin(inc)
    ids, positions = [], []
    for p in range(spec.planes):
        raan = math.radians(spec.raan_offset_deg + 360.0 * p / spec.planes)
        cos_o, sin_o = math.cos(raan), math.sin(raan)
        phase = 360.0 * spec.phasing_f * p / (spec.planes * spec.sats_per_plane)
        for k in range(spec.sats_per_plane):
            u = math.radians(360.0 * k / spec.sats_per_plane + phase)
            x0 = radius * math.cos(u)
            y0 = radius * math.sin(u)
            # Rx(inclination) then Rz(RAAN) applied to the in-plane point.
            y1 = y0 * cos_i
            z1 = y0 * sin_i
            x = x0 * cos_o - y1 * sin_o
            y = x0 * sin_o + y1 * cos_o
            ids.append(f"{id_prefix}-p{p:03d}-s{k:03d}")
            positions.append((x, y, z1))
    return ConstellationSnapshot(tuple(ids), positions)


def merge_snapshots(*snapshots: ConstellationSnapshot) -> ConstellationSnapshot:
    """Union of snapshots, preserving order; ids must stay unique."""
    if not snapshots:
        raise ValueError("need at least one snapshot to merge")
    ids = tuple(sat_id for snap in snapshots for sat_id in snap.ids)
    positions = np.concatenate([snap.positions for snap in snapshots])
    actuators = np.concatenate([snap.actuators for snap in snapshots])
    return ConstellationSnapshot(ids, positions, actuators)


# --- CSV interchange ----------------------------------------------------------

SNAPSHOT_CSV_HEADER = "id,x_km,y_km,z_km"
STATIONS_CSV_HEADER = "id,lat_deg,lon_deg,alt_km"


def snapshot_to_csv(snapshot: ConstellationSnapshot) -> str:
    """Serialize with repr precision so a read-back is bit-exact."""
    lines = [SNAPSHOT_CSV_HEADER]
    for sat_id, (x, y, z) in zip(snapshot.ids, snapshot.positions.tolist()):
        lines.append(f"{sat_id},{x!r},{y!r},{z!r}")
    return "\n".join(lines) + "\n"


def _split_csv_line(line: str, expected: int, line_no: int) -> list[str]:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != expected:
        raise ValueError(
            f"line {line_no}: expected {expected} comma-separated fields, got {len(fields)}"
        )
    return fields


def _parse_float(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {line_no}: column {column!r} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}: column {column!r} must be finite, got {text!r}")
    return value


def load_snapshot_csv(text: str) -> ConstellationSnapshot:
    """The snapshot checks the parsed rows; an error names the row's line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SNAPSHOT_CSV_HEADER:
        raise ValueError(f"line 1: expected header {SNAPSHOT_CSV_HEADER!r}")
    ids, positions = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        sat_id, xs, ys, zs = _split_csv_line(line, 4, line_no)
        if not sat_id:
            raise ValueError(f"line {line_no}: empty satellite id")
        ids.append(sat_id)
        positions.append((
            _parse_float(xs, "x_km", line_no),
            _parse_float(ys, "y_km", line_no),
            _parse_float(zs, "z_km", line_no),
        ))
    try:
        return ConstellationSnapshot(tuple(ids), np.reshape(positions, (len(ids), 3)))
    except SnapshotRowError as exc:
        raise ValueError(f"line {exc.row + 2}: {exc}") from None


def load_ground_stations_csv(text: str) -> list[GroundStationNode]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != STATIONS_CSV_HEADER:
        raise ValueError(f"line 1: expected header {STATIONS_CSV_HEADER!r}")
    stations: list[GroundStationNode] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        station_id, lat, lon, alt = _split_csv_line(line, 4, line_no)
        if not station_id:
            raise ValueError(f"line {line_no}: empty station id")
        if station_id in seen:
            raise ValueError(f"line {line_no}: duplicate station id {station_id!r}")
        seen.add(station_id)
        try:
            geodetic = GeodeticPosition(
                _parse_float(lat, "lat_deg", line_no),
                _parse_float(lon, "lon_deg", line_no),
                _parse_float(alt, "alt_km", line_no),
            )
            station = GroundStationNode.from_geodetic(station_id, geodetic)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        stations.append(station)
    return stations


# --- Deterministic actuator selection ------------------------------------------


class SplitMix64:
    """SplitMix64 generator: a documented 64-bit mix so selections are
    bit-reproducible across implementations."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # Modulo reduction; the tiny bias is irrelevant at constellation sizes.
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def seeded_permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by SplitMix64."""
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def select_actuators(
    snapshot: ConstellationSnapshot, count: int, seed: int
) -> ConstellationSnapshot:
    """Flag exactly ``count`` satellites as actuators.

    The selection is the first ``count`` entries of the seed-determined
    permutation, so for a fixed seed the selected sets are nested in
    ``count``.
    """
    n = len(snapshot)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > n:
        raise ValueError(f"actuator_count: {count} exceeds {n} satellites")
    mask = np.zeros(n, dtype=bool)
    mask[seeded_permutation(n, seed)[:count]] = True
    return replace(snapshot, actuators=mask)
