"""Constellation snapshots: Walker-delta shells, CSV ingest, ground stations,
and deterministic actuator selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geo import SEMI_MAJOR_A_KM, EcefPosition, GeodeticPosition, geodetic_to_ecef
from .jsonvalues import config_key, json_number, json_string

_U64 = 0xFFFFFFFFFFFFFFFF


def _id_field_problem(node_id: str, kind: str) -> str | None:
    """What keeps ``node_id`` from being one field of the CSV files, which
    split on commas and lines and strip each field; None when nothing does.
    Satellite and station ids obey this rule."""
    if not node_id:
        return f"empty {kind} id"
    if "," in node_id or node_id.strip() != node_id or len(node_id.splitlines()) > 1:
        return (f"{kind} id {node_id!r} must not contain a comma or a line break, "
                "nor start or end with whitespace")
    return None


@dataclass(frozen=True)
class GroundStationNode:
    """A ground station at ``geodetic``; ``ecef`` is derived from it."""

    id: str
    geodetic: GeodeticPosition
    ecef: EcefPosition = field(init=False)

    def __post_init__(self) -> None:
        if not -0.5 <= self.geodetic.altitude_km <= 9.0:
            raise ValueError(f"station altitude must be in [-0.5, 9] km, got {self.geodetic.altitude_km}")
        problem = _id_field_problem(self.id, "station")
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "ecef", geodetic_to_ecef(self.geodetic))


class SnapshotRowError(ValueError):
    """A snapshot rule broken by the satellite in row ``row``."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class ConstellationSnapshot:
    """Instantaneous, immutable set of satellites, one column per field.

    Row ``i`` is satellite ``ids[i]`` at ECEF ``positions[i]`` (km, an
    ``(n, 3)`` float64 array, a read-only copy).  Ids are unique and obey
    :func:`_id_field_problem`; a position is finite, above the surface, and
    near enough that 4 times its squared norm is finite.  A satellite that
    breaks a rule raises :class:`SnapshotRowError`.
    """

    ids: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        n = len(ids)
        positions = np.array(self.positions, dtype=np.float64)
        if n == 0:
            raise ValueError("snapshot must contain at least one satellite")
        if positions.shape != (n, 3):
            raise ValueError(f"{n} ids do not match the shape of positions {positions.shape}")
        seen: set[str] = set()
        for row, sat_id in enumerate(ids):
            problem = _id_field_problem(sat_id, "satellite")
            if problem:
                raise SnapshotRowError(row, problem)
            if sat_id in seen:
                raise SnapshotRowError(row, f"duplicate satellite id {sat_id!r}")
            seen.add(sat_id)
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise SnapshotRowError(row, f"satellite {ids[row]!r} has a non-finite position")
        x, y, z = positions.T
        with np.errstate(over="ignore"):
            sq = (x * x + y * y) + z * z
            far = ~np.isfinite(4.0 * sq)  # else a squared distance between two satellites may overflow
        if far.any():
            row = int(np.argmax(far))
            raise SnapshotRowError(row, f"satellite {ids[row]!r} is too far out: 4 times its squared norm "
                                        "is not finite")
        buried = np.sqrt(sq) <= SEMI_MAJOR_A_KM
        if buried.any():
            row = int(np.argmax(buried))
            raise SnapshotRowError(row, f"satellite {ids[row]!r} is not above the surface")
        positions.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class WalkerSpec:
    """Walker-delta shell: circular orbits on evenly spaced planes.  Its
    satellites are named ``<id_prefix>-pPPP-sSSS``; ``label`` is only echoed."""

    altitude_km: float
    inclination_deg: float
    planes: int
    sats_per_plane: int
    phasing_f: int = 0
    raan_offset_deg: float = 0.0
    id_prefix: str = "sat"
    label: str = "walker"

    def __post_init__(self) -> None:
        for f in fields(self):  # an ``int`` field (a postponed annotation) takes only an integer
            if f.type != "str":
                kind = int if f.type == "int" else float
                object.__setattr__(self, f.name, json_number(getattr(self, f.name), f.name, kind))
        if self.planes < 1 or self.sats_per_plane < 1:
            raise ValueError("planes and sats_per_plane must be >= 1")
        if not 0 <= self.phasing_f <= self.planes - 1:
            raise ValueError(
                f"phasing_f must be in [0, {self.planes - 1}], got {self.phasing_f}"
            )
        if self.altitude_km <= 0.0:
            raise ValueError("altitude_km must be positive")
        json_string(self.id_prefix, "id_prefix")
        json_string(self.label, "label")


def generate_walker(*specs: WalkerSpec) -> ConstellationSnapshot:
    """Build one snapshot of Walker-delta shells, their satellites in the
    order given, checked once.

    Plane p (0-indexed) has RAAN = raan_offset + 360*p/P; satellite k in
    plane p sits at in-plane angle u = 360*k/spp + 360*F*p/(P*spp).  The
    orbital frame is identified with ECEF at snapshot time: only relative
    geometry matters for latency.
    """
    ids, positions = [], []
    for spec in specs:
        radius = SEMI_MAJOR_A_KM + spec.altitude_km
        inc = math.radians(spec.inclination_deg)
        cos_i, sin_i = math.cos(inc), math.sin(inc)
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
                ids.append(f"{spec.id_prefix}-p{p:03d}-s{k:03d}")
                positions.append((x, y, z1))
    return ConstellationSnapshot(tuple(ids), positions)


# --- CSV interchange ----------------------------------------------------------

SNAPSHOT_CSV_HEADER = "id,x_km,y_km,z_km"
STATIONS_CSV_HEADER = "id,lat_deg,lon_deg,alt_km"


def snapshot_to_csv(snapshot: ConstellationSnapshot) -> str:
    """Serialize with repr precision so a read-back is bit-exact."""
    lines = [SNAPSHOT_CSV_HEADER]
    for sat_id, (x, y, z) in zip(snapshot.ids, snapshot.positions.tolist()):
        lines.append(f"{sat_id},{x!r},{y!r},{z!r}")
    return "\n".join(lines) + "\n"


def _parse_float(text: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"column {column!r} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"column {column!r} must be finite, got {text!r}")
    return value


def _read_csv(text: str, header: str) -> tuple[list[int], list[str], list[list[float]]]:
    """The line number, the id field and the three number fields, as
    floats, of each data line of the CSV ``text`` under ``header``.  Lines
    are numbered as in the file, blank ones included, and blank lines are
    skipped.  Only the syntax is checked here, and an error names its line;
    the type that holds the values checks them."""
    lines = [(line_no, ln) for line_no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != header:
        raise ValueError(f"line {lines[0][0] if lines else 1}: expected header {header!r}")
    columns = header.split(",")[1:]
    line_nos, ids, rows = [], [], []
    for line_no, line in lines[1:]:
        with config_key(f"line {line_no}"):
            node_id, *numbers = (f.strip() for f in line.split(","))
            if len(numbers) != 3:
                raise ValueError(f"expected 4 comma-separated fields, got {len(numbers) + 1}")
            rows.append([_parse_float(number, column) for number, column in zip(numbers, columns)])
        line_nos.append(line_no)
        ids.append(node_id)
    return line_nos, ids, rows


def load_snapshot_csv(text: str) -> ConstellationSnapshot:
    """The snapshot checks the parsed rows; an error names the row's line."""
    line_nos, ids, positions = _read_csv(text, SNAPSHOT_CSV_HEADER)
    try:
        return ConstellationSnapshot(tuple(ids), np.reshape(positions, (len(ids), 3)))
    except SnapshotRowError as exc:
        raise ValueError(f"line {line_nos[exc.row]}: {exc}") from None


def load_ground_stations_csv(text: str) -> list[GroundStationNode]:
    """Each station checks its own values; an error names the line."""
    stations: dict[str, GroundStationNode] = {}
    for line_no, station_id, numbers in zip(*_read_csv(text, STATIONS_CSV_HEADER)):
        with config_key(f"line {line_no}"):
            if station_id in stations:
                raise ValueError(f"duplicate station id {station_id!r}")
            stations[station_id] = GroundStationNode(station_id, GeodeticPosition(*numbers))
    return list(stations.values())


# --- Deterministic actuator selection ------------------------------------------


# SplitMix64: the state increment and the two multipliers of the mix.
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """Draws 1 to ``count`` of the SplitMix64 stream of ``seed``, as a uint64
    array: a documented 64-bit mix, so selections are bit-reproducible
    across implementations.  The state advances by ``_GAMMA`` and each draw
    mixes the new state, so draw ``k`` mixes ``seed + k * _GAMMA`` and every
    draw is computed at once in wrapping uint64 arithmetic."""
    z = np.uint64(seed & _U64) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX[0])
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX[1])
    return z ^ (z >> np.uint64(31))


def seeded_permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n): step ``i`` (from ``n - 1`` down
    to 1) swaps ``i`` with the next of the ``splitmix64(seed, n - 1)`` draws
    modulo ``i + 1`` (the bias is negligible at constellation sizes).  Only
    the swaps run one by one."""
    draws = (splitmix64(seed, max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def select_actuators(snapshot: ConstellationSnapshot, count: int, seed: int) -> np.ndarray:
    """A read-only ``(n,)`` bool mask of exactly ``count`` actuators.

    The selection is the first ``count`` entries of the seed-determined
    permutation, so for a fixed seed the selected sets are nested in
    ``count``.
    """
    n = len(snapshot)
    if not 0 <= count <= n:
        raise ValueError(f"count must be in [0, {n}], got {count}")
    mask = np.zeros(n, dtype=bool)
    mask[seeded_permutation(n, seed)[:count]] = True
    mask.flags.writeable = False
    return mask
