"""Two-line element parsing and reduced-fidelity two-body propagation.

Propagation is plain Kepler (no drag, no J2, no SGP4) plus a GMST rotation
into the Earth-fixed frame: adequate for instantaneous snapshot geometry,
not for ephemeris work.

Fixed-column layout (0-indexed slices):
  line 1: [2:7] catalog, [18:20] epoch year, [20:32] epoch day, [68] checksum
  line 2: [2:7] catalog, [8:16] inclination, [17:25] RAAN,
          [26:33] eccentricity (implied leading "0."), [34:42] arg perigee,
          [43:51] mean anomaly, [52:63] mean motion rev/day,
          [63:68] rev number, [68] checksum
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

from .constellation import ConstellationSnapshot, SnapshotRowError
from .geo import ConvergenceError, EcefPosition
from .jsonvalues import config_key

EARTH_GM_KM3_S2 = 398600.4418
_J2000 = datetime(2000, 1, 1, 12, 0, 0)


class TleFormatError(ValueError):
    """A malformed TLE line (length, columns, checksum, epoch range) in line
    ``which``, 1 or 2, of its element set."""

    def __init__(self, which: int, message: str) -> None:
        super().__init__(message)
        self.which = which


@dataclass(frozen=True)
class TleElements:
    catalog_id: str
    epoch_seconds: float  # seconds since J2000
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_per_day: float

    def __post_init__(self) -> None:
        for key in ("inclination_deg", "raan_deg", "arg_perigee_deg", "mean_anomaly_deg",
                    "mean_motion_rev_per_day"):  # float() reads a "nan" or "inf" field too
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(f"eccentricity must be in [0, 1), got {self.eccentricity}")
        if self.mean_motion_rev_per_day <= 0.0:
            raise ValueError("mean motion must be positive")
        if not math.isfinite(semi_major_axis_km(self.mean_motion_rev_per_day)):
            raise ValueError(f"mean motion {self.mean_motion_rev_per_day} is too small for a finite "
                             "semi-major axis")


def line_checksum(line: str) -> int:
    """Mod-10 checksum over the first 68 columns; minus signs count as 1."""
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _check_line(line: str, which: int) -> None:
    if len(line) != 69:
        raise TleFormatError(which, f"line {which} must be 69 characters, got {len(line)}")
    if line[0] != str(which):
        raise TleFormatError(which, f"line {which} must start with '{which}', got {line[0]!r}")
    expected = line[68]
    if not expected.isdigit() or int(expected) != line_checksum(line):
        raise TleFormatError(
            which, f"line {which} checksum mismatch (computed {line_checksum(line)}, found {expected!r})"
        )


def _field_float(line: str, lo: int, hi: int, name: str, which: int) -> float:
    raw = line[lo:hi]
    try:
        return float(raw)
    except ValueError:
        raise TleFormatError(which, f"line {which}: malformed {name} field {raw!r}") from None


def _epoch_to_j2000_seconds(year_2digit: int, day_of_year: float) -> float:
    year = 2000 + year_2digit if year_2digit < 57 else 1900 + year_2digit
    try:
        moment = datetime(year, 1, 1) + timedelta(days=day_of_year - 1.0)
    except (OverflowError, ValueError):  # a day that is not finite or leaves the datetime range
        raise TleFormatError(1, f"line 1: epoch day {day_of_year} is out of range") from None
    return (moment - _J2000).total_seconds()


def parse_tle(line1: str, line2: str) -> TleElements:
    line1 = line1.rstrip("\r\n")
    line2 = line2.rstrip("\r\n")
    _check_line(line1, 1)
    _check_line(line2, 2)
    if line1[2:7] != line2[2:7]:
        raise TleFormatError(2, f"catalog ids differ between lines: {line1[2:7]!r} vs {line2[2:7]!r}")
    year = int(_field_float(line1, 18, 20, "epoch year", 1))
    day = _field_float(line1, 20, 32, "epoch day", 1)
    ecc_raw = line2[26:33].strip()
    if not ecc_raw.isdigit():
        raise TleFormatError(2, f"line 2: malformed eccentricity field {line2[26:33]!r}")
    return TleElements(
        catalog_id=line1[2:7].strip(),
        epoch_seconds=_epoch_to_j2000_seconds(year, day),
        inclination_deg=_field_float(line2, 8, 16, "inclination", 2),
        raan_deg=_field_float(line2, 17, 25, "RAAN", 2),
        eccentricity=float("0." + ecc_raw),
        arg_perigee_deg=_field_float(line2, 34, 42, "argument of perigee", 2),
        mean_anomaly_deg=_field_float(line2, 43, 51, "mean anomaly", 2),
        mean_motion_rev_per_day=_field_float(line2, 52, 63, "mean motion", 2),
    )


def load_tle_file(text: str) -> list[tuple[str, TleElements, int]]:
    """Parse a file of TLEs in either 2-line or named 3-line form into
    ``(name, elements, line)`` entries: the name ("" without one) and the
    entry's first file line, its name line or else its line 1.  Lines are
    counted with the blank ones.  An error starts with ``line N: ``, the
    file line at fault."""
    lines = [(line_no, ln.rstrip()) for line_no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    out: list[tuple[str, TleElements, int]] = []
    name, name_line = "", 0
    i = 0
    while i < len(lines):
        line_no, line = lines[i]
        if line.startswith("1 "):
            if i + 1 >= len(lines):
                raise TleFormatError(1, f"line {line_no}: entry {len(out) + 1}: line 1 without a line 2")
            try:
                out.append((name, parse_tle(line, lines[i + 1][1]), name_line if name else line_no))
            except ValueError as exc:  # a TleElements range error is on line 2
                which = getattr(exc, "which", 2)
                raise TleFormatError(which, f"line {lines[i + which - 1][0]}: {exc}") from None
            name = ""
            i += 2
        else:
            name, name_line = line.strip(), line_no
            i += 1
    return out


def semi_major_axis_km(mean_motion_rev_per_day: float) -> float:
    """By Kepler's third law; inf once the squared angular rate underflows."""
    n_rad_s = mean_motion_rev_per_day * 2.0 * math.pi / 86400.0
    n_sq = n_rad_s * n_rad_s
    return (EARTH_GM_KM3_S2 / n_sq) ** (1.0 / 3.0) if n_sq > 0.0 else math.inf


def solve_kepler(mean_anomaly_rad: float, eccentricity: float) -> float:
    """Newton iteration for E - e*sin(E) = M, until a step is below 1e-12 rad
    (at most 50 steps)."""
    m = math.fmod(mean_anomaly_rad, 2.0 * math.pi)
    e = eccentricity
    big_e = m if e < 0.8 else math.pi
    for _ in range(50):
        delta = (big_e - e * math.sin(big_e) - m) / (1.0 - e * math.cos(big_e))
        big_e -= delta
        if abs(delta) < 1e-12:
            return big_e
    raise ConvergenceError(
        f"Kepler iteration did not converge (M={mean_anomaly_rad}, e={eccentricity})"
    )


def gmst_deg(t_seconds_j2000: float) -> float:
    """Greenwich mean sidereal angle at ``t`` seconds past J2000, in [0, 360)."""
    angle = 280.46061837 + 360.98564736629 * (t_seconds_j2000 / 86400.0)
    return angle % 360.0


def _rot_z(x: float, y: float, z: float, angle_rad: float) -> tuple[float, float, float]:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return (x * c - y * s, x * s + y * c, z)


def _rot_x(x: float, y: float, z: float, angle_rad: float) -> tuple[float, float, float]:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return (x, y * c - z * s, y * s + z * c)


def tle_to_position(el: TleElements, t_seconds_j2000: float) -> EcefPosition:
    """Two-body position at time ``t``, rotated into ECEF by GMST."""
    n_rad_s = el.mean_motion_rev_per_day * 2.0 * math.pi / 86400.0
    a = semi_major_axis_km(el.mean_motion_rev_per_day)
    m = math.radians(el.mean_anomaly_deg) + n_rad_s * (t_seconds_j2000 - el.epoch_seconds)
    big_e = solve_kepler(m, el.eccentricity)
    ecc = el.eccentricity
    true_anom = math.atan2(
        math.sqrt(1.0 - ecc * ecc) * math.sin(big_e), math.cos(big_e) - ecc
    )
    r = a * (1.0 - ecc * math.cos(big_e))
    # Perifocal -> inertial: Rz(RAAN) * Rx(inclination) * Rz(arg perigee).
    x, y, z = r * math.cos(true_anom), r * math.sin(true_anom), 0.0
    x, y, z = _rot_z(x, y, z, math.radians(el.arg_perigee_deg))
    x, y, z = _rot_x(x, y, z, math.radians(el.inclination_deg))
    x, y, z = _rot_z(x, y, z, math.radians(el.raan_deg))
    # Inertial -> ECEF: rotate about z by -GMST.
    x, y, z = _rot_z(x, y, z, -math.radians(gmst_deg(t_seconds_j2000)))
    return EcefPosition(x, y, z)


def snapshot_from_tles(
    entries: list[tuple[str, TleElements, int]],
    t_seconds_j2000: float | None = None,
) -> ConstellationSnapshot:
    """Evaluate every ``load_tle_file`` entry at one common time (default:
    first epoch); an id already taken gets ``#<entry index>`` appended until
    it is fresh.  An error starts with ``line N: ``, the entry's first line."""
    if not entries:
        raise ValueError("no TLE entries to build a snapshot from")
    if t_seconds_j2000 is None:
        t_seconds_j2000 = entries[0][1].epoch_seconds
    ids, positions = [], []
    seen: set[str] = set()
    for idx, (name, el, line_no) in enumerate(entries):
        sat_id = name or el.catalog_id or f"tle-{idx:05d}"
        while sat_id in seen:
            sat_id = f"{sat_id}#{idx}"
        seen.add(sat_id)
        ids.append(sat_id)
        with config_key(f"line {line_no}"):
            positions.append(tle_to_position(el, t_seconds_j2000).as_tuple())
    try:
        return ConstellationSnapshot(tuple(ids), positions)
    except SnapshotRowError as exc:
        raise ValueError(f"line {entries[exc.row][2]}: {exc}") from None
