"""WGS84 ellipsoid geometry: coordinate conversions, surface distances,
and propagation delay.

All functions here are pure and operate on kilometers, degrees, and
milliseconds.  The line-of-sight test itself is vectorized in
:mod:`sda_netlab.topology`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT_KM_S = 299792.458

# Visibility cut on the squared scaled norm.  Endpoints sitting exactly on the
# ellipsoid surface (norm 1.0) must not block, hence the small slack.
LOS_NORM_TOLERANCE = 1e-9
LOS_THRESHOLD_SQ = (1.0 - LOS_NORM_TOLERANCE) ** 2


class ConvergenceError(ValueError):
    """An iterative solver failed to converge within its iteration budget."""


# The WGS84 ellipsoid, plus the mean radius used for surface paths.
SEMI_MAJOR_A_KM = 6378.137
FLATTENING_F = 1.0 / 298.257223563
SEMI_MINOR_B_KM = SEMI_MAJOR_A_KM * (1.0 - FLATTENING_F)
ECCENTRICITY_SQ = FLATTENING_F * (2.0 - FLATTENING_F)
MEAN_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class EcefPosition:
    """Earth-centered, Earth-fixed Cartesian position in kilometers."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"EcefPosition.{name} must be finite")

    def norm(self) -> float:
        return math.sqrt((self.x * self.x + self.y * self.y) + self.z * self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class GeodeticPosition:
    """Geodetic latitude/longitude in degrees, altitude in kilometers.

    Longitude is normalized into (-180, 180]; latitude and altitude are
    validated, not normalized.
    """

    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.latitude_deg) or not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude must be in [-90, 90], got {self.latitude_deg}")
        if not math.isfinite(self.longitude_deg):
            raise ValueError("longitude must be finite")
        if not math.isfinite(self.altitude_km) or self.altitude_km < -0.5:
            raise ValueError(f"altitude must be >= -0.5 km, got {self.altitude_km}")
        lon = math.fmod(self.longitude_deg, 360.0)
        if lon <= -180.0:
            lon += 360.0
        elif lon > 180.0:
            lon -= 360.0
        object.__setattr__(self, "longitude_deg", lon)


def geodetic_to_ecef(g: GeodeticPosition) -> EcefPosition:
    """Convert geodetic coordinates to ECEF via the prime-vertical radius."""
    lat = math.radians(g.latitude_deg)
    lon = math.radians(g.longitude_deg)
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    e2 = ECCENTRICITY_SQ
    n = SEMI_MAJOR_A_KM / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
    x = (n + g.altitude_km) * cos_lat * math.cos(lon)
    y = (n + g.altitude_km) * cos_lat * math.sin(lon)
    z = (n * (1.0 - e2) + g.altitude_km) * sin_lat
    return EcefPosition(x, y, z)


def ecef_to_geodetic(p: EcefPosition, max_iterations: int = 20) -> GeodeticPosition:
    """Convert ECEF to geodetic by fixed-point iteration on latitude, until
    the latitude moves less than 1e-12 rad.

    Raises:
        ConvergenceError: the latitude iteration did not settle within
            ``max_iterations``; this signals degenerate input near the
            Earth's center.
    """
    if p.norm() == 0.0:
        raise ValueError("cannot convert the Earth-center point to geodetic coordinates")
    e2 = ECCENTRICITY_SQ
    p_xy = math.hypot(p.x, p.y)
    if p_xy < 1e-9:
        # Polar axis: longitude is undefined, normalize it to 0.
        lat = 90.0 if p.z >= 0.0 else -90.0
        return GeodeticPosition(lat, 0.0, abs(p.z) - SEMI_MINOR_B_KM)

    lon_deg = math.degrees(math.atan2(p.y, p.x))
    if lon_deg <= -180.0:
        lon_deg += 360.0

    lat = math.atan2(p.z, p_xy * (1.0 - e2))
    for _ in range(max_iterations):
        sin_lat = math.sin(lat)
        n = SEMI_MAJOR_A_KM / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
        if abs(sin_lat) < 0.7071067811865476:
            alt = p_xy / math.cos(lat) - n
        else:
            alt = p.z / sin_lat - n * (1.0 - e2)
        new_lat = math.atan2(p.z, p_xy * (1.0 - e2 * n / (n + alt)))
        done = abs(new_lat - lat) < 1e-12
        lat = new_lat
        if done:
            break
    else:
        raise ConvergenceError(
            f"latitude iteration did not converge for point ({p.x}, {p.y}, {p.z})"
        )

    sin_lat = math.sin(lat)
    n = SEMI_MAJOR_A_KM / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
    if abs(sin_lat) < 0.7071067811865476:
        alt = p_xy / math.cos(lat) - n
    else:
        alt = p.z / sin_lat - n * (1.0 - e2)
    return GeodeticPosition(math.degrees(lat), lon_deg, alt)


def surface_distance_km(g1: GeodeticPosition, g2: GeodeticPosition) -> float:
    """Great-circle distance on the mean-radius sphere; altitudes ignored.

    A mean-radius great circle stays within 0.6% of the ellipsoidal geodesic
    globally, which is far inside this simulator's tolerances.
    """
    lat1 = math.radians(g1.latitude_deg)
    lat2 = math.radians(g2.latitude_deg)
    dlat = math.radians(g2.latitude_deg - g1.latitude_deg)
    dlon = math.radians(g2.longitude_deg - g1.longitude_deg)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    if h > 1.0:
        h = 1.0
    angle = 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))
    return MEAN_RADIUS_KM * angle


def propagation_delay_ms(distance_km: float) -> float:
    """Electromagnetic propagation time for ``distance_km``, in milliseconds."""
    if distance_km < 0.0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    return distance_km / SPEED_OF_LIGHT_KM_S * 1000.0
