import random

import pytest

from sda_netlab.geo import (
    ConvergenceError,
    EcefPosition,
    SEMI_MAJOR_A_KM,
    GeodeticPosition,
    ecef_to_geodetic,
    geodetic_to_ecef,
    propagation_delay_ms,
    surface_distance_km,
)
from oracle_utils import (
    elevation_angle_deg,
    grazing_pair,
    has_line_of_sight,
    min_scaled_norm,
    random_orbital_point,
    segment_blocked_by_sampling,
)


def test_geodetic_to_ecef_equator_prime_meridian():
    p = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
    assert p.x == pytest.approx(6378.137, abs=1e-9)
    assert p.y == pytest.approx(0.0, abs=1e-9)
    assert p.z == pytest.approx(0.0, abs=1e-9)


def test_geodetic_to_ecef_north_pole_is_semi_minor_axis():
    p = geodetic_to_ecef(GeodeticPosition(90.0, 0.0, 0.0))
    assert p.x == pytest.approx(0.0, abs=1e-9)
    assert p.z == pytest.approx(6356.752314245, abs=1e-6)


def test_geodetic_to_ecef_matches_independent_reference():
    # Frozen from a separately coded closed-form conversion (meters-based).
    p = geodetic_to_ecef(GeodeticPosition(45.0, 45.0, 100.0))
    assert p.x == pytest.approx(3244.4191450605745, abs=1e-9)
    assert p.y == pytest.approx(3244.419145060574, abs=1e-9)
    assert p.z == pytest.approx(4558.059086984574, abs=1e-9)


def test_ecef_to_geodetic_trivial_points():
    g = ecef_to_geodetic(EcefPosition(6378.137, 0.0, 0.0))
    assert g.latitude_deg == pytest.approx(0.0, abs=1e-9)
    assert g.longitude_deg == pytest.approx(0.0, abs=1e-9)
    assert g.altitude_km == pytest.approx(0.0, abs=1e-9)

    south = ecef_to_geodetic(EcefPosition(0.0, 0.0, -6356.752314245))
    assert south.latitude_deg == pytest.approx(-90.0, abs=1e-9)
    assert south.longitude_deg == 0.0
    assert south.altitude_km == pytest.approx(0.0, abs=1e-6)


def test_geodetic_roundtrip_random_points():
    rng = random.Random(42)
    for _ in range(1000):
        g = GeodeticPosition(
            rng.uniform(-90.0, 90.0), rng.uniform(-179.999, 180.0), rng.uniform(0.0, 2000.0)
        )
        p = geodetic_to_ecef(g)
        back = ecef_to_geodetic(p)
        assert back.latitude_deg == pytest.approx(g.latitude_deg, abs=1e-6)
        assert back.altitude_km == pytest.approx(g.altitude_km, abs=1e-6)
        # Longitude is meaningless at the exact poles.
        if abs(g.latitude_deg) < 89.999999:
            assert back.longitude_deg == pytest.approx(g.longitude_deg, abs=1e-6)
        p2 = geodetic_to_ecef(back)
        assert abs(p2.x - p.x) < 1e-6 and abs(p2.y - p.y) < 1e-6 and abs(p2.z - p.z) < 1e-6


def test_ecef_to_geodetic_reports_nonconvergence():
    point = geodetic_to_ecef(GeodeticPosition(45.0, 10.0, 2000.0))
    with pytest.raises(ConvergenceError):
        ecef_to_geodetic(point, max_iterations=1)


def test_geodetic_position_validation():
    with pytest.raises(ValueError):
        GeodeticPosition(91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticPosition(0.0, 0.0, -1.0)
    assert GeodeticPosition(0.0, 190.0, 0.0).longitude_deg == pytest.approx(-170.0)
    assert GeodeticPosition(0.0, -180.0, 0.0).longitude_deg == 180.0


def test_line_of_sight_trivial_cases():
    assert has_line_of_sight(EcefPosition(7000, 0, 0), EcefPosition(8000, 0, 0))
    assert not has_line_of_sight(EcefPosition(7000, 0, 0), EcefPosition(-7000, 0, 0))
    surface = EcefPosition(6378.137, 0, 0)
    assert has_line_of_sight(surface, EcefPosition(7000, 0, 0))
    assert not has_line_of_sight(surface, EcefPosition(-7000, 0, 0))


def test_line_of_sight_rejects_coincident_points():
    p = EcefPosition(7000, 0, 0)
    with pytest.raises(ValueError):
        has_line_of_sight(p, EcefPosition(7000, 0, 0))


def test_line_of_sight_is_exactly_symmetric():
    rng = random.Random(7)
    pairs = [(random_orbital_point(rng), random_orbital_point(rng)) for _ in range(500)]
    pairs += [grazing_pair(rng, SEMI_MAJOR_A_KM + 550.0) for _ in range(500)]
    for p, q in pairs:
        assert has_line_of_sight(p, q) == has_line_of_sight(q, p)
        assert min_scaled_norm(p, q) == min_scaled_norm(q, p)


def test_line_of_sight_margin_monotonically_shrinks_visibility():
    rng = random.Random(11)
    margins = [0.0, 10.0, 80.0, 300.0]
    for _ in range(400):
        p, q = random_orbital_point(rng), random_orbital_point(rng)
        states = [has_line_of_sight(p, q, margin_km=m) for m in margins]
        for earlier, later in zip(states, states[1:]):
            assert earlier or not later, "a larger margin made a blocked pair visible"


def test_line_of_sight_agrees_with_sampling_oracle():
    rng = random.Random(13)
    pairs = [(random_orbital_point(rng), random_orbital_point(rng)) for _ in range(1500)]
    pairs += [grazing_pair(rng, SEMI_MAJOR_A_KM + 550.0) for _ in range(500)]
    checked = 0
    for p, q in pairs:
        if abs(min_scaled_norm(p, q) - 1.0) <= 1e-6:
            continue  # tolerance band around the cut
        checked += 1
        assert has_line_of_sight(p, q) == (
            not segment_blocked_by_sampling(p, q, samples=10_000)
        )
    assert checked > 1000


def test_surface_distance_analytic_arcs():
    zero = surface_distance_km(GeodeticPosition(12.0, 34.0, 0.0), GeodeticPosition(12.0, 34.0, 0.0))
    assert zero == 0.0
    antipodal = surface_distance_km(GeodeticPosition(0, 0, 0), GeodeticPosition(0, 180, 0))
    assert antipodal == pytest.approx(20015.114442035923, abs=1e-6)
    quarter = surface_distance_km(GeodeticPosition(0, 0, 0), GeodeticPosition(0, 90, 0))
    assert quarter == pytest.approx(10007.557221017962, abs=1e-6)


def test_surface_distance_symmetry_and_triangle_inequality():
    rng = random.Random(17)
    for _ in range(300):
        pts = [
            GeodeticPosition(rng.uniform(-90, 90), rng.uniform(-180.0, 180.0), 0.0)
            for _ in range(3)
        ]
        d01 = surface_distance_km(pts[0], pts[1])
        assert d01 == pytest.approx(surface_distance_km(pts[1], pts[0]), abs=1e-9)
        d02 = surface_distance_km(pts[0], pts[2])
        d21 = surface_distance_km(pts[2], pts[1])
        assert d01 <= d02 + d21 + 1e-9


def test_propagation_delay_values():
    assert propagation_delay_ms(299.792458) == pytest.approx(1.0, abs=1e-12)
    assert propagation_delay_ms(0.0) == 0.0
    assert propagation_delay_ms(550.0) == pytest.approx(1.8346025235898362, abs=1e-12)
    with pytest.raises(ValueError):
        propagation_delay_ms(-1.0)


def test_elevation_angle_zenith_and_horizon():
    station = GeodeticPosition(0.0, 0.0, 0.0)
    ecef = geodetic_to_ecef(station)
    overhead = EcefPosition(7000.0, 0.0, 0.0)
    assert elevation_angle_deg(station, ecef, overhead) == pytest.approx(90.0, abs=1e-9)
    sideways = EcefPosition(6378.137, 2000.0, 0.0)
    assert elevation_angle_deg(station, ecef, sideways) == pytest.approx(0.0, abs=1e-9)
