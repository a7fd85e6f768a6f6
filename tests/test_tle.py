import math
import random

import pytest

from sda_netlab.tle import (
    TleFormatError,
    gmst_deg,
    line_checksum,
    load_tle_file,
    parse_tle,
    semi_major_axis_km,
    snapshot_from_tles,
    solve_kepler,
    tle_to_position,
)
from oracle_utils import format_tle_lines

ISS_L1 = "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992"
ISS_L2 = "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298"


def _with_checksum(body: str) -> str:
    assert len(body) == 68
    return body + str(line_checksum(body))


def test_parse_real_tle_fields():
    el = parse_tle(ISS_L1, ISS_L2)
    assert el.catalog_id == "25544"
    assert el.inclination_deg == pytest.approx(51.6444)
    assert el.raan_deg == pytest.approx(75.4313)
    assert el.eccentricity == pytest.approx(0.0002297)
    assert el.arg_perigee_deg == pytest.approx(11.5525)
    assert el.mean_anomaly_deg == pytest.approx(50.1151)
    assert el.mean_motion_rev_per_day == pytest.approx(15.49398617)
    # Epoch: 2020, day 151.61686127.
    days_since_j2000 = el.epoch_seconds / 86400.0
    assert days_since_j2000 == pytest.approx((20 * 365.25 + 151.61686127 - 1) - 0.5, abs=2.0)


def test_implied_decimal_eccentricity():
    body = ISS_L2[:26] + "0001234" + ISS_L2[33:68]
    el = parse_tle(ISS_L1, _with_checksum(body))
    assert el.eccentricity == pytest.approx(0.0001234)


def test_checksum_and_length_errors():
    corrupted = ISS_L1[:68] + ("0" if ISS_L1[68] != "0" else "1")
    with pytest.raises(TleFormatError, match="checksum"):
        parse_tle(corrupted, ISS_L2)
    with pytest.raises(TleFormatError, match="69"):
        parse_tle(ISS_L1[:-1], ISS_L2)
    with pytest.raises(TleFormatError, match="start"):
        parse_tle(ISS_L2, ISS_L2)
    mismatched = _with_checksum("1 11111U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  999")
    with pytest.raises(TleFormatError, match="catalog"):
        parse_tle(mismatched, ISS_L2)


def test_semi_major_axis_from_mean_motion():
    # Frozen from a = (GM / n^2)^(1/3) with GM = 398600.4418.
    assert semi_major_axis_km(15.05) == pytest.approx(6929.642682157906, abs=1e-6)


def test_solve_kepler_circular_and_derived_root():
    for m in (0.0, 0.5, 2.0, 5.5):
        assert solve_kepler(m, 0.0) == pytest.approx(math.fmod(m, 2 * math.pi), abs=1e-12)
    # Frozen from a 200-step bisection of E - 0.5 sin E = 1.5707963.
    assert solve_kepler(1.5707963, 0.5) == pytest.approx(2.0209799160828243, abs=1e-9)
    residual = lambda E, e, m: E - e * math.sin(E) - m
    rng = random.Random(3)
    for _ in range(200):
        m, e = rng.uniform(0, 2 * math.pi), rng.uniform(0.0, 0.95)
        E = solve_kepler(m, e)
        assert residual(E, e, m) == pytest.approx(0.0, abs=1e-9)


def test_gmst_at_j2000_epoch():
    assert gmst_deg(0.0) == pytest.approx(280.46061837, abs=1e-9)
    assert 0.0 <= gmst_deg(1.23e8) < 360.0


def test_circular_orbit_preserves_radius():
    el = parse_tle(ISS_L1, ISS_L2)
    circular = type(el)(
        catalog_id=el.catalog_id,
        epoch_seconds=el.epoch_seconds,
        inclination_deg=el.inclination_deg,
        raan_deg=el.raan_deg,
        eccentricity=0.0,
        arg_perigee_deg=el.arg_perigee_deg,
        mean_anomaly_deg=el.mean_anomaly_deg,
        mean_motion_rev_per_day=el.mean_motion_rev_per_day,
    )
    a = semi_major_axis_km(el.mean_motion_rev_per_day)
    rng = random.Random(5)
    for _ in range(50):
        t = el.epoch_seconds + rng.uniform(-86400.0, 86400.0)
        assert tle_to_position(circular, t).norm() == pytest.approx(a, abs=1e-6)


def test_format_parse_is_idempotent_at_printed_precision():
    el = parse_tle(ISS_L1, ISS_L2)
    once = parse_tle(*format_tle_lines(el))
    twice = parse_tle(*format_tle_lines(once))
    assert once == twice
    assert once.inclination_deg == el.inclination_deg
    assert once.eccentricity == el.eccentricity
    assert once.mean_motion_rev_per_day == el.mean_motion_rev_per_day


def test_load_tle_file_with_and_without_names():
    text = f"ISS (ZARYA)\n{ISS_L1}\n{ISS_L2}\n{ISS_L1}\n{ISS_L2}\n"
    entries = load_tle_file(text)
    assert len(entries) == 2
    assert entries[0][0] == "ISS (ZARYA)"
    assert entries[1][0] == ""
    snap = snapshot_from_tles(entries)
    assert len(snap) == 2
    assert len(set(snap.ids)) == 2
    with pytest.raises(TleFormatError, match="line 2"):
        load_tle_file(ISS_L1)
