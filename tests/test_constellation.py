import math
import os

import numpy as np
import pytest

from sda_netlab.constellation import (
    ConstellationSnapshot,
    SplitMix64,
    WalkerSpec,
    generate_walker,
    load_ground_stations_csv,
    load_snapshot_csv,
    merge_snapshots,
    seeded_permutation,
    select_actuators,
    snapshot_to_csv,
)
from sda_netlab.geo import SEMI_MAJOR_A_KM


def test_walker_equatorial_square():
    snap = generate_walker(WalkerSpec(621.863, 0.0, 1, 4))
    got = sorted((round(x, 6), round(y, 6)) for x, y, _ in snap.positions.tolist())
    assert got == [(-7000.0, 0.0), (-0.0, -7000.0), (0.0, 7000.0), (7000.0, 0.0)]
    assert all(abs(z) < 1e-9 for _, _, z in snap.positions.tolist())


def test_walker_shell_radii_and_separation():
    spec = WalkerSpec(550.0, 53.0, 6, 8, phasing_f=2)
    snap = generate_walker(spec)
    assert len(snap) == 48
    radius = SEMI_MAJOR_A_KM + 550.0
    points = snap.positions.tolist()
    for p in points:
        assert math.hypot(*p) == pytest.approx(radius, abs=1e-9)
    min_sep = min(math.dist(a, b) for i, a in enumerate(points) for b in points[i + 1:])
    assert min_sep > 0.0


def test_walker_phasing_offsets_second_plane():
    # F=1, P=2, spp=2: plane 1 in-plane angles are offset by 360*1*1/(2*2) = 90 deg.
    spec = WalkerSpec(1000.0, 90.0, 2, 2, phasing_f=1)
    snap = generate_walker(spec)
    r = SEMI_MAJOR_A_KM + 1000.0
    inc = math.radians(90.0)
    expected = []
    for p in range(2):
        raan = math.radians(180.0 * p)
        for k in range(2):
            u = math.radians(180.0 * k + 90.0 * p)
            x0, y0 = r * math.cos(u), r * math.sin(u)
            y1, z1 = y0 * math.cos(inc), y0 * math.sin(inc)
            expected.append(
                (
                    x0 * math.cos(raan) - y1 * math.sin(raan),
                    x0 * math.sin(raan) + y1 * math.cos(raan),
                    z1,
                )
            )
    for (x, y, z), exp in zip(snap.positions.tolist(), expected):
        assert x == pytest.approx(exp[0], abs=1e-9)
        assert y == pytest.approx(exp[1], abs=1e-9)
        assert z == pytest.approx(exp[2], abs=1e-9)


def test_walker_spec_validation():
    with pytest.raises(ValueError):
        WalkerSpec(550.0, 53.0, 0, 8)
    with pytest.raises(ValueError):
        WalkerSpec(550.0, 53.0, 4, 8, phasing_f=4)


def test_snapshot_rejects_duplicate_ids_and_buried_satellites():
    pos = (7000.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="duplicate"):
        ConstellationSnapshot(("a", "a"), [pos, pos])
    with pytest.raises(ValueError, match="surface"):
        ConstellationSnapshot(("a",), [(6000.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="'b' is not above the surface"):
        ConstellationSnapshot(("a", "b", "c"), [pos, (0.0, 6000.0, 0.0), (0.0, 0.0, 6000.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="'b' has a non-finite position"):
            ConstellationSnapshot(("a", "b"), [pos, (7000.0, bad, 0.0)])
    with pytest.raises(ValueError, match="shape"):
        ConstellationSnapshot(("a", "b"), [pos])
    with pytest.raises(ValueError, match="shape"):
        ConstellationSnapshot(("a",), [pos], actuators=[True, False])

    given = np.array([pos, (0.0, 7000.0, 0.0)])
    snap = ConstellationSnapshot(("a", "b"), given)
    assert snap.actuators.tolist() == [False, False]
    given[0, 0] = 8000.0  # the snapshot holds a copy
    assert snap.positions[0, 0] == 7000.0
    for column in (snap.positions, snap.actuators):
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1


def test_snapshot_csv_round_trip_is_exact():
    snap = generate_walker(WalkerSpec(550.0, 53.0, 3, 5, phasing_f=1))
    back = load_snapshot_csv(snapshot_to_csv(snap))
    assert back.ids == snap.ids
    assert back.positions.tolist() == snap.positions.tolist()  # bit-exact through repr


def test_snapshot_csv_errors_name_the_line():
    with pytest.raises(ValueError, match="line 1"):
        load_snapshot_csv("wrong,header\n")
    text = "id,x_km,y_km,z_km\nok,7000,0,0\nbad,6000,0,0\n"
    with pytest.raises(ValueError, match="line 3"):
        load_snapshot_csv(text)
    text = "id,x_km,y_km,z_km\na,7000,0,0\na,7100,0,0\n"
    with pytest.raises(ValueError, match="duplicate"):
        load_snapshot_csv(text)
    with pytest.raises(ValueError, match="line 2"):
        load_snapshot_csv("id,x_km,y_km,z_km\na,seven,0,0\n")


def test_ground_station_csv():
    stations = load_ground_stations_csv("id,lat_deg,lon_deg,alt_km\ngs1,0,0,0\n")
    assert len(stations) == 1
    assert stations[0].ecef.x == pytest.approx(6378.137, abs=1e-9)
    with pytest.raises(ValueError, match="line 2"):
        load_ground_stations_csv("id,lat_deg,lon_deg,alt_km\ngs1,91,0,0\n")
    with pytest.raises(ValueError, match="altitude"):
        load_ground_stations_csv("id,lat_deg,lon_deg,alt_km\ngs1,0,0,20\n")


def test_ground_station_csv_thirteen_rows():
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "stations_13.csv")
    with open(path, "r", encoding="utf-8") as fh:
        stations = load_ground_stations_csv(fh.read())
    assert len(stations) == 13
    assert len({s.id for s in stations}) == 13


def test_merge_snapshots_rejects_id_collisions():
    a = generate_walker(WalkerSpec(550.0, 53.0, 1, 4), id_prefix="a")
    b = generate_walker(WalkerSpec(1200.0, 87.9, 1, 4), id_prefix="b")
    merged = merge_snapshots(a, b)
    assert len(merged) == 8
    flagged = merge_snapshots(select_actuators(a, 4, 1), b)
    assert flagged.actuators.tolist() == [True] * 4 + [False] * 4
    assert flagged.positions.tolist() == a.positions.tolist() + b.positions.tolist()
    with pytest.raises(ValueError, match="duplicate"):
        merge_snapshots(a, a)


def test_splitmix64_matches_independent_reimplementation():
    mask = (1 << 64) - 1

    def reference_stream(seed, count):
        out, state = [], seed
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(8)] == reference_stream(seed, 8)


def test_seeded_permutation_matches_manual_fisher_yates():
    seed, n = 99, 23
    stream = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.next_u64() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    assert seeded_permutation(n, seed) == perm


def test_select_actuators_endpoints_and_errors():
    snap = generate_walker(WalkerSpec(550.0, 53.0, 4, 5))
    assert not select_actuators(snap, 0, 5).actuators.any()
    assert select_actuators(snap, 20, 5).actuators.all()
    with pytest.raises(ValueError):
        select_actuators(snap, 21, 5)
    with pytest.raises(ValueError):
        select_actuators(snap, -1, 5)


def test_select_actuators_nested_and_deterministic():
    snap = generate_walker(WalkerSpec(1200.0, 87.9, 6, 10))
    for seed in (0, 3, 12345):
        small = select_actuators(snap, 5, seed).actuators
        large = select_actuators(snap, 10, seed).actuators
        assert small.sum() == 5 and large.sum() == 10
        assert not (small & ~large).any()
        again = select_actuators(snap, 5, seed).actuators
        assert np.array_equal(small, again)
        assert np.flatnonzero(small).tolist() == sorted(seeded_permutation(len(snap), seed)[:5])
    a = select_actuators(snap, 10, 1).actuators
    b = select_actuators(snap, 10, 2).actuators
    assert not np.array_equal(a, b)
