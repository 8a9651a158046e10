"""The unit-sphere radius kernel decides exactly as Haversine does.

``within_radius`` settles a pair by the dot product of unit vectors
unless it falls inside a proven band around the radius, where Haversine
decides.  The oracle here is never another kernel of the package: it is
``haversine_m(...) <= r`` on each pair, or brute force over every pair
of a corpus (ROADMAP item 14: a shared kernel cannot catch its own bug).

* Adversarial pairs sit a few ulp either side of the radius, at
  latitudes up to ±89.99°, longitudes across ±180° and radii from 1 m to
  1,000 km, and further out, where the key alone decides.
* Batch and single R-tree queries and the self-join equal brute force on
  corpora straddling the antimeridian, at both poles and of duplicates.
* The two defects of the degree-space self-join stay fixed: a pair 110 m
  apart across ±180° is found (and clustered), and a point at 89.9°
  does not widen the cells of a city.

The band assumes the platform's ``sin``/``cos`` within 2 ulp; CI runs
this file on the oldest supported NumPy for that reason.
"""

import math

import numpy as np
import pytest

from repro.algorithms.djcluster import DJClusterParams, djcluster_sequential
from repro.geo import distance
from repro.geo.distance import (
    EARTH_RADIUS_KM,
    haversine_m,
    radius_band,
    unit_vectors,
    within_radius,
)
from repro.geo.trace import TraceArray
from repro.index import selfjoin
from repro.index.persistent import PersistentRTree
from repro.index.rtree import RTree
from repro.index.selfjoin import self_join_csr
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS

from tests.conftest import city_points, count_calls, radius_brute_force

R_M = EARTH_RADIUS_KM * 1000.0

RADII_M = (1.0, 7.5, 100.0, 150.0, 500.0, 5_000.0, 80_000.0, 1_000_000.0)
#: Each far point is walked this many ulps either way in latitude and in
#: longitude: pairs a few representable steps either side of a target.
ULPS = 6


def _band_edges(band) -> list[float]:
    """The distances (m) at which the key's thresholds sit."""
    edges = []
    for g in (band.g_in, band.g_out):
        if -1.0 < g < 1.0:
            edges.append(2.0 * R_M * math.asin(math.sqrt((1.0 - g) / 2.0)))
    return edges


def _destinations(p: np.ndarray, bearing: np.ndarray, dist_m: np.ndarray) -> np.ndarray:
    """The points ``dist_m`` along the great circles from ``p`` at
    ``bearing`` (degrees): ``p̂ + p̂ (cos δ - 1) + t̂ sin δ``, ``t̂`` the unit
    tangent, with ``cos δ - 1 = -2 sin²(δ / 2)`` so that short distances
    keep their digits."""
    phi, lam = np.radians(p[:, 0]), np.radians(p[:, 1])
    theta, delta = np.radians(bearing), dist_m / R_M
    up = np.column_stack((np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)))
    north = np.column_stack((-np.sin(phi) * np.cos(lam), -np.sin(phi) * np.sin(lam), np.cos(phi)))
    east = np.column_stack((-np.sin(lam), np.cos(lam), np.zeros_like(lam)))
    tangent = north * np.cos(theta)[:, None] + east * np.sin(theta)[:, None]
    step = up * (-2.0 * np.sin(delta / 2.0) ** 2)[:, None] + tangent * np.sin(delta)[:, None]
    q = up + step
    lat = np.degrees(np.arctan2(q[:, 2], np.hypot(q[:, 0], q[:, 1])))
    return np.column_stack((lat, np.degrees(np.arctan2(q[:, 1], q[:, 0]))))


def _walk(points: np.ndarray) -> np.ndarray:
    """Each point moved by -ULPS..ULPS representable steps in latitude,
    then in longitude: ``4 ULPS + 1`` rows per point."""
    out = [points]
    for axis in (0, 1):
        for direction in (-np.inf, np.inf):
            moved = points.copy()
            for _ in range(ULPS):
                moved[:, axis] = np.nextafter(moved[:, axis], direction)
                out.append(moved.copy())
    return np.concatenate(out)


def _adversarial_pairs(radius_m, n=60, seed=0):
    """Pairs a few representable steps either side of the radius and of
    both band edges (where the key alone decides), and 1e-4 either side
    of the radius, from points at latitudes up to ±89.99° and on ±180°."""
    rs = np.random.RandomState(seed)
    lat = rs.uniform(-89.99, 89.99, n)
    lat[:6] = [89.99, -89.99, 89.9, -89.9, 0.0, 45.0]
    lon = rs.uniform(-180.0, 180.0, n)
    lon[::5] = rs.choice([-180.0, -179.9999, 179.9999, 180.0], len(lon[::5]))
    bearing = rs.uniform(0.0, 360.0, n)
    band = radius_band(radius_m, np.zeros((1, 2)))
    targets = [radius_m, *_band_edges(band), radius_m * (1 - 1e-4), radius_m * (1 + 1e-4)]
    base = np.column_stack((lat, lon))
    p, q = [], []
    for target in targets:
        far = _walk(_destinations(base, bearing, np.full(n, target)))
        p.append(np.tile(base, (len(far) // n, 1)))
        q.append(far)
    return np.concatenate(p), np.concatenate(q)


def _kernel(radius_m, p, q):
    pairs = np.arange(len(p))
    band = radius_band(radius_m, np.vstack((p, q)))
    return within_radius(band, unit_vectors(p), p, pairs, unit_vectors(q), q, pairs)


@pytest.mark.parametrize("radius_m", RADII_M)
def test_kernel_decides_as_haversine_at_the_radius(monkeypatch, radius_m):
    p, q = _adversarial_pairs(radius_m, seed=int(radius_m) % 1000)
    dist = haversine_m(p[:, 0], p[:, 1], q[:, 0], q[:, 1])
    truth = dist <= radius_m
    calls = count_calls(monkeypatch, distance, "haversine_km")
    got = _kernel(radius_m, p, q)
    assert np.array_equal(got, truth)
    # Both answers occur, some pairs sit within a few ulp of the radius,
    # and the band was needed: some pairs went to Haversine, not all.
    assert truth.any() and not truth.all()
    assert (np.abs(dist - radius_m) <= 64 * np.spacing(radius_m) + 1e-8).any()
    assert len(calls) == 1 and 0 < len(calls[0][0]) < len(p)


@pytest.mark.parametrize("radius_m", [0.0, 1e-3, 1.0])
def test_kernel_decides_as_haversine_near_zero(radius_m):
    # Identical points, points an ulp apart (possibly the same radians),
    # the same point written as lon 180 and -180, and the poles.
    rs = np.random.RandomState(5)
    base = np.column_stack((rs.uniform(-90, 90, 300), rs.uniform(-180, 180, 300)))
    base[:4] = [[90.0, 0.0], [-90.0, 10.0], [10.0, 180.0], [0.0, -180.0]]
    q = base.copy()
    q[1::3] = np.nextafter(q[1::3], np.inf)
    q[2::3, 1] = np.where(q[2::3, 1] > 0, q[2::3, 1] - 360.0, q[2::3, 1] + 360.0)
    q[0] = [90.0, 123.0]
    truth = haversine_m(base[:, 0], base[:, 1], q[:, 0], q[:, 1]) <= radius_m
    assert np.array_equal(_kernel(radius_m, base, q), truth)


def test_band_widens_with_coordinates_beyond_180():
    # The same pairs ten turns round: Haversine's subtraction error grows,
    # and so must the band, or the key would decide a pair it cannot.
    p, q = _adversarial_pairs(500.0, n=100, seed=3)
    p[:, 1] += 3600.0
    truth = haversine_m(p[:, 0], p[:, 1], q[:, 0], q[:, 1]) <= 500.0
    assert np.array_equal(_kernel(500.0, p, q), truth)
    assert radius_band(500.0, p).g_in - radius_band(500.0, q).g_in > 1e-13


def test_band_is_a_thin_shell():
    # In metres the band is a few millimetres at 100 m, so nearly every
    # pair of a real corpus is settled by the key.
    band = radius_band(100.0, np.zeros((1, 2)))
    inner = 2.0 * R_M * math.asin(math.sqrt((1.0 - band.g_in) / 2.0))
    outer = 2.0 * R_M * math.asin(math.sqrt((1.0 - band.g_out) / 2.0))
    assert 99.9 < inner < 100.0 < outer < 100.1
    assert band.chord >= 2.0 * math.sin(outer / (2.0 * R_M))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_band_validates_the_radius(bad):
    with pytest.raises(ValueError, match="radius must be"):
        radius_band(bad, np.zeros((1, 2)))


# -- whole answers against brute force ---------------------------------------

def _corpora() -> dict[str, np.ndarray]:
    rs = np.random.RandomState(17)
    seam = np.column_stack(
        (10.0 + rs.uniform(-0.003, 0.003, 160), rs.uniform(-0.006, 0.006, 160) + 180.0)
    )
    seam[:, 1] = (seam[:, 1] + 180.0) % 360.0 - 180.0
    seam[:2] = [[10.0, 179.9995], [10.0, -179.9995]]
    seam[2:4] = [[10.001, 180.0], [10.001, -180.0]]
    poles = np.vstack(
        (
            np.column_stack((90.0 - rs.uniform(0, 0.01, 80), rs.uniform(-180, 180, 80))),
            np.column_stack((-90.0 + rs.uniform(0, 0.01, 80), rs.uniform(-180, 180, 80))),
            [[90.0, 0.0], [90.0, 45.0], [-90.0, 180.0], [-90.0, -180.0]],
        )
    )
    dups = np.vstack((np.tile([[10.0, 180.0]], (30, 1)), np.tile([[10.0, -180.0]], (30, 1)),
                      np.tile([[39.9, 116.4]], (30, 1))))
    return {"seam": seam, "poles": poles, "dups": dups}


CORPORA = _corpora()
BRUTE_RADII = (0.0, 1.0, 100.0, 500.0, 5_000.0)


def _persisted(points):
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=16 * 1024, seed=0, memory_budget_mb=0.03)
    tree = RTree.bulk_load(points, max_entries=8)
    return PersistentRTree.save(hdfs, "idx", tree, group_bytes=4096)


@pytest.fixture(scope="module")
def indexes():
    return {
        name: (RTree.bulk_load(points, max_entries=8), _persisted(points))
        for name, points in CORPORA.items()
    }


def _same(got, want):
    assert len(got) == len(want)
    for i, (hood, ref) in enumerate(zip(got, want)):
        assert np.array_equal(hood, ref), f"row {i}"


@pytest.mark.parametrize("radius_m", BRUTE_RADII)
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_every_radius_answer_equals_brute_force(indexes, name, radius_m):
    points = CORPORA[name]
    want = radius_brute_force(points, radius_m)
    ids, counts = self_join_csr(points, radius_m)
    _same(np.split(ids, np.cumsum(counts)[:-1]), want)
    for tree in indexes[name]:
        _same(tree.query_radius_batch(points, radius_m), want)
        _same([tree.query_radius(lat, lon, radius_m) for lat, lon in points.tolist()], want)


def test_brute_force_corpora_cross_the_seam():
    """Otherwise the test above pins nothing the old grid got wrong."""
    hoods = radius_brute_force(CORPORA["seam"], 500.0)
    lon = CORPORA["seam"][:, 1]
    assert any(((lon[h] > 0).any() and (lon[h] < 0).any()) for h in hoods)


# -- the two fixed defects ----------------------------------------------------

SEAM_PAIR = np.array([[10.0, 179.9995], [10.0, -179.9995]])


def test_self_join_finds_the_seam_pair():
    assert 100.0 < haversine_m(*SEAM_PAIR[0], *SEAM_PAIR[1]) < 120.0
    ids, counts = self_join_csr(SEAM_PAIR, 500.0)
    assert counts.tolist() == [2, 2] and ids.tolist() == [0, 1, 0, 1]
    ids, counts = self_join_csr(SEAM_PAIR, 500.0, groups=np.array([3, 3]))
    assert counts.tolist() == [2, 2]


def test_djcluster_clusters_across_the_seam():
    # Five stationary traces either side of ±180°: only together are they
    # the ten points a cluster needs.
    lat = 10.0 + np.arange(10) * 1e-5
    lon = np.where(np.arange(10) < 5, 179.9995, -179.9995)
    array = TraceArray.from_columns(["u"], lat, lon, np.arange(10) * 600.0)
    params = DJClusterParams(radius_m=500.0, min_pts=10)
    result = djcluster_sequential(array, params)
    assert result.n_clusters == 1 and len(result.clusters[0]) == 10
    assert result.noise_ids.tolist() == []


def _candidates(monkeypatch, points, radius_m):
    calls = count_calls(monkeypatch, selfjoin, "within_radius")
    self_join_csr(points, radius_m)
    return sum(len(args[3]) for args in calls)


def test_a_polar_outlier_does_not_widen_the_city(monkeypatch):
    city = city_points(20_000, seed=41, spread=0.03)
    alone = _candidates(monkeypatch, city, 100.0)
    with_outlier = _candidates(monkeypatch, np.vstack((city, [[89.9, 116.4]])), 100.0)
    assert with_outlier <= 1.5 * alone
