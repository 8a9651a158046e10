"""nearest_centroid against an oracle that shares no kernel with it.

The other k-means suites compare the kernel with ``pairwise`` and with
goldens recorded from earlier kernels; a bug common to both sides would
pass them.  Here the reference is a scalar ``math``-module Haversine, one
(point, centroid) pair at a time, on points and centroids anywhere on the
sphere: poles, the date line, duplicates and near-antipodes included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kmeans import assign_points, nearest_centroid
from repro.geo.distance import EARTH_RADIUS_KM


def oracle(lat1, lon1, lat2, lon2) -> tuple[float, float]:
    """``(a, km)``: the Haversine argument and distance, scalar ``math``."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (
        math.sin((p2 - p1) / 2) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin((math.radians(lon2) - math.radians(lon1)) / 2) ** 2
    )
    return a, 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(max(a, 0.0), 1.0)))


def tolerance(a: float) -> float:
    """1e-9 km, plus what a 1e-14 error in ``a`` becomes in kilometres.

    ``2R·asin(sqrt(a))`` has slope ``R / sqrt(a(1 - a))``: away from the
    antipode that term is below 1e-9 km, but as ``a → 1`` any two
    implementations that round ``a`` differently disagree visibly.
    """
    if a >= 1.0:
        return math.inf
    return 1e-9 + EARTH_RADIUS_KM * 1e-14 / math.sqrt(1.0 - a)


LAT = st.one_of(st.floats(-90, 90), st.sampled_from([90.0, -90.0, 0.0, 89.9999999]))
LON = st.one_of(
    st.floats(-180, 180), st.sampled_from([180.0, -180.0, 179.9999999, -179.9999999, 0.0])
)
COORD = st.tuples(LAT, LON)
OFFSET = st.one_of(st.just(0.0), st.floats(-2, 2))


@st.composite
def scenes(draw):
    points = draw(st.lists(COORD, min_size=1, max_size=10))
    centroids = draw(st.lists(COORD, min_size=1, max_size=6))
    for lat, lon in draw(st.lists(st.sampled_from(points), max_size=3)):
        lat = min(max(-lat + draw(OFFSET), -90.0), 90.0)
        centroids.append((lat, lon - math.copysign(180.0, lon) + draw(OFFSET)))
    centroids += draw(st.lists(st.sampled_from(centroids), max_size=2))
    return np.array(points), np.array(centroids)


@settings(max_examples=400, deadline=None)
@given(scenes())
def test_nearest_centroid_agrees_with_a_scalar_math_haversine(scene):
    points, centroids = scene
    index, distance = nearest_centroid(points, centroids, "haversine")
    assert np.array_equal(assign_points(points, centroids, "haversine"), index)
    for (lat, lon), i, km in zip(points.tolist(), index.tolist(), distance.tolist()):
        rows = [oracle(c_lat, c_lon, lat, lon) for c_lat, c_lon in centroids.tolist()]
        assert abs(km - rows[i][1]) <= tolerance(rows[i][0])
        ranked = sorted(range(len(rows)), key=lambda j: rows[j][1])
        if len(ranked) > 1:
            (a1, km1), (a2, km2) = rows[ranked[0]], rows[ranked[1]]
            if km2 - km1 > 1e-9 * km2 + tolerance(a1) + tolerance(a2):
                assert i == ranked[0], rows
