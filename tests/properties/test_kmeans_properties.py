"""Property-based tests: k-means invariants and the assignment kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kmeans import (
    _update_centroids,
    assign_points,
    kmeans_sequential,
    nearest_centroid,
)
from repro.geo.distance import pairwise


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=3, max_value=120))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    return 39.9 + rng.normal(0, 0.05, (n, 2))


@settings(max_examples=50, deadline=None)
@given(point_sets(), st.integers(min_value=1, max_value=3), st.integers(0, 100))
def test_inertia_never_worse_than_single_cluster(points, k, seed):
    k = min(k, len(points))
    single = kmeans_sequential(points, 1, seed=seed)
    multi = kmeans_sequential(points, k, seed=seed)
    assert multi.inertia <= single.inertia + 1e-9


@settings(max_examples=50, deadline=None)
@given(point_sets(), st.integers(0, 100))
def test_lloyd_step_never_increases_inertia(points, seed):
    """One assignment+update step is monotone in the k-means objective
    (the convergence argument)."""
    rng = np.random.default_rng(seed)
    k = min(3, len(points))
    centroids = points[rng.choice(len(points), k, replace=False)]
    for _ in range(4):
        assignment = assign_points(points, centroids, "squared_euclidean")
        before = sum(
            np.sum((points[assignment == c] - centroids[c]) ** 2)
            for c in range(k)
        )
        centroids = _update_centroids(points, assignment, centroids)
        after_assignment = assign_points(points, centroids, "squared_euclidean")
        after = sum(
            np.sum((points[after_assignment == c] - centroids[c]) ** 2)
            for c in range(k)
        )
        assert after <= before + 1e-9


@settings(max_examples=50, deadline=None)
@given(point_sets(), st.integers(0, 100))
def test_converged_means_fixed_point(points, seed):
    k = min(3, len(points))
    res = kmeans_sequential(points, k, seed=seed, convergence_delta=0.0, max_iter=300)
    if not res.converged:
        return
    assignment = assign_points(points, res.centroids, "squared_euclidean")
    again = _update_centroids(points, assignment, res.centroids)
    assert np.allclose(again, res.centroids, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(point_sets(), st.integers(1, 4), st.integers(0, 100))
def test_assignment_total_and_range(points, k, seed):
    k = min(k, len(points))
    res = kmeans_sequential(points, k, seed=seed, max_iter=5)
    assignment = assign_points(points, res.centroids, "squared_euclidean")
    assert len(assignment) == len(points)
    assert assignment.min() >= 0 and assignment.max() < k


# -- nearest_centroid == (argmin, min) of the full matrix, bit for bit --------

METRICS = ("haversine", "squared_euclidean")


def assert_equals_full_matrix(points, centroids):
    for metric in METRICS:
        index, distance = nearest_centroid(points, centroids, metric)
        full = pairwise(metric, points, centroids)
        assert np.array_equal(index, np.argmin(full, axis=1)), metric
        assert np.array_equal(distance, full.min(axis=1)), metric
        assert index.shape == distance.shape == (len(points),)


@st.composite
def clouds(draw, min_k=1, min_n=0):
    """Centroids and points scattered about one spot at one scale, from
    metres (every argument far below 1) to continents."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    k = draw(st.integers(min_k, 12))
    n = draw(st.integers(min_n, 40))
    scale = draw(st.sampled_from([1e-9, 1e-5, 1e-2, 1.0, 30.0]))
    spot = np.array([rng.uniform(-80, 80), rng.uniform(-170, 170)])
    centroids = spot + rng.normal(0, scale, (k, 2))
    points = spot + rng.normal(0, scale, (n, 2))
    return rng, points, centroids


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_kernel_equals_full_matrix_on_scattered_points(cloud):
    _, points, centroids = cloud
    assert_equals_full_matrix(points, centroids)


@settings(max_examples=150, deadline=None)
@given(clouds(min_k=2, min_n=1), st.booleans())
def test_kernel_equals_full_matrix_with_duplicate_and_twin_centroids(cloud, twin):
    """A centroid repeated exactly, or beside its ``nextafter`` twin in
    either index order, seen from near and from far: from far the twins'
    arguments differ in the last bits while their distances tie, and the
    strictly larger argument may sit at the lower index."""
    rng, points, centroids = cloud
    i, j = rng.choice(len(centroids), 2, replace=False)
    centroids[i] = (
        np.nextafter(centroids[j], rng.choice([-np.inf, np.inf], 2)) if twin else centroids[j]
    )
    far = points + rng.normal(0, 25.0, points.shape)
    far[:, 0] = np.clip(far[:, 0], -90.0, 90.0)
    assert_equals_full_matrix(np.vstack((points, far)), centroids)


@settings(max_examples=100, deadline=None)
@given(clouds(min_k=2, min_n=1), st.booleans())
def test_kernel_equals_full_matrix_for_centroids_mirrored_about_the_equator(cloud, swap):
    rng, points, centroids = cloud
    centroids[0, 0] = abs(centroids[0, 0]) + 0.5
    centroids[1] = (-centroids[0, 0], centroids[0, 1])
    if swap:
        centroids[[0, 1]] = centroids[[1, 0]]
    points[:, 0] = 0.0  # on the equator: equidistant to the ulp
    assert_equals_full_matrix(points, centroids)


@settings(max_examples=100, deadline=None)
@given(clouds(min_n=2))
def test_kernel_equals_full_matrix_at_zero_and_at_the_clip(cloud):
    """Points exactly on centroids (argument 0) and antipodal to them
    (argument clipped at 1)."""
    rng, points, centroids = cloud
    m = min(len(points) // 2, len(centroids))
    points[:m] = centroids[:m]
    points[m : 2 * m, 0] = -centroids[:m, 0]
    points[m : 2 * m, 1] = centroids[:m, 1] + 180.0
    assert_equals_full_matrix(points, centroids)


@settings(max_examples=100, deadline=None)
@given(clouds(min_k=2, min_n=3))
def test_kernel_equals_full_matrix_at_the_poles_and_the_date_line(cloud):
    rng, points, centroids = cloud
    centroids[0], centroids[-1] = (90.0, 0.0), (-90.0, 10.0)
    points[0], points[1] = (90.0, 77.0), (-90.0, -120.0)
    assert_equals_full_matrix(points, centroids)
    centroids[:, 1] = rng.choice([180.0, -180.0], len(centroids))
    points[:, 1] = rng.choice([180.0, -180.0, 179.9999999], len(points))
    assert_equals_full_matrix(points, centroids)


def test_kernel_equals_full_matrix_on_the_smallest_shapes():
    one = np.array([[39.9, 116.4]])
    three = np.array([[39.9, 116.4], [39.9, 116.4], [-33.4, -70.6]])
    for points in (np.empty((0, 2)), one, three):
        for centroids in (one, three):
            assert_equals_full_matrix(points, centroids)
