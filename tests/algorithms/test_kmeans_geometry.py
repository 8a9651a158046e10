"""Adversarial geometry at the MapReduce k-means driver.

Each corpus below runs through ``run_kmeans_mapreduce`` on the serial,
threads and processes backends, under both metrics, and must agree with
``kmeans_sequential`` on the same points, seed and ``k``:

* **both poles** — caps around 90° N and 90° S, the poles themselves
  included: the same centroids and iteration count;
* **straddling ±180°** — longitudes on both sides of the date line, ±180°
  included: the same centroids (both drivers average longitudes as plain
  numbers, so a straddling cluster's mean lands near 0°, alike in each);
* **all-duplicate points** — sixty copies of one trace with ``k = 3``:
  every centroid is that trace (the seed picks three equal points; ties
  go to cluster 0, whose mean is the trace to rounding, and the empty
  clusters keep their centroid);
* **a single point** — ``k = 1`` gives that point; ``k = 2`` is the
  typed error ``ValueError("cannot pick 2 centroids from 1 points")``
  from both drivers;
* **an empty corpus** — seeded, the typed error ``ValueError("cannot
  pick 1 centroids from 0 points")`` from both; with explicit initial
  centroids both return those centroids after one iteration.

"The same centroids" is to 1e-9°: the reducer sums per-chunk partials
where ``kmeans_sequential`` adds every point in one pass.
"""

import numpy as np
import pytest

from repro.algorithms.kmeans import kmeans_sequential, run_kmeans_mapreduce
from repro.geo.trace import TraceArray
from repro.mapreduce.runner import fresh_runner


def _caps(rng, n=60):
    lat = rng.choice([1.0, -1.0], n) * rng.uniform(89.0, 90.0, n)
    lat[:4] = (90.0, -90.0, 90.0, -90.0)
    return np.column_stack((lat, rng.uniform(-180.0, 180.0, n)))


def _date_line(rng, n=60):
    lon = rng.choice([1.0, -1.0], n) * rng.uniform(179.0, 180.0, n)
    lon[:2] = (180.0, -180.0)
    return np.column_stack((rng.uniform(-30.0, 30.0, n), lon))


_RNG = np.random.default_rng(41)
#: ``name: (points, k, initial centroids or None, expected error or None)``.
CASES = {
    "poles": (_caps(_RNG), 2, None, None),
    "date_line": (_date_line(_RNG), 3, None, None),
    "duplicates": (np.tile([[39.9, 116.4]], (60, 1)), 3, None, None),
    "single": (np.array([[-33.4, -70.6]]), 1, None, None),
    "single_k2": (np.array([[-33.4, -70.6]]), 2, None, "cannot pick 2 centroids from 1 points"),
    "empty": (np.empty((0, 2)), 1, None, "cannot pick 1 centroids from 0 points"),
    "empty_seeded": (np.empty((0, 2)), 2, np.array([[10.0, 20.0], [-10.0, -20.0]]), None),
}


def _array(points):
    lat, lon = points.T
    return TraceArray.from_columns(["u"], lat, lon, np.arange(len(points), dtype=float))


@pytest.mark.parametrize("metric", ["haversine", "squared_euclidean"])
@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_each_corpus_matches_the_sequential_driver_or_fails_alike(backend, metric):
    datasets = {name: _array(points) for name, (points, *_) in CASES.items()}
    with fresh_runner(datasets, chunk_size=64 * 20, backend=backend, max_workers=2) as runner:
        for name, (points, k, init, error) in CASES.items():
            kwargs = dict(max_iter=20, seed=3, initial_centroids=init)
            if error is not None:
                with pytest.raises(ValueError, match=error):
                    kmeans_sequential(points, k, metric, **kwargs)
                with pytest.raises(ValueError, match=error):
                    run_kmeans_mapreduce(runner, name, k, metric, workdir=f"w/{name}", **kwargs)
                continue
            seq = kmeans_sequential(points, k, metric, **kwargs)
            mr = run_kmeans_mapreduce(runner, name, k, metric, workdir=f"w/{name}", **kwargs)
            assert mr.n_iterations == seq.n_iterations, name
            assert np.abs(mr.centroids - seq.centroids).max() <= 1e-9, name
            assert mr.inertia == pytest.approx(seq.inertia, rel=1e-9, abs=1e-9), name
            if name == "duplicates":
                assert np.abs(mr.centroids - points[0]).max() <= 1e-9
            elif name == "empty_seeded":
                assert mr.n_iterations == 1 and np.array_equal(mr.centroids, init)
