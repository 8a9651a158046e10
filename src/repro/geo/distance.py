"""Distance metrics over spatial coordinates.

The paper's k-means experiments (Section VI) use two metrics:

* the **squared Euclidean distance** — same ordering as Euclidean but skips
  the square root, so clustering with it is faster while preserving the
  order relationship between points; and
* the **Haversine distance** — great-circle distance over the earth's
  surface (Sinnott 1984), more expensive per pair.

All functions are vectorized: they accept scalars or NumPy arrays for each
coordinate and broadcast.  Coordinates are (latitude, longitude) in decimal
degrees; Haversine returns kilometres.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "EARTH_RADIUS_KM",
    "haversine_km",
    "haversine_arg",
    "haversine_m",
    "squared_euclidean",
    "get_metric",
    "pairwise",
    "METRICS",
]

#: Mean earth radius used by the Haversine formula (km).
EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Great-circle distance in kilometres (Haversine formula).

    Numerically stable for small distances (the motivating virtue in
    Sinnott's "Virtues of the haversine").  Broadcasts over array inputs.
    """
    lat1 = np.radians(lat1)
    lon1 = np.radians(lon1)
    lat2 = np.radians(lat2)
    lon2 = np.radians(lon2)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    # Clip guards against tiny negative / >1 values from roundoff.
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def haversine_arg(lat1, lon1, lat2, lon2) -> np.ndarray:
    """The ``a`` inside :func:`haversine_km`, for array operands.

    ``a -> 2R * arcsin(sqrt(clip(a)))`` is monotone, so ``a`` already
    orders a point's candidates by great-circle distance at two sines per
    pair.  The same elementwise operations in the same order as
    :func:`haversine_km`, so the same bits (``s * s`` is what ``** 2``
    does for arrays), in place on three buffers instead of ten
    temporaries, and bit-equal with the two points swapped (sine is odd).
    The latitudes and the longitudes must each broadcast to the result's
    shape, as :func:`pairwise` passes them; scalars alone do not.
    """
    lat1 = np.radians(lat1)
    lat2 = np.radians(lat2)
    a = np.subtract(lat2, lat1)
    np.divide(a, 2.0, out=a)
    np.sin(a, out=a)
    np.multiply(a, a, out=a)
    b = np.subtract(np.radians(lon2), np.radians(lon1))
    np.divide(b, 2.0, out=b)
    np.sin(b, out=b)
    np.multiply(b, b, out=b)
    np.multiply(np.cos(lat1) * np.cos(lat2), b, out=b)
    return np.add(a, b, out=a)


def haversine_m(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Great-circle distance in metres."""
    return haversine_km(lat1, lon1, lat2, lon2) * 1000.0


def squared_euclidean(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Squared Euclidean distance in degree² space.

    Monotonically related to the Euclidean distance, so nearest-centroid
    assignment is identical while avoiding the square root (the speed
    argument made in Section VI).
    """
    dlat = np.asarray(lat2, dtype=np.float64) - np.asarray(lat1, dtype=np.float64)
    dlon = np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64)
    out = dlat * dlat + dlon * dlon
    return out if out.ndim else float(out)


#: Registry of named metrics, mirroring the k-means ``distanceMeasure``
#: runtime argument (Table II).
METRICS: dict[str, Callable] = {
    "haversine": haversine_km,
    "squared_euclidean": squared_euclidean,
}

#: Relative per-pair computational cost of each metric, used by the
#: simulated-time model to reproduce the Haversine-vs-squared-Euclidean
#: iteration-time gap in Table III.  Calibrated from micro-benchmarks of the
#: vectorized kernels (trig + sqrt vs two multiplies).
METRIC_COST: dict[str, float] = {
    "squared_euclidean": 1.0,
    "haversine": 3.2,
}


def get_metric(name: str) -> Callable:
    """Look up a distance function by name (case-insensitive).

    Raises ``KeyError`` with the list of known metrics on a miss.
    """
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    if key not in METRICS:
        raise KeyError(f"unknown metric {name!r}; known: {sorted(METRICS)}")
    return METRICS[key]


def pairwise(metric: str | Callable, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` distance matrix between two (n, 2) point sets.

    ``points_*`` are arrays of (latitude, longitude) rows.  This is the
    kernel behind nearest-centroid assignment: one broadcasted evaluation
    instead of a Python double loop.
    """
    fn = get_metric(metric) if isinstance(metric, str) else metric
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2 or b.ndim != 2 or b.shape[1] != 2:
        raise ValueError("pairwise expects (n, 2) coordinate arrays")
    return fn(
        a[:, 0][:, None],
        a[:, 1][:, None],
        b[:, 0][None, :],
        b[:, 1][None, :],
    )
