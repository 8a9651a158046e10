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

Radius membership — is ``haversine_m(p, q) <= r``? — is decided on unit
vectors (:func:`unit_vectors`, :func:`radius_band`, :func:`within_radius`):
one dot product per pair settles every pair outside a proven band around
the radius, and only the pairs inside it are handed to Haversine, so
each answer is bit for bit Haversine's.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.checks import non_negative

__all__ = [
    "EARTH_RADIUS_KM",
    "haversine_km",
    "haversine_arg",
    "haversine_m",
    "squared_euclidean",
    "get_metric",
    "pairwise",
    "METRICS",
    "RadiusBand",
    "radius_band",
    "unit_vectors",
    "within_radius",
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


#: Relative band above a point's smallest Haversine argument ``a`` inside
#: which the order of ``a`` is not trusted: ``sqrt`` maps adjacent doubles
#: to one, so a strictly larger ``a`` can tie in distance.  Outside it
#: ``sqrt`` (correctly rounded) leaves a gap of ~2,000 ulp, ``arcsin``
#: (relative condition >= 1 on [0, 1]) cannot shrink it, and any ``arcsin``
#: within 100 ulp plus one rounded multiply keeps the order strict.
_TIE_BAND = 1e-12

#: Absolute band, in units of ``a``, below which the unit-sphere key's
#: gap ``(g_best - g_runner) / 2`` does not prove ``haversine_arg``'s
#: order.  With ``u = 2**-53``, every ``sin``/``cos`` within 1 ulp (what
#: NumPy's own accuracy tests hold float64 to) and all coordinates within
#: ±180°: each unit vector is off by at most 7.4 u in norm, so by
#: Cauchy–Schwarz plus the three rounded multiply-adds the key is off by
#: ``E_g`` ≤ 18 u; ``haversine_arg`` is off by ``H_a`` ≤ 17 u +
#: u·(|Δφ| + |Δλ|) ≤ 30 u, absolute.  Both are measured against the exact
#: ``a* = (1 - p̂·ĉ) / 2`` of the same rounded radians.  If the gap exceeds
#: ``E_g + 2 H_a`` (≈ 78 u ≈ 8.6e-15) plus ``2·_TIE_BAND·â``, ``â`` the
#: winner's clipped ``(1 - g) / 2``, then every other centroid's ``a`` is
#: strictly above the winner's and, clipped, beyond ``_TIE_BAND`` of it:
#: the winner is ``haversine_arg``'s first minimum and outside that
#: kernel's own tie band, so the index and the finished distance are its.
#: An ``a`` at or above 1 (antipodes, out-of-range latitudes) only fits
#: under a gap of ``E_g + H_a + _TIE_BAND``, inside the band.  2e-14
#: holds at 2-ulp ``sin``/``cos`` too (≈ 113 u); the subtraction term
#: grows with the coordinates, so the band is scaled by their largest
#: magnitude over 180°.  Points inside it take the exact row.
_DOT_BAND = 2e-14


def unit_vectors(points: np.ndarray) -> np.ndarray:
    """The unit-sphere points ``(cos φ cos λ, cos φ sin λ, sin φ)`` of
    ``(n, 2)`` (latitude, longitude) rows in degrees, from the same rounded
    radians :func:`haversine_km` uses, as a ``(3, n)`` array: one
    contiguous row per axis, which is what a pair's gathers read."""
    rad = np.radians(points)
    cos, sin = np.cos(rad), np.sin(rad)
    out = np.empty((3, len(rad)))
    np.multiply(cos[:, 0], cos[:, 1], out=out[0])
    np.multiply(cos[:, 0], sin[:, 1], out=out[1])
    out[2] = sin[:, 0]
    return out


class RadiusBand(NamedTuple):
    """The thresholds :func:`within_radius` decides a radius by: ``g_in``
    and ``g_out`` on the key ``g = p̂·q̂``, and ``chord``, the widest any
    coordinate of ``p̂ - q̂`` (as computed) can be for a pair the key does
    not put out.  Build it with :func:`radius_band`."""

    radius_m: float
    g_in: float
    g_out: float
    chord: float


def radius_band(radius_m: float, points: np.ndarray) -> RadiusBand:
    """The band of radius ``radius_m`` for pairs whose coordinates are
    within ±180° or within the magnitude of ``points`` (``(n, 2)``).

    Why it is exact.  Let ``a*`` be the exact Haversine argument of a pair
    of rounded radians, ``g*`` the exact dot product of their unit vectors:
    ``a* = (1 - g*) / 2``.  The computed key is within ``E_g`` ≤ 18 u of
    ``g*`` and the computed argument within ``H_a`` ≤ 30 u·S of ``a*``
    (``_DOT_BAND``'s derivation; ``S`` the coordinate magnitude over
    180°, at least 1).  Let ``a_r = sin²(r / 2R)``, the exact argument at
    distance ``r`` (``R`` in metres, ``r / 2R`` capped at π/2).  If the
    computed ``a ≤ a_r (1 - τ)``, ``τ = _TIE_BAND``, then ``√a`` and its
    rounding stay a relative ``τ/4`` below ``√a_r``; ``arcsin`` is convex
    with ``arcsin 0 = 0``, so ``arcsin(c x) ≤ c arcsin(x)`` for ``c ≤ 1``
    and the angle is ``τ/4`` below ``r``'s, which an ``arcsin`` within 100
    ulp, ``× 2R`` and ``× 1000`` (under 110 u together) cannot undo: the
    rounded ``haversine_m ≤ r``.  Mirror-wise ``a ≥ a_r (1 + τ) ≤ 1``
    makes it false (at ``r = 0`` any ``a > 0`` does), and a few u of
    rounding in ``a_r`` itself is absorbed by ``τ``.
    In terms of the key: ``g ≥ 1 - 2 a_r (1 - τ) + β`` is in and ``g ≤
    1 - 2 a_r (1 + τ) - β`` is out, for ``β`` ≥ ``E_g + 2 H_a S`` plus the
    few-u rounding of the thresholds; ``β = _DOT_BAND·S`` (≈ 180 u·S).
    Where ``a_r (1 + τ) > 1`` the out threshold is below ``-1 - β``, so
    no computed key (≥ ``-1 - E_g``) is put out.

    ``chord`` bounds the exact chord ``√(2 (1 - g*))`` of a pair the key
    does not put out (``g > g_out``, so ``1 - g* < 1 - g_out + β``), plus
    each computed vector's 7.4 u error and the rounding of a ``floor(x /
    chord)`` cell index, so two such points' cells differ by at most one
    on every axis.  The radius is validated as the R-tree validates it.
    """
    non_negative("radius", radius_m)
    beta = _DOT_BAND * max(180.0, float(np.abs(points).max(initial=0.0))) / 180.0
    a_r = math.sin(min(radius_m / (2000.0 * EARTH_RADIUS_KM), math.pi / 2.0)) ** 2
    g_out = 1.0 - 2.0 * a_r * (1.0 + _TIE_BAND) - beta
    chord = math.sqrt(2.0 * (1.0 - g_out + beta)) * (1.0 + 1e-12) + 1e-14
    return RadiusBand(radius_m, 1.0 - 2.0 * a_r * (1.0 - _TIE_BAND) + beta, g_out, chord)


def within_radius(
    band: RadiusBand,
    vectors_a: np.ndarray,
    points_a: np.ndarray,
    rows: np.ndarray,
    vectors_b: np.ndarray,
    points_b: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """``haversine_m(points_a[rows], points_b[cols]) <= band.radius_m``,
    pair by pair, as a boolean mask — bit for bit that comparison.

    ``vectors_*`` are the :func:`unit_vectors` of ``points_*``.  Each pair
    is decided by its key ``g = p̂·q̂`` against ``band``; only pairs
    strictly inside the band go through Haversine, in one call.
    """
    (xa, ya, za), (xb, yb, zb) = vectors_a, vectors_b
    g = xa[rows] * xb[cols]
    g += ya[rows] * yb[cols]
    g += za[rows] * zb[cols]
    inside = g >= band.g_in
    unsure = np.flatnonzero((g > band.g_out) & ~inside)
    if len(unsure):
        a, b = points_a[rows[unsure]], points_b[cols[unsure]]
        inside[unsure] = haversine_m(a[:, 0], a[:, 1], b[:, 0], b[:, 1]) <= band.radius_m
    return inside
