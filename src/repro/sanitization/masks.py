"""Geographical masks: per-trace coordinate perturbation.

"Geographical masks ... modify the spatial coordinate of a mobility trace
by adding some random noise" (Section VIII).  Three classic masks:

* :class:`GaussianMask` — isotropic Gaussian displacement of a given
  standard deviation in metres;
* :class:`UniformNoiseMask` — displacement uniform within a disc of a
  given radius;
* :class:`RoundingMask` — snap coordinates to a grid (deterministic
  coarsening, a.k.a. truncation masking).

Noise is derived from each trace's own content via the counter-based RNG
(:mod:`repro.utils.hashrng`), so the MapReduced application over any
chunking equals the sequential one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.checks import non_negative, positive
from repro.geo.synthetic import KM_PER_DEG_LAT
from repro.geo.trace import TraceArray
from repro.sanitization.base import Sanitizer
from repro.utils.hashrng import hash_normal, hash_uniform, trace_keys

__all__ = [
    "GaussianMask",
    "UniformNoiseMask",
    "RoundingMask",
    "DonutMask",
    "PlanarLaplaceMask",
]

_M_PER_DEG_LAT = KM_PER_DEG_LAT * 1000.0


def _displace(array: TraceArray, north_m: np.ndarray, east_m: np.ndarray) -> TraceArray:
    """Apply per-trace metric displacements, converting to degrees."""
    lat = array.latitude
    cos_lat = np.maximum(np.cos(np.radians(lat)), 1e-9)
    new_lat = np.clip(lat + north_m / _M_PER_DEG_LAT, -90.0, 90.0)
    new_lon = array.longitude + east_m / (_M_PER_DEG_LAT * cos_lat)
    # Keep longitude wrapped into [-180, 180].
    new_lon = ((new_lon + 180.0) % 360.0) - 180.0
    return array.with_coordinates(new_lat, new_lon)


class GaussianMask(Sanitizer):
    """Add isotropic Gaussian noise of ``sigma_m`` metres to coordinates."""

    def __init__(self, sigma_m: float, seed: int = 0):
        non_negative("sigma_m", sigma_m)
        self.sigma_m = sigma_m
        self.seed = seed

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0 or self.sigma_m == 0:
            return array
        keys = trace_keys(array.latitude, array.longitude, array.timestamp, self.seed)
        north = hash_normal(keys, stream=0) * self.sigma_m
        east = hash_normal(keys, stream=1) * self.sigma_m
        return _displace(array, north, east)

    def __repr__(self) -> str:
        return f"GaussianMask(sigma_m={self.sigma_m}, seed={self.seed})"


class UniformNoiseMask(Sanitizer):
    """Displace each trace uniformly within a disc of ``radius_m`` metres."""

    def __init__(self, radius_m: float, seed: int = 0):
        non_negative("radius_m", radius_m)
        self.radius_m = radius_m
        self.seed = seed

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0 or self.radius_m == 0:
            return array
        keys = trace_keys(array.latitude, array.longitude, array.timestamp, self.seed)
        # Uniform in a disc: r ~ R*sqrt(U), theta ~ 2*pi*U.
        r = self.radius_m * np.sqrt(hash_uniform(keys, stream=0))
        theta = 2.0 * math.pi * hash_uniform(keys, stream=1)
        return _displace(array, r * np.sin(theta), r * np.cos(theta))

    def __repr__(self) -> str:
        return f"UniformNoiseMask(radius_m={self.radius_m}, seed={self.seed})"


class PlanarLaplaceMask(Sanitizer):
    """Geo-indistinguishability: planar Laplace noise (Andrés et al. 2013).

    The mechanism achieving ε-geo-indistinguishability: displacement
    direction uniform, radius drawn from the polar Laplace distribution
    with density ``ε² r e^(-εr) / (2π)``.  Inverse-CDF sampling uses the
    Lambert-W function: ``r = -(1/ε)(W₋₁((u-1)/e) + 1)``.

    ``epsilon`` is in 1/metres: privacy within radius ``r`` degrades as
    ``ε·r``; the expected displacement is ``2/ε`` metres.
    """

    def __init__(self, epsilon: float, seed: int = 0):
        positive("epsilon", epsilon)
        self.epsilon = epsilon
        self.seed = seed

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0:
            return array
        from scipy.special import lambertw

        keys = trace_keys(array.latitude, array.longitude, array.timestamp, self.seed)
        u = hash_uniform(keys, stream=0)
        # Inverse CDF of the polar Laplace radius (the -1 branch).
        w = np.real(lambertw((u - 1.0) / np.e, k=-1))
        r = -(1.0 / self.epsilon) * (w + 1.0)
        theta = 2.0 * math.pi * hash_uniform(keys, stream=1)
        return _displace(array, r * np.sin(theta), r * np.cos(theta))

    def __repr__(self) -> str:
        return f"PlanarLaplaceMask(epsilon={self.epsilon}, seed={self.seed})"


class DonutMask(Sanitizer):
    """Donut geographical masking: displacement in an annulus.

    Each trace moves a distance uniform in ``[r_min, r_max]`` metres in a
    uniform direction — the classic public-health variant of geographic
    masking that *guarantees* a minimum displacement (plain noise can
    leave points nearly unmoved, which re-identifies isolated homes).
    """

    def __init__(self, r_min: float, r_max: float, seed: int = 0):
        if non_negative("r_min", r_min) > non_negative("r_max", r_max):
            raise ValueError("r_min must be <= r_max")
        self.r_min = r_min
        self.r_max = r_max
        self.seed = seed

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0 or self.r_max == 0:
            return array
        keys = trace_keys(array.latitude, array.longitude, array.timestamp, self.seed)
        # Uniform area density over the annulus: r = sqrt(U*(b^2-a^2)+a^2).
        u = hash_uniform(keys, stream=0)
        r = np.sqrt(u * (self.r_max**2 - self.r_min**2) + self.r_min**2)
        theta = 2.0 * math.pi * hash_uniform(keys, stream=1)
        return _displace(array, r * np.sin(theta), r * np.cos(theta))

    def __repr__(self) -> str:
        return f"DonutMask(r_min={self.r_min}, r_max={self.r_max}, seed={self.seed})"


class RoundingMask(Sanitizer):
    """Snap coordinates to the centres of a ``cell_m``-metre grid.

    Deterministic coarsening: all traces in one cell become spatially
    indistinguishable, providing grid-level k-anonymity of location.
    """

    def __init__(self, cell_m: float):
        positive("cell_m", cell_m)
        self.cell_m = cell_m

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0:
            return array
        cell_lat = self.cell_m / _M_PER_DEG_LAT
        lat = (np.floor(array.latitude / cell_lat) + 0.5) * cell_lat
        # Longitude cell width follows each trace's own snapped-latitude
        # band, keeping the mask chunk-invariant (no dataset-level state).
        cos_band = np.maximum(np.cos(np.radians(lat)), 1e-9)
        cell_lon = self.cell_m / (_M_PER_DEG_LAT * cos_band)
        lon = (np.floor(array.longitude / cell_lon) + 0.5) * cell_lon
        return array.with_coordinates(np.clip(lat, -90.0, 90.0), lon)

    def __repr__(self) -> str:
        return f"RoundingMask(cell_m={self.cell_m})"
