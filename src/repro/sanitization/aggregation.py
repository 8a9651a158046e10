"""Aggregation sanitizers: merging traces in space or time.

"...or aggregate several mobility traces into a single spatial
coordinate" (Section VIII).  Two mechanisms:

* :class:`SpatialAggregator` — replaces each trace's coordinate by the
  centroid of its spatial-grid cell *computed over the trail*, so several
  nearby traces collapse onto one shared coordinate;
* :class:`TemporalAggregator` — the down-sampling of Section V reused as
  a sanitizer (one representative trace per time window).
"""

from __future__ import annotations


import numpy as np

from repro.algorithms.sampling import SamplingTechnique, sample_array
from repro.checks import positive
from repro.geo.grid import grid_cells, unique_rows
from repro.geo.trace import TraceArray
from repro.sanitization.base import Sanitizer

__all__ = ["SpatialAggregator", "TemporalAggregator"]


class SpatialAggregator(Sanitizer):
    """Collapse each grid cell's traces onto the cell's mean coordinate.

    Unlike :class:`~repro.sanitization.masks.RoundingMask` (cell centre),
    the aggregate is the *centroid of the observed traces* in the cell —
    utility-preserving for density analyses, privacy-degrading for exact
    positions.  The centroid is computed within the processed array, so
    this mechanism is chunk-local by construction: per-chunk centroids
    approximate the global ones (documented MapReduce semantics).
    """

    def __init__(self, cell_m: float):
        positive("cell_m", cell_m)
        self.cell_m = cell_m

    def _cells(self, array: TraceArray) -> np.ndarray:
        cells = grid_cells(array.latitude, array.longitude, self.cell_m)
        return unique_rows(*cells, return_inverse=True)[1]

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0:
            return array
        group = self._cells(array)
        n_groups = int(group.max()) + 1
        counts = np.bincount(group, minlength=n_groups).astype(np.float64)
        mean_lat = np.bincount(group, weights=array.latitude, minlength=n_groups) / counts
        mean_lon = np.bincount(group, weights=array.longitude, minlength=n_groups) / counts
        return array.with_coordinates(mean_lat[group], mean_lon[group])

    def __repr__(self) -> str:
        return f"SpatialAggregator(cell_m={self.cell_m})"


class TemporalAggregator(Sanitizer):
    """Down-sampling (Section V) used as a sanitization mechanism."""

    def __init__(self, window_s: float, technique: "str | SamplingTechnique" = "upper"):
        positive("window_s", window_s)
        self.window_s = window_s
        self.technique = SamplingTechnique.parse(technique)

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        return sample_array(array, self.window_s, self.technique)

    def __repr__(self) -> str:
        return f"TemporalAggregator(window_s={self.window_s}, technique={self.technique.value})"
