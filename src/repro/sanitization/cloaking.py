"""Spatial cloaking: k-anonymous location disclosure.

Spatial cloaking (Gruteser & Grunwald 2003, cited in Section VIII)
releases a trace's location only at a granularity coarse enough that at
least ``k`` distinct users share the reported area within the same time
window.  This implementation uses a quadtree-style grid: starting from a
fine cell, the cell is repeatedly doubled until it covers ≥ k distinct
users in that window; traces whose cell never reaches k users (even at
the coarsest level) are suppressed.

Cloaking inherently needs cross-user context (release scope), so it is
not chunk-local: a MapReduce adaptation would have to shuffle traces by
time window first.  Every entry point applies it once to the whole
release, as it applies every sanitizer.
"""

from __future__ import annotations

import numpy as np

from repro.checks import count, positive
from repro.geo.grid import grid_cells, time_windows, unique_rows
from repro.geo.trace import TraceArray
from repro.sanitization.base import Sanitizer

__all__ = ["SpatialCloaking"]


class SpatialCloaking(Sanitizer):
    """k-anonymity cloaking over (time window, adaptive grid cell); release scope.

    Parameters
    ----------
    k:
        Minimum number of distinct users that must share the reported
        cell within a time window.
    base_cell_m:
        Finest grid cell size (the precision ceiling of the output).
    window_s:
        Temporal resolution of the anonymity requirement.
    max_levels:
        How many doublings are attempted before suppressing the traces.
    """

    def __init__(self, k: int, base_cell_m: float = 250.0, window_s: float = 3600.0, max_levels: int = 6):
        positive("base_cell_m", base_cell_m)
        positive("window_s", window_s)
        self.k = count("k", k, 1)
        self.base_cell_m = base_cell_m
        self.window_s = window_s
        self.max_levels = count("max_levels", max_levels, 1)

    def base_cells(self, array: TraceArray) -> np.ndarray:
        """(window, base_lat, base_lon) per trace at the finest level.

        Coarser levels are derived by right-shifting the integer bands,
        so the hierarchy is a true quadtree: every level-``l`` cell is
        the union of exactly ``4^l`` base cells.
        """
        lat_band, lon_band = grid_cells(
            array.latitude, array.longitude, self.base_cell_m
        )
        window = time_windows(array.timestamp, self.window_s)
        return np.stack([window, lat_band, lon_band], axis=1)

    def _cell_ids(self, array: TraceArray, level: int) -> np.ndarray:
        window, lat_band, lon_band = self.base_cells(array).T
        # An arithmetic shift floors negatives too.
        return unique_rows(
            window, lat_band >> level, lon_band >> level, return_inverse=True
        )[1]

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        """Cloak an array that contains *all* users of the release.

        Applying this to a single-user slice suppresses everything for
        k > 1 — by design: anonymity cannot be computed per user.
        """
        n = len(array)
        if n == 0:
            return array
        lat = array.latitude.copy()
        lon = array.longitude.copy()
        resolved = np.zeros(n, dtype=bool)
        users = array.user_index
        for level in range(self.max_levels):
            pending = ~resolved
            if not pending.any():
                break
            groups = self._cell_ids(array, level)
            # Count distinct users per group over pending traces only is
            # wrong — anonymity counts everyone present in the cell.
            user_groups, _ = unique_rows(groups, users)
            users_per_group = np.bincount(user_groups, minlength=int(groups.max()) + 1)
            ok = users_per_group[groups] >= self.k
            newly = pending & ok
            if newly.any():
                # Report the group centroid at this level.
                n_groups = int(groups.max()) + 1
                counts = np.bincount(groups, minlength=n_groups).astype(np.float64)
                glat = np.bincount(groups, weights=array.latitude, minlength=n_groups) / counts
                glon = np.bincount(groups, weights=array.longitude, minlength=n_groups) / counts
                lat[newly] = glat[groups[newly]]
                lon[newly] = glon[groups[newly]]
                resolved |= newly
        kept = array.with_coordinates(lat, lon)
        return kept[resolved]

    def __repr__(self) -> str:
        return (
            f"SpatialCloaking(k={self.k}, base_cell_m={self.base_cell_m}, "
            f"window_s={self.window_s}, max_levels={self.max_levels})"
        )
