"""The quasi-identifier grid and the distinct-row kernel under it.

Every privacy metric, grid sanitizer and co-location attack bins traces
into (time window, lat band, lon band) and counts distinct integer rows.
:func:`grid_cells` / :func:`time_windows` are the one definition of that
binning and the one place its inputs are validated (a NaN casts to
``INT64_MIN`` and would otherwise be a plausible singleton cell);
:func:`unique_rows` is the row-wise ``np.unique`` as a ``lexsort`` of the
columns plus one adjacent-difference pass, 10-50x faster than NumPy's
sort of structured records (docs/PERFORMANCE.md, "stream_windows: where
the window went"); :func:`ragged_arange` numbers the rows of segments laid
end to end.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.synthetic import KM_PER_DEG_LAT

__all__ = ["finite_column", "grid_cells", "ragged_arange", "time_windows", "unique_rows"]

_M_PER_DEG_LAT = KM_PER_DEG_LAT * 1000.0


def finite_column(values, what: str) -> np.ndarray:
    """``values`` as float64, or ``ValueError("<what> must be finite …")``."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite (no NaN/inf)")
    return values


def grid_cells(lat, lon, cell_m: float) -> tuple[np.ndarray, np.ndarray]:
    """``(lat_band, lon_band)`` int64 cell of each coordinate: latitude
    bands ``cell_m`` metres tall, longitude bands as wide as ``cell_m`` is
    at the centre of the row's latitude band.  ``ValueError`` for a
    non-finite coordinate or a ``cell_m`` that is not positive and finite."""
    if not 0 < cell_m < math.inf:
        raise ValueError(f"cell_m must be positive and finite, got {cell_m!r}")
    lat = finite_column(lat, "coordinates")
    lon = finite_column(lon, "coordinates")
    cell_lat = cell_m / _M_PER_DEG_LAT
    lat_band = np.floor(lat / cell_lat).astype(np.int64)
    cos_band = np.maximum(np.cos(np.radians((lat_band + 0.5) * cell_lat)), 1e-9)
    cell_lon = cell_m / (_M_PER_DEG_LAT * cos_band)
    lon_band = np.floor(lon / cell_lon).astype(np.int64)
    return lat_band, lon_band


def time_windows(timestamp, window_s: float) -> np.ndarray:
    """int64 index of the ``window_s``-second window holding each
    timestamp, validated like :func:`grid_cells`."""
    if not 0 < window_s < math.inf:
        raise ValueError(f"window_s must be positive and finite, got {window_s!r}")
    timestamp = finite_column(timestamp, "timestamps")
    return np.floor_divide(timestamp, window_s).astype(np.int64)


def unique_rows(*columns, return_inverse: bool = False, return_counts: bool = False):
    """Distinct rows of parallel 1-D columns, in lexicographic order.

    What ``np.unique`` returns for the rows of ``np.stack(columns, 1)``,
    column-wise: the distinct rows as a tuple of columns (first column
    most significant, dtypes kept), then the flat ``intp`` ``inverse`` and
    the ``counts`` if asked for.  Integer or float columns; zero rows give
    empty results.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for c in columns:
        first[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(first)
    out = [tuple(c[starts] for c in columns)]
    if return_inverse:
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        out.append(inverse)
    if return_counts:
        out.append(np.diff(starts, append=n))
    return out[0] if len(out) == 1 else tuple(out)


def ragged_arange(counts) -> tuple[np.ndarray, np.ndarray]:
    """``(segment, k)`` for every segment ``r`` and ``0 <= k < counts[r]``,
    segment after segment: the row and column of each element of ragged
    rows of lengths ``counts``, laid end to end."""
    counts = np.asarray(counts, dtype=np.int64)
    segment = np.repeat(np.arange(len(counts)), counts)
    return segment, np.arange(len(segment)) - np.repeat(np.cumsum(counts) - counts, counts)
