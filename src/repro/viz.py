"""Visualization: ASCII density maps and fixed-width tables.

GEPETO "can be used to visualize ... a particular geolocated dataset".
With no plotting stack available offline, visualization is text-first:

* :func:`ascii_density_map` — a terminal heat map of trace density, with
  optional POI markers (the quickstart's visual);
* :func:`cluster_summary_table` / :func:`mmc_transition_table` — the
  extracted POIs and a Mobility Markov Chain as text tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.poi import PointOfInterestEstimate
from repro.checks import count, finite_column
from repro.geo.trace import GeolocatedDataset, TraceArray

__all__ = [
    "ascii_density_map",
    "cluster_summary_table",
    "mmc_transition_table",
]

#: Density ramp from sparse to dense.
_RAMP = " .:-=+*#%@"


def ascii_density_map(
    data: GeolocatedDataset | TraceArray,
    width: int = 72,
    height: int = 24,
    markers: Sequence[tuple[float, float, str]] = (),
) -> str:
    """Render trace density as an ASCII heat map.

    ``markers`` is a sequence of (lat, lon, single-char label) overlays,
    e.g. POI positions.  Density is log-scaled so dwell clusters do not
    wash out the commute corridors.  ``ValueError`` for a non-finite
    coordinate (a NaN bounding box would collapse the whole raster).
    """
    count("width", width, 2)
    count("height", height, 2)
    array = data.flat() if isinstance(data, GeolocatedDataset) else data
    if len(array) == 0:
        return "(empty dataset)"
    finite_column(array.latitude, "coordinates")
    finite_column(array.longitude, "coordinates")
    finite_column([m[:2] for m in markers], "coordinates")
    min_lat, min_lon, max_lat, max_lon = array.bounding_box()
    span_lat = max(max_lat - min_lat, 1e-9)
    span_lon = max(max_lon - min_lon, 1e-9)
    col = np.clip(((array.longitude - min_lon) / span_lon * (width - 1)).astype(int), 0, width - 1)
    # Row 0 is the top (max latitude).
    row = np.clip(((max_lat - array.latitude) / span_lat * (height - 1)).astype(int), 0, height - 1)
    grid = np.zeros((height, width), dtype=np.int64)
    np.add.at(grid, (row, col), 1)
    log_grid = np.log1p(grid)
    peak = log_grid.max()
    levels = (
        (log_grid / peak * (len(_RAMP) - 1)).astype(int) if peak > 0 else np.zeros_like(grid, dtype=int)
    )
    canvas = [[_RAMP[v] for v in line] for line in levels]
    for lat, lon, char in markers:
        c = int(np.clip((lon - min_lon) / span_lon * (width - 1), 0, width - 1))
        r = int(np.clip((max_lat - lat) / span_lat * (height - 1), 0, height - 1))
        canvas[r][c] = (char or "x")[0]
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(line) + "|" for line in canvas)
    legend = (
        f"lat [{min_lat:.4f}, {max_lat:.4f}]  lon [{min_lon:.4f}, {max_lon:.4f}]  "
        f"n={len(array)}"
    )
    return f"{border}\n{body}\n{border}\n{legend}"


def mmc_transition_table(mmc, max_states: int = 10) -> str:
    """Render a Mobility Markov Chain's transition matrix as text.

    Shows up to ``max_states`` states (by stationary mass) with their
    labels, stationary probabilities and transition rows.
    """
    import numpy as np

    pi = mmc.stationary_distribution()
    order = np.argsort(-pi)[: min(max_states, mmc.n_states)]
    header = f"{'state':<10} {'pi':>6} | " + " ".join(
        f"{mmc.labels[j][:7]:>7}" for j in order
    )
    rows = [header, "-" * len(header)]
    for i in order:
        cells = " ".join(f"{mmc.transitions[i, j]:7.2f}" for j in order)
        rows.append(f"{mmc.labels[i][:10]:<10} {pi[i]:6.2f} | {cells}")
    return "\n".join(rows)


def cluster_summary_table(pois: Sequence[PointOfInterestEstimate]) -> str:
    """A fixed-width table of extracted POIs (label, position, support)."""
    header = f"{'label':<8} {'latitude':>11} {'longitude':>11} {'traces':>7} {'dwell_h':>8} {'night%':>7} {'work%':>7}"
    rows = [header, "-" * len(header)]
    for p in pois:
        rows.append(
            f"{p.label:<8} {p.latitude:>11.5f} {p.longitude:>11.5f} {p.n_traces:>7d} "
            f"{p.dwell_time_s / 3600.0:>8.2f} {p.night_fraction() * 100:>6.1f}% {p.work_fraction() * 100:>6.1f}%"
        )
    return "\n".join(rows)
