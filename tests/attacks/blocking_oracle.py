"""One-point views of the blocking grid, and a scalar oracle for it.

``cell`` and ``cover`` ask the array API of
:mod:`repro.attacks.linkage_mr` about a single point.  ``oracle_cell``
and ``oracle_cover`` are the scalar ``math`` implementations the array
API replaced, kept here so tests can hold every point of a batch to what
the point alone computed.
"""

from __future__ import annotations

import math

from repro.attacks.linkage_mr import (
    _POLAR_BAND,
    _POLAR_LAT,
    _R_M,
    _lat_width_deg,
    _lon_width_deg,
    blocking_cells,
    cover_cells,
)


def cell(lat: float, lon: float, d: float) -> tuple[int, int]:
    band, j = blocking_cells([lat], [lon], d)
    return (int(band[0]), int(j[0]))


def cover(lat: float, lon: float, d: float) -> set[tuple[int, int]]:
    _point, band, j = cover_cells([lat], [lon], d)
    return set(zip(band.tolist(), j.tolist()))


def oracle_cell(lat: float, lon: float, d: float) -> tuple[int, int]:
    if abs(lat) > _POLAR_LAT:
        return (_POLAR_BAND, 1 if lat > 0 else -1)
    w_lat = _lat_width_deg(d)
    band = math.floor(lat / w_lat)
    return (band, math.floor(lon / _lon_width_deg(band, w_lat, d)))


def oracle_cover(lat: float, lon: float, d: float) -> set[tuple[int, int]]:
    cells: set[tuple[int, int]] = set()
    dlat = math.degrees(d / _R_M)
    dlat += 4.0 * math.ulp(abs(lat) + dlat)
    lat_lo, lat_hi = lat - dlat, lat + dlat
    if lat_hi > _POLAR_LAT:
        cells.add((_POLAR_BAND, 1))
    if lat_lo < -_POLAR_LAT:
        cells.add((_POLAR_BAND, -1))
    lo = max(lat_lo, -_POLAR_LAT)
    hi = min(lat_hi, _POLAR_LAT)
    if lo > hi:
        return cells
    edge = min(max(abs(lat_lo), abs(lat_hi)), 89.9)
    sin_half = math.sin(d / (2.0 * _R_M)) / max(math.cos(math.radians(edge)), 1e-9)
    dlon = math.degrees(2.0 * math.asin(min(1.0, sin_half)))
    w_lat = _lat_width_deg(d)
    for band in range(math.floor(lo / w_lat), math.floor(hi / w_lat) + 1):
        w_lon = _lon_width_deg(band, w_lat, d)
        spans = [(lon - dlon, lon + dlon)]
        if lon - dlon < -180.0:
            spans.append((lon - dlon + 360.0, 180.0))
        if lon + dlon > 180.0:
            spans.append((-180.0, lon + dlon - 360.0))
        for span_lo, span_hi in spans:
            for j in range(math.floor(span_lo / w_lon), math.floor(span_hi / w_lon) + 1):
                cells.add((band, j))
    return cells
