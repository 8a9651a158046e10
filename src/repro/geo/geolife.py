"""GeoLife PLT on-disk format (Figure 1 of the paper).

The GeoLife GPS-trajectory corpus stores one trajectory per ``.plt`` file,
grouped in a per-user directory layout::

    <root>/<user_id>/Trajectory/<yyyymmddHHMMSS>.plt

Each PLT file starts with six header lines (ignored by all parsers) followed
by one line per mobility trace::

    latitude,longitude,0,altitude,days,date,time

where

* ``latitude``/``longitude`` are decimal degrees,
* the third field is always ``0`` and "has no meaning for this dataset",
* ``altitude`` is in feet (``-777`` when invalid),
* ``days`` is the timestamp as fractional days elapsed since 1899-12-30
  (the Excel/OLE epoch), and
* ``date``/``time`` repeat the timestamp as ``yyyy-mm-dd`` / ``HH:MM:SS``
  strings.

This module reads and writes that exact format so the toolkit operates on
byte-compatible inputs, and so the synthetic generator can serialize its
output as a drop-in GeoLife replacement.
"""

from __future__ import annotations

import datetime as _dt
import io
import math
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.checks import finite, within
from repro.geo.trace import TraceArray

__all__ = [
    "GEOLIFE_EPOCH",
    "PLT_HEADER",
    "parse_plt_line",
    "format_plt_line",
    "read_plt",
    "write_plt",
    "iter_plt_files",
    "stream_geolife_trails",
    "read_geolife_dataset",
    "write_geolife_dataset",
    "unix_to_ole_days",
    "ole_days_to_unix",
]

#: The PLT "days" field counts days since this epoch (1899-12-30 00:00 UTC).
GEOLIFE_EPOCH = _dt.datetime(1899, 12, 30, tzinfo=_dt.timezone.utc)

#: Seconds between the OLE epoch and the Unix epoch.
_EPOCH_OFFSET_S = -GEOLIFE_EPOCH.timestamp()

#: The six header lines every PLT file begins with (verbatim from GeoLife).
PLT_HEADER = (
    "Geolife trajectory\n"
    "WGS 84\n"
    "Altitude is in Feet\n"
    "Reserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n"
    "0\n"
)


def unix_to_ole_days(timestamp: float | np.ndarray) -> float | np.ndarray:
    """Convert a Unix timestamp (s) to fractional days since 1899-12-30."""
    return (np.asarray(timestamp, dtype=np.float64) + _EPOCH_OFFSET_S) / 86400.0


def ole_days_to_unix(days: float | np.ndarray) -> float | np.ndarray:
    """Convert fractional days since 1899-12-30 to a Unix timestamp (s)."""
    if isinstance(days, float):
        # One parsed line's value: the array path's IEEE operations, without
        # an array round trip per line.
        return days * 86400.0 - _EPOCH_OFFSET_S
    return np.asarray(days, dtype=np.float64) * 86400.0 - _EPOCH_OFFSET_S


def parse_plt_line(line: str) -> tuple[float, float, float, float]:
    """Parse one PLT record into ``(lat, lon, altitude, unix_timestamp)``.

    The timestamp is taken from the ``days`` field (field 5), which carries
    full sub-second precision; the date/time string fields are redundant.
    """
    parts = line.rstrip("\n").split(",")
    if len(parts) != 7:
        raise ValueError(f"malformed PLT line ({len(parts)} fields): {line!r}")
    lat = float(parts[0])
    lon = float(parts[1])
    alt = float(parts[3])
    ts = ole_days_to_unix(float(parts[4]))
    return lat, lon, alt, ts


def format_plt_line(lat: float, lon: float, alt: float, timestamp: float) -> str:
    """Format one trace as a PLT record line (without trailing newline).

    The ``days`` field carries the timestamp at full float precision; the
    redundant date/time strings name the *containing* second (``floor``),
    so the two encodings always agree to the second.  Rounding half-up
    here would place the strings up to 0.5 s ahead of the days field,
    in the next calendar second (or minute, hour, day...).
    """
    days = float(unix_to_ole_days(timestamp))
    when = _dt.datetime.fromtimestamp(math.floor(timestamp), tz=_dt.timezone.utc)
    return (
        f"{lat:.6f},{lon:.6f},0,{alt:.0f},{days:.10f},"
        f"{when:%Y-%m-%d},{when:%H:%M:%S}"
    )


def read_plt(source: str | Path | io.TextIOBase, user_id: str) -> TraceArray:
    """Read a single PLT trajectory file into ``user_id``'s time-sorted trail.

    ``source`` may be a path or an open text stream.  Lines that do not
    parse (e.g. the six-line header) are skipped only within the header
    region; malformed body lines raise, and so does a latitude outside
    [-90, 90], a longitude outside [-180, 180] or a non-finite timestamp,
    naming the file and the line.  Records of an unsorted file are stably
    sorted by time.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_plt(fh, user_id)
    lines = source.read().splitlines()
    body = lines[6:]  # the fixed six-line header
    n = len(body)
    lat = np.empty(n)
    lon = np.empty(n)
    alt = np.empty(n)
    ts = np.empty(n)
    row = 0
    try:
        for row, line in enumerate(body):
            lat[row], lon[row], alt[row], ts[row] = parse_plt_line(line)
        # One vectorized test; the scalar checks word the first failure.
        outside = ~(np.isfinite(ts) & (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0))
        if outside.any():
            row = int(np.argmax(outside))
            within("latitude", float(lat[row]), -90.0, 90.0)
            within("longitude", float(lon[row]), -180.0, 180.0)
            finite("timestamp", float(ts[row]))
    except ValueError as exc:
        where = getattr(source, "name", "PLT stream")
        raise ValueError(f"{where}, line {row + 7}: {exc}") from None
    arr = TraceArray.from_columns([user_id], lat, lon, ts, alt)
    return arr.sort_by_time() if np.any(np.diff(ts) < 0) else arr


def write_plt(trail: TraceArray, target: str | Path | io.TextIOBase) -> None:
    """Write a trail as one PLT file (header + one record per trace)."""
    if isinstance(target, (str, Path)):
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            write_plt(trail, fh)
        return
    target.write(PLT_HEADER)
    lat, lon, alt, ts = trail.latitude, trail.longitude, trail.altitude, trail.timestamp
    for i in range(len(trail)):
        target.write(format_plt_line(lat[i], lon[i], alt[i], ts[i]))
        target.write("\n")


def iter_plt_files(
    root: str | Path, user_ids: Iterable[str] | None = None
) -> Iterator[tuple[str, Path]]:
    """Walk a GeoLife tree, yielding ``(user_id, plt_path)`` pairs.

    The order is deterministic (sorted users, then sorted file names) and
    shared by every reader in this module, so streaming and materializing
    consumers see the same record sequence.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"GeoLife root not found: {root}")
    wanted = set(user_ids) if user_ids is not None else None
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        user = user_dir.name
        if wanted is not None and user not in wanted:
            continue
        traj_dir = user_dir / "Trajectory"
        if not traj_dir.is_dir():
            continue
        for plt_file in sorted(traj_dir.glob("*.plt")):
            yield user, plt_file


def stream_geolife_trails(
    root: str | Path, user_ids: Iterable[str] | None = None
) -> Iterator[TraceArray]:
    """Stream a GeoLife tree one trajectory at a time.

    Each ``.plt`` file becomes an independent one-user trail the moment it
    is yielded, so peak memory is one trajectory — never the corpus.  This
    is the ingestion path for datasets larger than RAM: feed the trails
    into ``SimulatedHDFS`` (which pages chunks to disk under a memory
    budget) instead of reading the whole corpus first.
    Empty trajectories are skipped, matching :func:`read_geolife_dataset`.
    """
    for user, plt_file in iter_plt_files(root, user_ids):
        trail = read_plt(plt_file, user)
        if len(trail):
            yield trail


def read_geolife_dataset(root: str | Path, user_ids: Iterable[str] | None = None) -> TraceArray:
    """Read a GeoLife-layout directory tree into one array in by-user order.

    ``root`` contains one directory per user; each user directory contains a
    ``Trajectory/`` folder of ``.plt`` files.  ``user_ids`` optionally
    restricts which users to load.  For corpora that should never be fully
    resident, use :func:`stream_geolife_trails` instead.
    """
    return TraceArray.concatenate(list(stream_geolife_trails(root, user_ids))).by_user()


def write_geolife_dataset(dataset: TraceArray, root: str | Path) -> list[Path]:
    """Write a dataset in GeoLife directory layout; returns written paths.

    Each trail becomes a single PLT file named from its first timestamp,
    matching GeoLife's ``yyyymmddHHMMSS.plt`` convention.
    """
    root = Path(root)
    written: list[Path] = []
    dataset = dataset.by_user()
    for user, trail in zip(dataset.users, dataset.trails()):
        first = _dt.datetime.fromtimestamp(trail.timestamp[0], tz=_dt.timezone.utc)
        path = root / user / "Trajectory" / f"{first:%Y%m%d%H%M%S}.plt"
        write_plt(trail, path)
        written.append(path)
    return written
