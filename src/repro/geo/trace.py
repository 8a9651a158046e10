"""Core mobility-trace data model.

The paper (Section II) characterizes a *mobility trace* by an identifier, a
spatial coordinate, a timestamp and optional additional information (speed,
accuracy, ...).  A *trail of traces* is the time-ordered collection of one
individual's traces; a *geolocated dataset* is a set of trails from several
individuals.

Two representations coexist here:

* :class:`MobilityTrace` — a small frozen record: one row of a
  :class:`TraceArray`, and the value of its record-at-a-time view.
* :class:`TraceArray` — a columnar NumPy view over many traces, used by the
  vectorized kernels (distance computation, sampling, filtering).  Following
  the HPC guidance, anything on the hot path works on :class:`TraceArray`
  columns rather than Python-object lists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geo.distance import unit_vectors

__all__ = ["MobilityTrace", "TraceArray", "Trail", "GeolocatedDataset"]


def digest(*blobs: bytes) -> str:
    """The hex SHA-256 of ``blobs`` back to back: the one output digest
    every equivalence check compares."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


@dataclass(frozen=True, slots=True)
class MobilityTrace:
    """A single mobility trace (Section II of the paper).

    Parameters
    ----------
    user_id:
        Identifier of the device/individual.  May be a real identifier, a
        pseudonym, or the value ``"unknown"`` for full anonymity.
    latitude, longitude:
        Spatial coordinate in decimal degrees (WGS84).
    timestamp:
        Seconds since the Unix epoch (float; sub-second precision allowed).
    altitude:
        Altitude in feet as in GeoLife logs (``-777`` means invalid).
    speed:
        Optional instantaneous speed in m/s when known (e.g. computed by the
        DJ-Cluster preprocessing phase); ``nan`` when unknown.
    """

    user_id: str
    latitude: float
    longitude: float
    timestamp: float
    altitude: float = -777.0
    speed: float = float("nan")

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude!r}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude!r}")


# Structured dtype backing TraceArray.  user ids are stored as an index into
# a side table of strings so the hot columns stay numeric and contiguous.
_TRACE_DTYPE = np.dtype(
    [
        ("user_idx", np.int32),
        ("latitude", np.float64),
        ("longitude", np.float64),
        ("timestamp", np.float64),
        ("altitude", np.float64),
    ]
)


class TraceArray:
    """Columnar storage for a batch of mobility traces.

    All heavy per-trace computation (speed estimation, distance to centroids,
    window bucketing) runs over these contiguous NumPy columns.  The class is
    deliberately append-free: build it in one shot with
    :meth:`from_columns`, then slice with NumPy masks.

    One derived column is memoized: :meth:`unit_vectors`, filled on first
    use and dropped with the array.  It is not part of the array's state:
    a pickle is the same bytes whether or not it is filled.
    """

    __slots__ = ("_data", "_users", "_units")

    def __init__(self, data: np.ndarray, users: Sequence[str]):
        if data.dtype != _TRACE_DTYPE:
            raise TypeError(f"expected dtype {_TRACE_DTYPE}, got {data.dtype}")
        self._data = data
        self._users = tuple(users)
        self._units: np.ndarray | None = None

    def __getstate__(self):
        return None, {"_data": self._data, "_users": self._users}

    def __setstate__(self, state) -> None:
        _, slots = state
        self._data, self._users, self._units = slots["_data"], slots["_users"], None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        user_ids: Sequence[str] | np.ndarray,
        latitude: np.ndarray,
        longitude: np.ndarray,
        timestamp: np.ndarray,
        altitude: np.ndarray | None = None,
    ) -> "TraceArray":
        """Build from parallel columns.

        ``user_ids`` may be one id per row, or a single id applied to all
        rows (the common case for a per-user trail).
        """
        n = len(latitude)
        if isinstance(user_ids, str):
            user_ids = [user_ids]
        if len(user_ids) == 1 and n != 1:
            users = [str(user_ids[0])]
            user_idx = np.zeros(n, dtype=np.int32)
        else:
            if len(user_ids) != n:
                raise ValueError("user_ids length mismatch")
            table: dict[str, int] = {}
            user_idx = np.fromiter(
                (table.setdefault(str(u), len(table)) for u in user_ids),
                dtype=np.int32,
                count=n,
            )
            users = list(table)
        data = np.empty(n, dtype=_TRACE_DTYPE)
        data["user_idx"] = user_idx
        data["latitude"] = np.asarray(latitude, dtype=np.float64)
        data["longitude"] = np.asarray(longitude, dtype=np.float64)
        data["timestamp"] = np.asarray(timestamp, dtype=np.float64)
        data["altitude"] = (
            np.asarray(altitude, dtype=np.float64)
            if altitude is not None
            else np.full(n, -777.0)
        )
        return cls(data, users)

    @classmethod
    def empty(cls) -> "TraceArray":
        return cls(np.empty(0, dtype=_TRACE_DTYPE), [])

    @classmethod
    def from_buffer(
        cls, buffer, n_traces: int, users: Sequence[str]
    ) -> "TraceArray":
        """Zero-copy view over an externally owned buffer.

        Used by the process execution backend to reconstruct a chunk's
        traces from a ``multiprocessing.shared_memory`` segment without
        pickling the payload.  The caller owns the buffer's lifetime; the
        returned array must not outlive it.
        """
        data = np.ndarray((n_traces,), dtype=_TRACE_DTYPE, buffer=buffer)
        return cls(data, users)

    @property
    def data_nbytes(self) -> int:
        """Size in bytes of the packed columnar records."""
        return int(self._data.nbytes)

    def compact(self) -> "TraceArray":
        """A copy that owns exactly its own rows.

        Slicing returns views into the parent buffer; a view kept alive
        (e.g. a chunk payload paged by the budgeted HDFS store) pins the
        whole parent allocation.  ``compact`` breaks that tie.
        """
        return TraceArray(self._data.copy(), self._users)

    def copy_data_into(self, buffer) -> None:
        """Copy the packed records into ``buffer`` (inverse of
        :meth:`from_buffer`; the buffer must hold ``data_nbytes``)."""
        out = np.ndarray((len(self._data),), dtype=_TRACE_DTYPE, buffer=buffer)
        out[:] = self._data

    @classmethod
    def concatenate(cls, arrays: Sequence["TraceArray"]) -> "TraceArray":
        """Concatenate several arrays, re-mapping user index tables."""
        arrays = [a for a in arrays if len(a)]
        if not arrays:
            return cls.empty()
        users: dict[str, int] = {}
        chunks = []
        for a in arrays:
            remap = np.array(
                [users.setdefault(u, len(users)) for u in a._users],
                dtype=np.int32,
            )
            chunk = a._data.copy()
            if len(remap):
                chunk["user_idx"] = remap[a._data["user_idx"]]
            chunks.append(chunk)
        return cls(np.concatenate(chunks), list(users))

    # -- column access ---------------------------------------------------
    @property
    def latitude(self) -> np.ndarray:
        return self._data["latitude"]

    @property
    def longitude(self) -> np.ndarray:
        return self._data["longitude"]

    @property
    def timestamp(self) -> np.ndarray:
        return self._data["timestamp"]

    @property
    def altitude(self) -> np.ndarray:
        return self._data["altitude"]

    @property
    def user_index(self) -> np.ndarray:
        return self._data["user_idx"]

    @property
    def users(self) -> tuple[str, ...]:
        """The user-id side table; ``users[user_index[i]]`` names row i."""
        return self._users

    def user_ids(self) -> np.ndarray:
        """Per-row user ids as an object array (materialized on demand)."""
        table = np.array(self._users, dtype=object)
        if len(table) == 0:
            return np.empty(0, dtype=object)
        return table[self._data["user_idx"]]

    def coordinates(self) -> np.ndarray:
        """``(n, 2)`` float64 array of (latitude, longitude) rows."""
        out = np.empty((len(self), 2))
        out[:, 0] = self.latitude
        out[:, 1] = self.longitude
        return out

    def unit_vectors(self) -> np.ndarray:
        """The read-only ``(3, n)`` :func:`~repro.geo.distance.unit_vectors`
        of :meth:`coordinates`, derived on first call and kept for the
        array's lifetime (24 B per trace).  The rows never change, so
        iterative jobs (k-means rounds) pay the trig once per array."""
        if self._units is None:
            units = unit_vectors(self.coordinates())
            units.flags.writeable = False
            self._units = units
        return self._units

    # -- protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[MobilityTrace]:
        users = self._users
        for row in self._data:
            yield MobilityTrace(
                user_id=users[row["user_idx"]],
                latitude=float(row["latitude"]),
                longitude=float(row["longitude"]),
                timestamp=float(row["timestamp"]),
                altitude=float(row["altitude"]),
            )

    def __getitem__(self, item) -> "TraceArray | MobilityTrace":
        if isinstance(item, (int, np.integer)):
            row = self._data[int(item)]
            return MobilityTrace(
                user_id=self._users[row["user_idx"]],
                latitude=float(row["latitude"]),
                longitude=float(row["longitude"]),
                timestamp=float(row["timestamp"]),
                altitude=float(row["altitude"]),
            )
        return TraceArray(self._data[item], self._users)

    # -- transforms ---------------------------------------------------------
    def with_coordinates(self, latitude: np.ndarray, longitude: np.ndarray) -> "TraceArray":
        """A copy with replaced coordinates (used by sanitizers).

        Keeps users, timestamps and altitudes; avoids re-materializing the
        per-row user-id objects on the hot path.
        """
        if len(latitude) != len(self) or len(longitude) != len(self):
            raise ValueError("coordinate column length mismatch")
        data = self._data.copy()
        data["latitude"] = np.asarray(latitude, dtype=np.float64)
        data["longitude"] = np.asarray(longitude, dtype=np.float64)
        return TraceArray(data, self._users)

    def sort_by_time(self) -> "TraceArray":
        """Return a copy sorted by (user, timestamp) — the trail order."""
        order = np.lexsort((self._data["timestamp"], self._data["user_idx"]))
        return TraceArray(self._data[order], self._users)

    def time_span(self) -> tuple[float, float]:
        """(min, max) timestamp; raises on empty array."""
        if not len(self):
            raise ValueError("empty TraceArray has no time span")
        ts = self._data["timestamp"]
        return float(ts.min()), float(ts.max())

    def signature(self) -> str:
        """Order-sensitive :func:`digest` of the user table and the
        user, latitude, longitude and timestamp columns (not altitude)."""
        return digest(
            ",".join(self.users).encode(),
            *(
                np.ascontiguousarray(column).tobytes()
                for column in (self.user_index, self.latitude, self.longitude, self.timestamp)
            ),
        )

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(min_lat, min_lon, max_lat, max_lon); raises on empty array."""
        if not len(self):
            raise ValueError("empty TraceArray has no bounding box")
        return (
            float(self.latitude.min()),
            float(self.longitude.min()),
            float(self.latitude.max()),
            float(self.longitude.max()),
        )


@dataclass
class Trail:
    """A trail of traces: the movements of one individual over time.

    Invariant: all traces belong to ``user_id`` and are sorted by timestamp.
    """

    user_id: str
    traces: TraceArray

    def __post_init__(self) -> None:
        if len(self.traces):
            uniq = np.unique(self.traces.user_index)
            if len(uniq) > 1:
                raise ValueError("a Trail must contain a single user")
            ts = self.traces.timestamp
            if np.any(np.diff(ts) < 0):
                self.traces = self.traces.sort_by_time()

    def __len__(self) -> int:
        return len(self.traces)

    def duration_s(self) -> float:
        """Trail duration in seconds (0 for a single trace)."""
        lo, hi = self.traces.time_span()
        return hi - lo


class GeolocatedDataset:
    """A set of trails from different individuals (Section II).

    This is the object GEPETO's operations consume and produce.  It keeps a
    per-user mapping to :class:`Trail` plus a lazily materialized flat
    :class:`TraceArray` used by whole-dataset kernels.
    """

    def __init__(self, trails: Iterable[Trail] = ()):
        self._trails: dict[str, Trail] = {}
        for trail in trails:
            self.add_trail(trail)
        self._flat: TraceArray | None = None

    # -- construction ------------------------------------------------------
    def add_trail(self, trail: Trail) -> None:
        """Add a trail; merging if the user already has one."""
        if trail.user_id in self._trails:
            merged = TraceArray.concatenate(
                [self._trails[trail.user_id].traces, trail.traces]
            ).sort_by_time()
            self._trails[trail.user_id] = Trail(trail.user_id, merged)
        else:
            self._trails[trail.user_id] = trail
        self._flat = None

    @classmethod
    def from_array(cls, array: TraceArray) -> "GeolocatedDataset":
        ds = cls()
        for idx, user in enumerate(array.users):
            mask = array.user_index == idx
            if mask.any():
                ds.add_trail(Trail(user, array[mask].sort_by_time()))
        return ds

    # -- access --------------------------------------------------------------
    @property
    def user_ids(self) -> list[str]:
        return sorted(self._trails)

    def trail(self, user_id: str) -> Trail:
        return self._trails[user_id]

    def trails(self) -> Iterator[Trail]:
        for user in self.user_ids:
            yield self._trails[user]

    def flat(self) -> TraceArray:
        """All traces of all users as one :class:`TraceArray` (cached)."""
        if self._flat is None:
            self._flat = TraceArray.concatenate(
                [self._trails[u].traces for u in self.user_ids]
            )
        return self._flat

    def __len__(self) -> int:
        """Total number of traces across all trails."""
        return sum(len(t) for t in self._trails.values())

    def num_users(self) -> int:
        return len(self._trails)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._trails

    def __repr__(self) -> str:
        return f"GeolocatedDataset(users={self.num_users()}, traces={len(self)})"

    # -- transforms -----------------------------------------------------------
    def map_trails(self, fn) -> "GeolocatedDataset":
        """Apply ``fn(Trail) -> Trail | None`` to every trail.

        Returning ``None`` drops the trail; used by sanitizers and samplers.
        """
        out = GeolocatedDataset()
        for trail in self.trails():
            new = fn(trail)
            if new is not None and len(new):
                out.add_trail(new)
        return out
