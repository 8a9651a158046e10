"""Core mobility-trace data model.

The paper (Section II) characterizes a *mobility trace* by an identifier, a
spatial coordinate, a timestamp and optional additional information (speed,
accuracy, ...).  A *trail of traces* is the time-ordered collection of one
individual's traces; a *geolocated dataset* is a set of trails from several
individuals.

There is one trace model, the columnar :class:`TraceArray`: contiguous NumPy
columns that every vectorized kernel and every MapReduce path works on.  A
trace is one of its rows, never an object of its own; a trail is a
one-user array in time order; a :class:`GeolocatedDataset` is one array
sorted by user id and then by time, plus the offsets at which each user's
rows start.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geo.distance import unit_vectors

__all__ = ["TraceArray", "GeolocatedDataset"]


def digest(*blobs: bytes) -> str:
    """The hex SHA-256 of ``blobs`` back to back: the one output digest
    every equivalence check compares."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


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


#: One packed row as an opaque record, for copies that need no fields.
_ROW = np.dtype((np.void, _TRACE_DTYPE.itemsize))


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
        """Concatenate several arrays, re-mapping user index tables.

        The merged table lists every non-empty input's names, first seen
        first.  When those inputs share one table (equal tuples) whose
        names are unique, that table is the merged one and the remap is
        the identity, so the rows are concatenated as they are.
        """
        arrays = [a for a in arrays if len(a)]
        if not arrays:
            return cls.empty()
        # Rows travel as opaque records: concatenating the structured dtype
        # itself promotes it once per input.
        rows = [a._data.view(_ROW) for a in arrays]
        table = arrays[0]._users
        if all(a._users == table for a in arrays) and len(set(table)) == len(table):
            return cls(np.concatenate(rows).view(_TRACE_DTYPE), table)
        users: dict[str, int] = {}
        remaps = [
            np.array([users.setdefault(u, len(users)) for u in a._users], dtype=np.int32)
            for a in arrays
        ]
        data = np.concatenate(rows).view(_TRACE_DTYPE)
        data["user_idx"] = np.concatenate(
            [remap[a.user_index] for remap, a in zip(remaps, arrays)]
        )
        return cls(data, list(users))

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

    def __getitem__(self, item) -> "TraceArray":
        """The rows a slice, boolean mask or index array selects.

        Masks and integer index arrays gather through ``np.compress`` and
        ``np.take``, which copy a structured row several times faster
        than fancy indexing does, with its answers and its ``IndexError``s.
        A mask of another length is left to fancy indexing, because
        ``np.compress`` would accept a short one.
        """
        if isinstance(item, (np.ndarray, list)):
            index = np.asarray(item)
            if index.ndim == 1 and index.dtype == np.bool_ and len(index) == len(self._data):
                return TraceArray(np.compress(index, self._data), self._users)
            if index.ndim == 1 and index.dtype.kind in "iu":
                return TraceArray(np.take(self._data, index), self._users)
        rows = self._data[item]
        if rows.ndim != 1:
            raise TypeError("index a TraceArray with a slice, a mask or an index array")
        return TraceArray(rows, self._users)

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

    def renamed(self, codes: np.ndarray, names: Sequence[str]) -> "TraceArray":
        """A copy whose row ``i`` belongs to ``names[codes[i]]``.

        Names that coincide share one table entry, and the table lists the
        names in the order of their first row, as :meth:`from_columns`
        builds it from the same per-row ids.
        """
        table: dict[str, int] = {}
        merged = np.array([table.setdefault(name, len(table)) for name in names], dtype=np.int64)
        key = merged[codes]
        present, first = np.unique(key, return_index=True)
        by_first_row = present[np.argsort(first)]
        rank = np.empty(len(table), dtype=np.int32)
        rank[by_first_row] = np.arange(len(by_first_row), dtype=np.int32)
        data = self._data.copy()
        data["user_idx"] = rank[key]
        listed = list(table)
        return TraceArray(data, [listed[i] for i in by_first_row])

    def sort_by_time(self) -> "TraceArray":
        """Return a copy sorted by (user, timestamp) — the trail order."""
        order = np.lexsort((self._data["timestamp"], self._data["user_idx"]))
        return TraceArray(np.take(self._data, order), self._users)

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


def _block_order(key: np.ndarray, timestamp: np.ndarray, n_users: int) -> np.ndarray | None:
    """``np.lexsort((timestamp, key))`` without the sort, or ``None``.

    When each of the ``n_users`` keys holds one contiguous block of rows
    and every block is time-sorted (a renamed or concatenated dataset),
    the stable sort only orders whole blocks by key: the permutation is
    each block's row range, in key order.  Otherwise ``None``.
    """
    if not len(key):
        return None
    change = key[1:] != key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change)))
    if len(starts) != n_users or not np.all(change | (timestamp[1:] >= timestamp[:-1])):
        return None
    by_key = np.argsort(key[starts])
    lengths = np.diff(np.append(starts, len(key)))[by_key]
    shift = starts[by_key] - (np.cumsum(lengths) - lengths)
    return np.arange(len(key)) + np.repeat(shift, lengths)


class GeolocatedDataset:
    """A set of trails from different individuals (Section II).

    This is the object GEPETO's operations consume and produce.  It is one
    :class:`TraceArray` sorted by user id, then by timestamp, whose user
    table is the ids in ``sorted()`` order, plus ``offsets``: user ``i``'s
    rows are ``offsets[i]:offsets[i + 1]``.  Building one is one stable
    sort; :meth:`flat` is the stored array; a trail is one slice.
    """

    def __init__(self, arrays: Iterable[TraceArray] = ()):
        """The rows of ``arrays``, under the ids they carry: the rows of one
        user merge, in the order given on tied timestamps."""
        array = TraceArray.concatenate(list(arrays))
        table = np.asarray(array.users, dtype=object)
        present = np.flatnonzero(np.bincount(array.user_index, minlength=len(table)))
        users, ranks = np.unique(table[present], return_inverse=True)
        remap = np.zeros(len(table), dtype=np.int32)
        remap[present] = ranks
        key = remap[array.user_index]
        order = _block_order(key, array.timestamp, len(users))
        if order is None:
            order = np.lexsort((array.timestamp, key))
        data = np.take(array._data, order)
        data["user_idx"] = np.take(key, order)
        self._array = TraceArray(data, users)
        self._offsets = np.searchsorted(data["user_idx"], np.arange(len(users) + 1))

    @classmethod
    def from_array(cls, array: TraceArray) -> "GeolocatedDataset":
        """One trail per user of ``array``'s rows."""
        return cls([array])

    # -- access --------------------------------------------------------------
    @property
    def user_ids(self) -> list[str]:
        return list(self._array.users)

    def _rank(self, user_id: str) -> int | None:
        i = bisect.bisect_left(self._array.users, user_id)
        return i if self._array.users[i : i + 1] == (user_id,) else None

    def _trail(self, i: int) -> TraceArray:
        """User ``i``'s rows, time-sorted, under a table of that one user."""
        data = self._array._data[self._offsets[i] : self._offsets[i + 1]].copy()
        data["user_idx"] = 0
        return TraceArray(data, self._array.users[i : i + 1])

    def trail(self, user_id: str) -> TraceArray:
        i = self._rank(user_id)
        if i is None:
            raise KeyError(user_id)
        return self._trail(i)

    def trails(self) -> Iterator[TraceArray]:
        """Every user's trail, in :attr:`user_ids` order."""
        return map(self._trail, range(self.num_users()))

    def flat(self) -> TraceArray:
        """All traces of all users as one :class:`TraceArray`."""
        return self._array

    def __len__(self) -> int:
        """Total number of traces across all trails."""
        return len(self._array)

    def num_users(self) -> int:
        return len(self._array.users)

    def __contains__(self, user_id: str) -> bool:
        return self._rank(user_id) is not None

    def __repr__(self) -> str:
        return f"GeolocatedDataset(users={self.num_users()}, traces={len(self)})"


def as_array(data: "TraceArray | GeolocatedDataset") -> TraceArray:
    """The :class:`TraceArray` behind a dataset (its :meth:`~GeolocatedDataset.flat`)
    or an array (itself)."""
    if isinstance(data, GeolocatedDataset):
        return data.flat()
    return data
