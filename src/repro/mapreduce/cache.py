"""Distributed cache for read-only side data.

Hadoop's distributed cache ships auxiliary files (here: the serialized
R-tree used by DJ-Cluster's neighborhood mappers, or the current k-means
centroids) to every tasktracker before the map phase starts.  Mappers read
cached entries in ``setup``.  The cost model charges the broadcast once per
tasktracker, not per task.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.mapreduce.types import estimate_nbytes

__all__ = ["DistributedCache", "FaultyCacheView"]


class DistributedCache:
    """Named read-only artifacts broadcast to all tasktrackers."""

    def __init__(self) -> None:
        self._entries: dict[str, Any] = {}
        #: Each entry's modelled size, taken once, as it is stored.
        self._sizes: dict[str, int] = {}

    def replace(self, name: str, value: Any, nbytes: int | None = None) -> None:
        """Overwrite an entry (e.g. centroids updated between iterations).

        The entry is sized here, once: ``nbytes`` when the caller knows
        its modelled size (as ``emit`` takes one), else
        :func:`estimate_nbytes` of ``value``.
        """
        self._entries[name] = value
        self._sizes[name] = estimate_nbytes(value) if nbytes is None else int(nbytes)

    def get(self, name: str) -> Any:
        if name not in self._entries:
            raise KeyError(f"no such cache entry: {name!r}")
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def nbytes(self) -> int:
        """Modelled broadcast payload size (for the cost model)."""
        for name in self._entries.keys() - self._sizes.keys():
            # Rebuilt from a snapshot: sized on first asking.
            self._sizes[name] = estimate_nbytes(self._entries[name])
        return sum(self._sizes.values())

    def snapshot(self) -> dict[str, Any]:
        """Shallow copy of all entries, in insertion order.

        Execution backends broadcast this snapshot to worker processes
        once per job (the cost model already charges the broadcast once
        per tasktracker, so the simulated accounting is unchanged).
        """
        return dict(self._entries)

    def copy(self) -> "DistributedCache":
        """A shallow copy that keeps each entry's size."""
        cache = DistributedCache()
        cache._entries = dict(self._entries)
        cache._sizes = dict(self._sizes)
        return cache

    @classmethod
    def from_snapshot(cls, entries: dict[str, Any]) -> "DistributedCache":
        """Rebuild a cache from a :meth:`snapshot` (worker-side)."""
        cache = cls()
        for name, value in entries.items():
            cache._entries[name] = value
        return cache


class FaultyCacheView:
    """A per-attempt cache facade whose first ``get`` fails.

    Models a tasktracker that could not localize the distributed cache
    (disk full, fetch timeout): the doomed attempt crashes in its mapper's
    ``setup`` with :class:`~repro.mapreduce.failures.CacheLoadFailure`, and
    the retry gets the real cache again.  Read-only protocol only — the
    runner never hands mappers a writable cache.
    """

    def __init__(self, cache: DistributedCache, task_id: str, attempt: int):
        self._cache = cache
        self._task_id = task_id
        self._attempt = attempt

    def get(self, name: str) -> Any:
        from repro.mapreduce.failures import CacheLoadFailure

        raise CacheLoadFailure(self._task_id, self._attempt, entry=name)
