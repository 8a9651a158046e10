"""The sanitizer protocol.

A sanitizer is a deterministic-given-its-seed transformation of a trace
array; :meth:`Sanitizer.sanitize_dataset` applies it trail by trail.
"""

from __future__ import annotations

import abc

from repro.geo.trace import GeolocatedDataset, Trail, TraceArray

__all__ = ["Sanitizer"]


class Sanitizer(abc.ABC):
    """Base class of all geo-sanitization mechanisms."""

    @abc.abstractmethod
    def sanitize_array(self, array: TraceArray) -> TraceArray:
        """Return the sanitized version of ``array`` (never in place)."""

    def sanitize_dataset(self, dataset: GeolocatedDataset) -> GeolocatedDataset:
        """Apply to every trail; trails sanitized to emptiness are dropped."""
        def _one(trail: Trail) -> Trail | None:
            out = self.sanitize_array(trail.traces)
            if len(out) == 0:
                return None
            return Trail(out.users[0], out.sort_by_time())

        return dataset.map_trails(_one)
