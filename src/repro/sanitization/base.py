"""The sanitizer protocol.

A sanitizer is a deterministic-given-its-seed transformation of a trace
array; :meth:`Sanitizer.sanitize_dataset` applies it once to the flat
array of every user, and the rows it returns land under whatever user
ids they carry.  Each mechanism states its scope: *row*, *user* (a
multi-user array gives what sanitizing each user alone gives) or
*release* (all users at once).
"""

from __future__ import annotations

import abc

from repro.geo.trace import TraceArray

__all__ = ["Sanitizer"]


class Sanitizer(abc.ABC):
    """Base class of all geo-sanitization mechanisms."""

    @abc.abstractmethod
    def sanitize_array(self, array: TraceArray) -> TraceArray:
        """Return the sanitized version of ``array`` (never in place)."""

    def sanitize_dataset(self, dataset: TraceArray) -> TraceArray:
        """Sanitize every user's rows in one call, in by-user order; users
        sanitized to emptiness are dropped."""
        return self.sanitize_array(dataset).by_user()
