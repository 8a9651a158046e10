"""The input-check vocabulary: what a valid number is, written once.

Every public entry point that takes a number from a curator checks it
with one of these functions (DESIGN.md, "Input checks").  The policy:

- a *count* is an ``int`` or a NumPy integer, never a ``bool``; it comes
  back as a plain ``int``, so no ``np.int64`` reaches a JSON document;
- a *real* is an ``int``, a ``float`` or a NumPy integer or floating
  scalar, never a ``bool`` (``True`` would act as 1) nor a string; it
  comes back as a ``float``;
- NaN and ±inf are rejected wherever a real is checked: NaN compares
  false against every bound, so unchecked it passes as a plausible value;
- every failure is a ``ValueError`` whose message starts with the
  parameter's name, so the CLI can print it as one line.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "count", "finite", "finite_column", "non_negative", "positive", "probability", "within",
]

_REAL = (int, float, np.integer, np.floating)


def count(name: str, value, least: int) -> int:
    """``value`` as an ``int`` if it is an integer ``>= least``, ``bool``
    excluded; otherwise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(name: str, value, kind: str) -> float:
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ValueError(f"{name} must be a {kind} number, got {value!r}")
    return float(value)


def finite(name: str, value) -> float:
    """``value`` as a ``float`` if it is a finite real number."""
    x = _real(name, value, "finite")
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def positive(name: str, value) -> float:
    """``value`` as a ``float`` if it is a real number in ``(0, inf)``."""
    x = _real(name, value, "positive")
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return x


def non_negative(name: str, value) -> float:
    """``value`` as a ``float`` if it is a real number in ``[0, inf)``."""
    x = finite(name, value)
    if x < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return x


def probability(name: str, value) -> float:
    """``value`` as a ``float`` if it is a real number in ``[0, 1]``."""
    x = _real(name, value, "real")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return x


def within(name: str, value, low: float, high: float) -> float:
    """``value`` as a ``float`` if it is a finite real number in
    ``[low, high]``."""
    x = finite(name, value)
    if not low <= x <= high:
        raise ValueError(f"{name} must be within [{low:g}, {high:g}], got {value!r}")
    return x


def finite_column(values, what: str) -> np.ndarray:
    """``values`` as float64, or ``ValueError("<what> must be finite …")``."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite (no NaN/inf)")
    return values
