"""Space-filling curves: Z-order (Morton) and Hilbert.

The R-tree construction's partitioning function (Section VII-C) "has to
map multidimensional datapoints into an ordered sequence of unidimensional
values" while preserving data locality.  Both curves here map a point on a
``2^order x 2^order`` grid to a single integer key in ``[0, 4^order)``:

* **Z-order** interleaves the bits of the two grid coordinates — cheap,
  decent locality, with the well-known "Z jumps" between quadrants;
* **Hilbert** follows the Hilbert curve — strictly better locality (no
  long jumps), which yields better-balanced, more compact partitions (the
  Figure 6 ablation bench measures exactly this).

Everything is vectorized, never a per-point Python loop: Z-order spreads
bits with five shift-and-mask passes per coordinate, and Hilbert reads a
1,024-entry automaton table built at import, one whole-array gather per
four curve levels (four gathers at the default order 16).  Both curves
reject non-finite coordinates and bounds (``normalize_to_grid``): a NaN
span reads as "degenerate" and would silently drop an axis.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.geo.grid import finite_column

__all__ = [
    "normalize_to_grid",
    "morton_interleave",
    "zorder_key",
    "hilbert_key",
    "CURVES",
    "get_curve",
    "DEFAULT_ORDER",
]

#: Default curve order: a 65536^2 grid, fine enough that city-scale data
#: rarely collides.
DEFAULT_ORDER = 16


def normalize_to_grid(
    x: np.ndarray,
    y: np.ndarray,
    bounds: tuple[float, float, float, float],
    order: int = DEFAULT_ORDER,
) -> tuple[np.ndarray, np.ndarray]:
    """Map continuous coordinates into integer cells of a ``2^order`` grid.

    ``bounds`` is ``(min_x, min_y, max_x, max_y)``.  Degenerate extents
    (all points sharing one coordinate) collapse to cell 0 on that axis.
    A non-finite coordinate or bound is a ``ValueError``.
    """
    if not 1 <= order <= 31:
        raise ValueError("order must be within [1, 31]")
    min_x, min_y, max_x, max_y = finite_column(bounds, "bounds").tolist()
    x = finite_column(x, "coordinates")
    y = finite_column(y, "coordinates")
    if max_x < min_x or max_y < min_y:
        raise ValueError("invalid bounds: max < min")
    size = (1 << order) - 1
    span_x = max_x - min_x
    span_y = max_y - min_y
    gx = np.zeros(len(np.atleast_1d(x)), dtype=np.uint64)
    gy = np.zeros(len(np.atleast_1d(y)), dtype=np.uint64)
    if span_x > 0:
        fx = (x - min_x) / span_x
        gx = np.clip(np.floor(fx * (size + 1)), 0, size).astype(np.uint64)
    if span_y > 0:
        fy = (y - min_y) / span_y
        gy = np.clip(np.floor(fy * (size + 1)), 0, size).astype(np.uint64)
    return gx, gy


def morton_interleave(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Interleave the bits of two uint arrays (x in even bits, y in odd).

    Standard "part1by1" bit-spreading with 64-bit magic masks; supports
    grid coordinates up to 31 bits.
    """

    def _part1by1(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        return v

    return _part1by1(gx) | (_part1by1(gy) << np.uint64(1))


def zorder_key(
    x: np.ndarray,
    y: np.ndarray,
    bounds: tuple[float, float, float, float],
    order: int = DEFAULT_ORDER,
) -> np.ndarray:
    """Z-order (Morton) key of each point, as uint64."""
    gx, gy = normalize_to_grid(x, y, bounds, order)
    return morton_interleave(gx, gy)


def _hilbert_table() -> np.ndarray:
    """The 4-state Hilbert automaton, four curve levels per entry.

    A state is the transform the ``xy2d`` rotate-and-fold has applied to
    the coordinates so far: bit 0 says x and y are swapped, bit 1 that
    both are complemented.  The two commute, so composing one more fold
    XORs the flags.  Entry ``state << 8 | x_nibble << 4 | y_nibble`` holds
    the nibbles' 8 key bits in its low byte and the state after them in
    bits 8-9 — where the next lookup's index wants it.
    """
    table = np.empty(4 << 8, dtype=np.int64)
    for state in range(4):
        for x_nibble in range(16):
            for y_nibble in range(16):
                flags, digits = state, 0
                for bit in (3, 2, 1, 0):
                    rx = (x_nibble >> bit & 1) ^ (flags >> 1)
                    ry = (y_nibble >> bit & 1) ^ (flags >> 1)
                    if flags & 1:
                        rx, ry = ry, rx
                    digits = digits << 2 | (3 * rx) ^ ry
                    if ry == 0:
                        flags ^= 1 | rx << 1
                table[state << 8 | x_nibble << 4 | y_nibble] = digits | flags << 8
    return table


_HILBERT = _hilbert_table()


def hilbert_key(
    x: np.ndarray,
    y: np.ndarray,
    bounds: tuple[float, float, float, float],
    order: int = DEFAULT_ORDER,
) -> np.ndarray:
    """Hilbert-curve key of each point, as uint64.

    The classic ``xy2d`` rotate-and-fold run as a table-driven automaton:
    each of ``ceil(order / 4)`` whole-array gathers consumes four bits of
    both grid coordinates and emits eight key bits.  An order that is not
    a multiple of four is padded with leading zero levels; from an
    unrotated state each of those adds key digit 0 and one swap, so the
    walk starts swapped when their number is odd.
    """
    gx, gy = normalize_to_grid(x, y, bounds, order)
    # Grid cells are below 2**31: the int64 view is the same numbers.
    gx, gy = gx.view(np.int64), gy.view(np.int64)
    steps = -(-order // 4)
    entry = np.full(gx.shape, (4 * steps - order) % 2 << 8, dtype=np.int64)
    key = np.zeros(gx.shape, dtype=np.int64)
    for shift in range(4 * steps - 4, -1, -4):
        index = entry & 0x300
        index |= (gx >> shift & 15) << 4
        index |= gy >> shift & 15
        entry = _HILBERT[index]
        key <<= 8
        key |= entry & 0xFF
    return key.view(np.uint64)


#: Registry of curve implementations by name (the paper tests both).
CURVES: dict[str, Callable] = {
    "zorder": zorder_key,
    "hilbert": hilbert_key,
}


def get_curve(name: str) -> Callable:
    """Look up a space-filling curve by name (``zorder`` / ``hilbert``)."""
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key == "z":
        key = "zorder"
    if key not in CURVES:
        raise KeyError(f"unknown curve {name!r}; known: {sorted(CURVES)}")
    return CURVES[key]
