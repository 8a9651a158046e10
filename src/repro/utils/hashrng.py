"""Counter-based deterministic randomness for per-trace noise.

Sanitizers that add random noise must produce the *same* noise for a
given trace regardless of how the dataset is chunked — otherwise the
MapReduced sanitization would not equal the sequential one, and reruns
would not be reproducible.  Sequential RNG streams cannot provide that
(the i-th draw depends on chunk boundaries), so noise is derived from a
**hash of the trace's own content** (timestamp + coordinate bits) mixed
with a user-chosen seed: a counter-based RNG in the Philox spirit, built
from the splitmix64 finalizer and fully vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fnv1a64", "splitmix64", "trace_keys", "hash_uniform", "hash_normal"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit digest of ``text``'s UTF-8 bytes: a string hash that,
    unlike Python's salted ``hash``, is the same in every process."""
    h = 0xCBF29CE484222325  # the offset basis; 0x100000001B3 is the prime
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a high-quality 64-bit mixing function."""
    z = (np.asarray(x, dtype=np.uint64) + _GAMMA).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _float_bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.uint64)


def trace_keys(lat: np.ndarray, lon: np.ndarray, ts: np.ndarray, seed: int) -> np.ndarray:
    """A 64-bit key per trace, chunk-invariant and seed-dependent."""
    with np.errstate(all="ignore"):
        k = _float_bits(ts)
        k = splitmix64(k ^ splitmix64(_float_bits(lat)))
        k = splitmix64(k ^ splitmix64(_float_bits(lon)))
        return splitmix64(k ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))


def hash_uniform(keys: np.ndarray, stream: int = 0) -> np.ndarray:
    """Uniform (0, 1) draws from 64-bit keys; ``stream`` decorrelates
    multiple draws per key (e.g. the two Box–Muller uniforms)."""
    offset = np.uint64((stream * int(_GAMMA)) & 0xFFFFFFFFFFFFFFFF)
    mixed = splitmix64(np.asarray(keys, dtype=np.uint64) + offset)
    # Top 53 bits -> (0, 1); +0.5 ulp keeps the draw strictly positive
    # (Box-Muller takes a log of it).
    return (mixed >> np.uint64(11)).astype(np.float64) / float(1 << 53) + 2.0**-54


def hash_normal(keys: np.ndarray, stream: int = 0) -> np.ndarray:
    """Standard normal draws from 64-bit keys (Box–Muller transform)."""
    u1 = hash_uniform(keys, stream=2 * stream)
    u2 = hash_uniform(keys, stream=2 * stream + 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
