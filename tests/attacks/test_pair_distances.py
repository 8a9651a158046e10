"""One Haversine call over many fingerprint pairs gives every pair the
bits of its own broadcast.

``LinkageScoreReducer`` prices the POI distances of every pair a reduce
task owns in one :func:`~repro.geo.distance.haversine_m` call over
concatenated state rows (``linkage_mr._pair_distances``);
``mmc_link_score`` prices one pair as an ``(n_a, 1) x (1, n_b)``
broadcast.  The attack's scores are byte-identical only if each element
comes out the same wherever it sits in its array: NumPy's ``radians``,
``sin``, ``cos``, ``sqrt`` and ``arcsin`` loops must not depend on an
element's position (a SIMD lane, or the scalar tail after the last full
vector).  That is a property of the NumPy build, so CI's oldest-NumPy leg
runs this module too.
"""

import numpy as np
import pytest

from repro.attacks.linkage_mr import _pair_distances
from repro.geo.distance import haversine_m


def _broadcast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distance matrix exactly as ``mmc._match_states`` computes it."""
    return np.atleast_2d(
        haversine_m(a[:, None, 0], a[:, None, 1], b[None, :, 0], b[None, :, 1])
    )


def _states(rng, k: np.ndarray) -> np.ndarray:
    """``k[i]`` POIs per fingerprint, metres to kilometres apart around
    anchors anywhere on the sphere, the antimeridian and the poles among
    them (the blocking cells only ever pair nearby fingerprints)."""
    anchors = np.column_stack((rng.uniform(-89.9, 89.9, len(k)), rng.uniform(-180, 180, len(k))))
    anchors[:4] = [(0.0, 179.9999), (0.0, -179.9999), (89.99, 10.0), (-89.99, -170.0)]
    rows = np.repeat(anchors, k, axis=0)
    return rows + rng.normal(0.0, rng.choice([1e-5, 1e-3, 1e-2], len(rows)))[:, None]


def _assert_blocks_match(states, offsets, a, b):
    dists, starts = _pair_distances(states, offsets, a, b)
    assert starts[-1] == len(dists)
    k = np.diff(offsets)
    for n, (i, j) in enumerate(zip(a.tolist(), b.tolist())):
        block = dists[starts[n] : starts[n + 1]].reshape(k[i], k[j])
        reference = _broadcast(states[offsets[i] : offsets[i + 1]], states[offsets[j] : offsets[j + 1]])
        assert block.tobytes() == reference.tobytes(), (n, i, j)


@pytest.mark.parametrize("seed", range(3))
def test_one_call_equals_every_pairs_broadcast(seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(1, 9, 400)
    offsets = np.concatenate(([0], np.cumsum(k)))
    states = _states(rng, k)
    # Near neighbours and random partners, in random order: pair blocks
    # of 1 to 64 elements land at every offset modulo the vector width.
    a = rng.integers(0, len(k), 3_000)
    b = np.where(rng.random(3_000) < 0.5, (a + 1) % len(k), rng.integers(0, len(k), 3_000))
    _assert_blocks_match(states, offsets, a, b)


def test_every_shape_at_every_lane_offset():
    # Fingerprint 0 has one state, 1 .. 16 have 1 .. 16; then every
    # (k_a, k_b) in 1..8 x 1..8.  A lead pair (0, p) of p elements puts
    # the measured pair's block at array offset p.
    rng = np.random.default_rng(7)
    pads = list(range(1, 17))
    shapes = [(ka, kb) for ka in range(1, 9) for kb in range(1, 9)]
    k = np.array([1] + pads + [s for shape in shapes for s in shape], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(k)))
    states = _states(rng, k)
    for pad in [0] + pads:
        for n in range(len(shapes)):
            pair = (17 + 2 * n, 18 + 2 * n)
            a = np.array(([0] if pad else []) + [pair[0]], dtype=np.int64)
            b = np.array(([pad] if pad else []) + [pair[1]], dtype=np.int64)
            _assert_blocks_match(states, offsets, a, b)


def test_no_pairs():
    dists, starts = _pair_distances(
        np.zeros((3, 2)), np.array([0, 1, 3]), np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
    )
    assert len(dists) == 0 and starts.tolist() == [0]
