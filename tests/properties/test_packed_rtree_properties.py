"""Property-based tests: a structural oracle for the STR-packed R-tree.

The oracle reads a tree's arrays — the per-level ``(mbrs, offsets)`` of
``_levels`` and the leaf buffer ``_ids`` / ``_points`` — and checks what
the layout promises without calling any of the build code: one root,
monotone offsets that cover the level below exactly, every node's MBR
the ``minimum/maximum.reduceat`` of its children's MBRs or points,
every id once, all leaves on the last level (one depth), and a pickled
tree that answers exactly like the original.  Bulk loads
and merges of equal and mixed heights are both checked.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree import Rect, RTree

_SITES = [(40.0 + 0.001 * i, 116.5 + 0.001 * j) for i in range(3) for j in range(3)]
_site = st.sampled_from(_SITES)
_free = st.tuples(
    st.floats(min_value=39.0, max_value=41.0, allow_nan=False),
    st.floats(min_value=115.0, max_value=118.0, allow_nan=False),
)
#: Free points plus many exact duplicates (equal centres, degenerate MBRs).
point_lists = st.lists(st.one_of(_site, _free, _free), min_size=1, max_size=300)
fanouts = st.integers(min_value=2, max_value=12)


def check_packed(tree, ids) -> None:
    """The structural oracle: ``tree`` holds exactly ``ids`` and its
    arrays keep every promise of the layout."""
    levels = tree._levels
    assert tree.height() == len(levels) and len(levels[0][0]) == 1
    m = tree.max_entries
    below = [mbrs for mbrs, _ in levels[1:]] + [None]
    for (mbrs, offsets), child_mbrs in zip(levels, below):
        # Monotone offsets that cover the level below exactly, <= m each.
        counts = np.diff(offsets)
        assert len(counts) == len(mbrs) and offsets[0] == 0
        assert counts.min() >= 1 and counts.max() <= m
        if child_mbrs is None:  # every leaf on the last level
            assert offsets[-1] == len(tree._ids) == len(tree._points)
            low = high = tree._points
        else:
            assert offsets[-1] == len(child_mbrs)
            low, high = child_mbrs[:, :2], child_mbrs[:, 2:]
        assert np.array_equal(mbrs[:, :2], np.minimum.reduceat(low, offsets[:-1]))
        assert np.array_equal(mbrs[:, 2:], np.maximum.reduceat(high, offsets[:-1]))
    assert np.array_equal(np.sort(tree._ids), np.sort(ids))
    assert len(tree) == len(ids)


def _answers(tree, anchors) -> list:
    out = []
    for lat, lon in anchors.tolist():
        out.append(tree.query_rect(Rect(lat - 0.01, lon - 0.01, lat + 0.01, lon + 0.01)).tolist())
        out.append(tree.query_radius(lat, lon, 800.0).tolist())
        out.append(tree.knn(lat, lon, 5))
    out.append([a.tolist() for a in tree.query_radius_batch(anchors, 800.0)])
    return out


def check_pickle_round_trip(tree, points) -> None:
    loaded = pickle.loads(pickle.dumps(tree))
    anchors = np.asarray(points)[:: max(1, len(points) // 7)]
    assert _answers(loaded, anchors) == _answers(tree, anchors)
    for (mbrs, offsets), (want_mbrs, want_offsets) in zip(loaded._levels, tree._levels):
        assert np.array_equal(mbrs, want_mbrs) and np.array_equal(offsets, want_offsets)
    assert np.array_equal(loaded._ids, tree._ids)
    assert np.array_equal(loaded._points, tree._points)


@settings(max_examples=80, deadline=None)
@given(point_lists, fanouts)
def test_bulk_load_keeps_the_layout(points, fanout):
    pts = np.array(points)
    ids = np.arange(len(pts)) * 3 + 7
    tree = RTree.bulk_load(pts, ids, max_entries=fanout)
    check_packed(tree, ids)
    check_pickle_round_trip(tree, pts)


@settings(max_examples=60, deadline=None)
@given(point_lists, fanouts, st.lists(st.integers(min_value=0, max_value=300), max_size=4))
def test_merge_keeps_the_layout(points, fanout, cuts):
    """Partitions cut at arbitrary places have equal or mixed heights;
    either merge path keeps the layout and every id."""
    pts = np.array(points)
    bounds = [0, *sorted(min(c, len(pts)) for c in cuts), len(pts)]
    trees = [
        RTree.bulk_load(pts[a:b], np.arange(a, b), max_entries=fanout)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    merged = RTree.merge(trees)
    check_packed(merged, np.arange(len(pts)))
    check_pickle_round_trip(merged, pts)
