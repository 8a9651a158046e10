"""Property-based tests: MR linkage attack ≡ serial reference.

Two families of invariants:

* end-to-end: on random corpora the MapReduce attack reproduces the
  tie-break-fixed serial reference byte for byte on every backend and
  chunking, and the blocking audit stays exact;
* geometry: the candidate-blocking cover never drops a point with
  spatial evidence — for any two points within the match distance, the
  cover of one contains the cell of the other — and every cell the grid
  makes folds into its own int64 shuffle key, in cell order.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.deanonymization import deanonymization_attack
from repro.attacks.linkage_mr import (
    _POLAR_BAND,
    SYNTH_ATTACK_PARAMS,
    _fold,
    linkage_signature,
    run_linkage_attack,
    synthetic_linkage_corpus,
)
from repro.attacks.linkage_mr import cover_cells as cover_cells_of
from repro.geo.distance import haversine_m
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from tests.attacks.blocking_oracle import cell as blocking_cell
from tests.attacks.blocking_oracle import cover as cover_cells

_R_M = 6_371_008.8


@settings(max_examples=12, deadline=None)
@given(
    n_users=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    backend=st.sampled_from(BACKENDS),
    chunk_traces=st.sampled_from([11, 64, 100_000]),
    # Every user has three clusters: a cut of 1 or 2 drops some, and a
    # few-metre attachment radius (the jitter is ~4 m) drops whole visits,
    # so the reference must be handed both to stay the reference.
    max_pois=st.sampled_from([1, 2, 8]),
    attach_radius_m=st.sampled_from([1.5, 3.0, 200.0]),
)
def test_mr_attack_equals_serial_reference(
    n_users, seed, backend, chunk_traces, max_pois, attach_radius_m
):
    train, target, truth = synthetic_linkage_corpus(n_users, seed=seed, pois_per_user=3)
    reference = deanonymization_attack(
        train,
        target,
        truth,
        params=SYNTH_ATTACK_PARAMS,
        max_pois=max_pois,
        attach_radius_m=attach_radius_m,
    )
    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * chunk_traces, seed=0)
    hdfs.put_trace_array("input/train", train, record_bytes=64)
    hdfs.put_trace_array("input/target", target, record_bytes=64)
    runner = JobRunner(hdfs, executor=backend)
    try:
        outcome = run_linkage_attack(
            runner,
            "input/train",
            "input/target",
            truth,
            params=SYNTH_ATTACK_PARAMS,
            max_pois=max_pois,
            attach_radius_m=attach_radius_m,
        )
    finally:
        runner.close()
    assert outcome.signature() == linkage_signature(reference)
    assert outcome.result.linkage == reference.linkage
    assert outcome.result.scores == reference.scores
    # Blocking never drops a pair with spatial evidence.
    assert outcome.blocking_exact in (True, None)


@settings(max_examples=300, deadline=None)
# One ulp below a band edge, exactly the match distance from the POI: the
# haversine rounds to <= d, so the cover must reach across the edge.
@example(lat=-8.555803906028e-249, lon=0.0, bearing=0.0, frac=1.0, d=100.0)
@given(
    lat=st.floats(min_value=-89.5, max_value=89.5),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    bearing=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    frac=st.floats(min_value=0.0, max_value=1.0),
    d=st.sampled_from([100.0, 500.0, 2_000.0]),
)
def test_cover_never_drops_a_point_within_match_distance(lat, lon, bearing, frac, d):
    # Walk up to the match distance from (lat, lon) along any bearing.
    dist = frac * d
    dlat = math.degrees(dist * math.cos(bearing) / _R_M)
    plat = lat + dlat
    if abs(plat) > 89.9:
        return  # degenerate pole geometry is collapsed to one cell anyway
    dlon = math.degrees(
        dist * math.sin(bearing)
        / (_R_M * max(math.cos(math.radians(lat)), 1e-9))
    )
    plon = lon + dlon
    if plon > 180.0:
        plon -= 360.0
    if plon < -180.0:
        plon += 360.0
    if haversine_m(lat, lon, plat, plon) > d:
        return  # the planar walk overshot the haversine ball
    assert blocking_cell(plat, plon, d) in cover_cells(lat, lon, d)
    # Symmetric direction: the shuffle co-locates the pair whichever
    # side plays "training" (cover) and whichever plays "target" (cell).
    assert blocking_cell(lat, lon, d) in cover_cells(plat, plon, d)


_CELL = st.integers(min_value=-_POLAR_BAND, max_value=_POLAR_BAND)


@settings(max_examples=300, deadline=None)
# The polar cells, and the extreme bands and columns _floor lets through.
@example(a=(_POLAR_BAND, 1), b=(_POLAR_BAND, -1))
@example(a=(_POLAR_BAND, _POLAR_BAND), b=(-_POLAR_BAND, -_POLAR_BAND))
@example(a=(-_POLAR_BAND, _POLAR_BAND), b=(-_POLAR_BAND + 1, -_POLAR_BAND))
@example(a=(0, -1), b=(-1, _POLAR_BAND))
@given(a=st.tuples(_CELL, _CELL), b=st.tuples(_CELL, _CELL))
def test_the_cell_fold_is_injective_and_keeps_cell_order(a, b):
    folded = _fold(np.array([a[0], b[0]]), np.array([a[1], b[1]])).tolist()
    assert (folded[0] == folded[1]) == (a == b)
    assert (folded[0] < folded[1]) == (a < b)


def _smallest_grid_distance(lat, lon) -> float:
    """The smallest match distance (to a part in 10^12) at which the grid
    still covers ``lat, lon`` without refusing."""
    lo, hi = 1e-6, 1.0
    while hi - lo > 1e-12 * hi:
        mid = (lo + hi) / 2.0
        try:
            cover_cells_of([lat], [lon], mid)
            hi = mid
        except ValueError:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "lat, lon",
    [(0.0, 179.99999999), (0.0, -179.99999999), (-84.99999999, 180.0), (84.999999, -180.0)],
    ids=["east-wrap", "west-wrap", "south-edge", "north-edge"],
)
def test_every_cell_of_the_finest_grid_folds(lat, lon):
    # Down to the smallest distance _floor accepts, across both
    # antimeridian wraps and into the polar cells, the grid's cells fold
    # without collision; a hair finer and the grid itself refuses.
    d = _smallest_grid_distance(lat, lon)
    _point, band, j = cover_cells_of([lat, 89.0, -89.0], [lon, 0.0, 0.0], d)
    cells = set(zip(band.tolist(), j.tolist()))
    assert (_POLAR_BAND, 1) in cells and (_POLAR_BAND, -1) in cells
    assert max(abs(column) for cell in cells - {(_POLAR_BAND, 1), (_POLAR_BAND, -1)}
               for column in cell) > _POLAR_BAND // 2
    assert len(set(_fold(band, j).tolist())) == len(cells)
    with pytest.raises(ValueError, match="too small for an int64 blocking grid"):
        cover_cells_of([lat], [lon], d * (1.0 - 1e-9))


@pytest.mark.parametrize(
    "band, j", [(_POLAR_BAND + 1, 0), (-_POLAR_BAND - 1, 0), (0, _POLAR_BAND + 1), (0, -(2**31))]
)
def test_a_cell_outside_the_grid_does_not_fold(band, j):
    with pytest.raises(ValueError, match="to fold into int64"):
        _fold(np.array([0, band]), np.array([0, j]))
