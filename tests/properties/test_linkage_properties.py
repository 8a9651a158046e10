"""Property-based tests: MR linkage attack ≡ serial reference.

Two families of invariants:

* end-to-end: on random corpora the MapReduce attack reproduces the
  tie-break-fixed serial reference byte for byte on every backend and
  chunking, and the blocking audit stays exact;
* geometry: the candidate-blocking cover never drops a point with
  spatial evidence — for any two points within the match distance, the
  cover of one contains the cell of the other.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.linkage_mr import (
    SYNTH_ATTACK_PARAMS,
    deanonymization_attack_reference,
    linkage_signature,
    run_linkage_attack,
    synthetic_linkage_corpus,
)
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
    reference = deanonymization_attack_reference(
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
