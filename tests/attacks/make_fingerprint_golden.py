"""Regenerates ``golden_fingerprints.json`` (checked in next to this file).

The golden holds, for a fixed adversarial corpus, what the *per-user*
fingerprint pipeline produced on the commit before fingerprints were
computed a block of users at a time: each user's POI coordinates,
transition matrix and visit counts as ``float.hex``, the home/work
labels, and the length of the fingerprint's pickle (the reduce output is
pickled, so label identity and array layout reach ``hdfs.bytes_written``
and the simulated clock).  The segmented pass promised the same bits;
``test_fingerprint_segmented.py`` holds it to them.

The corpus is one case per trap:

=============  ======================================================
``single``     one row: nothing to cluster
``moving``     every row above the speed threshold: no fingerprint
``many``       five clusters, ``max_pois`` = 3; the night-time ("home")
               cluster is the fourth largest, so it is labelled, then cut
``ties``       three clusters of equal size and equal night/work mass:
               the stable sort and the first-maximum rule decide
``lone``       one cluster: a home, no work candidate
``twin-a/b``   identical rows; each spot keeps ``min_pts`` - 1 of them, so a
               cluster appears only if candidates leak across users
``near-a/b``   the same POIs a few metres apart, enough rows each
``dupes``      duplicate timestamps, rows stored out of time order
``shuffled``   stored as three fragments, out of offset order (the
               reducer test ships them that way)
``uniform``    two squares of traces 99 m from their centroids: two POIs,
               no trace attaches, the transition rows stay uniform
=============  ======================================================

A CPU-side optimisation must never change the JSON.  Re-record it only
for a deliberate change of the attack::

    PYTHONPATH=src python tests/attacks/make_fingerprint_golden.py

and say so in the change.  Inputs come from ``RandomState`` (a frozen
stream).  POI coordinates are sums and one division, transitions are
ratios of whole numbers, so the floats do not depend on the NumPy build;
the pickle length does (the array reconstructor's module path moved in
NumPy 2), so it is compared only under the major version recorded here.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks.deanonymization import fingerprint_user
from repro.geo.trace import Trail, TraceArray

GOLDEN = Path(__file__).parent / "golden_fingerprints.json"

PARAMS = DJClusterParams(radius_m=150.0, min_pts=3)
MAX_POIS = 3
ATTACH_RADIUS_M = 60.0

#: 2023-01-02 00:00:00 UTC, so ``hour * 3600`` offsets name the hour bin.
T0 = 1_672_617_600.0
_JITTER_DEG = 4e-5


def _visit(rs, lat, lon, day, hour, n):
    """``n`` rows a minute apart around one spot, starting on the hour."""
    ts = T0 + day * 86_400.0 + hour * 3_600.0 + 60.0 * np.arange(n)
    return (
        lat + rs.uniform(-_JITTER_DEG, _JITTER_DEG, n),
        lon + rs.uniform(-_JITTER_DEG, _JITTER_DEG, n),
        ts,
    )


def _rows(visits):
    return tuple(np.concatenate(column) for column in zip(*visits))


def corpus() -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """user -> (lat, lon, timestamp) columns, in stored (file) order."""
    rs = np.random.RandomState(18)
    users = {}
    users["single"] = (np.array([48.0]), np.array([2.0]), np.array([T0]))
    # 100 m every 10 s: 10 m/s everywhere.
    users["moving"] = (48.1 + 9e-4 * np.arange(12), np.full(12, 2.1), T0 + 10.0 * np.arange(12))
    # First and last row of a visit are moving (the next spot is
    # kilometres away), so a visit of n rows leaves n - 2 in its cluster.
    spots = [(40.00 + 0.02 * i, -3.70 + 0.03 * i) for i in range(5)]
    users["many"] = _rows(
        [_visit(rs, *spots[0], d, 10, 8) for d in range(3)]      # 18 rows, working hours
        + [_visit(rs, *spots[1], d, 14, 7) for d in range(3)]    # 15
        + [_visit(rs, *spots[2], d, 19, 6) for d in range(3)]    # 12
        + [_visit(rs, *spots[3], d, 23, 5) for d in range(3)]    # 9, night: home, then cut
        + [_visit(rs, *spots[4], d, 7, 4) for d in range(3)]     # 6
    )
    spots = [(52.50 + 0.02 * i, 13.40) for i in range(3)]
    users["ties"] = _rows(
        [_visit(rs, *spots[i], d, 6 + 5 * i, 6) for d in range(2) for i in range(3)]
    )
    users["lone"] = _rows([_visit(rs, 35.0, 139.0, d, 1, 6) for d in range(2)] + [
        _visit(rs, 35.5, 139.5, 2, 12, 2)  # somewhere to leave to
    ])
    # Two rows survive at each spot (the trail's first and last row have
    # only their one stationary neighbour to be measured against).
    twin = _rows(
        [_visit(rs, 10.0, 20.0, 0, 9, 3), _visit(rs, 10.05, 20.05, 0, 15, 3)]
    )
    users["twin-a"] = twin
    users["twin-b"] = tuple(column.copy() for column in twin)
    for name in ("near-a", "near-b"):
        users[name] = _rows(
            [_visit(rs, -33.90, 151.20, d, 2, 6) for d in range(2)]
            + [_visit(rs, -33.95, 151.25, d, 11, 6) for d in range(2)]
        )
    lat, lon, ts = _rows(
        [_visit(rs, 55.70, 37.60, d, 3, 7) for d in range(2)]
        + [_visit(rs, 55.75, 37.65, d, 13, 7) for d in range(2)]
    )
    ts[2] = ts[1]          # two rows share a timestamp ...
    ts[9:11] = ts[8]       # ... three do, and ...
    swap = np.arange(len(ts))
    swap[[1, 2]] = [2, 1]  # ... the file lists one pair against its time order
    swap[[16, 20]] = [20, 16]
    users["dupes"] = (lat[swap], lon[swap], ts[swap])
    users["shuffled"] = _rows(
        [_visit(rs, 1.30, 103.80, d, 0, 6) for d in range(2)]
        + [_visit(rs, 1.35, 103.85, d, 10, 7) for d in range(2)]
        + [_visit(rs, 1.40, 103.90, d, 16, 5) for d in range(2)]
    )
    # Corners of two 140 m squares, an hour apart (stationary), four laps
    # each: every trace is 99 m from its cluster's centroid.
    side = 140.0 / 111_195.0
    corner_lat = np.tile(side * np.array([0.0, 0.0, 1.0, 1.0]), 4)
    corner_lon = np.tile(2.0 * side * np.array([0.0, 1.0, 1.0, 0.0]), 4)
    users["uniform"] = (
        np.concatenate((60.0 + corner_lat, 60.05 + corner_lat)),
        np.concatenate((25.0 + corner_lon, 25.0 + corner_lon)),
        T0 + 3_600.0 * np.arange(32),
    )
    return users


def fingerprint_doc(fp) -> dict | None:
    """The JSON-safe record of one fingerprint (``None`` stays ``None``)."""
    if fp is None:
        return None
    return {
        "states": [x.hex() for x in fp.states.ravel().tolist()],
        "transitions": [x.hex() for x in fp.transitions.ravel().tolist()],
        "visit_counts": [x.hex() for x in fp.visit_counts.tolist()],
        "labels": list(fp.labels),
        "pickle_len": len(pickle.dumps(fp, protocol=pickle.HIGHEST_PROTOCOL)),
    }


def record() -> dict:
    users = {}
    for name, (lat, lon, ts) in corpus().items():
        trail = Trail(name, TraceArray.from_columns(name, lat, lon, ts))
        users[name] = fingerprint_doc(fingerprint_user(trail, PARAMS, MAX_POIS, ATTACH_RADIUS_M))
    return {"numpy": np.__version__, "users": users}


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    for name, fp in doc["users"].items():
        print(f"{name:9s}", None if fp is None else (fp["labels"], fp["visit_counts"]))
