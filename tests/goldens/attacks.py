"""The attack goldens.

``golden_linkage_jobs.json`` pins what the MapReduce linkage attack
*ships*, not only what it concludes.  For each case below, on the serial
backend with and without a budget that makes the blocking shuffle spill:
every job's ``job_finish`` counters and the SHA-256 of the whole job
history (the shuffle sizes records by pickling them, so a fingerprint
whose pickle grows by one byte moves these); the SHA-256 of each HDFS
output, pickled (NumPy-bound: the array reconstructor's module path moved
in NumPy 2); and the outcome.  Recorded on the commit before the attack
computed cells, POI means and chains a fingerprint block at a time.

=========  ==========================================================
``city``   30 users with three POIs each, the bench corpus's geometry
``seam``   12 users astride the antimeridian and the 85° polar cap,
           so covers wrap and collapse into the polar cell
=========  ==========================================================

``golden_fingerprints.json`` holds, for a fixed adversarial corpus, what
the per-user fingerprint pipeline produced on the commit before
fingerprints were computed a block of users at a time: each user's POI
coordinates, transition matrix and visit counts as ``float.hex``, the
home/work labels, and the length of the fingerprint's pickle (the reduce
output is pickled, so label identity and array layout reach the
simulated clock; NumPy-bound like the outputs above).  POI coordinates
are sums and one division, transitions ratios of whole numbers, so the
floats do not depend on the NumPy build.  One user per trap:

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
"""

from __future__ import annotations

import json
import pickle

import numpy as np

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks.deanonymization import fingerprint_user
from repro.attacks.linkage_mr import (
    SYNTH_ATTACK_PARAMS,
    run_linkage_attack,
    synthetic_linkage_corpus,
)
from repro.geo.trace import TraceArray
from repro.mapreduce.runner import fresh_runner
from tests.goldens import dump, sha256

CASES = {
    "city": dict(n_users=30, seed=5, pois_per_user=3),
    "seam": dict(
        n_users=12, seed=8, pois_per_user=3, region=((84.96, 85.04), (179.9, 179.96))
    ),
}
#: A budget small enough that the blocking shuffle spills sorted runs.
BUDGETS = {"plain": None, "spill": 0.005}
OUTPUTS = ("fingerprints-train", "fingerprints-target", "links")


def run_case(case: str, budget_mb: "float | None") -> dict:
    train, target, truth = synthetic_linkage_corpus(**CASES[case])
    with fresh_runner(
        {"input/train": train, "input/target": target},
        chunk_size=16 * 1024,
        n_workers=3,
        backend="serial",
        budget_mb=budget_mb,
        record_bytes=64,
    ) as runner:
        outcome = run_linkage_attack(
            runner, "input/train", "input/target", truth, params=SYNTH_ATTACK_PARAMS
        )
        outputs = {
            name: sha256(
                pickle.dumps(
                    list(runner.hdfs.read_records(f"tmp/linkage/{name}")),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            for name in OUTPUTS
        }
        history = runner.history.to_json_obj()
    jobs = {
        event["job"]: event["data"]["counters"]
        for event in history["events"]
        if event["kind"] == "job_finish"
    }
    return {
        "signature": outcome.signature(),
        "pairs_scored": outcome.pairs_scored,
        "pairs_exact": outcome.pairs_exact,
        "sim_seconds": outcome.sim_seconds.hex(),
        "history_sha256": sha256(json.dumps(history, sort_keys=True).encode()),
        "spilled": any(event["kind"] == "spill_start" for event in history["events"]),
        "jobs": jobs,
        "outputs_sha256": outputs,
    }


def build_linkage() -> str:
    return dump({
        "numpy": np.__version__,
        "runs": {
            f"{case}/{label}": run_case(case, budget)
            for case in CASES
            for label, budget in BUDGETS.items()
        },
    })


def gates_linkage(doc: dict) -> list[str]:
    """Every run's blocking is exact (``pairs_scored == pairs_exact``),
    and its ``linkage-score`` job shuffles the bytes its mappers emit:
    the cost model charges what the job ships."""
    problems = []
    for label, run in doc["runs"].items():
        if run["pairs_scored"] != run["pairs_exact"]:
            problems.append(
                f"{label}: scored {run['pairs_scored']} pairs, "
                f"the audit counts {run['pairs_exact']}"
            )
        task = run["jobs"]["linkage-score"]["task"]
        if task["map_output_bytes"] != task["shuffle_bytes"]:
            problems.append(
                f"{label}: linkage-score emits {task['map_output_bytes']} map output bytes "
                f"but shuffles {task['shuffle_bytes']}"
            )
    return problems


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


def fingerprints_text(prints: dict) -> str:
    """The golden's text for ``{user: fingerprint}`` (indent 1, in user order)."""
    users = {name: fingerprint_doc(fp) for name, fp in prints.items()}
    return json.dumps({"numpy": np.__version__, "users": users}, indent=1) + "\n"


def build_fingerprints() -> str:
    return fingerprints_text({
        name: fingerprint_user(
            TraceArray.from_columns(name, lat, lon, ts), PARAMS, MAX_POIS, ATTACH_RADIUS_M,
        )
        for name, (lat, lon, ts) in corpus().items()
    })
