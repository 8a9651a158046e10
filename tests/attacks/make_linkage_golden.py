"""Regenerates ``golden_linkage_jobs.json`` (checked in next to this file).

The golden pins what the MapReduce linkage attack *ships*, not only what
it concludes.  For each case below it holds:

* every job's ``job_finish`` counters (map output bytes, shuffle bytes,
  record and group counts) and the SHA-256 of the whole simulated job
  history, which carries every task's modelled seconds — the shuffle
  sizes records by pickling them, so a fingerprint whose pickle grows by
  one byte moves these;
* the SHA-256 of each HDFS output the attack writes (the two fingerprint
  files and the per-cell links), pickled, compared only under the NumPy
  major version recorded here (the array reconstructor's module path
  moved in NumPy 2);
* the outcome: ``signature``, pairs scored and exact.

=========  ==========================================================
``city``   30 users with three POIs each, the bench corpus's geometry
``seam``   12 users astride the antimeridian and the 85° polar cap,
           so covers wrap and collapse into the polar cell
=========  ==========================================================

Each case runs on the serial backend with and without a memory budget
that makes the blocking shuffle spill (run order is arrival order).
It was recorded on the commit before the attack computed blocking cells,
POI means and chains a fingerprint block at a time; a CPU-side change to
the attack must never change it.  Re-record only for a deliberate change
of what the attack ships::

    PYTHONPATH=src python tests/attacks/make_linkage_golden.py

and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import numpy as np

from repro.attacks.linkage_mr import (
    SYNTH_ATTACK_PARAMS,
    run_linkage_attack,
    synthetic_linkage_corpus,
)
from repro.mapreduce.runner import fresh_runner

GOLDEN = Path(__file__).parent / "golden_linkage_jobs.json"

CASES = {
    "city": dict(n_users=30, seed=5, pois_per_user=3),
    "seam": dict(
        n_users=12, seed=8, pois_per_user=3, region=((84.96, 85.04), (179.9, 179.96))
    ),
}
#: A budget small enough that the blocking shuffle spills sorted runs.
BUDGETS = {"plain": None, "spill": 0.005}
OUTPUTS = ("fingerprints-train", "fingerprints-target", "links")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
            name: _sha(
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
        "history_sha256": _sha(json.dumps(history, sort_keys=True).encode()),
        "spilled": any(event["kind"] == "spill_start" for event in history["events"]),
        "jobs": jobs,
        "outputs_sha256": outputs,
    }


def record() -> dict:
    return {
        "numpy": np.__version__,
        "runs": {
            f"{case}/{label}": run_case(case, budget)
            for case in CASES
            for label, budget in BUDGETS.items()
        },
    }


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, run in doc["runs"].items():
        pairs = f"{run['pairs_scored']}/{run['pairs_exact']}"
        print(f"{name:12s} {run['signature'][:16]} pairs {pairs}")
