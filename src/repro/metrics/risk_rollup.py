"""Re-identification risk as a MapReduce rollup over bucket occupancy.

:func:`repro.metrics.privacy.window_reidentification_risk` is a
driver-side pass over the whole release: bin every trace into a
(time window, cell) bucket, deduplicate (bucket, user) rows, then score
users that land in singleton buckets.  At streaming scale the release
lives in HDFS chunks, so this module re-expresses the same score as a
MapReduce job:

* :class:`RiskBucketMapper` vectorizes the binning per chunk (the exact
  arithmetic of ``window_reidentification_risk``, pinned by the
  equivalence tests) and emits one record per distinct
  ``(window, lat_band, lon_band, user)`` row in its chunk;
* the job's reduce is declared as a
  :class:`~repro.mapreduce.aggregation.CountAggregation`, so the
  runner ships one fixed-size envelope per (node, key) instead of one
  record per (chunk, key) — the reduce output's *keys*
  are the corpus-wide distinct (bucket, user) rows (the values only say
  how many chunks saw the row and are discarded);
* :func:`window_risk_mapreduce` turns the output rows back into a
  :class:`~repro.metrics.privacy.WindowRisk`, bit-identical to the
  driver-side score because both operate on the same deduplicated row
  set with the same integer/NumPy arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.geo.grid import unique_rows
from repro.mapreduce.aggregation import CountAggregation
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import JobSpec, Mapper
from repro.mapreduce.runner import JobResult, JobRunner
from repro.mapreduce.types import Chunk
from repro.metrics.privacy import WindowRisk, bucket_user_rows
from repro.observability.events import EventKind

__all__ = [
    "RiskBucketMapper",
    "window_risk_mapreduce",
    "risk_from_rows",
]


class RiskBucketMapper(Mapper):
    """Distinct (window, cell, user) rows of one chunk (vectorized).

    Bins through the same :func:`repro.metrics.privacy.bucket_user_rows`
    as :func:`~repro.metrics.privacy.window_reidentification_risk`, so the
    union of all chunks' rows equals the driver-side row set.  Conf keys:
    ``risk.cell_m`` and ``risk.window_s``.
    """

    def run(self, chunk: Chunk, ctx) -> None:
        cell_m = ctx.conf.get_float("risk.cell_m")
        window_s = ctx.conf.get_float("risk.window_s")
        array = chunk.trace_array()
        rows = bucket_user_rows(array, cell_m, window_s)
        for w, la, lo, ui in zip(*(column.tolist() for column in rows)):
            ctx.emit((w, la, lo, array.users[ui]), 1, nbytes=40)


def risk_from_rows(rows: "list[tuple[int, int, int, str]]") -> WindowRisk:
    """Score a deduplicated (window, lat_band, lon_band, user) row set.

    The same tail as :func:`window_reidentification_risk` once the rows
    are unique: bucket populations are distinct-user counts, exposed
    users occupy a singleton bucket.
    """
    if not rows:
        return WindowRisk(0, 0, 0.0, 0, 0.0)
    *bucket, users = zip(*rows)
    _, bucket_ids, counts = unique_rows(
        *(np.array(column, dtype=np.int64) for column in bucket),
        return_inverse=True, return_counts=True,
    )
    sizes = counts[bucket_ids]
    n_users = len(set(users))
    exposed = len({u for u, s in zip(users, sizes.tolist()) if s == 1})
    return WindowRisk(
        n_users=n_users,
        exposed_users=exposed,
        risk=exposed / n_users,
        min_anonymity=int(counts.min()),
        median_anonymity=float(np.median(counts)),
    )


def window_risk_mapreduce(
    runner: JobRunner,
    input_path: str,
    output_path: str,
    cell_m: float = 500.0,
    window_s: float = 3600.0,
    name: str = "risk-rollup",
    num_reducers: int = 2,
    history_path: "str | None" = None,
) -> "tuple[WindowRisk, JobResult]":
    """Compute :class:`WindowRisk` for a release as a MapReduce rollup.

    The job's reduce is a declared :class:`CountAggregation`: its only
    role is deduplicating (bucket, user) rows across chunks, so the
    shuffle moves one fixed-size envelope per (node, row) instead of one
    record per (chunk, row).  Returns the
    risk score plus the underlying :class:`JobResult`; the score is
    bit-identical to driver-side
    :func:`~repro.metrics.privacy.window_reidentification_risk` on the
    same release (the streaming equivalence tests pin this down).
    """
    conf = Configuration({"risk.cell_m": cell_m, "risk.window_s": window_s})
    spec = JobSpec(
        name=name,
        mapper=RiskBucketMapper,
        aggregation=CountAggregation,
        input_paths=[input_path],
        output_path=output_path,
        num_reducers=num_reducers,
        conf=conf,
        map_cost_factor=0.4,  # one unique() pass per chunk
    )
    result = runner.run(spec)
    rows = [key for key, _count in runner.hdfs.read_records(output_path)]
    risk = risk_from_rows(rows)
    runner.history.emit(
        EventKind.DRIVER_ANNOTATION,
        result.job_name,
        runner.history.clock,
        driver="risk-rollup",
        rows=len(rows),
        risk=risk.risk,
        min_anonymity=risk.min_anonymity,
    )
    if history_path is not None:
        runner.history.save(history_path)
    return risk, result
