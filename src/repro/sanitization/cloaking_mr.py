"""MapReduced spatial cloaking (the paper's "later stage" mechanism).

Spatial cloaking cannot run as a map-only job: deciding whether a cell
reaches k distinct users requires seeing *all* users in that cell, which
is exactly what a shuffle provides.  The decomposition:

* **map** — each task buckets its chunk's traces by
  ``(time window, cell at the coarsest level)`` and emits one block per
  bucket;
* **reduce** — each reducer receives every trace of its
  (window, macro-cell) buckets — a *closed world* for the adaptive
  algorithm, because :class:`~repro.sanitization.cloaking.SpatialCloaking`
  only ever coarsens up to that same macro level, so no decision ever
  needs data outside the bucket — and applies the sequential cloaking
  verbatim.

This makes the MapReduce result *exactly* equal to the sequential
dataset-level cloaking, for any chunking and any reducer count, which
the tests assert.
"""

from __future__ import annotations


import numpy as np

from repro.geo.grid import unique_rows
from repro.geo.trace import TraceArray
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.types import Chunk
from repro.sanitization.cloaking import SpatialCloaking

__all__ = ["run_cloaking_mapreduce", "CloakBucketMapper", "CloakReducer"]


def _macro_buckets(array: TraceArray, cloak: SpatialCloaking) -> np.ndarray:
    """(window, macro_lat, macro_lon) triple per trace: the quadtree cell
    at the coarsest level, shared with ``SpatialCloaking.base_cells``."""
    cells = cloak.base_cells(array).copy()
    shift = cloak.max_levels - 1
    cells[:, 1] >>= shift
    cells[:, 2] >>= shift
    return cells


def _cloak_from_conf(conf: Configuration) -> SpatialCloaking:
    return SpatialCloaking(
        k=conf.get_int("cloak.k"),
        base_cell_m=conf.get_float("cloak.base_cell_m"),
        window_s=conf.get_float("cloak.window_s"),
        max_levels=conf.get_int("cloak.max_levels"),
    )


class CloakBucketMapper(Mapper):
    """Route each trace to its (window, macro-cell) bucket."""

    def setup(self, ctx) -> None:
        self._cloak = _cloak_from_conf(ctx.conf)

    def run(self, chunk: Chunk, ctx) -> None:
        array = chunk.trace_array()
        buckets = _macro_buckets(array, self._cloak)
        _, inverse = unique_rows(*buckets.T, return_inverse=True)
        for group in np.unique(inverse):
            mask = inverse == group
            block = array[mask]
            key = tuple(int(v) for v in buckets[np.flatnonzero(mask)[0]])
            ctx.emit(key, block, nbytes=len(block) * 64, n_records=len(block))


class CloakReducer(Reducer):
    """Apply the sequential adaptive cloaking within each closed bucket."""

    def setup(self, ctx) -> None:
        self._cloak = _cloak_from_conf(ctx.conf)

    def reduce(self, key, values, ctx) -> None:
        merged = TraceArray.concatenate(list(values))
        cloaked = self._cloak.sanitize_array(merged)
        if len(cloaked):
            ctx.emit_array(cloaked)


def run_cloaking_mapreduce(
    runner: JobRunner,
    cloak: SpatialCloaking,
    input_path: str,
    output_path: str,
    num_reducers: int | None = None,
):
    """Run k-anonymity spatial cloaking as a full MapReduce job."""
    conf = Configuration(
        {
            "cloak.k": cloak.k,
            "cloak.base_cell_m": cloak.base_cell_m,
            "cloak.window_s": cloak.window_s,
            "cloak.max_levels": cloak.max_levels,
        }
    )
    return runner.run(
        JobSpec(
            name="spatial-cloaking",
            mapper=CloakBucketMapper,
            reducer=CloakReducer,
            input_paths=[input_path],
            output_path=output_path,
            conf=conf,
            num_reducers=num_reducers or max(2, runner.cluster.total_reduce_slots() // 2),
            map_cost_factor=0.9,
            reduce_cost_factor=1.5,
        )
    )
