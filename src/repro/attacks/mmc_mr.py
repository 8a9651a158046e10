"""MapReduced Mobility Markov Chain learning (Section VIII future work).

"In the future we aim at integrating other inference techniques within
the MapReduced framework of GEPETO.  In particular, we want to develop
algorithms for learning a mobility model out of the mobility traces of
an individual, such as Mobility Markov Chains."

The MapReduce decomposition:

* **map** — each task processes one chunk: snaps its traces to the
  nearest POI within the attachment radius (one vectorized distance pass
  per chunk), collapses consecutive repeats per user, and emits one
  *visit fragment* ``(user -> (start_ts, state sequence))`` per user
  present in the chunk;
* **reduce** — each reducer receives all fragments of its users, stitches
  them in time order (collapsing duplicated states at chunk seams),
  counts visit-to-visit transitions and emits the per-user chain.

Unlike the map-only jobs, this decomposition is *exact*: the reducer
holds every fragment of a user, so the result equals the sequential
:func:`repro.attacks.mmc.build_mmc` for any chunking of a time-sorted
dataset.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.mmc import MobilityMarkovChain
from repro.geo.distance import haversine_m
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.types import Chunk

__all__ = ["run_mmc_mapreduce", "POI_COORDS_CACHE_KEY", "VisitFragmentMapper", "MMCReducer"]

#: Distributed-cache key under which the driver publishes the POI table.
POI_COORDS_CACHE_KEY = "mmc.poi_coords"


class VisitFragmentMapper(Mapper):
    """Emit per-user POI-visit fragments for one chunk (vectorized)."""

    def setup(self, ctx) -> None:
        self._pois = np.asarray(ctx.cache.get(POI_COORDS_CACHE_KEY), dtype=np.float64)
        self._radius = ctx.conf.get_float("mmc.attach_radius_m", 200.0)

    def run(self, chunk: Chunk, ctx) -> None:
        array = chunk.trace_array()
        n = len(array)
        if n == 0 or len(self._pois) == 0:
            return
        # One broadcasted distance evaluation: (n_traces, n_pois).
        d = np.atleast_2d(
            haversine_m(
                array.latitude[:, None],
                array.longitude[:, None],
                self._pois[None, :, 0],
                self._pois[None, :, 1],
            )
        )
        nearest = np.argmin(d, axis=1)
        within = d[np.arange(n), nearest] <= self._radius
        users = array.user_index
        ts = array.timestamp
        for uidx in np.unique(users):
            mask = (users == uidx) & within
            if not mask.any():
                continue
            # The chunk slices a (user, time)-sorted file, so this user's
            # rows are already in time order within the chunk.
            states = nearest[mask]
            stamps = ts[mask]
            change = np.ones(len(states), dtype=bool)
            change[1:] = states[1:] != states[:-1]
            fragment_states = states[change].astype(np.int64)
            ctx.emit(
                array.users[int(uidx)],
                (float(stamps[0]), fragment_states),
                nbytes=int(fragment_states.nbytes + 8),
                n_records=int(len(fragment_states)),
            )


class MMCReducer(Reducer):
    """Stitch a user's fragments and count transitions."""

    def setup(self, ctx) -> None:
        self._n_states = len(np.asarray(ctx.cache.get(POI_COORDS_CACHE_KEY)))
        self._smoothing = ctx.conf.get_float("mmc.smoothing", 0.0)

    def reduce(self, key, values, ctx) -> None:
        fragments = sorted(values, key=lambda fragment: fragment[0])
        stitched: list[int] = []
        for _start, states in fragments:
            for state in states:
                if not stitched or stitched[-1] != state:
                    stitched.append(int(state))
        seq = np.array(stitched, dtype=np.int64)
        n = self._n_states
        counts = np.full((n, n), float(self._smoothing))
        if len(seq) >= 2:
            np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
        visit_counts = np.bincount(seq, minlength=n).astype(np.float64)
        ctx.emit(key, (counts, visit_counts), nbytes=int(counts.nbytes + visit_counts.nbytes))


def run_mmc_mapreduce(
    runner: JobRunner,
    input_path: str,
    poi_coords: np.ndarray,
    attach_radius_m: float = 200.0,
    smoothing: float = 0.0,
    num_reducers: int | None = None,
    output_path: str = "tmp/mmc/models",
) -> dict[str, MobilityMarkovChain]:
    """Learn one MMC per user over a shared POI state space, at scale.

    ``poi_coords`` is the (n_pois, 2) state table — typically the cluster
    centroids of a prior (MapReduced) DJ-Cluster run.  Returns a chain
    for every user with at least one attached trace.  The runner's job
    history records the run, like the other algorithm drivers'.
    """
    poi_coords = np.asarray(poi_coords, dtype=np.float64)
    if poi_coords.ndim != 2 or poi_coords.shape[1] != 2:
        raise ValueError("poi_coords must be an (n, 2) array")
    if len(poi_coords) == 0:
        raise ValueError("MMC learning needs at least one POI state")
    runner.cache.replace(POI_COORDS_CACHE_KEY, poi_coords)
    runner.hdfs.delete(output_path, missing_ok=True)
    runner.run(
        JobSpec(
            name="mmc-learning",
            mapper=VisitFragmentMapper,
            reducer=MMCReducer,
            input_paths=[input_path],
            output_path=output_path,
            conf=Configuration(
                {"mmc.attach_radius_m": attach_radius_m, "mmc.smoothing": smoothing}
            ),
            num_reducers=num_reducers or min(8, runner.cluster.total_reduce_slots()),
            map_cost_factor=1.8,  # distance matrix per chunk
        )
    )
    models: dict[str, MobilityMarkovChain] = {}
    n = len(poi_coords)
    for user, (counts, visit_counts) in runner.hdfs.read_records(output_path):
        row_sums = counts.sum(axis=1, keepdims=True)
        transitions = np.where(
            row_sums > 0, counts / np.where(row_sums == 0, 1, row_sums), 1.0 / n
        )
        models[str(user)] = MobilityMarkovChain(
            states=poi_coords.copy(),
            transitions=transitions,
            visit_counts=visit_counts,
        )
    return models
