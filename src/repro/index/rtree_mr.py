"""MapReduce construction of a global R-tree (Section VII-C, Figure 6).

The construction proceeds in three phases, the first two MapReduced and
the third sequential (its computational complexity is low):

1. **Partitioning function** (Algorithms 6–7): each mapper samples a
   predefined number of objects from its chunk and outputs their
   space-filling-curve scalars; a single reducer sorts the collected
   sample and picks the ``p - 1`` partition boundaries.
2. **Small R-trees** (Algorithms 8–9): mappers assign every object of
   their chunk to a partition via the curve-plus-boundaries function
   (loaded from the first phase's output); the intermediate key is the
   partition identifier, so each of the ``p`` reducers receives one
   partition and bulk-builds its small R-tree.
3. **Merge**: the small R-trees are merged into the final index by a
   single node.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.checks import count, finite_column
from repro.index.rtree import RTree
from repro.index.spacefilling import DEFAULT_ORDER, get_curve
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import JobSpec, Mapper, Partitioner, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.types import ArrayPayload, Chunk, concrete_payload

__all__ = ["build_rtree_mapreduce", "RTreeBuildResult", "BOUNDARIES_CACHE_KEY"]

#: Distributed-cache key under which the driver publishes phase-1 output.
BOUNDARIES_CACHE_KEY = "rtree.partition_boundaries"


def _chunk_points_ids(chunk: Chunk) -> tuple[np.ndarray, np.ndarray]:
    """(points, global ids) of a chunk, vectorized.

    The paging indirection must be unwrapped before the offset check: a
    memory-budgeted deployment hands out ``PagedPayload`` wrappers, and
    treating those as offset-0 would collide every chunk's ids at zero.
    """
    array = chunk.trace_array()
    payload = concrete_payload(chunk.payload)
    offset = payload.offset if isinstance(payload, ArrayPayload) else 0
    ids = offset + np.arange(len(array), dtype=np.int64)
    return array.coordinates(), ids


class SampleCurveMapper(Mapper):
    """Phase-1 mapper: sample objects, emit their curve scalars.

    Conf keys: ``rtree.curve``, ``rtree.bounds`` (dataset MBR as a
    4-tuple), ``rtree.sample_per_chunk``, ``rtree.curve_order``.
    """

    def run(self, chunk: Chunk, ctx) -> None:
        points, _ = _chunk_points_ids(chunk)
        n = len(points)
        sample_size = min(ctx.conf.get_int("rtree.sample_per_chunk", 1024), n)
        # Seeded per task id with a *stable* hash: builtin hash() is
        # salted per interpreter, which made the sampled boundaries (and
        # the committed fig6 artifact) drift between runs and would
        # diverge across spawn-context pool workers.
        seed = zlib.crc32(ctx.task_id.encode())
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=sample_size, replace=False)
        curve = get_curve(ctx.conf.get_str("rtree.curve", "hilbert"))
        bounds = tuple(ctx.conf["rtree.bounds"])
        order = ctx.conf.get_int("rtree.curve_order", DEFAULT_ORDER)
        keys = curve(points[idx, 0], points[idx, 1], bounds, order)
        ctx.emit("sample", keys.astype(np.float64), nbytes=keys.nbytes, n_records=len(keys))


class BoundaryReducer(Reducer):
    """Phase-1 reducer: sort the pooled sample, emit partition boundaries.

    ``p - 1`` boundaries are the ``i/p`` quantiles of the sampled scalar
    distribution, so partitions receive near-equal point counts.
    """

    def reduce(self, key, values, ctx) -> None:
        pooled = np.sort(np.concatenate([np.atleast_1d(v) for v in values]))
        p = ctx.conf.get_int("rtree.partitions")  # >= 1: the driver checks it
        boundaries = np.quantile(pooled, np.arange(1, p) / p)
        ctx.emit("boundaries", boundaries, nbytes=boundaries.nbytes)


class PartitionAssignMapper(Mapper):
    """Phase-2 mapper: route every object to its partition id.

    Loads the boundaries from the distributed cache in ``setup`` (the
    paper's mappers "load output of first phase"), computes curve keys for
    the whole chunk in one vectorized pass, and emits one block per
    partition present in the chunk.
    """

    def setup(self, ctx) -> None:
        self._boundaries = np.asarray(ctx.cache.get(BOUNDARIES_CACHE_KEY), dtype=np.float64)
        self._curve = get_curve(ctx.conf.get_str("rtree.curve", "hilbert"))
        self._bounds = tuple(ctx.conf["rtree.bounds"])
        self._order = ctx.conf.get_int("rtree.curve_order", DEFAULT_ORDER)

    def run(self, chunk: Chunk, ctx) -> None:
        points, ids = _chunk_points_ids(chunk)
        keys = self._curve(points[:, 0], points[:, 1], self._bounds, self._order)
        pids = np.searchsorted(self._boundaries, keys.astype(np.float64), side="right")
        for pid in np.unique(pids):
            mask = pids == pid
            block = (ids[mask], points[mask])
            ctx.emit(
                int(pid),
                block,
                nbytes=int(ids[mask].nbytes + points[mask].nbytes),
                n_records=int(mask.sum()),
            )


class SmallRTreeReducer(Reducer):
    """Phase-2 reducer: bulk-build the small R-tree of one partition."""

    def reduce(self, key, values, ctx) -> None:
        ids = np.concatenate([v[0] for v in values])
        points = np.vstack([v[1] for v in values])
        max_entries = ctx.conf.get_int("rtree.max_entries", 32)
        tree = RTree.bulk_load(points, ids, max_entries=max_entries)
        ctx.emit(key, tree, nbytes=len(tree) * 24)


class PartitionIdPartitioner(Partitioner):
    """Routes partition id *i* to reducer ``i % n`` (identity when p == n)."""

    def partition(self, key, n_reducers: int) -> int:
        return int(key) % n_reducers


@dataclass
class RTreeBuildResult:
    """Outcome of the three-phase build."""

    tree: RTree
    boundaries: np.ndarray
    partition_sizes: dict[int, int]
    sim_seconds: float
    phase1_sim_seconds: float
    phase2_sim_seconds: float
    curve: str

    @property
    def balance_ratio(self) -> float:
        """max/mean partition size — 1.0 is perfectly balanced."""
        sizes = np.array(list(self.partition_sizes.values()), dtype=float)
        if len(sizes) == 0 or sizes.mean() == 0:
            return 1.0
        return float(sizes.max() / sizes.mean())


def _dataset_bounds(hdfs, path: str) -> tuple[float, float, float, float] | None:
    """``(min_lat, min_lon, max_lat, max_lon)`` of a trace file, or
    ``None`` when it holds no trace.

    Folds each chunk's bounding box in chunk order, so under a memory
    budget the chunks page in one at a time, in file order, and none stays
    referenced after its turn.  ``ValueError`` for a non-finite
    coordinate: its NaN would become a bound.
    """
    bounds = None
    for chunk in hdfs.chunks(path):
        array = chunk.trace_array()
        if len(array) == 0:
            continue
        finite_column(array.latitude, "coordinates")
        finite_column(array.longitude, "coordinates")
        box = array.bounding_box()
        if bounds is not None:
            box = (
                min(bounds[0], box[0]), min(bounds[1], box[1]),
                max(bounds[2], box[2]), max(bounds[3], box[3]),
            )
        bounds = box
    return bounds


def build_rtree_mapreduce(
    runner: JobRunner,
    input_path: str,
    n_partitions: int,
    curve: str = "hilbert",
    sample_per_chunk: int = 1024,
    max_entries: int = 32,
    curve_order: int = DEFAULT_ORDER,
    workdir: str = "tmp/rtree",
) -> RTreeBuildResult:
    """Run the full Figure 6 pipeline and return the merged global R-tree.

    ``input_path`` must hold traces (array or trace-record chunks).  The
    dataset MBR needed by the curve is folded by the driver chunk by chunk
    (:func:`_dataset_bounds`) — a cheap sequential pass, like the paper's
    driver-side initialization steps, holding one chunk at a time.  A
    non-finite coordinate is a ``ValueError`` before any job runs.
    """
    n_partitions = count("n_partitions", n_partitions, 1)
    # 0 would route every point to partition 0, 2.5 sample like 2.
    sample_per_chunk = count("sample_per_chunk", sample_per_chunk, 1)
    empty = RTree(max_entries=max_entries)  # validates max_entries before any job
    get_curve(curve)  # validate early
    hdfs = runner.hdfs
    bounds = _dataset_bounds(hdfs, input_path)
    if bounds is None:
        return RTreeBuildResult(empty, np.empty(0), {}, 0.0, 0.0, 0.0, curve)

    conf = Configuration(
        {
            "rtree.curve": curve,
            "rtree.bounds": bounds,
            "rtree.sample_per_chunk": sample_per_chunk,
            "rtree.partitions": n_partitions,
            "rtree.max_entries": max_entries,
            "rtree.curve_order": curve_order,
        }
    )

    phase1_out = f"{workdir}/phase1"
    hdfs.delete(phase1_out, missing_ok=True)
    res1 = runner.run(
        JobSpec(
            name="rtree-phase1-sample",
            mapper=SampleCurveMapper,
            reducer=BoundaryReducer,
            input_paths=[input_path],
            output_path=phase1_out,
            conf=conf,
            num_reducers=1,
        )
    )
    records = hdfs.read_records(phase1_out)
    boundaries = np.asarray(records[0][1], dtype=np.float64)
    runner.cache.replace(BOUNDARIES_CACHE_KEY, boundaries)

    phase2_out = f"{workdir}/phase2"
    hdfs.delete(phase2_out, missing_ok=True)
    res2 = runner.run(
        JobSpec(
            name="rtree-phase2-build",
            mapper=PartitionAssignMapper,
            reducer=SmallRTreeReducer,
            input_paths=[input_path],
            output_path=phase2_out,
            conf=conf,
            num_reducers=n_partitions,
            partitioner=PartitionIdPartitioner(),
        )
    )
    small_trees: list[tuple[int, RTree]] = sorted(
        ((int(k), v) for k, v in hdfs.read_records(phase2_out)), key=lambda kv: kv[0]
    )
    partition_sizes = {pid: len(tree) for pid, tree in small_trees}
    merged = RTree.merge([tree for _, tree in small_trees])
    return RTreeBuildResult(
        tree=merged,
        boundaries=boundaries,
        partition_sizes=partition_sizes,
        sim_seconds=res1.sim_seconds + res2.sim_seconds,
        phase1_sim_seconds=res1.sim_seconds,
        phase2_sim_seconds=res2.sim_seconds,
        curve=curve,
    )
