"""Shuffle and sort: routing map output to reducers.

The shuffle is "the only communication step in MapReduce" (Section III):
every intermediate pair is routed by the partitioner to one reduce task,
and each reduce task sees its keys in sorted order with all values for a
key grouped together.  This module implements that data movement plus the
byte accounting the cost model charges as network transfer.
"""

from __future__ import annotations

import contextlib
import gc
import operator
from collections import defaultdict
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.mapreduce.aggregation import AggregateEnvelope, coalesce_by_node
from repro.mapreduce.job import ConstantKeyPartitioner, HashPartitioner, Partitioner
from repro.mapreduce.spill import ShuffleSpiller, SpilledPartition, as_groups, as_pairs
from repro.mapreduce.types import SIZED_WITHOUT_PICKLE, estimate_nbytes
from repro.observability.events import ShufflePreagg, SpillMerge, SpillStart

__all__ = ["shuffle", "group_sorted", "ShuffleResult"]


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend the cyclic GC around bulk container construction.

    Building a million short-lived tuples/lists triggers repeated
    generational collections that each traverse the whole (large) heap —
    measured at ~5x the actual construction cost.  Nothing allocated
    here is cyclic, so pausing collection is safe; the previous GC state
    is always restored.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _sort_key(key: Any) -> tuple[str, str, Any]:
    """Total order over heterogeneous keys: numbers first, then type/repr.

    Hadoop sorts by serialized key bytes; for arbitrary Python keys the
    analogous deterministic order is (type name, repr) — except numbers,
    which repr-ordering would sort lexicographically ("10.0" < "2.0").
    All real numbers share one bucket (tagged with a NUL so it sorts
    before every type name) and order by numeric value, matching the
    natural order the homogeneous fast paths produce.  The third tuple
    slot carries the number; for non-numbers it is a constant so tuples
    never compare a number against a string.
    """
    if isinstance(key, (int, float)):
        return ("\x00number", "", key)
    return (type(key).__name__, repr(key), 0)


def _key_array(keys: list[Any]) -> np.ndarray | None:
    """Homogeneous int/float/str keys as a sortable NumPy array, else ``None``.

    The array must reproduce Python's comparison semantics exactly:

    * ``bool`` is excluded (``True`` and ``1`` are the *same* dict key in
      the generic path, but distinct int64 values here);
    * ints beyond int64 overflow and fall back;
    * floats qualify unless any is NaN — ``np.argsort`` sorts NaN to the
      end while Python's ``sorted`` leaves it wherever comparisons stop
      moving it, so NaN streams fall back to the generic path (``-0.0``
      and ``0.0`` are safe: equal, hence grouped, on both paths);
    * mixed ``{int, float}`` falls back — a float64 cast of a large int
      can collide with a neighbouring float that is a *distinct* dict key;
    * strings containing NUL fall back — NumPy's fixed-width unicode
      dtype pads with NUL, so ``"a"`` and ``"a\\x00"`` would collide.
    Otherwise NumPy's codepoint-wise ``<U`` comparison matches Python's
    ``str`` ordering and int64/float64 match int/float ordering.  The
    homogeneity check runs as one C-level ``set(map(type, ...))`` pass,
    not a Python loop — this sits on the million-record shuffle hot path.
    """
    kinds = set(map(type, keys))
    if kinds == {int}:
        try:
            return np.array(keys, dtype=np.int64)
        except OverflowError:
            return None
    if kinds == {float}:
        arr = np.array(keys, dtype=np.float64)
        if np.isnan(arr).any():
            return None
        return arr
    if kinds == {str}:
        if any("\x00" in k for k in keys):
            return None
        return np.array(keys, dtype=np.str_)
    return None


def _group_from_arrays(
    sub_keys: np.ndarray,
    positions: np.ndarray,
    keys: list[Any],
    values: list[Any],
) -> list[tuple[Any, list[Any]]]:
    """Sorted key groups from a key array + positions into flat lists.

    A stable argsort keeps values in arrival order within each key, so
    the output is element-identical to the generic dict-and-sort path.
    """
    order = np.argsort(sub_keys, kind="stable")
    sorted_keys = sub_keys[order]
    flat = positions[order]
    starts, ends = _group_bounds(sorted_keys)
    # Bulk C-level gathers and slices; a per-record Python loop here is
    # pathological when most keys are unique (a million tiny groups).
    with _gc_paused():
        vals_sorted = list(map(values.__getitem__, flat.tolist()))
        first_keys = list(map(keys.__getitem__, flat[starts].tolist()))
        return [
            (k, vals_sorted[s:e])
            for k, s, e in zip(first_keys, starts.tolist(), ends.tolist())
        ]


def _group_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end index arrays of the equal-key runs in a sorted key array."""
    bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sorted_keys)]))
    return starts, ends


def _group_sorted_generic(pairs: list[tuple[Any, Any]]) -> list[tuple[Any, list[Any]]]:
    """Reference grouping: dict accumulation + one sort over the keys."""
    grouped: dict[Any, list[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    try:
        ordered = sorted(grouped)  # natural order when keys are comparable
    except TypeError:
        ordered = sorted(grouped, key=_sort_key)
    return [(key, grouped[key]) for key in ordered]


def group_sorted(pairs: list[tuple[Any, Any]]) -> list[tuple[Any, list[Any]]]:
    """Group values by key, keys emitted in sorted order.

    Within one key, values keep their arrival order (Hadoop makes no
    ordering promise for values; arrival order keeps runs deterministic
    because map outputs are concatenated in task order).

    Homogeneous int/float/str key streams take a vectorized stable-argsort
    path; anything else uses the generic dict-and-sort.  Both produce
    identical output (``tests/mapreduce/test_shuffle_fastpath.py``).
    """
    if not pairs:
        return []
    keys = [k for k, _ in pairs]
    arr = _key_array(keys)
    if arr is None:
        return _group_sorted_generic(pairs)
    values = [v for _, v in pairs]
    return _group_from_arrays(arr, np.arange(len(keys), dtype=np.int64), keys, values)


# -- vectorized partitioning -------------------------------------------------

_FNV_OFFSET = np.uint64(2166136261)
_FNV_PRIME = np.uint64(16777619)
_FNV_MASK = np.uint64(0xFFFFFFFF)


def _fnv1a_int_hashes(arr: np.ndarray) -> np.ndarray:
    """Vectorized ``HashPartitioner._stable_hash`` over an int64 array.

    ``repr`` of an int is its decimal digit string and every character is
    ASCII, so the UTF-8 bytes the scalar hash consumes equal the UCS-4
    codepoints of ``str(value)``.  ``astype(str)`` yields a fixed-width
    NUL-padded unicode array; columns are folded into the hash only where
    the codepoint is nonzero (digit strings have no interior NULs).
    """
    digits = arr.astype(np.str_)
    width = digits.dtype.itemsize // 4
    codes = digits.view(np.uint32).reshape(len(arr), width).astype(np.uint64)
    h = np.full(len(arr), _FNV_OFFSET, dtype=np.uint64)
    used = np.flatnonzero((codes != 0).any(axis=0))  # skip all-padding columns
    for j in used:
        col = codes[:, j]
        h = np.where(col != 0, ((h ^ col) * _FNV_PRIME) & _FNV_MASK, h)
    return h


class ShuffleResult:
    """Outcome of a shuffle: per-reducer key groups plus byte accounting.

    Partitions are either in-memory group lists or, after an external
    (spilled) shuffle, :class:`~repro.mapreduce.spill.SpilledPartition`
    handles whose groups stay on disk until a reduce task loads them.
    Metadata queries (:meth:`records_for`, :meth:`groups_for`,
    ``partition_bytes``) never touch disk; :attr:`partitions` and
    :meth:`partition` materialize.
    """

    def __init__(
        self,
        partitions: list[list[tuple[Any, list[Any]]] | SpilledPartition],
        shuffled_bytes: int,
        partition_bytes: list[int] | None = None,
    ):
        self._partitions = partitions
        self.shuffled_bytes = shuffled_bytes
        self.partition_bytes = (
            partition_bytes if partition_bytes is not None else [0] * len(partitions)
        )
        #: The external path's ``spill_start`` per run and ``spill_merge``
        #: per partition (empty when the shuffle ran in memory); the
        #: runner prices their IO and emits them.
        self.spill_runs: list[SpillStart] = []
        self.spill_merges: list[SpillMerge] = []
        #: Per-partition ``{source node: bytes}`` provenance, recorded by
        #: the metadata-only path — the input of the cross-node byte
        #: counter.  ``None`` when the shuffle has no provenance (every job without an aggregation).
        self.node_bytes: list[dict[str, int]] | None = None
        #: The metadata-only path's ``shuffle_preagg`` (``None`` otherwise),
        #: its ``cross_node_bytes`` left to the runner.
        self.preagg: ShufflePreagg | None = None

    @property
    def partitions(self) -> list[list[tuple[Any, list[Any]]]]:
        """Every partition's groups, materialized (loads spilled ones)."""
        return [as_groups(p) for p in self._partitions]

    @property
    def n_reducers(self) -> int:
        return len(self._partitions)

    def raw_partition(self, r: int) -> "list[tuple[Any, list[Any]]] | SpilledPartition":
        """One partition as stored — a spill handle stays a handle, so it
        can cross to a worker process without shipping the data."""
        return self._partitions[r]

    def records_for(self, partition: int) -> int:
        p = self._partitions[partition]
        if isinstance(p, SpilledPartition):
            return p.n_records
        return sum(len(values) for _, values in p)

    def raw_records_for(self, partition: int) -> int:
        """Raw mapper records behind a partition's shipped records.

        Equal to :meth:`records_for` for a job without an aggregation; on
        the metadata-only path each shipped envelope stands in for the many
        mapper records folded into it, and this reports that true count
        (the history layer's per-reducer accounting uses it).
        """
        if self.preagg is None:
            return self.records_for(partition)
        return sum(
            env.records
            for _, values in self._partitions[partition]
            for env in values
        )

    def groups_for(self, partition: int) -> int:
        p = self._partitions[partition]
        if isinstance(p, SpilledPartition):
            return p.n_groups
        return len(p)

    def release(self) -> None:
        """Delete spilled partition files (call once reducers are done)."""
        for p in self._partitions:
            if isinstance(p, SpilledPartition):
                p.delete()


def shuffle(
    map_outputs: Sequence[list[tuple[Any, Any]]],
    partitioner: Partitioner,
    n_reducers: int,
    spiller: ShuffleSpiller | None = None,
    aggregation=None,
) -> ShuffleResult:
    """Partition, transfer and sort the map outputs.

    ``map_outputs`` is one list of (key, value) pairs per completed map
    task, in task order (entries may be
    :class:`~repro.mapreduce.spill.SpilledMapOutput` handles when a worker
    spilled its output under a memory budget); each is read once.
    Returns sorted, grouped input per reduce task and the total modelled
    bytes crossing the network.

    Every record passes through one routing stage (:func:`_route`:
    partition, range check, wire size) into one of two sinks: in-memory
    buckets, or — with a ``spiller`` (memory-budgeted runs) — the
    external merge sort, which hands its buffer back to the in-memory
    grouping when nothing spilled.  The framework's own partitioners
    over homogeneous key streams skip the per-record loop for a
    vectorized implementation of the same stage (argsort grouping, FNV
    hashing in NumPy).  With an ``aggregation`` (a job's declared
    monoid) every map output value is a pre-aggregated
    :class:`~repro.mapreduce.aggregation.AggregateEnvelope`: they are
    routed in memory — fixed-size metadata is never worth spilling —
    then coalesced to one envelope per (source node, partition,
    key-group), with per-node byte provenance recorded.  Without one,
    all paths produce identical :class:`ShuffleResult` contents.
    """
    if n_reducers < 1:
        raise ValueError("n_reducers must be >= 1")
    if aggregation is not None:
        return _shuffle_metadata(map_outputs, partitioner, n_reducers, aggregation)
    if spiller is not None:
        return _shuffle_external(map_outputs, partitioner, n_reducers, spiller)
    # Both in-memory paths end up holding every record, so load spilled
    # outputs once, up front: a fast path that declines has not cost the
    # generic one a second read.
    map_outputs = [as_pairs(output) for output in map_outputs]
    fast = _shuffle_fast(map_outputs, partitioner, n_reducers)
    if fast is not None:
        return fast
    return _shuffle_generic(map_outputs, partitioner, n_reducers)


def _route(
    pairs: Iterable[tuple[Any, Any]],
    partitioner: Partitioner,
    n_reducers: int,
    pickled_sizes: dict[int, int],
    envelopes: bool = False,
) -> Iterator[tuple[int, int, Any, Any]]:
    """The routing stage: ``(partition, wire bytes, key, value)`` per record.

    The one per-record place that asks the partitioner, range-checks its
    answer and sizes a record (:func:`_shuffle_fast` is its vectorized
    twin).  An envelope travels at its fixed ``nbytes``; any other value
    costs ``estimate_nbytes``, and one whose size costs a pickle is sized
    once per *object* through ``pickled_sizes`` (one fingerprint emitted
    to every blocking cell is charged per emission, pickled once).  The
    memo is keyed by ``id``, so it is the caller's for as long as the
    sink keeps the routed values alive — and no longer.
    """
    for key, value in pairs:
        part = partitioner.partition(key, n_reducers)
        if not 0 <= part < n_reducers:
            raise ValueError(
                f"partitioner returned {part} for {n_reducers} reducers"
            )
        if envelopes:
            if not isinstance(value, AggregateEnvelope):
                raise TypeError(
                    "a declared aggregation shuffles pre-aggregated envelopes; "
                    f"key {key!r} carries a raw {type(value).__name__}"
                )
            nbytes = value.nbytes
        elif isinstance(value, SIZED_WITHOUT_PICKLE):
            nbytes = estimate_nbytes(key) + estimate_nbytes(value)
        else:
            value_bytes = pickled_sizes.get(id(value))
            if value_bytes is None:
                value_bytes = pickled_sizes[id(value)] = estimate_nbytes(value)
            nbytes = estimate_nbytes(key) + value_bytes
        yield part, nbytes, key, value


def _grouped(
    buckets: list[list[tuple[Any, Any]]], partition_bytes: list[int]
) -> ShuffleResult:
    """The in-memory sink's result: each routed bucket sorted and grouped."""
    partitions = [group_sorted(bucket) for bucket in buckets]
    return ShuffleResult(partitions, sum(partition_bytes), partition_bytes)


def _shuffle_generic(
    map_outputs: Sequence[list[tuple[Any, Any]]],
    partitioner: Partitioner,
    n_reducers: int,
    envelopes: bool = False,
) -> ShuffleResult:
    """Reference shuffle: the routing stage into in-memory buckets.

    The buckets keep every value alive, so one size memo serves the
    whole shuffle.
    """
    buckets: list[list[tuple[Any, Any]]] = [[] for _ in range(n_reducers)]
    partition_bytes = [0] * n_reducers
    pickled_sizes: dict[int, int] = {}
    for task_output in map_outputs:
        for part, nbytes, key, value in _route(
            as_pairs(task_output), partitioner, n_reducers, pickled_sizes, envelopes
        ):
            buckets[part].append((key, value))
            partition_bytes[part] += nbytes
    return _grouped(buckets, partition_bytes)


def _shuffle_external(
    map_outputs: Sequence[list[tuple[Any, Any]]],
    partitioner: Partitioner,
    n_reducers: int,
    spiller: ShuffleSpiller,
) -> ShuffleResult:
    """Memory-budgeted shuffle: the routing stage into the spiller.

    Routed records are fed in task order; the spiller cuts a stably
    sorted run to disk whenever its buffer exceeds the budget, then
    k-way merges the runs per partition.  Because each run covers a
    contiguous arrival window and both the per-run sort and
    ``heapq.merge`` are stable, equal keys come out in arrival order —
    the same groups, in the same order, as the in-memory sink.

    When nothing spilled (everything fit in the budget) or the key
    stream turned out unsortable, the spiller hands back what it holds,
    already routed and sized, and the in-memory grouping finishes the
    job (for keys that turn unsortable *after* runs exist that means
    reloading them: correctness over budget — mirroring real Hadoop,
    where unsortable keys are simply a job error).
    """
    pickled_sizes: dict[int, int] = {}
    for task_output in map_outputs:
        runs_cut = len(spiller.runs)
        spiller.feed(
            _route(as_pairs(task_output), partitioner, n_reducers, pickled_sizes)
        )
        if len(spiller.runs) != runs_cut:
            # The run took its records out of memory: their ids can
            # name other objects from here on.
            pickled_sizes.clear()
    spiller.finish()
    if spiller.disabled or not spiller.spilled():
        return _grouped(spiller.drain(), list(spiller.partition_bytes))
    partitions, merge_events = spiller.merge()
    result = ShuffleResult(
        partitions,
        sum(spiller.partition_bytes),
        list(spiller.partition_bytes),
    )
    result.spill_runs = list(spiller.run_events)
    result.spill_merges = merge_events
    return result


def _shuffle_metadata(
    map_outputs: Sequence[list[tuple[Any, Any]]],
    partitioner: Partitioner,
    n_reducers: int,
    aggregation,
) -> ShuffleResult:
    """Metadata-only shuffle of pre-aggregated envelopes.

    Routing and grouping are the in-memory sink's; what is specific
    here is the transport: each key-group's envelopes are coalesced so
    one fixed-size envelope per (source node, key-group) crosses the
    network.  The coalescing replays the canonical per-node fold the
    reducer applies anyway, so reduce output is byte-identical to
    shipping every per-task envelope.  Byte accounting charges
    ``env.nbytes`` per shipped envelope and records per-node provenance
    for the cross-node byte counter.
    """
    routed = _shuffle_generic(map_outputs, partitioner, n_reducers, envelopes=True)
    partitions: list[list[tuple[Any, list[Any]]]] = []
    partition_bytes: list[int] = []
    node_bytes: list[dict[str, int]] = []
    pre_coalesce = n_envelopes = raw_records = 0
    for groups in routed.partitions:
        shipped = []
        nbytes = 0
        per_node: dict[str, int] = {}
        for key, envs in groups:
            pre_coalesce += len(envs)
            coalesced = coalesce_by_node(aggregation, envs)
            shipped.append((key, coalesced))
            for env in coalesced:
                nbytes += env.nbytes
                per_node[env.node] = per_node.get(env.node, 0) + env.nbytes
                n_envelopes += 1
                raw_records += env.records
        partitions.append(shipped)
        partition_bytes.append(nbytes)
        node_bytes.append(per_node)
    result = ShuffleResult(partitions, sum(partition_bytes), partition_bytes)
    result.node_bytes = node_bytes
    result.preagg = ShufflePreagg(
        envelopes=n_envelopes,
        envelope_bytes=sum(partition_bytes),
        pre_coalesce_envelopes=pre_coalesce,
        raw_records=raw_records,
    )
    return result


def _shuffle_fast(
    map_outputs: Sequence[list[tuple[Any, Any]]],
    partitioner: Partitioner,
    n_reducers: int,
) -> ShuffleResult | None:
    """Vectorized shuffle, or ``None`` when inputs don't qualify.

    Applies only to the framework's own partitioners (``type`` check, not
    ``isinstance`` — a subclass may override ``partition``) over key
    streams :func:`_key_array` accepts; ``HashPartitioner`` additionally
    requires int keys so the FNV digit-string hash applies.  Partition
    indices are computed by construction-in-range NumPy ops, byte
    accounting uses exact int64 accumulation, and grouping reuses the
    same stable-argsort kernel as :func:`group_sorted` — so results are
    element-identical to :func:`_shuffle_generic`.
    """
    if type(partitioner) not in (HashPartitioner, ConstantKeyPartitioner):
        return None
    flat: list[tuple[Any, Any]] = []
    for task_output in map_outputs:
        flat.extend(as_pairs(task_output))
    if not flat:
        return _shuffle_generic(map_outputs, partitioner, n_reducers)
    keys = list(map(operator.itemgetter(0), flat))
    arr = _key_array(keys)
    if arr is None:
        return None
    n = len(keys)
    values = list(map(operator.itemgetter(1), flat))
    # One global stable sort serves both routing and grouping: equal keys
    # land in one partition, and a partition's groups restricted from the
    # globally sorted sequence are already in sorted key order with values
    # in arrival order — exactly what group_sorted produces per bucket.
    order = np.argsort(arr, kind="stable")
    sorted_keys = arr[order]
    starts, ends = _group_bounds(sorted_keys)
    if type(partitioner) is HashPartitioner:
        if arr.dtype != np.int64:
            return None  # repr-of-str hashing (quoting, escapes) stays scalar
        group_parts = (
            _fnv1a_int_hashes(sorted_keys[starts]) % np.uint64(n_reducers)
        ).astype(np.int64)
    else:
        group_parts = np.zeros(len(starts), dtype=np.int64)
    if arr.dtype == np.int64:
        key_bytes = np.full(n, 8, dtype=np.int64)  # estimate_nbytes(int) == 8
    else:
        key_bytes = np.fromiter(
            (estimate_nbytes(k) for k in keys), dtype=np.int64, count=n
        )
    if set(map(type, values)) <= {int, float}:
        value_bytes = np.full(n, 8, dtype=np.int64)
    else:
        value_bytes = np.fromiter(
            (estimate_nbytes(v) for v in values), dtype=np.int64, count=n
        )
    group_bytes = np.add.reduceat((key_bytes + value_bytes)[order], starts)
    partition_bytes = [
        int(group_bytes[group_parts == r].sum()) for r in range(n_reducers)
    ]
    with _gc_paused():
        vals_sorted = list(map(values.__getitem__, order.tolist()))
        first_keys = list(map(keys.__getitem__, order[starts].tolist()))
        partitions: list[list[tuple[Any, list[Any]]]] = [
            [] for _ in range(n_reducers)
        ]
        for k, s, e, p in zip(
            first_keys, starts.tolist(), ends.tolist(), group_parts.tolist()
        ):
            partitions[p].append((k, vals_sorted[s:e]))
    return ShuffleResult(partitions, sum(partition_bytes), partition_bytes)

