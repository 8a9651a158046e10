"""Aggregation algebra: declaring a reduce as an associative monoid.

Meta-MapReduce (arXiv:1508.01171) observes that when the reduce step is a
pure aggregation, the shuffle need not move data at all — only *metadata*
about the data: small, fixed-size partial aggregates.  This module gives a
job a way to declare that structure.  An :class:`Aggregation` is a monoid
over per-key partials:

* ``lift(key, value)`` turns one raw mapper output value into a partial;
* ``merge(acc, partial)`` combines two partials (associative by contract);
* ``finalize(key, acc, ctx)`` emits the reduce output for a key;
* ``lift_pairs(pairs)`` optionally vectorizes the lift+merge of a whole
  map task's output in one NumPy pass (integer rollups use
  ``np.add.reduceat`` on the columnar key/value arrays).

A declared aggregation *is* the job's reduce: the runner pre-aggregates
map output inside the backend attempt loop — each map task ships one
tiny :class:`AggregateEnvelope` per (partition, key-group) instead of its
raw pairs — the shuffle's metadata-only path coalesces each node's
envelopes so one fixed-size partial per (node, partition, key) crosses
the network, and the reduce task folds and finalizes them
(:class:`AggregationReducer`).  The ablation is declaring the
aggregation or not, job by job.

Determinism contract
--------------------
Float addition is not associative, so a float-valued monoid's result
depends on the merge tree.  The framework therefore fixes one canonical
tree and uses it however the envelopes travelled (coalesced or not,
all three backends): within a key, envelopes are folded per *source
node* in task order, then the node partials are folded in node-name
order.  The transport-side coalescing
in the metadata-only shuffle computes exactly the per-node fold the
reducer would have computed, so shipping coalesced envelopes is
byte-identical to shipping per-task envelopes.  Exactly-associative
monoids (integer counts) are invariant under any tree, canonical or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.mapreduce.counters import Counters, STANDARD
from repro.mapreduce.job import ReduceContext, Reducer

__all__ = [
    "Aggregation",
    "AggregateEnvelope",
    "AggregationReducer",
    "preaggregate",
    "fold_envelopes",
    "coalesce_by_node",
    "CountAggregation",
]


@dataclass(frozen=True)
class AggregateEnvelope:
    """One pre-aggregated partial travelling through the shuffle.

    ``value`` is the monoid partial; ``node`` and ``task`` identify the
    map task that produced it (the planned node, which stays stable even
    when chaos re-executes the task elsewhere — keeping the canonical
    merge tree, and therefore the job output, independent of recovery).
    ``records`` counts the raw mapper records folded into the partial and
    ``nbytes`` is the modelled fixed wire size of the envelope.
    """

    value: Any
    node: str
    task: str
    records: int
    nbytes: int


class Aggregation:
    """Base class for a job's declared reduce monoid."""

    #: Modelled wire size of one envelope: key + partial, as a packed
    #: binary record.  Subclasses override to match their partial layout.
    envelope_nbytes: int = 24

    def zero(self) -> Any:
        """Identity partial (used only for empty folds)."""
        raise NotImplementedError

    def lift(self, key: Any, value: Any) -> Any:
        """One raw mapper output value as a partial."""
        raise NotImplementedError

    def merge(self, acc: Any, partial: Any) -> Any:
        """Combine two partials.  Must be associative by contract; the
        framework still applies its canonical fold order so float-valued
        near-monoids stay deterministic."""
        raise NotImplementedError

    def finalize(self, key: Any, acc: Any, ctx: ReduceContext) -> None:
        """Emit the reduce output for ``key`` from its folded partial."""
        raise NotImplementedError

    def lift_pairs(
        self, pairs: Sequence[tuple[Any, Any]]
    ) -> list[tuple[Any, Any]] | None:
        """Vectorized lift+merge of one map task's output, or ``None``.

        Returns one ``(key, partial)`` per key in sorted key order, or
        ``None`` to use the generic object-level loop.  Implementations
        must produce partials bit-identical to the object-level path
        (the exactness tests pin this down).
        """
        return None


class CountAggregation(Aggregation):
    """Sum of integer values per key — an exactly associative monoid.

    The vectorized form runs ``np.add.reduceat`` over the columnar
    int64 key/value layout: one stable argsort groups the keys, one
    reduceat produces every per-key partial sum.  Integer addition is
    exact, so the fast path is bit-identical to the object loop and the
    result is invariant under any merge tree.
    """

    #: key int64 + count int64, packed.
    envelope_nbytes = 16

    def zero(self) -> int:
        return 0

    def lift(self, key: Any, value: Any) -> int:
        return int(value)

    def merge(self, acc: int, partial: int) -> int:
        return acc + partial

    def finalize(self, key: Any, acc: int, ctx: ReduceContext) -> None:
        ctx.emit(key, int(acc))

    def lift_pairs(
        self, pairs: Sequence[tuple[Any, Any]]
    ) -> list[tuple[Any, Any]] | None:
        if not pairs:
            return []
        if not all(
            type(k) is int and type(v) is int for k, v in pairs
        ):
            return None
        keys = np.fromiter((k for k, _ in pairs), dtype=np.int64, count=len(pairs))
        values = np.fromiter((v for _, v in pairs), dtype=np.int64, count=len(pairs))
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        sums = np.add.reduceat(values[order], starts)
        return [
            (int(k), int(s))
            for k, s in zip(sorted_keys[starts].tolist(), sums.tolist())
        ]


def preaggregate(
    aggregation: Aggregation,
    task_output: Sequence[tuple[Any, Any]],
    node: str,
    task_id: str,
) -> tuple[list[tuple[Any, AggregateEnvelope]], Counters]:
    """Fold one map task's output into one envelope per key-group.

    The vectorized ``lift_pairs`` fast path is tried first; otherwise
    values are grouped (:func:`~repro.mapreduce.shuffle.group_sorted`)
    and folded object-by-object in arrival order.  Returns the envelope
    pairs in sorted key order plus pre-agg accounting counters.
    """
    from repro.mapreduce.shuffle import group_sorted

    counters = Counters()
    n_raw = len(task_output)
    records_per_key: list[tuple[Any, Any, int]] = []
    lifted = aggregation.lift_pairs(task_output)
    if lifted is not None:
        grouped = group_sorted(list(task_output))
        by_key = {k: len(vs) for k, vs in grouped}
        for key, partial in lifted:
            records_per_key.append((key, partial, by_key[key]))
    else:
        for key, values in group_sorted(list(task_output)):
            acc = aggregation.lift(key, values[0])
            for value in values[1:]:
                acc = aggregation.merge(acc, aggregation.lift(key, value))
            records_per_key.append((key, acc, len(values)))
    pairs = [
        (
            key,
            AggregateEnvelope(
                value=partial,
                node=node,
                task=task_id,
                records=n_records,
                nbytes=aggregation.envelope_nbytes,
            ),
        )
        for key, partial, n_records in records_per_key
    ]
    counters.increment(STANDARD.GROUP_TASK, STANDARD.PREAGG_INPUT_RECORDS, n_raw)
    counters.increment(STANDARD.GROUP_TASK, STANDARD.PREAGG_OUTPUT_RECORDS, len(pairs))
    return pairs, counters


def _node_major(envelopes: Sequence[AggregateEnvelope]) -> list[AggregateEnvelope]:
    """Envelopes in the canonical (node, task) fold order."""
    return sorted(envelopes, key=lambda e: (e.node, e.task))


def fold_envelopes(
    aggregation: Aggregation, envelopes: Sequence[AggregateEnvelope]
) -> Any:
    """Fold one key's envelopes with the canonical merge tree.

    Per source node in task order first (:func:`coalesce_by_node`, the
    very fold the transport applies — so a pre-coalesced per-node
    envelope replays the exact float operations of the per-task fold),
    then across nodes in node-name order; each fold seeds its
    accumulator with the first partial, never ``zero``.
    """
    total, *node_accs = (env.value for env in coalesce_by_node(aggregation, envelopes))
    for acc in node_accs:
        total = aggregation.merge(total, acc)
    return total


def coalesce_by_node(
    aggregation: Aggregation, envelopes: Sequence[AggregateEnvelope]
) -> list[AggregateEnvelope]:
    """One envelope per source node — the metadata-only transport merge.

    Each node's tasktracker folds its own tasks' partials (in task order)
    before anything crosses the network; :func:`fold_envelopes` starts
    with this same fold, so reducers see the same canonical tree whether
    or not coalescing happened.  Nodes come out in node-name order.
    """
    ordered = _node_major(envelopes)
    out: list[AggregateEnvelope] = []
    i = 0
    while i < len(ordered):
        node = ordered[i].node
        acc = ordered[i].value
        records = ordered[i].records
        task = ordered[i].task
        i += 1
        while i < len(ordered) and ordered[i].node == node:
            acc = aggregation.merge(acc, ordered[i].value)
            records += ordered[i].records
            i += 1
        out.append(
            AggregateEnvelope(
                value=acc,
                node=node,
                task=task,
                records=records,
                nbytes=aggregation.envelope_nbytes,
            )
        )
    return out


class AggregationReducer(Reducer):
    """The reduce of a job that declared an aggregation.

    Runs through the ordinary reduce attempt loop (same retries, chaos
    faults and counters as a user reducer), folding each key's envelopes
    with the canonical merge tree and emitting ``finalize``'s output.
    """

    def __init__(self, aggregation: Aggregation):
        self.aggregation = aggregation

    def reduce(self, key: Any, values: list[Any], ctx: ReduceContext) -> None:
        acc = fold_envelopes(self.aggregation, values)
        self.aggregation.finalize(key, acc, ctx)


