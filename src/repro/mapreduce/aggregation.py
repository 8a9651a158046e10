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
  ``np.add.reduceat`` on the columnar key/value arrays);
* ``lift_columns(keys, values)`` optionally does the same for a task
  whose output is one :class:`~repro.mapreduce.job.ColumnBlock`, without
  cutting it into pairs first (k-means sums its clusters with weighted
  ``np.bincount``).

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

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.mapreduce.counters import Counters, STANDARD
from repro.mapreduce.job import ColumnBlock, ReduceContext, Reducer

__all__ = [
    "Aggregation",
    "AggregateEnvelope",
    "AggregationReducer",
    "preaggregate",
    "fold_envelopes",
    "coalesce_by_node",
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
    """Base class for a job's declared reduce monoid.

    ``lift``, ``merge`` and ``finalize`` define it.  ``lift_pairs`` and
    ``lift_columns`` optionally lift one map task's whole output at once,
    as pairs or as the one column block it emitted: each returns ``None``
    to fall back to the object loop, and otherwise the object loop's bits.
    """

    #: Modelled wire size of one envelope: key + partial, as a packed
    #: binary record.  Subclasses override to match their partial layout.
    envelope_nbytes: int = 24

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

    def lift_columns(
        self, keys: np.ndarray, values: np.ndarray
    ) -> list[tuple[int, Any]] | None:
        """Vectorized lift of one task's column block, or ``None``.

        Returns one ``(key, partial)`` per distinct key in ascending key
        order, each partial bit-identical to ``lift`` of the rows
        :meth:`~repro.mapreduce.job.ColumnBlock.pairs` gives that key;
        ``None`` cuts the block into those pairs and lifts them instead.
        """
        return None


def preaggregate(
    aggregation: Aggregation,
    task_output: "Sequence[tuple[Any, Any]] | ColumnBlock",
    node: str,
    task_id: str,
) -> tuple[list[tuple[Any, AggregateEnvelope]], Counters]:
    """Fold one map task's output into one envelope per key-group.

    A task whose output is one column block is lifted as columns
    (``lift_columns``) when the aggregation can, and otherwise cut into
    its pairs; either way it counts as those pairs, one raw record per
    distinct key.  Pairs try the vectorized ``lift_pairs`` first, its
    records per key counted in one pass over the keys; otherwise values
    are grouped (:func:`~repro.mapreduce.shuffle.group_sorted`) and
    folded object-by-object in arrival order.  Returns the envelope pairs
    in sorted key order plus pre-agg accounting counters.
    """
    from repro.mapreduce.shuffle import group_sorted

    counters = Counters()
    lifted = None
    if isinstance(task_output, ColumnBlock):
        lifted = aggregation.lift_columns(task_output.keys, task_output.values)
        if lifted is None:
            task_output = task_output.pairs()
    if lifted is not None:
        # The block's pairs: one per distinct key.
        n_raw = len(lifted)
        records_per_key = [(key, partial, 1) for key, partial in lifted]
    else:
        n_raw = len(task_output)
        records_per_key = []
        lifted = aggregation.lift_pairs(task_output)
        if lifted is not None:
            by_key = Counter(key for key, _ in task_output)
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


