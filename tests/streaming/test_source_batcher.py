"""The streaming data plane: feed cutting, watermarks, feed chaos.

Pins down the :class:`StreamSource`/:class:`MicroBatcher` contract the
equivalence suite relies on: batches are a pure function of (corpus,
window size, chaos seed); late batches land in the next window's dataset
and are counted against it; lost batches are counted against their event
window; duplicates are dropped by ``(feed, window)`` identity; and the
sealed dataset's bytes are canonical regardless of delivery order.
"""

import numpy as np
import pytest

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.observability.events import EventKind
from repro.observability.history import JobHistory
from repro.streaming import MicroBatcher, StreamSource

from tests.conftest import seal_all

WINDOW_S = 3 * 3600.0


@pytest.fixture(scope="module")
def corpus():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=7))
    return dataset.flat()


def fresh_hdfs():
    return SimulatedHDFS(paper_cluster(3), chunk_size=64 * 1024, seed=0)


class TestStreamSource:
    def test_batches_partition_the_corpus(self, corpus):
        source = StreamSource(corpus, WINDOW_S)
        assert source.total_points == len(corpus)
        assert sum(len(b) for b in source.batches) == len(corpus)
        assert source.lost_points == 0
        for batch in source.batches:
            t0, t1 = source.window_bounds(batch.window)
            assert batch.arrival_window == batch.window
            assert (batch.points.timestamp >= t0).all()
            assert (batch.points.timestamp < t1).all()
            # Slices keep the corpus-wide user table; the rows themselves
            # must all belong to the batch's feed.
            assert set(batch.points.user_ids()) == {batch.feed}

    def test_cut_is_deterministic_and_order_insensitive(self, corpus):
        a = StreamSource(corpus, WINDOW_S)
        # Same corpus delivered in scrambled construction order: the
        # canonical (user, time) sort erases it.
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(corpus))
        scrambled = TraceArray.from_columns(
            corpus.user_ids()[perm],
            corpus.latitude[perm],
            corpus.longitude[perm],
            corpus.timestamp[perm],
            corpus.altitude[perm],
        )
        b = StreamSource(scrambled, WINDOW_S)
        assert len(a.batches) == len(b.batches)
        for x, y in zip(a.batches, b.batches):
            assert (x.feed, x.window, x.arrival_window) == (
                y.feed, y.window, y.arrival_window
            )
            assert np.array_equal(x.points.timestamp, y.points.timestamp)

    def test_scripted_late_batch_arrives_next_window(self, corpus):
        feed = sorted(set(corpus.users))[0]
        chaos = ChaosSchedule(
            seed=1, faults=(Fault(FaultKind.LATE_BATCH, feed=feed, window=0),)
        )
        source = StreamSource(corpus, WINDOW_S, chaos=chaos)
        late = [b for b in source.batches if b.late]
        assert [(b.feed, b.window) for b in late] == [(feed, 0)]
        assert late[0].arrival_window == 1
        assert not any(b is late[0] for b in source.arrivals(0))
        assert any(b is late[0] for b in source.arrivals(1))

    def test_scripted_lost_batch_is_counted_not_delivered(self, corpus):
        feed = sorted(set(corpus.users))[0]
        chaos = ChaosSchedule(
            seed=1, faults=(Fault(FaultKind.LOST_BATCH, feed=feed, window=0),)
        )
        source = StreamSource(corpus, WINDOW_S, chaos=chaos)
        assert not any(
            b.feed == feed and b.window == 0 for b in source.batches
        )
        assert source.lost_points > 0
        assert source.lost_by_window[0] == source.lost_points
        assert source.total_points == len(corpus)

    def test_duplicate_batch_delivered_twice(self, corpus):
        feed = sorted(set(corpus.users))[0]
        chaos = ChaosSchedule(
            seed=1, faults=(Fault(FaultKind.DUP_BATCH, feed=feed, window=0),)
        )
        source = StreamSource(corpus, WINDOW_S, chaos=chaos)
        copies = [
            b for b in source.batches if b.feed == feed and b.window == 0
        ]
        assert len(copies) == 2
        assert [b.duplicate for b in copies] == [False, True]

    def test_late_batch_extends_the_window_horizon(self, corpus):
        clean = StreamSource(corpus, WINDOW_S)
        last = clean.n_event_windows - 1
        chaos = ChaosSchedule(
            seed=1, faults=(Fault(FaultKind.LATE_BATCH, window=last),)
        )
        late = StreamSource(corpus, WINDOW_S, chaos=chaos)
        assert late.n_windows == clean.n_event_windows + 1

    def test_empty_corpus(self):
        source = StreamSource(TraceArray.empty(), WINDOW_S)
        assert source.n_windows == 0
        assert source.batches == []

    def test_window_s_validated(self, corpus):
        with pytest.raises(ValueError, match="window_s"):
            StreamSource(corpus, 0.0)


class TestMicroBatcher:
    def test_sealed_windows_are_canonical_and_complete(self, corpus):
        source = StreamSource(corpus, WINDOW_S)
        hdfs = fresh_hdfs()
        batcher = MicroBatcher(hdfs)
        datasets = seal_all(batcher, source)
        assert len(datasets) == source.n_windows
        assert sum(d.n_points for d in datasets) == len(corpus)
        for dataset in datasets:
            array = hdfs.read_trace_array(dataset.path)
            assert len(array) == dataset.n_points
            # Canonical order: the dataset is (user, time)-sorted.
            resorted = array.sort_by_time().compact()
            assert np.array_equal(array.timestamp, resorted.timestamp)
            assert np.array_equal(array.user_index, resorted.user_index)

    def test_late_points_move_to_next_window_dataset(self, corpus):
        feed = sorted(set(corpus.users))[0]
        chaos = ChaosSchedule(
            seed=1, faults=(Fault(FaultKind.LATE_BATCH, feed=feed, window=0),)
        )
        source = StreamSource(corpus, WINDOW_S, chaos=chaos)
        moved = len(source.arrivals(1)[0].points)
        hdfs = fresh_hdfs()
        datasets = seal_all(MicroBatcher(hdfs), source)
        clean = MicroBatcher(fresh_hdfs())
        clean_datasets = seal_all(clean, StreamSource(corpus, WINDOW_S))
        assert datasets[0].n_points == clean_datasets[0].n_points - moved
        assert datasets[1].n_points == clean_datasets[1].n_points + moved
        assert datasets[1].late_points == moved
        # Nothing is lost overall: the points moved, they didn't vanish.
        assert sum(d.n_points for d in datasets) == len(corpus)

    def test_duplicates_do_not_change_dataset_bytes(self, corpus):
        feed = sorted(set(corpus.users))[0]
        chaos = ChaosSchedule(
            seed=1, faults=(Fault(FaultKind.DUP_BATCH, feed=feed, window=0),)
        )
        hdfs_dup, hdfs_clean = fresh_hdfs(), fresh_hdfs()
        dup = seal_all(
            MicroBatcher(hdfs_dup), StreamSource(corpus, WINDOW_S, chaos=chaos)
        )
        clean = seal_all(MicroBatcher(hdfs_clean), StreamSource(corpus, WINDOW_S))
        assert dup[0].dup_points == len(
            [b for b in StreamSource(corpus, WINDOW_S).batches
             if b.feed == feed and b.window == 0][0].points
        )
        for d, c in zip(dup, clean):
            a = hdfs_dup.read_trace_array(d.path)
            b = hdfs_clean.read_trace_array(c.path)
            assert np.array_equal(a.timestamp, b.timestamp)
            assert np.array_equal(a.latitude, b.latitude)

    def test_window_events_emitted_in_order(self, corpus):
        source = StreamSource(corpus, WINDOW_S)
        history = JobHistory()
        seal_all(MicroBatcher(fresh_hdfs(), history=history), source)
        kinds = [
            e.kind
            for e in history.events
            if e.kind in (
                EventKind.WINDOW_OPEN,
                EventKind.WATERMARK,
                EventKind.WINDOW_CLOSE,
            )
        ]
        expected = [
            EventKind.WINDOW_OPEN, EventKind.WATERMARK, EventKind.WINDOW_CLOSE
        ] * source.n_windows
        assert kinds == expected
        # The watermark of window w is its end bound: everything below it
        # is delivered, counted late, or counted lost once w closes.
        marks = [
            e for e in history.events if e.kind == EventKind.WATERMARK
        ]
        for w, event in enumerate(marks):
            assert event.data["watermark"] == source.window_bounds(w)[1]
