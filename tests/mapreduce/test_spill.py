"""Unit tests for the out-of-core machinery (``repro.mapreduce.spill``).

The contract under test everywhere: a memory budget changes *where data
lives*, never *what is computed* — paged chunks rehydrate byte-identical,
an externally sorted shuffle groups exactly like the in-memory one, and
spilled map outputs reload exactly what was emitted.
"""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.algorithms.kmeans import run_kmeans_mapreduce

from repro.mapreduce.bench import synthetic_corpus
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.job import HashPartitioner
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.spill import (
    PayloadStore,
    ShuffleSpiller,
    SpillDirectory,
    SpillManager,
    SpillStats,
    WorkerSpillSpec,
    as_groups,
    as_pairs,
    spill_map_output,
)
from repro.mapreduce.shuffle import shuffle
from repro.mapreduce.types import RecordPayload


def _payload(n, tag="k"):
    return RecordPayload([(f"{tag}{i}", i) for i in range(n)])


class TestSpillDirectory:
    def test_new_paths_never_repeat(self, tmp_path):
        d = SpillDirectory(tmp_path / "s")
        paths = {d.new_path("run") for _ in range(10)}
        assert len(paths) == 10

    def test_cleanup_removes_tree_and_is_idempotent(self, tmp_path):
        d = SpillDirectory(tmp_path / "s")
        p = d.new_path("run")
        p.write_bytes(b"x")
        d.cleanup()
        assert not (tmp_path / "s").exists()
        d.cleanup()  # no error


class TestPayloadStore:
    def test_under_budget_nothing_pages(self, tmp_path):
        store = PayloadStore(10 * MB, SpillDirectory(tmp_path / "s"))
        store.put("c0", _payload(5))
        assert store.stats.pages_out == 0
        assert store.get("c0").records == _payload(5).records

    def test_over_budget_pages_lru_and_rehydrates(self, tmp_path):
        payloads = [_payload(50, tag=f"t{i}-") for i in range(4)]
        budget = payloads[0].nbytes() * 2 + 1
        store = PayloadStore(budget, SpillDirectory(tmp_path / "s"))
        for i, p in enumerate(payloads):
            store.put(f"c{i}", p)
        assert store.stats.pages_out > 0
        assert store._resident_bytes <= budget
        # Every chunk — paged or resident — reads back byte-identical.
        for i, p in enumerate(payloads):
            assert store.get(f"c{i}").records == p.records
        assert store.stats.pages_in > 0

    def test_get_repins_to_mru(self, tmp_path):
        a, b, c = (_payload(50, tag=t) for t in ("a", "b", "c"))
        budget = a.nbytes() * 2 + 1
        store = PayloadStore(budget, SpillDirectory(tmp_path / "s"))
        store.put("a", a)
        store.put("b", b)
        store.get("a")  # now MRU; "b" is the eviction victim
        store.put("c", c)
        assert "a" in store._resident and "b" not in store._resident

    def test_at_least_one_resident(self, tmp_path):
        store = PayloadStore(1, SpillDirectory(tmp_path / "s"))
        store.put("big", _payload(100))
        assert len(store._resident) == 1

    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="budget_bytes must be positive"):
            PayloadStore(0, SpillDirectory(tmp_path / "s"))

    def test_duplicate_put_rejected(self, tmp_path):
        store = PayloadStore(MB, SpillDirectory(tmp_path / "s"))
        store.put("c", _payload(1))
        with pytest.raises(ValueError, match="already registered"):
            store.put("c", _payload(1))

    def test_unknown_chunk_raises(self, tmp_path):
        store = PayloadStore(MB, SpillDirectory(tmp_path / "s"))
        with pytest.raises(KeyError):
            store.get("nope")

    def test_paged_stub_refuses_to_pickle(self, tmp_path):
        store = PayloadStore(MB, SpillDirectory(tmp_path / "s"))
        payload = _payload(3)
        store.put("c", payload)
        stub = store.paged_stub("c", payload)
        assert stub.materialize().records == payload.records
        with pytest.raises(pickle.PicklingError, match="process boundary"):
            pickle.dumps(stub)


class TestPayloadStoreUnderThreads:
    """The threads backend reads chunks concurrently; a re-pin or an
    eviction is a check-then-act on the shared LRU.  Unlocked, a reader
    that lands between ``get``'s delete and re-insert finds the chunk
    neither resident nor paged (``KeyError: unknown chunk``), or loses
    the race with ``_shrink`` for the same dict entry."""

    N_THREADS = 8  # more than the cores of any CI box we run on

    @pytest.fixture(autouse=True)
    def _eager_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _hammer(self, work, deadline_s=60.0):
        """Run ``work(thread_index)`` on N threads; re-raise the first error."""
        errors = []

        def guarded(i):
            try:
                work(i)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(i,), daemon=True)
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        end = time.monotonic() + deadline_s
        for t in threads:
            t.join(timeout=max(0.0, end - time.monotonic()))
        assert not any(t.is_alive() for t in threads), "store deadlocked"
        if errors:
            raise errors[0]

    def test_concurrent_gets_over_budget(self, tmp_path):
        payloads = {f"c{i}": _payload(40, tag=f"t{i}-") for i in range(6)}
        size = payloads["c0"].nbytes()
        store = PayloadStore(2 * size + 1, SpillDirectory(tmp_path / "s"))
        for cid, payload in payloads.items():
            store.put(cid, payload)

        def work(i):
            rng = np.random.default_rng(i)
            for cid in rng.choice(list(payloads), size=1500):
                assert store.get(cid).records == payloads[cid].records

        self._hammer(work)
        # No lost update: the byte count is exactly what is resident, the
        # budget held, and every page-in was matched by the counters.
        assert store._resident_bytes == size * len(store._resident) <= store.budget_bytes
        assert store.stats.page_in_bytes == size * store.stats.pages_in
        assert store.stats.page_out_bytes == size * store.stats.pages_out
        assert store.stats.pages_out - store.stats.pages_in == len(payloads) - len(store._resident)

    def test_kmeans_on_threads_with_concurrent_readers(self):
        corpus = synthetic_corpus(6000, seed=5)

        def deployment(**budget):
            hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=32 * 1024, seed=0, **budget)
            hdfs.put_trace_array("in", corpus)
            return hdfs

        def kmeans(hdfs, **runner):
            with JobRunner(hdfs, **runner) as job_runner:
                return run_kmeans_mapreduce(job_runner, "in", k=4, max_iter=3, seed=1)

        want = kmeans(deployment(), executor="serial")
        hdfs = deployment(memory_budget_mb=0.08)  # ~3 of 12 chunks resident
        chunks = hdfs.chunks("in")
        result = []

        def work(i):
            if i == 0:
                result.append(kmeans(
                    hdfs, executor="threads", max_workers=4, memory_budget_mb=0.08))
                return
            rng = np.random.default_rng(i)
            for ordinal in rng.integers(0, len(chunks), size=1500):
                chunk = chunks[ordinal]
                assert len(chunk.trace_array()) == chunk.n_records

        self._hammer(work)
        assert hdfs.spill_stats.pages_in > len(chunks)
        # Two readers paging the same chunk in at once would count it twice.
        store = hdfs._store
        assert store._resident_bytes == sum(store._sizes[c] for c in store._resident)
        assert np.array_equal(result[0].centroids, want.centroids)
        assert result[0].n_iterations == want.n_iterations


class TestMapOutputSpill:
    def test_round_trip(self, tmp_path):
        spec = WorkerSpillSpec(str(tmp_path), threshold_bytes=1, prefix="j1")
        output = [(i % 3, f"v{i}") for i in range(20)]
        handle = spill_map_output(spec, "map-0000", output, 640)
        assert handle.n_records == 20 and handle.nbytes == 640
        assert as_pairs(handle) == output
        handle.delete()
        assert as_pairs(output) is output  # lists pass through untouched
        handle.delete()  # idempotent


def _reference(map_outputs, n_reducers):
    sh = shuffle(map_outputs, HashPartitioner(), n_reducers)
    return [sh.partitions[r] for r in range(n_reducers)], sh


def _spilled(map_outputs, n_reducers, budget_bytes, tmp_path):
    spiller = ShuffleSpiller(
        budget_bytes, SpillDirectory(tmp_path / "sp"), n_reducers, SpillStats()
    )
    sh = shuffle(map_outputs, HashPartitioner(), n_reducers, spiller=spiller)
    return [sh.partitions[r] for r in range(n_reducers)], sh


class TestShuffleSpillerEquivalence:
    @pytest.mark.parametrize("n_reducers", [1, 3])
    def test_int_keys_identical(self, tmp_path, n_reducers):
        outputs = [[(i % 11, (t, i)) for i in range(60)] for t in range(4)]
        want, _ = _reference(outputs, n_reducers)
        got, sh = _spilled(outputs, n_reducers, budget_bytes=256, tmp_path=tmp_path)
        assert sh.spill_runs and got == want

    def test_str_keys_identical(self, tmp_path):
        outputs = [[(f"user{i % 7}", i * t) for i in range(40)] for t in range(3)]
        want, _ = _reference(outputs, 2)
        got, sh = _spilled(outputs, 2, budget_bytes=128, tmp_path=tmp_path)
        assert sh.spill_runs and got == want

    def test_equal_keys_keep_arrival_order(self, tmp_path):
        # Every record shares one key: grouping reduces to pure arrival
        # order, the property external sorting is most likely to break.
        outputs = [[(0, (t, i)) for i in range(30)] for t in range(5)]
        want, _ = _reference(outputs, 2)
        got, sh = _spilled(outputs, 2, budget_bytes=64, tmp_path=tmp_path)
        assert sh.spill_runs and got == want

    def test_unsortable_keys_fall_back_identically(self, tmp_path):
        # Int keys long enough to cut runs, then tuple keys: external
        # sorting is impossible, the fallback must still match exactly.
        outputs = [
            [(i % 5, i) for i in range(50)],
            [((1, 2), "odd"), ((0, 1), "ball")],
        ]
        want, _ = _reference(outputs, 2)
        got, sh = _spilled(outputs, 2, budget_bytes=64, tmp_path=tmp_path)
        assert not sh.spill_runs and got == want

    def test_nan_keys_fall_back_identically(self, tmp_path):
        # NaN breaks the numbers' total order: no run may be merged on it.
        outputs = [[(float(i % 5), i) for i in range(50)], [(float("nan"), "odd")]]
        want, _ = _reference(outputs, 2)
        got, sh = _spilled(outputs, 2, budget_bytes=64, tmp_path=tmp_path)
        assert not sh.spill_runs
        assert [[(repr(k), v) for k, v in p] for p in got] == [
            [(repr(k), v) for k, v in p] for p in want
        ]

    def test_deleting_a_run_twice_is_harmless(self, tmp_path):
        spiller = ShuffleSpiller(64, SpillDirectory(tmp_path / "sp"), 1, SpillStats())
        spiller.feed((0, 16, i, i) for i in range(10))
        (run,) = spiller.runs
        run.delete()
        run.delete()
        assert not run.path.exists()

    def test_under_budget_uses_in_memory_path(self, tmp_path):
        outputs = [[(i, i) for i in range(5)]]
        want, _ = _reference(outputs, 2)
        got, sh = _spilled(outputs, 2, budget_bytes=10 * MB, tmp_path=tmp_path)
        assert not sh.spill_runs and got == want

    def test_spilled_result_metadata_lazy(self, tmp_path):
        outputs = [[(i % 4, i) for i in range(80)] for _ in range(3)]
        _, want_sh = _reference(outputs, 2)
        _, sh = _spilled(outputs, 2, budget_bytes=128, tmp_path=tmp_path)
        for r in range(2):
            assert sh.records_for(r) == want_sh.records_for(r)
            assert sh.groups_for(r) == want_sh.groups_for(r)
        assert sh.shuffled_bytes == want_sh.shuffled_bytes
        assert sh.partition_bytes == want_sh.partition_bytes
        sh.release()


class TestSpillManager:
    def test_specs_and_cleanup(self, tmp_path):
        mgr = SpillManager(1024, tmp_path / "mgr")
        j1, j2 = mgr.next_job(), mgr.next_job()
        assert j2 == j1 + 1
        spec = mgr.worker_spec(j1)
        assert spec.threshold_bytes == 1024 and str(mgr.directory.path) == spec.directory
        spiller = mgr.shuffle_spiller(j1, 2)
        assert spiller.budget_bytes == 1024
        mgr.close()
        assert not (tmp_path / "mgr").exists()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            SpillManager(0)


class TestBudgetedHDFS:
    def test_paged_file_reads_back_identical(self, tmp_path):
        corpus = synthetic_corpus(4000, seed=1)
        plain = SimulatedHDFS(paper_cluster(3), chunk_size=16 * 1024, seed=0)
        paged = SimulatedHDFS(
            paper_cluster(3), chunk_size=16 * 1024, seed=0,
            memory_budget_mb=0.01, spill_root=str(tmp_path / "hdfs"),
        )
        plain.put_trace_array("f", corpus)
        paged.put_trace_array("f", corpus)
        assert paged.spill_stats.pages_out > 0
        a, b = plain.read_trace_array("f"), paged.read_trace_array("f")
        assert (a.latitude == b.latitude).all()
        assert (a.timestamp == b.timestamp).all()
        assert plain.spill_stats is None

    def test_stream_ingest_matches_bulk_ingest(self):
        corpus = synthetic_corpus(3000, seed=2)
        bulk = SimulatedHDFS(paper_cluster(3), chunk_size=8 * 1024, seed=0)
        bulk.put_trace_array("f", corpus)
        streamed = SimulatedHDFS(paper_cluster(3), chunk_size=8 * 1024, seed=0)
        pieces = [corpus[i : i + 700] for i in range(0, len(corpus), 700)]
        n = streamed.put_trace_stream("f", pieces)
        assert n == len(corpus)
        want, got = bulk.chunks("f"), streamed.chunks("f")
        assert [c.n_records for c in got] == [c.n_records for c in want]
        for cw, cg in zip(want, got):
            aw, ag = cw.trace_array(), cg.trace_array()
            assert (aw.latitude == ag.latitude).all()
            assert (aw.user_index == ag.user_index).all()


class TestSpilledReduceInput:
    def test_as_groups_round_trip(self, tmp_path):
        spiller = ShuffleSpiller(32, SpillDirectory(tmp_path / "sp"), 2, SpillStats())
        # Routed records, as the shuffle's routing stage feeds them.
        spiller.feed([(i % 3 % 2, 16, i % 3, i) for i in range(40)])
        spiller.finish()
        assert spiller.spilled()
        partitions, events = spiller.merge()
        assert len(partitions) == 2 and len(events) == 2
        assert [e.bytes for e in events] == spiller.partition_bytes == [27 * 16, 13 * 16]
        for handle in partitions:
            groups = as_groups(handle)
            assert handle.n_groups == len(groups)
            assert handle.n_records == sum(len(vs) for _, vs in groups)
            assert as_groups(groups) is groups
            handle.delete()
