"""Span tracing of the engine's layers, installed from outside the program.

``Tracer.install()`` swaps timing wrappers in around the public entry
points of each layer (module = layer) and ``uninstall()`` puts the
originals back; nothing under ``src/`` knows it is being traced.  A span
is ``(id, name, label, start, end, parent, thread)``: ``parent`` is the
enclosing span *of the same thread* (a ``JobService`` runs jobs on its
dispatcher thread, so a job's span has no parent in the client thread),
``start``/``end`` are ``time.perf_counter()`` seconds.  Spans and counts
are only recorded while ``recording`` is true — the benchmark turns it on
for the timed region of a traced repeat — and stay in memory until the
run ends.

Work inside process-pool workers is invisible by design: a forked worker
inherits the wrappers but records into its own copy of the span list, so
its time is accounted to ``backends.map`` / ``backends.reduce`` on the
driver.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

__all__ = ["Tracer", "layer_metrics"]

#: ``note(args, result) -> (label, counts)``: what a wrapper records about
#: one successful call besides its duration.
Note = Callable[[tuple, Any], "tuple[str | None, dict[str, int] | None]"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.recording = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _paused(self):
        """Calls a ``note`` makes back into the program are not traced."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, func: Callable, name: str, note: Note | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording or getattr(tracer._local, "paused", False):
                return func(*args, **kwargs)
            stack = tracer._stack()
            record = [next(tracer._ids), name, None, 0.0, 0.0,
                      stack[-1] if stack else None, threading.current_thread().name]
            stack.append(record[0])
            record[3] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
                tracer.spans.append(record)
            if note is not None:
                with tracer._paused():
                    record[2], counts = note(args, result)
                if counts:
                    tracer.counts.update(counts)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, name: str, note: Note | None = None) -> None:
        """Wrap ``owner.attr`` (a class's method or a module's function)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self._wrap(raw.__func__, name, note))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, name, note))
        else:
            new = self._wrap(raw, name, note)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def patch_function(self, func: Callable, name: str, note: Note | None = None) -> None:
        """Wrap ``func`` under every ``repro`` module global bound to it, so
        ``from x import func`` call sites are covered as well as ``x.func``."""
        wrapped = self._wrap(func, name, note)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, func))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.algorithms import djcluster, kmeans, sampling
        from repro.attacks import deanonymization, linkage_mr
        from repro.geo import distance
        from repro.index import persistent, rtree, rtree_mr
        from repro.mapreduce import aggregation, backends, hdfs, runner, scheduler
        from repro.mapreduce import service, shuffle, spill
        from repro.mapreduce.counters import STANDARD
        from repro.observability import history
        from repro.streaming import batcher, manager

        fn, at = self.patch_function, self.patch_attr

        fn(distance.pairwise, "geo.pairwise",
           lambda a, r: (None, {"geo.pair_evals": int(r.size)}))

        at(runner.JobRunner, "run", "runner.job", lambda a, r: (a[1].name, None))
        fn(scheduler.plan_map_phase, "scheduler.plan",
           lambda a, r: (None, {"scheduler.tasks_planned": len(a[0])}))
        fn(scheduler.plan_reduce_phase, "scheduler.plan",
           lambda a, r: (None, {"scheduler.tasks_planned": len(r[0])}))
        fn(aggregation.preaggregate, "aggregation.preagg", lambda a, r: (None, {
            "aggregation.raw_records": r[1].value(
                STANDARD.GROUP_TASK, STANDARD.PREAGG_INPUT_RECORDS),
            "aggregation.envelopes": r[1].value(
                STANDARD.GROUP_TASK, STANDARD.PREAGG_OUTPUT_RECORDS),
        }))
        fn(shuffle.shuffle, "shuffle.shuffle", lambda a, r: (None, {
            "shuffle.records": sum(r.records_for(p) for p in range(r.n_reducers)),
            "shuffle.bytes": int(r.shuffled_bytes),
        }))
        at(backends.ExecutionBackend, "prepare_job", "backends.prepare")
        at(backends.ProcessBackend, "prepare_job", "backends.prepare")
        for cls in (backends.SerialBackend, backends.ThreadBackend, backends.ProcessBackend):
            at(cls, "run_map_tasks", "backends.map",
               lambda a, r: (None, {"backends.map_tasks": len(a[1])}))
            at(cls, "run_reduce_tasks", "backends.reduce",
               lambda a, r: (None, {"backends.reduce_tasks": len(a[1])}))

        def wrote(args, _result):
            fs, path = args[0], args[1]
            return path, {
                "hdfs.bytes_written": fs.file_nbytes(path),
                "hdfs.chunks_written": len(fs.chunks(path)),
            }

        for attr in ("put_records", "put_trace_array", "put_trace_stream", "put_chunks"):
            at(hdfs.SimulatedHDFS, attr, "hdfs.write", wrote)
        for attr in ("chunks", "read_records", "read_trace_array"):
            at(hdfs.SimulatedHDFS, attr, "hdfs.read")
        at(spill.PayloadStore, "get", "spill.store_get")
        at(spill.PayloadStore, "put", "spill.store_put")
        at(spill.ShuffleSpiller, "feed", "spill.shuffle_spill")
        at(spill.ShuffleSpiller, "merge", "spill.shuffle_spill")
        at(history.JobHistory, "emit", "history.emit")
        at(service.TenantClient, "run", "service.run", lambda a, r: (a[1].name, None))

        at(persistent.IndexCatalog, "ensure", "index.ensure", lambda a, r: (
            "build" if r[1] else "reuse",
            {"index.pages": int(r[0].meta["n_pages"]),
             "index.bytes": int(r[0].meta["page_bytes"])} if r[1] else None,
        ))
        fn(rtree_mr.build_rtree_mapreduce, "index.build")
        at(rtree.RTree, "merge", "index.merge")
        at(persistent.PersistentRTree, "save", "index.save")
        for kind in ("point", "range", "radius", "knn"):
            at(persistent.QueryEngine, kind, f"index.query_{kind}")

        fn(sampling.run_sampling_job, "algorithms.sampling")
        fn(djcluster.run_preprocessing_pipeline, "algorithms.preprocess")
        fn(djcluster.run_djcluster_mapreduce, "algorithms.djcluster")
        fn(kmeans.run_kmeans_mapreduce, "algorithms.kmeans")
        fn(linkage_mr.run_linkage_attack, "attacks.linkage")
        fn(deanonymization.fingerprint_user, "attacks.fingerprint")
        at(manager.StreamingJobManager, "process", "streaming.window_process")
        at(batcher.MicroBatcher, "close_window", "streaming.ingest")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def spans_as_docs(self, run_id: str) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "label": s[2], "start": s[3], "end": s[4],
             "parent": s[5], "thread": s[6], "run": run_id}
            for s in sorted(self.spans, key=lambda s: s[0])
        ]


# -- spans -> per-layer metrics ------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """The span- and count-derived per-layer metrics of one traced repeat.

    ``<layer>.<entry>_s`` is the busy time of that entry point: the summed
    duration of its spans, leaving out a span nested inside another span
    of the same name (``read_records`` calling ``chunks``).  Busy times of
    different layers overlap where one layer calls another; ``runner.self_s``
    is the one self time reported (job span minus its direct children).
    """
    by_id = {s[0]: s for s in spans}
    durations: dict[str, list[float]] = {}
    labelled: dict[str, list[tuple[str | None, float, list]]] = {}
    child_time: Counter[int] = Counter()
    for s in spans:
        sid, name, label, start, end, parent = s[:6]
        if parent is not None:
            child_time[parent] += end - start
        ancestor = parent
        while ancestor is not None and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][5]
        if ancestor is None:
            durations.setdefault(name, []).append(end - start)
            labelled.setdefault(name, []).append((label, end - start, s))

    def total(name: str) -> float:
        return float(sum(durations.get(name, ())))

    def under(span: list, ancestor_name: str) -> bool:
        parent = span[5]
        while parent is not None:
            if by_id[parent][1] == ancestor_name:
                return True
            parent = by_id[parent][5]
        return False

    jobs = labelled.get("runner.job", [])
    iters = [d for label, d, _ in jobs if label and "-iter-" in label]
    first_iters = [d for label, d, _ in jobs if label and label.endswith("-iter-1")]
    ensures = labelled.get("index.ensure", [])
    out = {
        "geo.pairwise_s": total("geo.pairwise"),
        "backends.prepare_s": total("backends.prepare"),
        "backends.map_s": total("backends.map"),
        "backends.reduce_s": total("backends.reduce"),
        "runner.job_s": total("runner.job"),
        "runner.jobs": len(jobs),
        "runner.self_s": float(sum(d - child_time[s[0]] for _, d, s in jobs)),
        "scheduler.plan_s": total("scheduler.plan"),
        "history.emit_s": total("history.emit"),
        "history.events": len(durations.get("history.emit", ())),
        "service.run_s": total("service.run"),
        "aggregation.preagg_s": total("aggregation.preagg"),
        "shuffle.shuffle_s": total("shuffle.shuffle"),
        "spill.shuffle_spill_s": total("spill.shuffle_spill"),
        "spill.store_get_s": total("spill.store_get"),
        "spill.store_put_s": total("spill.store_put"),
        "hdfs.write_s": total("hdfs.write"),
        "hdfs.read_s": total("hdfs.read"),
        "index.build_s": total("index.build"),
        "index.merge_s": total("index.merge"),
        "index.save_s": total("index.save"),
        "index.reuse_s": float(sum(d for label, d, _ in ensures if label == "reuse")),
        "algorithms.sampling_s": total("algorithms.sampling"),
        "algorithms.preprocess_s": total("algorithms.preprocess"),
        "algorithms.neighborhood_merge_s": float(sum(
            d for label, d, _ in jobs if label and label.endswith("neighborhood-merge"))),
        "algorithms.kmeans_iter_p50_s": _median(iters),
        "algorithms.kmeans_first_iter_s": _median(first_iters),
        "attacks.fingerprint_s": total("attacks.fingerprint"),
        "attacks.link_s": float(sum(d for label, d, _ in jobs if label == "linkage-score")),
        "attacks.audit_s": float(sum(
            d for _, d, s in ensures if under(s, "attacks.linkage"))),
        "streaming.ingest_s": total("streaming.ingest"),
        "streaming.window_process_p50_s": _median(
            durations.get("streaming.window_process", [])),
    }
    out["service.overhead_s"] = (
        out["service.run_s"] - out["runner.job_s"] if out["service.run_s"] else 0.0
    )
    queries: list[float] = []
    for kind in ("point", "range", "radius", "knn"):
        of_kind = durations.get(f"index.query_{kind}", [])
        out[f"index.query_{kind}_p50_ms"] = 1e3 * _median(of_kind)
        queries += of_kind
    queries.sort()
    out["index.query_p99_ms"] = 1e3 * queries[len(queries) * 99 // 100] if queries else 0.0
    for key in (
        "geo.pair_evals", "backends.map_tasks", "backends.reduce_tasks",
        "scheduler.tasks_planned", "aggregation.raw_records", "aggregation.envelopes",
        "shuffle.records", "shuffle.bytes", "hdfs.bytes_written", "hdfs.chunks_written",
        "index.pages", "index.bytes",
    ):
        out[key] = int(counts.get(key, 0))
    return out
