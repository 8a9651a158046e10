"""The six benchmark suites: ``BENCH_<suite>.json`` under ``benchmarks/results``.

The simulator's cost model answers "what would this cost on the paper's
cluster?"; each suite runs one subsystem (spill, multitenant, query,
stream, shuffle, attack) at one fixed workload and records what the run
*did* — simulated seconds, shuffle bytes, spill and paging counters, page
faults, iteration counts, result digests — with the gates its document
must pass.  Nothing here reads a clock or a resource meter; wall-clock
and peak RSS are measured in one place, ``benchmarks/e2e/run.py``
(docs/PERFORMANCE.md, "Where wall-clock is measured").
"""

from __future__ import annotations

import functools
import json
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.cli import matches_reference, query_workload
from repro.geo.trace import TraceArray
from repro.mapreduce.bench import (
    _blob_centers,
    synthetic_corpus,
    synthetic_corpus_blocks,
    synthetic_stream_corpus,
)
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.runner import JobRunner, fresh_runner
from tests.goldens import sha256

#: Corpus sizes the spill and query trajectories are measured over (traces).
SIZES = (100_000, 1_000_000)

_SCHEMA = 1


def bench_json(doc: Mapping[str, Any]) -> str:
    """A suite document's text: sorted keys, two-space indent, a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _kmeans_cell(
    traces: TraceArray | Iterable[TraceArray],
    initial_centroids: np.ndarray,
    *,
    max_iter: int,
    chunk_mb: int,
    use_combiner: bool = False,
    use_aggregation: bool = False,
    **deployment: Any,
) -> tuple[dict[str, Any], JobRunner]:
    """One k-means run on a fresh deployment
    (:func:`~repro.mapreduce.runner.fresh_runner`).

    Returns the cell every k-means suite starts from — simulated
    seconds, shuffle bytes, iteration count and centroid digest — and
    the closed runner, whose history and spill counters stay readable.
    """
    from repro.algorithms.kmeans import run_kmeans_mapreduce

    datasets = {"input/traces": traces}
    with fresh_runner(datasets, chunk_size=chunk_mb * MB, **deployment) as runner:
        result = run_kmeans_mapreduce(
            runner,
            "input/traces",
            k=len(initial_centroids),
            max_iter=max_iter,
            initial_centroids=initial_centroids,
            use_combiner=use_combiner,
            use_aggregation=use_aggregation,
            workdir="tmp/kmeans",
        )
    cell = {
        "sim_seconds": result.total_sim_seconds,
        "shuffle_bytes": int(sum(s.shuffle_bytes for s in result.history)),
        "n_iterations": int(result.n_iterations),
        "centroids_sha256": sha256(result.centroids),
    }
    return cell, runner


def _divergence(cells: Mapping[str, Mapping], keys: Sequence[str], where: str) -> list[str]:
    """Cells whose ``keys`` differ from the first cell's — a benchmark of
    diverging computations would be meaningless."""
    (first, reference), *others = cells.items()
    return [
        f"{label!r} diverged from {first!r} {where}: {key} differ"
        for label, cell in others
        for key in keys
        if cell[key] != reference[key]
    ]


# ---------------------------------------------------------------------------
# Out-of-core (spill) benchmark: the same run with and without a budget.
# ---------------------------------------------------------------------------


def _spill_cell(
    size: int, budget_mb: float | None, *, k: int, max_iter: int, chunk_mb: int, seed: int
) -> dict[str, Any]:
    """One (size, budget) cell: k-means without a combiner.

    The combiner is deliberately off so every map task emits one pair
    per trace — it is the map-output and shuffle volume that a memory
    budget has to tame, and with a combiner on there is nothing to
    spill.
    """
    kmeans, runner = _kmeans_cell(
        synthetic_corpus_blocks(size, seed=seed),
        _blob_centers(np.random.default_rng(seed), k),
        max_iter=max_iter,
        chunk_mb=chunk_mb,
        budget_mb=budget_mb,
    )
    spill, paging = runner.spill_stats, runner.hdfs.spill_stats
    return {
        "budget_mb": budget_mb,
        "n_iterations": kmeans["n_iterations"],
        "centroids_sha256": kmeans["centroids_sha256"],
        "spill": spill.as_dict() if spill else None,
        "paging": paging.as_dict() if paging else None,
    }


def _run_spill() -> str:
    """Spill-on/off trajectory: what left memory at each size.

    For each corpus size, the same combiner-less k-means run executes
    twice on the serial backend — once unbudgeted (everything resident)
    and once under a 1 MB budget (chunk store pages, map outputs and
    shuffle spill to disk; the budget bites at both sizes) — and each
    cell records its spill and paging counters.

    Centroids must be byte-identical across the two cells of a size —
    the budget is an execution detail, never an answer change — which
    :func:`_gates_spill` checks on the finished document.
    """
    budget_mb, k, max_iter, chunk_mb, seed = 1.0, 4, 3, 2, 0
    results = [
        {
            "size": size,
            "cells": {
                label: _spill_cell(
                    size, budget, k=k, max_iter=max_iter, chunk_mb=chunk_mb, seed=seed
                )
                for label, budget in (("unbudgeted", None), ("budgeted", budget_mb))
            },
        }
        for size in SIZES
    ]
    return bench_json({
        "schema": _SCHEMA,
        "workload": {
            "driver": "kmeans",
            "k": k,
            "max_iter": max_iter,
            "chunk_mb": chunk_mb,
            "combiner": False,
            "backend": "serial",
            "seed": seed,
        },
        "budget_mb": budget_mb,
        "results": results,
    })


def _gates_spill(doc: Mapping[str, Any]) -> list[str]:
    """The gates on one spill document.

    * at every size the budgeted and unbudgeted cells produced
      byte-identical centroids in the same iteration count;
    * the budget actually bit: some budgeted cell left memory (shuffle
      runs spilled or chunks paged out).  A budget that never bit is an
      untested claim — the rule the query gates apply to page faults.
    """
    problems: list[str] = []
    for entry in doc.get("results", []):
        problems += _divergence(
            entry["cells"],
            ("centroids_sha256", "n_iterations"),
            f"at size {entry['size']}",
        )
    left_memory = any(
        (cell.get("spill") or {}).get("runs_spilled", 0) > 0
        or (cell.get("paging") or {}).get("pages_out", 0) > 0
        for cell in (e["cells"]["budgeted"] for e in doc.get("results", []))
    )
    if not left_memory:
        problems.append(
            f"the {doc.get('budget_mb')} MB budget never bit: no budgeted cell "
            "spilled a shuffle run or paged a chunk out"
        )
    return problems


# ---------------------------------------------------------------------------
# Multi-tenant contention benchmark.
# ---------------------------------------------------------------------------


def _run_multitenant() -> str:
    """Contention run: a weighted tenant roster floods one JobService.

    Every tenant of a 3:2:1 roster submits a backlog of four jobs over
    one 50,000-trace corpus — two single-pass k-means jobs (map + combine
    + shuffle + reduce, per-job centroids through the tenant's
    distributed cache) and two map-only sampling jobs (per-tenant window
    sizes, so nothing dedups across tenants) — against a *paused*
    service, then the dispatcher opens and drains the whole backlog
    under weighted fair share.  The first tenant additionally resubmits
    its first sampling spec verbatim under a fresh output path: the
    result-cache cell, which must come back as a hit with **zero** map
    tasks.

    Reported: the fair-share interleave's simulated makespan vs the
    serial sum, the contended-window fairness shares, and the cache
    economics — all deterministic.
    """
    from repro.algorithms.kmeans import (
        CENTROIDS_CACHE_KEY,
        KMeansCombiner,
        KMeansMapper,
        KMeansReducer,
    )
    from repro.algorithms.sampling import SamplingMapper
    from repro.mapreduce.config import Configuration
    from repro.mapreduce.job import JobSpec
    from repro.mapreduce.service import JobService

    n_traces, jobs_per_tenant, k, chunk_mb, seed = 50_000, 4, 4, 1, 0
    weights = {"alice": 3.0, "bob": 2.0, "carol": 1.0}
    corpus = synthetic_corpus(n_traces, seed=seed)
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=chunk_mb * MB, seed=0)
    hdfs.put_trace_array("input/traces", corpus)
    futures: dict[tuple[str, str], Any] = {}
    with JobService(hdfs, tenants=weights, start=False) as service:
        # Backlog model: everything queues against a paused dispatcher,
        # so the drain order is a pure function of the weights.
        resubmit_tenant: str | None = None
        resubmit_spec: JobSpec | None = None
        n_kmeans = jobs_per_tenant // 2
        for ti, tenant in enumerate(sorted(weights)):
            client = service.client(tenant)
            for j in range(n_kmeans):
                # Per-(tenant, job) centroids: the submit-time cache
                # snapshot isolates job j from job j+1's publish, and
                # distinct centroids keep cache keys distinct.
                init = corpus.coordinates()[ti * k + j : ti * k + j + k].copy()
                client.cache.replace(CENTROIDS_CACHE_KEY, init)
                spec = JobSpec(
                    name=f"kmeans-{j}",
                    mapper=KMeansMapper,
                    reducer=KMeansReducer,
                    combiner=KMeansCombiner,
                    input_paths=["input/traces"],
                    output_path=f"tenants/{tenant}/out/kmeans-{j}",
                    conf=Configuration(
                        {"kmeans.distance": "squared_euclidean", "kmeans.k": k}
                    ),
                    num_reducers=min(k, service.cluster.total_reduce_slots()),
                )
                futures[(tenant, spec.name)] = client.submit(spec)
            for j in range(jobs_per_tenant - n_kmeans):
                spec = JobSpec(
                    name=f"sampling-{j}",
                    mapper=SamplingMapper,
                    input_paths=["input/traces"],
                    output_path=f"tenants/{tenant}/out/sampling-{j}",
                    conf=Configuration(
                        {
                            # ti offsets the window so no two tenants
                            # share a cache key.
                            "sampling.window_s": 60.0 * (j + 1) + ti,
                            "sampling.technique": "upper",
                        }
                    ),
                    map_cost_factor=0.6,
                )
                futures[(tenant, spec.name)] = client.submit(spec)
                if resubmit_spec is None:
                    resubmit_tenant, resubmit_spec = tenant, spec
        # The cache-hit cell.  Per-tenant FIFO dispatch guarantees the
        # original (the store) runs before the verbatim resubmission.
        assert resubmit_tenant is not None and resubmit_spec is not None
        resubmission = JobSpec(
            name="sampling-resubmit",
            mapper=resubmit_spec.mapper,
            input_paths=list(resubmit_spec.input_paths),
            output_path=f"tenants/{resubmit_tenant}/out/sampling-resubmit",
            conf=resubmit_spec.conf,
            map_cost_factor=resubmit_spec.map_cost_factor,
        )
        hit_future = service.submit(resubmission, tenant=resubmit_tenant)
        futures[(resubmit_tenant, resubmission.name)] = hit_future
        service.start()
        service.wait()
        report = service.report()
        hit_result = hit_future.result()
        cache = service.result_cache
        assert cache is not None
        cache_stats = {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache),
        }
    return bench_json({
        "schema": _SCHEMA,
        "workload": {
            "n_traces": n_traces,
            "jobs_per_tenant": jobs_per_tenant,
            "mix": "kmeans single-pass + map-only sampling",
            "k": k,
            "chunk_mb": chunk_mb,
            "seed": seed,
        },
        "simulated": {
            "interleaved_makespan_s": report.interleaved_makespan_s,
            "serial_s": report.serial_s,
            "speedup_vs_serial": report.speedup,
            "contended_window_s": report.contended_window_s,
            "max_abs_fairness_deviation": report.max_abs_deviation,
        },
        "fairness": report.tenants,
        "result_cache": {
            **cache_stats,
            "resubmission": {
                "tenant": resubmit_tenant,
                "job": hit_result.job_name,
                "cache_hit": bool(hit_future.cache_hit),
                "n_map_tasks": int(hit_result.n_map_tasks),
                "setup_charge_s": hit_result.timing.total_s,
            },
        },
    })


def _gates_multitenant(doc: Mapping[str, Any]) -> list[str]:
    """The gates on one multi-tenant document.

    * no tenant's contended-window slot share deviates from its weight
      share by more than 20% (the paper-level fair-share gate);
    * the resubmission cell was a result-cache hit that ran zero map
      tasks;
    * the fair-share interleave is no slower than running the same jobs
      back to back.
    """
    fairness_tolerance = 0.2
    problems: list[str] = []
    sim = doc.get("simulated", {})
    deviation = float(sim.get("max_abs_fairness_deviation", 1.0))
    if deviation > fairness_tolerance:
        problems.append(
            f"fairness: max |deviation| {deviation:.1%} exceeds "
            f"tolerance {fairness_tolerance:.0%}"
        )
    resub = doc.get("result_cache", {}).get("resubmission", {})
    if not resub.get("cache_hit"):
        problems.append("result cache: resubmission was not a cache hit")
    if resub.get("n_map_tasks", -1) != 0:
        problems.append(
            f"result cache: resubmission ran {resub.get('n_map_tasks')} "
            "map tasks (expected 0)"
        )
    if int(doc.get("result_cache", {}).get("hits", 0)) < 1:
        problems.append("result cache: no hits recorded")
    speedup = float(sim.get("speedup_vs_serial", 0.0))
    if speedup < 1.0:
        problems.append(
            f"interleave: simulated speedup vs serial {speedup:.2f}x < 1.00x"
        )
    return problems


# ---------------------------------------------------------------------------
# Query-serving benchmark.
# ---------------------------------------------------------------------------


def _run_query() -> str:
    """The serving trajectory: build once, reuse from the catalog, query.

    For each corpus size the same Figure-6 MapReduce build runs twice —
    once on an *unbudgeted* twin deployment whose in-memory tree is kept
    as the byte-identity reference, and once through the
    :class:`~repro.index.persistent.IndexCatalog` on a deployment capped
    at 8 MB (pages live in the spilling payload store, so at 10^6 points
    the index is served mostly from disk).  A second ``ensure`` on the
    catalog must come back as an ``index_reuse`` hit that runs **zero**
    jobs, and a seeded 64-query point/range/radius/kNN workload through
    the :class:`~repro.index.persistent.QueryEngine` must answer
    byte-identically to the in-memory reference.

    Page-fault counts, fault bytes, and simulated serving latency are
    deterministic given the workload.
    """
    from repro.index.persistent import IndexCatalog, QueryEngine
    from repro.index.rtree_mr import build_rtree_mapreduce

    budget_mb, n_queries, chunk_mb, seed = 8.0, 64, 2, 0
    results = []
    for size in SIZES:
        corpus = synthetic_corpus(size, seed=seed)
        # Reference: the identical build on an unbudgeted twin keeps the
        # merged tree in memory.  The simulator is deterministic, so this
        # tree is byte-for-byte the one the catalog persists below.
        with fresh_runner({"input/traces": corpus}, chunk_size=chunk_mb * MB) as ref_runner:
            n_partitions = max(1, ref_runner.cluster.total_reduce_slots() // 2)
            ref_tree = build_rtree_mapreduce(
                ref_runner,
                "input/traces",
                n_partitions=n_partitions,
                workdir="tmp/rtree-ref",
            ).tree

        with fresh_runner(
            {"input/traces": corpus}, chunk_size=chunk_mb * MB, budget_mb=budget_mb
        ) as runner:
            hdfs = runner.hdfs
            catalog = IndexCatalog(hdfs)
            index, built = catalog.ensure(
                runner, "input/traces", n_partitions=n_partitions
            )
            entry = catalog.entries()[0]

            before = len(runner.history.jobs())
            index, rebuilt = catalog.ensure(
                runner, "input/traces", n_partitions=n_partitions
            )
            reuse_jobs = len(runner.history.jobs()) - before

            engine = QueryEngine(index, hdfs=hdfs, history=runner.history)
            identical = True
            for kind, args in query_workload(corpus, n_queries, seed):
                got = getattr(engine, kind)(*args)
                identical = matches_reference(ref_tree, kind, args, got) and identical
            serving = engine.report()
        results.append(
            {
                "size": size,
                "n_points": int(entry.n_points),
                "n_pages": int(index.meta["n_pages"]),
                "index_bytes": int(index.meta["page_bytes"]),
                "build_sim_seconds": float(entry.build_sim_seconds),
                "reuse": {"built_first": bool(built), "rebuilt": bool(rebuilt), "jobs": int(reuse_jobs)},
                "identical_to_inmemory": bool(identical),
                "serving": serving,
            }
        )
    return bench_json({
        "schema": _SCHEMA,
        "workload": {
            "driver": "query-serving",
            "n_queries": n_queries,
            "mix": "point/range/radius/knn round-robin",
            "chunk_mb": chunk_mb,
            "seed": seed,
        },
        "budget_mb": budget_mb,
        "results": results,
    })


def _gates_query(doc: Mapping[str, Any]) -> list[str]:
    """The gates on one query-serving document.

    * every size answered byte-identically to the in-memory reference
      tree (the whole point of the persistent format);
    * the second catalog ``ensure`` was a reuse hit that ran zero jobs;
    * any index larger than the memory budget actually paged — a
      zero-fault run over a 3x-budget index means the budget was not
      enforced and the "serves under N MB" claim is untested.
    """
    problems: list[str] = []
    budget_bytes = float(doc.get("budget_mb", 0.0)) * MB
    for entry in doc.get("results", []):
        size = entry.get("size")
        if not entry.get("identical_to_inmemory"):
            problems.append(
                f"{size:,} points: served answers diverged from the "
                "in-memory reference tree"
            )
        reuse = entry.get("reuse", {})
        if not reuse.get("built_first"):
            problems.append(f"{size:,} points: first ensure was not a build")
        if reuse.get("rebuilt"):
            problems.append(f"{size:,} points: second ensure rebuilt the index")
        if reuse.get("jobs", -1) != 0:
            problems.append(
                f"{size:,} points: catalog reuse ran {reuse.get('jobs')} "
                "jobs (expected 0)"
            )
        serving = entry.get("serving", {})
        if entry.get("index_bytes", 0) > budget_bytes and not serving.get(
            "page_faults"
        ):
            problems.append(
                f"{size:,} points: index ({entry.get('index_bytes', 0) / MB:.1f} MB) "
                f"exceeds the {doc.get('budget_mb')} MB budget but served "
                "with zero page faults"
            )
    if not doc.get("results"):
        problems.append("no results in document")
    return problems


# ---------------------------------------------------------------------------
# Streaming benchmark.
# ---------------------------------------------------------------------------


def _run_stream() -> str:
    """The streaming trajectory: warm windows, cold control, equivalence.

    Three measurements over one stationary corpus (10^5 points from 50
    users over ten one-hour windows) under a fixed, feed-only chaos
    schedule (late/lost/duplicate batches — no engine
    faults, so every run completes):

    * a **warm** streaming run through a single-tenant
      :class:`~repro.mapreduce.service.JobService` — per-window simulated
      latency, k-means iterations, cache hits, late/lost accounting —
      followed by a verbatim resubmission of the last window's sampling
      job, which must come back as a result-cache hit with zero map
      tasks;
    * a **cold** control (``warm_start=False``, same datasets): the warm
      run must spend strictly fewer total k-means iterations;
    * the **equivalence matrix**: the same schedule re-run as a batch
      job sequence and as streaming runs on every executor backend —
      all byte-identical.

    Everything in the document is deterministic.
    """
    from repro.algorithms.djcluster import DJClusterParams
    from repro.algorithms.sampling import run_sampling_job
    from repro.mapreduce.chaos import run_cell
    from repro.mapreduce.failures import ChaosSchedule
    from repro.mapreduce.runner import fresh_hdfs
    from repro.mapreduce.service import JobService
    from repro.streaming.check import N_WORKERS, run_stream, stream_drive
    from repro.streaming.manager import StreamingJobManager
    from repro.streaming.source import StreamSource

    n_points, n_users, n_windows, window_s, k, chunk_mb, seed = (
        100_000, 50, 10, 3600.0, 8, 2, 0
    )
    corpus = synthetic_stream_corpus(
        n_points, n_users=n_users, n_windows=n_windows, window_s=window_s, seed=seed
    )
    chaos = ChaosSchedule(
        seed=seed + 101,
        late_batch_prob=0.08,
        lost_batch_prob=0.03,
        dup_batch_prob=0.05,
    )
    manager_kwargs: dict[str, Any] = dict(
        k=k,
        max_iter=25,
        seed=seed,
        sampling_window_s=600.0,
        dj_params=DJClusterParams(radius_m=150.0, min_pts=5),
    )
    tenant = "bench-stream"

    # Warm streaming run on a service kept open for the replay probe.
    hdfs = fresh_hdfs({}, chunk_size=chunk_mb * MB, n_workers=N_WORKERS)
    source = StreamSource(corpus, window_s, chaos=chaos, name=tenant)
    with JobService(hdfs, tenants={tenant: 1.0, "replay": 1.0}) as service:
        client = service.client(tenant)
        manager = StreamingJobManager(client, name=tenant, **manager_kwargs)
        warm = manager.run(source)
        # Result-cache probe: a second tenant resubmits the first
        # non-empty window's sampling job verbatim under a fresh output
        # path.  The cache key is (spec fingerprint, input dataset
        # versions, distributed-cache snapshot); the replay tenant's
        # cache is empty — exactly the snapshot the original window-0
        # sampling ran under, before any k-means centroids were
        # published — so this must be served with zero map tasks.
        first = min(
            (r for r in warm.results if r.window.n_points),
            key=lambda r: r.window.index,
        )
        replay = run_sampling_job(
            service.client("replay"),
            first.window.path,
            f"streams/{tenant}/replay/sampled",
            manager_kwargs["sampling_window_s"],
            technique="upper",
            name=f"{tenant}-replay-sample",
        )
        replay_hits = service.result_cache.hits if service.result_cache else 0

    # Cold control: identical schedule, no warm start.
    cold = run_stream(
        corpus, window_s, mode="service", chaos=chaos, tenant=tenant,
        chunk_size=chunk_mb * MB, warm_start=False, **manager_kwargs,
    )

    # Equivalence matrix: the batch baseline vs a streaming run on every
    # executor backend, each on a fresh deployment under the same chaos.
    def cell(executor: str, tenants=None):
        return run_cell(
            stream_drive(corpus, window_s, chaos, tenant, **manager_kwargs), {},
            n_workers=N_WORKERS, chunk_size=chunk_mb * MB, backend=executor,
            max_workers=None if executor == "serial" else 2, chaos=chaos, tenants=tenants,
        )

    labels = ["batch/serial"] + [f"stream/{executor}" for executor in BACKENDS]
    cells = [cell("serial")] + [cell(executor, {tenant: 1.0}) for executor in BACKENDS]
    baseline = cells[0]
    matches = [c.failure is None and c.signature == baseline.signature for c in cells]
    # A clean failure counts only when the baseline failed too.
    identical = (
        all(c.failure is not None for c in cells) if baseline.failure else all(matches)
    )

    warm_it = warm.total_kmeans_iterations
    cold_it = cold.total_kmeans_iterations
    return bench_json({
        "schema": _SCHEMA,
        "workload": {
            "driver": "streaming",
            "n_points": len(corpus),
            "n_users": n_users,
            "n_windows": n_windows,
            "window_s": window_s,
            "k": k,
            "max_iter": int(manager_kwargs["max_iter"]),
            "sampling_window_s": float(manager_kwargs["sampling_window_s"]),
            "chunk_mb": chunk_mb,
            "seed": seed,
            "chaos": {
                "seed": chaos.seed,
                "late_batch_prob": chaos.late_batch_prob,
                "lost_batch_prob": chaos.lost_batch_prob,
                "dup_batch_prob": chaos.dup_batch_prob,
            },
        },
        "stream": {
            "signature": warm.signature(),
            "n_windows": len(warm.results),
            "total_points": int(source.total_points),
            "late_points": int(warm.late_points),
            "lost_points": int(warm.lost_points),
            "cache_hits": int(warm.total_cache_hits),
            "windows": warm.timeline.rows,
        },
        "warm_start": {
            "warm_iterations": int(warm_it),
            "cold_iterations": int(cold_it),
            "saved_iterations": int(cold_it - warm_it),
            "savings_pct": (
                round(100.0 * (cold_it - warm_it) / cold_it, 2)
                if cold_it else 0.0
            ),
        },
        "result_cache": {
            "replay_job": f"{tenant}-replay-sample",
            "cache_hit": bool(replay.n_map_tasks == 0),
            "n_map_tasks": int(replay.n_map_tasks),
            "service_hits": int(replay_hits),
        },
        "equivalence": {
            "baseline": labels[0],
            "identical": identical,
            "cells": [
                {
                    "label": label,
                    "signature": c.signature,
                    "match": match,
                    "clean_failure": c.failed,
                }
                for label, c, match in zip(labels, cells, matches)
            ],
        },
    })


def _gates_stream(doc: Mapping[str, Any]) -> list[str]:
    """The gates on one streaming document.

    * the run covered at least 10 windows of at least 10^5 points;
    * warm-started k-means spent **strictly fewer** total iterations
      than the cold control — the incremental-analysis claim;
    * every equivalence cell (all executor backends, streaming and
      batch) was byte-identical;
    * the fixed chaos schedule actually rerouted feed batches (late or
      lost points observed), so watermark handling was exercised;
    * the verbatim sampling resubmission was served from the result
      cache with zero map tasks.
    """
    problems: list[str] = []
    stream = doc.get("stream", {})
    if int(stream.get("n_windows", 0)) < 10:
        problems.append(
            f"coverage: only {stream.get('n_windows')} windows (expected >= 10)"
        )
    if int(stream.get("total_points", 0)) < 100_000:
        problems.append(
            f"coverage: only {stream.get('total_points')} points "
            "(expected >= 100,000)"
        )
    ws = doc.get("warm_start", {})
    warm_it = int(ws.get("warm_iterations", -1))
    cold_it = int(ws.get("cold_iterations", -1))
    if not 0 <= warm_it < cold_it:
        problems.append(
            f"warm start: {warm_it} iterations vs cold {cold_it} "
            "(expected strictly fewer)"
        )
    if not doc.get("equivalence", {}).get("identical"):
        problems.append("equivalence: streaming diverged from the batch sequence")
    for cell in doc.get("equivalence", {}).get("cells", []):
        if cell.get("clean_failure"):
            problems.append(
                f"equivalence: {cell.get('label')} failed: "
                f"{cell.get('clean_failure')}"
            )
    if int(stream.get("late_points", 0)) + int(stream.get("lost_points", 0)) <= 0:
        problems.append("chaos: no late or lost points (feed faults never fired)")
    cache = doc.get("result_cache", {})
    if not cache.get("cache_hit"):
        problems.append("result cache: sampling resubmission was not a hit")
    if cache.get("n_map_tasks", -1) != 0:
        problems.append(
            f"result cache: resubmission ran {cache.get('n_map_tasks')} "
            "map tasks (expected 0)"
        )
    if len(stream.get("windows", [])) != int(stream.get("n_windows", -1)):
        problems.append("stream: window row count does not match n_windows")
    return problems


# ---------------------------------------------------------------------------
# Shuffle-byte minimization benchmark.
# ---------------------------------------------------------------------------


def _shuffle_cell(
    corpus: TraceArray,
    backend: str,
    mode: str,
    *,
    k: int,
    max_iter: int,
    **deployment: Any,
) -> dict[str, Any]:
    """One k-means run in one shuffle mode on a fresh deployment.

    ``mode="combiner"`` is the object-level combiner path (the previous
    best); ``mode="aggregation"`` declares the k-means reduce as its
    :class:`~repro.algorithms.kmeans.KMeansAggregation` monoid, which
    turns on map-side vectorized pre-aggregation and the metadata-only
    shuffle.
    """
    cell, runner = _kmeans_cell(
        corpus,
        corpus.coordinates()[:k].copy(),
        max_iter=max_iter,
        use_combiner=(mode == "combiner"),
        use_aggregation=(mode == "aggregation"),
        backend=backend,
        **deployment,
    )
    preagg = {"envelopes": 0, "raw_records": 0, "cross_node_bytes": 0}
    for event in runner.history.events:
        if event.kind == "shuffle_preagg":
            for key in preagg:
                preagg[key] += int(getattr(event.payload, key))
    return {**cell, "preagg": preagg if mode == "aggregation" else None}


def _run_shuffle() -> str:
    """Shuffle bytes moved: combiner-only vs the aggregation algebra.

    The same fixed-initial-centroid k-means run (k=11, two iterations
    over 10^6 traces) is measured in two shuffle modes on every backend,
    each at its default pool size; the shuffle-byte totals,
    simulated seconds, pre-agg accounting, and centroid digests are
    deterministic.

    Two identities gate the numbers (:func:`_gates_shuffle`): within a
    mode every backend must produce byte-identical centroids, and both
    modes must converge in the same iteration count.  (Across modes the
    centroids agree to float rounding, not bytes — the combiner reduce
    folds task partials in arrival order while the aggregation reduce
    uses the canonical node-major merge tree.)
    """
    n_traces, k, max_iter, chunk_mb, seed = 1_000_000, 11, 2, 2, 0
    cell = functools.partial(
        _shuffle_cell,
        synthetic_corpus(n_traces, seed=seed),
        k=k,
        max_iter=max_iter,
        chunk_mb=chunk_mb,
    )
    modes = {
        mode: {backend: cell(backend, mode) for backend in BACKENDS}
        for mode in ("combiner", "aggregation")
    }
    first = BACKENDS[0]
    combiner_bytes = modes["combiner"][first]["shuffle_bytes"]
    agg_bytes = modes["aggregation"][first]["shuffle_bytes"]
    return bench_json({
        "schema": _SCHEMA,
        "workload": {
            "driver": "kmeans",
            "n_traces": n_traces,
            "k": k,
            "max_iter": max_iter,
            "chunk_mb": chunk_mb,
            "cluster_workers": 4,
            "seed": seed,
        },
        "max_workers": None,
        "backends": list(BACKENDS),
        "modes": modes,
        "shuffle_bytes": {
            "combiner": int(combiner_bytes),
            "aggregation": int(agg_bytes),
            "ratio": (combiner_bytes / agg_bytes) if agg_bytes else None,
            "cross_node_bytes": int(
                modes["aggregation"][first]["preagg"]["cross_node_bytes"]
            ),
        },
    })


def _gates_shuffle(doc: Mapping[str, Any]) -> list[str]:
    """The gates on one shuffle document.

    * the aggregation algebra moves at least 10x fewer shuffle bytes
      than the combiner-only path — the headline claim;
    * within each mode, every backend produced byte-identical centroids
      and identical shuffle-byte totals;
    * the aggregation cells actually pre-aggregated (envelopes > 0 and
      raw records folded > envelopes shipped);
    * cross-node bytes never exceed total shuffle bytes.
    """
    min_ratio = 10.0
    problems: list[str] = []
    ratio = (doc.get("shuffle_bytes") or {}).get("ratio")
    if ratio is None or float(ratio) < min_ratio:
        problems.append(
            f"shuffle bytes: aggregation/combiner ratio {ratio if ratio is None else f'{ratio:.1f}'}x "
            f"is below the {min_ratio:g}x floor"
        )
    modes = doc.get("modes", {})
    for mode, cells in modes.items():
        problems += _divergence(
            cells, ("centroids_sha256", "shuffle_bytes", "n_iterations"), f"in mode {mode!r}"
        )
    for backend, cell in modes.get("aggregation", {}).items():
        preagg = cell.get("preagg") or {}
        if preagg.get("envelopes", 0) <= 0:
            problems.append(f"aggregation/{backend}: no pre-agg envelopes recorded")
        elif preagg.get("raw_records", 0) <= preagg.get("envelopes", 0):
            problems.append(
                f"aggregation/{backend}: pre-agg folded "
                f"{preagg.get('raw_records')} raw records into "
                f"{preagg.get('envelopes')} envelopes (no compression)"
            )
        if preagg.get("cross_node_bytes", 0) > cell.get("shuffle_bytes", 0):
            problems.append(
                f"aggregation/{backend}: cross-node bytes exceed total shuffle bytes"
            )
    if not modes:
        problems.append("no mode cells in document")
    return problems


# ---------------------------------------------------------------------------
# Linkage attack benchmark.
# ---------------------------------------------------------------------------


def _attack_cell(
    training: TraceArray,
    target: TraceArray,
    truth: dict[str, str],
    backend: str,
    *,
    chunk_mb: int,
    budget_mb: float | None = None,
    chaos_seed: int | None = None,
) -> dict[str, Any]:
    """One MapReduce linkage attack on a fresh deployment.

    ``budget_mb`` forces the paged/spill path; ``chaos_seed`` runs the
    attack under the chaos campaign's :func:`default fault schedule
    <repro.mapreduce.chaos.default_schedule>`.  The cell is a
    deterministic function of the inputs (and, for the chaos cell, the
    seed).
    """
    from repro.attacks.linkage_mr import SYNTH_ATTACK_PARAMS, run_linkage_attack
    from repro.mapreduce.chaos import default_schedule

    with fresh_runner(
        {"input/train": training, "input/target": target},
        chunk_size=chunk_mb * MB,
        backend=backend,
        budget_mb=budget_mb,
        chaos=default_schedule(chaos_seed) if chaos_seed is not None else None,
    ) as runner:
        outcome = run_linkage_attack(
            runner,
            "input/train",
            "input/target",
            truth,
            params=SYNTH_ATTACK_PARAMS,
        )
    linked = sum(1 for v in outcome.result.linkage.values() if v is not None)
    return {
        "sim_seconds": round(float(outcome.sim_seconds), 6),
        "signature": outcome.signature(),
        "success_rate": round(float(outcome.result.success_rate), 9),
        "linked": int(linked),
        "n_targets": int(outcome.result.n_targets),
        "pairs_scored": int(outcome.pairs_scored),
        "pairs_exact": (
            None if outcome.pairs_exact is None else int(outcome.pairs_exact)
        ),
        "cross_product": int(outcome.cross_product),
        "blocking_exact": outcome.blocking_exact,
    }


def _run_attack() -> str:
    """The MapReduce linkage attack: exactness matrix + 10^5-user scale.

    Two blocks.  The *equivalence* block runs a 40-user
    :func:`~repro.attacks.linkage_mr.synthetic_linkage_corpus` through
    the tie-break-fixed serial reference attack, then through the
    MapReduce attack on every backend (default pool sizes), under an
    8 MB memory budget, and under a fixed chaos schedule — every cell
    must reproduce the reference signature byte for byte (a gate).  The
    *scale* block runs
    the attack at 10^5 training users vs 10^5 pseudonymized targets
    (10^10 candidate pairs) on the serial backend, with the
    persistent-index audit proving the candidate blocking lossless.
    """
    from repro.attacks.deanonymization import deanonymization_attack
    from repro.attacks.linkage_mr import (
        SYNTH_ATTACK_PARAMS,
        linkage_signature,
        synthetic_linkage_corpus,
    )

    n_users, equivalence_users, chunk_mb, seed, budget_mb, chaos_seed = (
        100_000, 40, 2, 0, 8.0, 7
    )
    # Both corpora are (training, target, truth) triples.
    small = synthetic_linkage_corpus(equivalence_users, seed=seed)
    reference_signature = linkage_signature(
        deanonymization_attack(*small, params=SYNTH_ATTACK_PARAMS)
    )
    cell = functools.partial(_attack_cell, chunk_mb=chunk_mb)
    equivalence = {backend: cell(*small, backend) for backend in BACKENDS}
    equivalence["serial+budget"] = cell(*small, "serial", budget_mb=budget_mb)
    equivalence["serial+chaos"] = cell(*small, "serial", chaos_seed=chaos_seed)

    corpus = synthetic_linkage_corpus(n_users, seed=seed)
    scale = cell(*corpus, "serial")
    return bench_json({
        "schema": _SCHEMA,
        "workload": {
            "driver": "linkage",
            "n_users": n_users,
            "equivalence_users": equivalence_users,
            "radius_m": float(SYNTH_ATTACK_PARAMS.radius_m),
            "min_pts": int(SYNTH_ATTACK_PARAMS.min_pts),
            "chunk_mb": chunk_mb,
            "cluster_workers": 4,
            "seed": seed,
            "budget_mb": budget_mb,
            "chaos_seed": chaos_seed,
        },
        "max_workers": None,
        "backends": list(BACKENDS),
        "reference_signature": reference_signature,
        "equivalence": equivalence,
        "scale": scale,
    })


def _gates_attack(doc: Mapping[str, Any]) -> list[str]:
    """The gates on one attack document.

    * every equivalence cell (backends, memory budget, chaos) reproduced
      the serial reference signature byte for byte;
    * every non-chaos cell's persistent-index audit proved the candidate
      blocking lossless (``pairs_scored == pairs_exact``);
    * the scale attack actually de-anonymizes: success rate at least
      0.9 with at least one link;
    * the blocking actually blocks: the scale cell scored at least
      100x fewer pairs than the serial cross product.
    """
    min_success, min_blocking_ratio = 0.9, 100.0
    problems: list[str] = []
    reference = doc.get("reference_signature")
    equivalence = doc.get("equivalence", {})
    if not equivalence:
        problems.append("no equivalence cells in document")
    for label, cell in equivalence.items():
        if cell.get("signature") != reference:
            problems.append(
                f"equivalence/{label}: signature differs from the serial reference"
            )
        if label != "serial+chaos" and cell.get("blocking_exact") is not True:
            problems.append(
                f"equivalence/{label}: blocking audit not exact "
                f"(pairs_scored={cell.get('pairs_scored')}, "
                f"pairs_exact={cell.get('pairs_exact')})"
            )
    scale = doc.get("scale") or {}
    if not scale:
        problems.append("no scale cell in document")
        return problems
    if scale.get("blocking_exact") is not True:
        problems.append(
            f"scale: blocking audit not exact (pairs_scored="
            f"{scale.get('pairs_scored')}, pairs_exact={scale.get('pairs_exact')})"
        )
    if scale.get("linked", 0) <= 0:
        problems.append("scale: attack linked nothing")
    if float(scale.get("success_rate", 0.0)) < min_success:
        problems.append(
            f"scale: success rate {scale.get('success_rate')} is below "
            f"the {min_success:g} floor"
        )
    scored = int(scale.get("pairs_scored", 0))
    cross = int(scale.get("cross_product", 0))
    if scored <= 0 or scored * min_blocking_ratio > cross:
        problems.append(
            f"scale: blocking scored {scored:,} of {cross:,} pairs — "
            f"less than {min_blocking_ratio:g}x reduction"
        )
    return problems
