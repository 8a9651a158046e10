"""The deterministic benchmark suites behind ``repro bench``.

The simulator's cost model answers "what would this cost on the paper's
cluster?"; each suite here runs one subsystem (spill, multitenant,
query, stream, shuffle, attack) at a fixed workload and records what the
run *did* — simulated seconds, shuffle bytes, spill and paging counters,
page faults, iteration counts, result digests.  Every suite is one
:class:`Suite` declaration in :data:`SUITES`, and every result document
doubles as a regression baseline: :func:`compare_to_baseline` holds a
fresh run's declared paths to the committed ``BENCH_<suite>.json``.

A document is a pure function of the code and the parameters: nothing
here reads a clock or a resource meter, so two runs write identical
files.  Wall-clock and peak RSS are measured in one place,
``benchmarks/e2e/run.py`` (docs/PERFORMANCE.md, "Where wall-clock is
measured"), which imports this module's corpus generators.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.runner import JobRunner, fresh_runner

__all__ = [
    "synthetic_corpus",
    "synthetic_corpus_blocks",
    "synthetic_stream_corpus",
    "query_workload",
    "matches_reference",
    "Suite",
    "SUITES",
    "compare_to_baseline",
    "save_result",
    "load_result",
]

#: Corpus sizes the trajectory is measured over (traces).
DEFAULT_SIZES = (100_000, 1_000_000)

#: The contention roster: three tenants with 3:2:1 weights.
DEFAULT_TENANT_WEIGHTS = {"alice": 3.0, "bob": 2.0, "carol": 1.0}

_SCHEMA = 1


def _blob_centers(rng: np.random.Generator, n_clusters: int) -> np.ndarray:
    return np.column_stack(
        (rng.uniform(39.6, 40.3, n_clusters), rng.uniform(116.0, 116.8, n_clusters))
    )


def synthetic_corpus(
    n_traces: int,
    seed: int = 0,
    n_clusters: int = 8,
    timestamp_step: float = 1.0,
) -> TraceArray:
    """A clustered corpus of ``n_traces`` synthetic mobility traces.

    Gaussian blobs around ``n_clusters`` centers in the Beijing bounding
    box — structured enough that k-means does real work, generated in
    O(n) NumPy time so corpus construction never dominates the benchmark.
    ``timestamp_step`` spaces consecutive timestamps: at the default 1 s
    the blob-hopping points read as fast movement, while a large step
    makes every trace stationary by DJ-Cluster's speed-filter definition.
    """
    rng = np.random.default_rng(seed)
    centers = _blob_centers(rng, n_clusters)
    which = rng.integers(0, n_clusters, n_traces)
    lat = centers[which, 0] + rng.normal(0.0, 0.03, n_traces)
    lon = centers[which, 1] + rng.normal(0.0, 0.03, n_traces)
    timestamp = np.arange(n_traces, dtype=np.float64) * timestamp_step
    return TraceArray.from_columns(["bench"], lat, lon, timestamp)


def synthetic_corpus_blocks(
    n_traces: int,
    seed: int = 0,
    n_clusters: int = 8,
    block: int = 100_000,
    timestamp_step: float = 1.0,
):
    """The blob corpus as a stream of ``block``-trace pieces.

    The out-of-core twin of :func:`synthetic_corpus`: pieces feed
    ``SimulatedHDFS.put_trace_stream`` so no more than one block plus
    one chunk is ever resident during ingestion.  The draw order differs
    from the one-shot generator, so the two corpora are statistically —
    not byte — identical; a benchmark always pairs cells from the same
    generator.
    """
    rng = np.random.default_rng(seed)
    centers = _blob_centers(rng, n_clusters)
    for start in range(0, n_traces, block):
        n = min(block, n_traces - start)
        which = rng.integers(0, n_clusters, n)
        lat = centers[which, 0] + rng.normal(0.0, 0.03, n)
        lon = centers[which, 1] + rng.normal(0.0, 0.03, n)
        timestamp = np.arange(start, start + n, dtype=np.float64) * timestamp_step
        yield TraceArray.from_columns(["bench"], lat, lon, timestamp)


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
    with fresh_runner(
        datasets, chunk_size=chunk_mb * MB, reduce_locality=use_aggregation, **deployment
    ) as runner:
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
    digest = hashlib.sha256(np.ascontiguousarray(result.centroids).tobytes())
    cell = {
        "sim_seconds": result.total_sim_seconds,
        "shuffle_bytes": int(sum(s.shuffle_bytes for s in result.history)),
        "n_iterations": int(result.n_iterations),
        "centroids_sha256": digest.hexdigest(),
    }
    return cell, runner


def _check_backends(backends: Sequence[str]) -> None:
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        raise ValueError(f"unknown backend(s) {unknown}; choose from {list(BACKENDS)}")


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


def _require_identical(cells: Mapping[str, Mapping], keys: Sequence[str], where: str) -> None:
    problems = _divergence(cells, keys, where)
    if problems:
        raise RuntimeError("; ".join(problems))


def save_result(doc: Mapping[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_result(path: str | Path) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


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
        synthetic_corpus_blocks(int(size), seed=seed),
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


def _run_spill(
    sizes: Sequence[int] = DEFAULT_SIZES,
    budget_mb: float = 8.0,
    *,
    k: int = 4,
    max_iter: int = 3,
    chunk_mb: int = 2,
    seed: int = 0,
) -> dict[str, Any]:
    """Spill-on/off trajectory: what left memory at each size.

    For each corpus size, the same combiner-less k-means run executes
    twice on the serial backend — once unbudgeted (everything resident)
    and once under ``budget_mb`` (chunk store pages, map outputs and
    shuffle spill to disk) — and each cell records its spill and paging
    counters.

    Centroids must be byte-identical across the two cells of a size —
    the budget is an execution detail, never an answer change — which
    :func:`_gates_spill` checks on the finished document.
    """
    if budget_mb <= 0:
        raise ValueError("budget_mb must be positive")
    results = [
        {
            "size": int(size),
            "cells": {
                label: _spill_cell(
                    int(size), budget, k=k, max_iter=max_iter, chunk_mb=chunk_mb, seed=seed
                )
                for label, budget in (("unbudgeted", None), ("budgeted", budget_mb))
            },
        }
        for size in sizes
    ]
    return {
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
    }


def _gates_spill(doc: Mapping[str, Any]) -> list[str]:
    """Intrinsic gates on one spill document (no baseline needed).

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
# Multi-tenant contention benchmark (repro bench --multitenant).
# ---------------------------------------------------------------------------


def _run_multitenant(
    n_traces: int = 50_000,
    tenants: Mapping[str, float] | None = None,
    jobs_per_tenant: int = 4,
    *,
    k: int = 4,
    chunk_mb: int = 1,
    seed: int = 0,
) -> dict[str, Any]:
    """Contention run: a weighted tenant roster floods one JobService.

    Every tenant submits a mixed backlog — single-pass k-means jobs
    (map + combine + shuffle + reduce, per-job centroids through the
    tenant's distributed cache) and map-only sampling jobs (per-tenant
    window sizes, so nothing dedups across tenants) — against a *paused*
    service, then the dispatcher opens and drains the whole backlog
    under weighted fair share.  The first tenant additionally resubmits
    its first sampling spec verbatim under a fresh output path: the
    result-cache cell, which must come back as a hit with **zero** map
    tasks.

    Reported: the fair-share interleave's simulated makespan vs the
    serial sum, the contended-window fairness shares, and the cache
    economics — all deterministic, so they double as a regression
    baseline.
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

    weights = dict(tenants) if tenants else dict(DEFAULT_TENANT_WEIGHTS)
    if jobs_per_tenant < 2:
        raise ValueError("jobs_per_tenant must be >= 2 (the mix needs both kinds)")
    corpus = synthetic_corpus(int(n_traces), seed=seed)
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
        if not hit_future.cache_hit or hit_result.n_map_tasks != 0:
            raise RuntimeError(
                "resubmission was not served from the result cache "
                f"(cache_hit={hit_future.cache_hit}, "
                f"n_map_tasks={hit_result.n_map_tasks})"
            )
        cache_stats = {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache),
        }
    return {
        "schema": _SCHEMA,
        "workload": {
            "n_traces": int(n_traces),
            "jobs_per_tenant": int(jobs_per_tenant),
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
    }


def _gates_multitenant(
    doc: Mapping[str, Any], fairness_tolerance: float = 0.2
) -> list[str]:
    """Intrinsic gates on one multi-tenant document (no baseline needed).

    * no tenant's contended-window slot share deviates from its weight
      share by more than ``fairness_tolerance`` (the paper-level 20%
      fair-share gate);
    * the resubmission cell was a result-cache hit that ran zero map
      tasks;
    * the fair-share interleave is no slower than running the same jobs
      back to back.
    """
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


def _render_multitenant(doc: Mapping[str, Any]) -> str:
    """Terminal table for one multi-tenant benchmark document."""
    w = doc["workload"]
    sim = doc["simulated"]
    lines = [
        f"multi-tenant contention ({w['n_traces']:,} traces, "
        f"{w['jobs_per_tenant']} jobs/tenant, {w['mix']})",
        "",
        f"{'tenant':<10} {'weight':>7} {'jobs':>5} {'hits':>5} "
        f"{'slot-s':>9} {'share':>7} {'fair':>7} {'dev':>8}",
    ]
    for tenant in sorted(doc["fairness"]):
        row = doc["fairness"][tenant]
        lines.append(
            f"{tenant:<10} {row['weight']:>7.1f} {row['jobs']:>5} "
            f"{row['cache_hits']:>5} {row['slot_seconds']:>9.1f} "
            f"{row['share']:>6.1%} {row['weight_share']:>6.1%} "
            f"{row['deviation']:>+7.1%}"
        )
    resub = doc["result_cache"]["resubmission"]
    lines += [
        "",
        f"interleaved makespan {sim['interleaved_makespan_s']:.1f} sim s "
        f"vs serial {sim['serial_s']:.1f} sim s "
        f"({sim['speedup_vs_serial']:.2f}x), "
        f"max fairness deviation {sim['max_abs_fairness_deviation']:.1%} "
        f"over a {sim['contended_window_s']:.1f} s contended window",
        f"result cache: {doc['result_cache']['hits']} hit(s) / "
        f"{doc['result_cache']['misses']} miss(es); resubmission "
        f"{resub['job']!r} ran {resub['n_map_tasks']} map tasks "
        f"(setup charge {resub['setup_charge_s']:.1f} sim s)",
    ]
    return "\n".join(lines)


def _render_spill(doc: Mapping[str, Any]) -> str:
    """Terminal table for one spill benchmark document."""
    w = doc["workload"]
    lines = [
        f"out-of-core execution (k-means, k={w['k']}, "
        f"{w['max_iter']} iterations, no combiner, serial backend; "
        f"budget {doc['budget_mb']} MB)",
        "",
        f"{'traces':>12}  {'mode':>10}  {'runs':>6}  {'spilled':>10}  "
        f"{'pages out':>9}  {'paged out':>10}  {'paged in':>10}",
    ]
    for entry in doc["results"]:
        for label in ("unbudgeted", "budgeted"):
            cell = entry["cells"][label]
            spill = cell.get("spill") or {}
            paging = cell.get("paging") or {}
            spilled = spill.get("run_bytes", 0) + spill.get("map_spill_bytes", 0)
            lines.append(
                f"{entry['size']:>12,}  {label:>10}  "
                f"{spill.get('runs_spilled', 0):>6}  {spilled / MB:>8.1f}MB  "
                f"{paging.get('pages_out', 0):>9}  "
                f"{paging.get('page_out_bytes', 0) / MB:>8.1f}MB  "
                f"{paging.get('page_in_bytes', 0) / MB:>8.1f}MB"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Query-serving benchmark (repro bench --query).
# ---------------------------------------------------------------------------


def query_workload(
    corpus, n_queries: int, seed: int
) -> list[tuple[str, tuple[float, ...]]]:
    """A seeded mix of point/range/radius/kNN queries anchored on corpus
    points (so point lookups actually hit) — deterministic given ``seed``."""
    rng = np.random.default_rng(seed + 1000)
    coords = corpus.coordinates()
    anchors = coords[rng.integers(0, len(coords), n_queries)]
    kinds = ("point", "range", "radius", "knn")
    out: list[tuple[str, tuple[float, ...]]] = []
    for i in range(n_queries):
        lat, lon = float(anchors[i, 0]), float(anchors[i, 1])
        kind = kinds[i % len(kinds)]
        if kind == "point":
            out.append(("point", (lat, lon)))
        elif kind == "range":
            out.append(("range", (lat - 0.01, lon - 0.01, lat + 0.01, lon + 0.01)))
        elif kind == "radius":
            out.append(("radius", (lat, lon, 250.0)))
        else:
            out.append(("knn", (lat, lon, 8)))
    return out


def matches_reference(ref_tree, kind: str, args: tuple[float, ...], got: Any) -> bool:
    """Whether ``got``, the served answer to one :func:`query_workload`
    query, is byte-identical to the in-memory ``ref_tree``'s (kNN
    including tie order)."""
    from repro.index.rtree import Rect

    if kind == "knn":
        return got == ref_tree.knn(*args)
    if kind == "radius":
        return np.array_equal(got, ref_tree.query_radius(*args))
    if kind == "point":
        args = (args[0], args[1], args[0], args[1])
    return np.array_equal(got, ref_tree.query_rect(Rect(*args)))


def _run_query(
    sizes: Sequence[int] = DEFAULT_SIZES,
    budget_mb: float = 8.0,
    *,
    n_queries: int = 64,
    chunk_mb: int = 2,
    seed: int = 0,
) -> dict[str, Any]:
    """The serving trajectory: build once, reuse from the catalog, query.

    For each corpus size the same Figure-6 MapReduce build runs twice —
    once on an *unbudgeted* twin deployment whose in-memory tree is kept
    as the byte-identity reference, and once through the
    :class:`~repro.index.persistent.IndexCatalog` on a deployment capped
    at ``budget_mb`` (pages live in the spilling payload store, so at
    10^6 points the index is served mostly from disk).  A second
    ``ensure`` on the catalog must come back as an ``index_reuse`` hit
    that runs **zero** jobs, and a seeded point/range/radius/kNN workload
    through the :class:`~repro.index.persistent.QueryEngine` must answer
    byte-identically to the in-memory reference.

    Page-fault counts, fault bytes, and simulated serving latency are
    deterministic given the workload, so they double as the regression
    baseline.
    """
    from repro.index.persistent import IndexCatalog, QueryEngine
    from repro.index.rtree_mr import build_rtree_mapreduce

    if budget_mb <= 0:
        raise ValueError("budget_mb must be positive")
    if n_queries < 4:
        raise ValueError("n_queries must be >= 4 (one of each kind)")
    results = []
    for size in sizes:
        corpus = synthetic_corpus(int(size), seed=seed)
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
            if not built:
                raise RuntimeError(f"first ensure at size {size} was not a build")
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
                "size": int(size),
                "n_points": int(entry.n_points),
                "n_pages": int(index.meta["n_pages"]),
                "index_bytes": int(index.meta["page_bytes"]),
                "build_sim_seconds": float(entry.build_sim_seconds),
                "reuse": {"built_first": bool(built), "rebuilt": bool(rebuilt), "jobs": int(reuse_jobs)},
                "identical_to_inmemory": bool(identical),
                "serving": serving,
            }
        )
    return {
        "schema": _SCHEMA,
        "workload": {
            "driver": "query-serving",
            "n_queries": int(n_queries),
            "mix": "point/range/radius/knn round-robin",
            "chunk_mb": chunk_mb,
            "seed": seed,
        },
        "budget_mb": budget_mb,
        "results": results,
    }


def _gates_query(doc: Mapping[str, Any]) -> list[str]:
    """Intrinsic gates on one query-serving document (no baseline needed).

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


def _render_query(doc: Mapping[str, Any]) -> str:
    """Terminal table for one query-serving benchmark document."""
    w = doc["workload"]
    lines = [
        f"index serving ({w['n_queries']} queries, {w['mix']}; "
        f"budget {doc['budget_mb']} MB)",
        "",
        f"{'points':>12}  {'index':>9}  {'build sim':>10}  {'reuse':>6}  "
        f"{'faults':>7}  {'paged in':>9}  {'sim latency':>12}  {'identical':>9}",
    ]
    for entry in doc["results"]:
        serving = entry["serving"]
        reuse = entry["reuse"]
        hit = "hit" if not reuse["rebuilt"] and reuse["jobs"] == 0 else "MISS"
        lines.append(
            f"{entry['n_points']:>12,}  {entry['index_bytes'] / MB:>7.1f}MB  "
            f"{entry['build_sim_seconds']:>9.1f}s  {hit:>6}  "
            f"{serving['page_faults']:>7}  {serving['fault_bytes'] / MB:>7.1f}MB  "
            f"{serving['mean_latency_ms']:>9.2f}ms  "
            f"{'yes' if entry['identical_to_inmemory'] else 'NO':>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Streaming benchmark (repro bench --stream).
# ---------------------------------------------------------------------------


def synthetic_stream_corpus(
    n_points: int,
    n_users: int = 50,
    n_windows: int = 10,
    window_s: float = 3600.0,
    seed: int = 0,
    n_clusters: int = 8,
) -> TraceArray:
    """A stationary multi-user corpus cut for streaming benchmarks.

    Every user dwells at two fixed anchors — a "home" and a "work"
    offset from the shared blob centers — and hops between them on a
    slow square wave (period 1.5 windows).  Two properties follow by
    construction.  First, consecutive *sampled* points at an anchor are
    tens of meters apart over hundreds of seconds, i.e. stationary by
    DJ-Cluster's speed-filter definition, so the windowed POI extraction
    has real clusters to find.  Second, the blob structure is identical
    from window to window, so k-means warm-started from the previous
    window's centroids converges in strictly fewer iterations than a
    cold start — the incremental-analysis speedup the streaming layer
    claims, made measurable.
    """
    if n_users < 1 or n_windows < 1:
        raise ValueError("n_users and n_windows must be positive")
    rng = np.random.default_rng(seed)
    centers = _blob_centers(rng, n_clusters)
    home = centers[np.arange(n_users) % n_clusters] + rng.normal(
        0.0, 0.004, (n_users, 2)
    )
    work = centers[(np.arange(n_users) + 3) % n_clusters] + rng.normal(
        0.0, 0.004, (n_users, 2)
    )
    per_user = max(1, n_points // n_users)
    n = per_user * n_users
    ui = np.repeat(np.arange(n_users), per_user)
    idx = np.tile(np.arange(per_user), n_users)
    span = n_windows * window_s
    # Evenly spaced emissions with a per-user phase so no two feeds
    # share a timestamp; max(ts) < span keeps exactly n_windows windows.
    ts = (idx + ui / n_users) * (span / per_user)
    period = 1.5 * window_s
    at_work = ((ts // period).astype(np.int64) + ui) % 2 == 1
    anchor = np.where(at_work[:, None], work[ui], home[ui])
    lat = anchor[:, 0] + rng.normal(0.0, 3e-4, n)
    lon = anchor[:, 1] + rng.normal(0.0, 3e-4, n)
    users = np.array([f"u{i:04d}" for i in range(n_users)])
    return TraceArray.from_columns(users[ui], lat, lon, ts, np.zeros(n))


def _run_stream(
    n_points: int = 100_000,
    n_users: int = 50,
    n_windows: int = 10,
    window_s: float = 3600.0,
    *,
    k: int = 8,
    chunk_mb: int = 2,
    seed: int = 0,
    executors: Sequence[str] = ("serial", "threads", "processes"),
) -> dict[str, Any]:
    """The streaming trajectory: warm windows, cold control, equivalence.

    Three measurements over one stationary corpus under a fixed,
    feed-only chaos schedule (late/lost/duplicate batches — no engine
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

    Everything is deterministic given the parameters, so the document
    doubles as a regression baseline for ``repro bench --stream --check``.
    """
    from repro.algorithms.djcluster import DJClusterParams
    from repro.algorithms.sampling import run_sampling_job
    from repro.mapreduce.failures import ChaosSchedule
    from repro.mapreduce.service import JobService
    from repro.streaming.check import run_stream, run_stream_equivalence
    from repro.streaming.manager import StreamingJobManager
    from repro.streaming.source import StreamSource

    if n_windows < 2:
        raise ValueError("n_windows must be >= 2 (warm start needs a history)")
    corpus = synthetic_stream_corpus(
        int(n_points), n_users=n_users, n_windows=n_windows,
        window_s=window_s, seed=seed,
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
    hdfs = SimulatedHDFS(paper_cluster(6), chunk_size=chunk_mb * MB, seed=0)
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

    # Equivalence matrix: batch baseline vs every executor backend.
    report = run_stream_equivalence(
        corpus, window_s, chaos=chaos,
        executors=tuple(executors), max_workers=2,
        tenant=tenant, chunk_size=chunk_mb * MB, **manager_kwargs,
    )

    warm_it = warm.total_kmeans_iterations
    cold_it = cold.total_kmeans_iterations
    return {
        "schema": _SCHEMA,
        "workload": {
            "driver": "streaming",
            "n_points": len(corpus),
            "n_users": int(n_users),
            "n_windows": int(n_windows),
            "window_s": float(window_s),
            "k": int(k),
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
            "baseline": report.baseline.label,
            "identical": bool(report.identical),
            "cells": [
                {
                    "label": c.label,
                    "signature": c.signature,
                    "match": (
                        not c.clean_failure
                        and c.signature == report.baseline.signature
                    ),
                    "clean_failure": c.failed,
                }
                for c in [report.baseline, *report.cells]
            ],
        },
    }


def _gates_stream(doc: Mapping[str, Any]) -> list[str]:
    """Intrinsic gates on one streaming document (no baseline needed).

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


def _render_stream(doc: Mapping[str, Any]) -> str:
    """Terminal table for one streaming benchmark document."""
    w = doc["workload"]
    stream = doc["stream"]
    ws = doc["warm_start"]
    lines = [
        f"streaming windows ({stream['total_points']:,} points, "
        f"{stream['n_windows']} windows of {w['window_s']:g}s, "
        f"k={w['k']}, feed chaos on)",
        "",
        f"{'win':>4} {'points':>8} {'late':>6} {'lost':>6} {'dup':>5} "
        f"{'sampled':>8} {'k-it':>5} {'warm':>5} {'pois':>5} "
        f"{'risk':>6} {'sim-lat':>9} {'hits':>5}",
    ]
    for r in stream["windows"]:
        lines.append(
            f"{r['window']:>4} {r['n_points']:>8,} {r['late_points']:>6} "
            f"{r['lost_points']:>6} {r['dup_points']:>5} "
            f"{r['n_sampled']:>8,} {r['kmeans_iterations']:>5} "
            f"{('yes' if r['warm_start'] else 'no'):>5} {r['n_pois']:>5} "
            f"{r['risk']:>6.3f} {r['latency_s']:>8.1f}s {r['cache_hits']:>5}"
        )
    cells = doc["equivalence"]["cells"]
    matrix = ", ".join(
        f"{c['label']}={'ok' if c['match'] else 'FAIL'}" for c in cells
    )
    cache = doc["result_cache"]
    lines += [
        "",
        f"warm start: {ws['warm_iterations']} iterations vs "
        f"{ws['cold_iterations']} cold "
        f"({ws['saved_iterations']} saved, {ws['savings_pct']:.0f}%)",
        f"equivalence: {matrix}",
        f"result cache: replay {cache['replay_job']!r} "
        f"{'hit' if cache['cache_hit'] else 'MISS'} "
        f"({cache['n_map_tasks']} map tasks)",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shuffle-byte minimization benchmark (repro bench --shuffle).
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
    turns on map-side vectorized pre-aggregation, the metadata-only
    shuffle, and locality-aware reduce placement.
    """
    from repro.observability.events import EventKind

    if mode not in ("combiner", "aggregation"):
        raise ValueError(f"unknown shuffle mode {mode!r}")
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
        if event.kind == EventKind.SHUFFLE_PREAGG:
            for key in preagg:
                preagg[key] += int(event.data.get(key, 0))
    return {**cell, "preagg": preagg if mode == "aggregation" else None}


def _run_shuffle(
    n_traces: int = 1_000_000,
    backends: Sequence[str] = BACKENDS,
    *,
    k: int = 11,
    max_iter: int = 2,
    chunk_mb: int = 2,
    workers: int | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """Shuffle bytes moved: combiner-only vs the aggregation algebra.

    The same fixed-initial-centroid k-means run (k=``k``,
    ``max_iter`` iterations over 10^6 traces by default) is measured in
    two shuffle modes on every backend; the shuffle-byte totals,
    simulated seconds, pre-agg accounting, and centroid digests are
    deterministic.

    Two identities gate the numbers before any ratio is reported: within
    a mode every backend must produce byte-identical centroids, and both
    modes must converge in the same iteration count.  (Across modes the
    centroids agree to float rounding, not bytes — the combiner reduce
    folds task partials in arrival order while the aggregation reduce
    uses the canonical node-major merge tree.)
    """
    _check_backends(backends)
    cell = functools.partial(
        _shuffle_cell,
        synthetic_corpus(int(n_traces), seed=seed),
        k=k,
        max_iter=max_iter,
        chunk_mb=chunk_mb,
        max_workers=workers,
    )
    modes: dict[str, dict[str, dict[str, Any]]] = {}
    for mode in ("combiner", "aggregation"):
        modes[mode] = {backend: cell(backend, mode) for backend in backends}
        _require_identical(
            modes[mode], ("centroids_sha256", "shuffle_bytes"), f"in mode {mode!r}"
        )
    first = backends[0]
    combiner_bytes = modes["combiner"][first]["shuffle_bytes"]
    agg_bytes = modes["aggregation"][first]["shuffle_bytes"]
    return {
        "schema": _SCHEMA,
        "workload": {
            "driver": "kmeans",
            "n_traces": int(n_traces),
            "k": int(k),
            "max_iter": int(max_iter),
            "chunk_mb": int(chunk_mb),
            "cluster_workers": 4,
            "seed": int(seed),
        },
        "max_workers": workers,
        "backends": list(backends),
        "modes": modes,
        "shuffle_bytes": {
            "combiner": int(combiner_bytes),
            "aggregation": int(agg_bytes),
            "ratio": (combiner_bytes / agg_bytes) if agg_bytes else None,
            "cross_node_bytes": int(
                modes["aggregation"][first]["preagg"]["cross_node_bytes"]
            ),
        },
    }


def _gates_shuffle(doc: Mapping[str, Any], min_ratio: float = 10.0) -> list[str]:
    """Intrinsic gates on one shuffle document (no baseline needed).

    * the aggregation algebra moves at least ``min_ratio`` x fewer
      shuffle bytes than the combiner-only path — the headline claim;
    * within each mode, every backend produced byte-identical centroids
      and identical shuffle-byte totals;
    * the aggregation cells actually pre-aggregated (envelopes > 0 and
      raw records folded > envelopes shipped);
    * cross-node bytes never exceed total shuffle bytes.
    """
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


def _render_shuffle(doc: Mapping[str, Any]) -> str:
    """Terminal table for one shuffle benchmark document."""
    w = doc["workload"]
    sb = doc["shuffle_bytes"]
    lines = [
        f"shuffle-byte minimization (k-means, {w['n_traces']:,} traces, "
        f"k={w['k']}, {w['max_iter']} iterations)",
        "",
        f"{'mode':>12}  {'backend':>10}  {'shuffle':>12}  {'cross-node':>11}  "
        f"{'sim':>9}",
    ]
    for mode in ("combiner", "aggregation"):
        for backend in doc["backends"]:
            cell = doc["modes"][mode][backend]
            cross = (
                f"{cell['preagg']['cross_node_bytes']:>10,}B"
                if cell.get("preagg")
                else f"{'-':>11}"
            )
            lines.append(
                f"{mode:>12}  {backend:>10}  {cell['shuffle_bytes']:>11,}B  "
                f"{cross}  {cell['sim_seconds']:>8.1f}s"
            )
    agg = doc["modes"]["aggregation"][doc["backends"][0]]
    lines += [
        "",
        f"shuffle bytes: combiner {sb['combiner']:,} B -> aggregation "
        f"{sb['aggregation']:,} B ({sb['ratio']:.1f}x fewer; "
        f"{sb['cross_node_bytes']:,} B actually crossed nodes)",
        f"pre-agg: {agg['preagg']['raw_records']:,} raw records folded into "
        f"{agg['preagg']['envelopes']:,} envelopes",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Linkage attack benchmark (repro bench --attack).
# ---------------------------------------------------------------------------


def _attack_cell(
    training: TraceArray,
    target: TraceArray,
    truth: dict[str, str],
    backend: str,
    *,
    chunk_mb: int,
    max_workers: int | None,
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
        max_workers=max_workers,
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


def _run_attack(
    n_users: int = 100_000,
    backends: Sequence[str] = BACKENDS,
    *,
    equivalence_users: int = 40,
    chunk_mb: int = 2,
    workers: int | None = None,
    seed: int = 0,
    budget_mb: float = 8.0,
    chaos_seed: int = 7,
) -> dict[str, Any]:
    """The MapReduce linkage attack: exactness matrix + 10^5-user scale.

    Two blocks.  The *equivalence* block runs a small
    :func:`~repro.attacks.linkage_mr.synthetic_linkage_corpus` through
    the tie-break-fixed serial reference attack, then through the
    MapReduce attack on every backend, under a ``budget_mb`` memory
    budget, and under a fixed chaos schedule — every cell must reproduce
    the reference signature byte for byte (divergence raises before a
    document is even produced).  The *scale* block runs the attack at
    ``n_users`` training users vs ``n_users`` pseudonymized targets
    (10^10 candidate pairs) on the serial backend, with the
    persistent-index audit proving the candidate blocking lossless.
    """
    from repro.attacks.linkage_mr import (
        SYNTH_ATTACK_PARAMS,
        deanonymization_attack_reference,
        linkage_signature,
        synthetic_linkage_corpus,
    )

    _check_backends(backends)
    # Both corpora are (training, target, truth) triples.
    small = synthetic_linkage_corpus(int(equivalence_users), seed=seed)
    reference_signature = linkage_signature(
        deanonymization_attack_reference(*small, params=SYNTH_ATTACK_PARAMS)
    )
    cell = functools.partial(_attack_cell, chunk_mb=chunk_mb, max_workers=workers)
    equivalence = {backend: cell(*small, backend) for backend in backends}
    equivalence["serial+budget"] = cell(*small, "serial", budget_mb=budget_mb)
    equivalence["serial+chaos"] = cell(*small, "serial", chaos_seed=chaos_seed)
    _require_identical(
        {"the serial reference attack": {"signature": reference_signature}, **equivalence},
        ("signature",),
        "in the equivalence block",
    )

    corpus = synthetic_linkage_corpus(int(n_users), seed=seed)
    scale = cell(*corpus, "serial")
    return {
        "schema": _SCHEMA,
        "workload": {
            "driver": "linkage",
            "n_users": int(n_users),
            "equivalence_users": int(equivalence_users),
            "radius_m": float(SYNTH_ATTACK_PARAMS.radius_m),
            "min_pts": int(SYNTH_ATTACK_PARAMS.min_pts),
            "chunk_mb": int(chunk_mb),
            "cluster_workers": 4,
            "seed": int(seed),
            "budget_mb": float(budget_mb),
            "chaos_seed": int(chaos_seed),
        },
        "max_workers": workers,
        "backends": list(backends),
        "reference_signature": reference_signature,
        "equivalence": equivalence,
        "scale": scale,
    }


def _gates_attack(
    doc: Mapping[str, Any], min_success: float = 0.9, min_blocking_ratio: float = 100.0
) -> list[str]:
    """Intrinsic gates on one attack document (no baseline needed).

    * every equivalence cell (backends, memory budget, chaos) reproduced
      the serial reference signature byte for byte;
    * every non-chaos cell's persistent-index audit proved the candidate
      blocking lossless (``pairs_scored == pairs_exact``);
    * the scale attack actually de-anonymizes: success rate at least
      ``min_success`` with at least one link;
    * the blocking actually blocks: the scale cell scored at least
      ``min_blocking_ratio`` x fewer pairs than the serial cross
      product.
    """
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


def _render_attack(doc: Mapping[str, Any]) -> str:
    """Terminal table for one attack benchmark document."""
    w = doc["workload"]
    lines = [
        f"linkage attack ({w['n_users']:,} users vs {w['n_users']:,} pseudonyms; "
        f"equivalence on {w['equivalence_users']} users)",
        "",
        f"{'cell':>14}  {'success':>8}  {'linked':>7}  {'pairs':>10}  "
        f"{'exact':>5}  {'sim':>9}",
    ]
    cells = dict(doc.get("equivalence", {}))
    if doc.get("scale"):
        cells["scale"] = doc["scale"]
    for label, cell in cells.items():
        exact = {True: "yes", False: "NO", None: "-"}[cell.get("blocking_exact")]
        lines.append(
            f"{label:>14}  {cell['success_rate']:>8.2%}  {cell['linked']:>7,}  "
            f"{cell['pairs_scored']:>10,}  {exact:>5}  "
            f"{cell['sim_seconds']:>8.1f}s"
        )
    scale = doc.get("scale") or {}
    if scale:
        lines += [
            "",
            f"blocking: {scale['pairs_scored']:,} pairs scored of "
            f"{scale['cross_product']:,} serial cross product "
            f"({scale['cross_product'] / max(scale['pairs_scored'], 1):,.0f}x fewer)",
            f"all {len(doc.get('equivalence', {}))} equivalence cells match the "
            f"serial reference signature {doc['reference_signature'][:16]}…",
        ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The suites: one declaration per `repro bench` mode, one comparison.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``repro bench`` mode, declared (``--<name>`` selects it).

    ``run`` takes the ``repro bench`` options named in ``options`` as
    keyword arguments; ``gates`` are the intrinsic checks on one document
    (no baseline needed).  ``pinned`` fields must equal the baseline's
    before anything is compared, and ``compared`` lists the ``(path,
    rule, tolerance)`` triples :func:`compare_to_baseline` holds against
    it; everything else in a document is recorded, never compared.
    """

    name: str
    run: Callable[..., dict[str, Any]]
    gates: Callable[[Mapping[str, Any]], list[str]]
    render: Callable[[Mapping[str, Any]], str]
    options: tuple[str, ...] = ()
    pinned: tuple[str, ...] = ("schema", "workload")
    compared: tuple[tuple[str, str, float], ...] = ()

    @property
    def baseline(self) -> Path:
        """The committed baseline, which is also the default ``--out``."""
        return Path("benchmarks") / "results" / f"BENCH_{self.name}.json"


#: The deterministic fields of one linkage-attack cell.
_ATTACK_CELL = (
    "{signature,sim_seconds,success_rate,linked,n_targets,"
    "pairs_scored,pairs_exact,cross_product,blocking_exact}"
)

SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "spill", _run_spill, _gates_spill, _render_spill,
            options=("sizes", "budget_mb", "k", "max_iter"),
            pinned=("schema", "workload", "budget_mb"),
            compared=(
                ("results.*.cells.*.{n_iterations,centroids_sha256,spill,paging}", "exact", 0.0),
            ),
        ),
        Suite(
            "multitenant", _run_multitenant, _gates_multitenant, _render_multitenant,
            compared=(
                ("simulated.{interleaved_makespan_s,serial_s,contended_window_s}", "rel", 0.01),
                ("fairness.*.share", "abs", 0.01),
            ),
        ),
        Suite(
            "query", _run_query, _gates_query, _render_query,
            options=("sizes", "budget_mb"),
            pinned=("schema", "workload", "budget_mb"),
            compared=(
                ("results.*.{build_sim_seconds,n_pages,index_bytes}", "rel", 0.01),
                ("results.*.serving.{page_faults,fault_bytes,latency_s,results}", "rel", 0.01),
            ),
        ),
        Suite(
            "stream", _run_stream, _gates_stream, _render_stream,
            compared=(("{stream,warm_start,equivalence,result_cache}", "exact", 0.0),),
        ),
        Suite(
            "shuffle", _run_shuffle, _gates_shuffle, _render_shuffle,
            options=("backends", "workers"),
            compared=(
                ("shuffle_bytes", "exact", 0.0),
                (
                    "modes.*.*.{shuffle_bytes,n_iterations,centroids_sha256,sim_seconds,preagg}",
                    "exact",
                    0.0,
                ),
            ),
        ),
        Suite(
            "attack", _run_attack, _gates_attack, _render_attack,
            options=("backends", "workers", "budget_mb"),
            compared=(
                ("reference_signature", "exact", 0.0),
                (f"equivalence.*.{_ATTACK_CELL}", "exact", 0.0),
                (f"scale.{_ATTACK_CELL}", "exact", 0.0),
            ),
        ),
    )
}

class _Absent:
    """What a declared path resolves to on a side that does not have it."""

    def __repr__(self) -> str:
        return "<absent>"


_ABSENT = _Absent()


def _resolve(
    pattern: str, current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> list[tuple[str, Any, Any]]:
    """Every concrete ``(path, now, then)`` a declared path pattern names.

    A pattern is dot-separated segments: a literal key, ``{a,b}``
    alternatives, or ``*`` — every key the run and the baseline *share*,
    so a run restricted to some sizes or backends is compared where it
    overlaps.  A per-size ``results`` list is addressed by corpus size,
    not by position.  A literal key missing from a side resolves to
    ``_ABSENT`` there rather than vanishing, so it gets flagged.
    """
    matches = [("", current, baseline)]
    for segment in pattern.split("."):
        step = []
        for path, *sides in matches:
            now, then = (
                {str(e["size"]): e for e in side} if isinstance(side, list) else side
                for side in sides
            )
            now, then = (side if isinstance(side, Mapping) else {} for side in (now, then))
            keys = now.keys() & then.keys() if segment == "*" else segment.strip("{}").split(",")
            step += [
                (f"{path}.{key}".lstrip("."), now.get(key, _ABSENT), then.get(key, _ABSENT))
                for key in sorted(keys)
            ]
        matches = step
    return matches


def _drifted(rule: str, tolerance: float, now: Any, then: Any) -> bool:
    """The three compare rules: ``exact`` equality, ``rel`` (fractional,
    with a 1e-9 absolute floor so a zero baseline still compares) and
    ``abs`` (absolute difference).  An absent side always drifts."""
    if now is _ABSENT or then is _ABSENT:
        return True
    if rule == "exact":
        return now != then
    if rule == "rel":
        return abs(float(now) - float(then)) > max(abs(float(then)) * tolerance, 1e-9)
    if rule == "abs":
        return abs(float(now) - float(then)) > tolerance
    raise ValueError(f"unknown compare rule {rule!r}")


def compare_to_baseline(
    suite: Suite, current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> list[str]:
    """Drift of ``current`` versus a committed ``baseline``, for any suite.

    Returns a list of human-readable problems; empty means no drift.
    First the suite's pinned fields must match — a differing one yields
    the single "schema mismatch" / "workload mismatch" message and
    nothing else, because documents of different shapes or parameters
    have nothing comparable in them.  Then every declared path is
    resolved (:func:`_resolve`) and held to its rule (:func:`_drifted`);
    a declared path that names nothing is itself a problem, never a
    silent pass.
    """
    for field in suite.pinned:
        if baseline.get(field) != current.get(field):
            return [
                f"{field} mismatch: baseline {baseline.get(field)!r} vs current "
                f"{current.get(field)!r} (run with the baseline's parameters)"
            ]
    problems = []
    for pattern, rule, path_tolerance in suite.compared:
        matches = _resolve(pattern, current, baseline)
        if not matches:
            problems.append(f"{pattern}: names nothing this run and the baseline share")
        for path, now, then in matches:
            if _drifted(rule, path_tolerance, now, then):
                now, then = (
                    "(section)" if isinstance(side, (Mapping, list)) else repr(side)
                    for side in (now, then)
                )
                how = f"{rule} {path_tolerance:g}" if path_tolerance else rule
                problems.append(f"{path}: {now} vs baseline {then} ({how})")
    return problems
