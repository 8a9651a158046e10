"""The seven headline workloads: inputs, deployment, timed call, checks.

A workload is driven in four steps, the first two of which are *set-up*
and only the third is timed:

1. ``make_inputs(seed, scale)`` — generate the corpus (and query mix,
   fault schedule, ...) from the seed;
2. ``deploy(inputs, stack)`` — a fresh ``SimulatedHDFS`` with the inputs
   ingested plus a fresh runner or service, closed by ``stack``;
3. ``run(dep, inputs)`` — the timed region: input in HDFS to
   result in the driver;
4. ``observe`` / ``signature`` / ``check`` — untimed: layer counts read
   off the deployment, a fingerprint that must not change between
   repeats, and the comparison against an independent oracle.

The program under test receives only generated inputs — never the seed
or a workload name.  Sizes at ``--scale 1`` fit the benchmark driver's
time cap on the 2-core sandbox; ``--scale 5`` is the paper-sized run
(10^6 traces; 60 users in the city, 3 000 linkage users).
"""

from __future__ import annotations

import hashlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.algorithms import djcluster as djcluster_mod
from repro.algorithms import kmeans as kmeans_mod
from repro.algorithms import sampling as sampling_mod
from repro.algorithms.djcluster import DJClusterParams
from repro.attacks import linkage_mr
from repro.geo.distance import haversine_m
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.index.persistent import IndexCatalog, QueryEngine
from repro.mapreduce.bench import (
    synthetic_corpus,
    synthetic_corpus_blocks,
    synthetic_stream_corpus,
)
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.service import JobService
from repro.streaming.manager import StreamingJobManager, StreamRunResult
from repro.streaming.source import StreamSource

__all__ = ["WORKLOADS", "Workload"]

#: 512 KB chunks keep ~25 map tasks per pass over the scale-1 corpora,
#: the fan-out the 2 MB chunks of ``repro bench`` give at 10^6 traces.
CHUNK_BYTES = MB // 2

#: Memory budget of the out-of-core workloads at ``--scale 1``; grows
#: with the scale so the working set stays the same multiple of it
#: (8 MB against 10^6 traces at ``--scale 5``).
BUDGET_MB = 1.6

KMEANS_K = 11
KMEANS_ITERATIONS = 8


class TimedRunner(JobRunner):
    """A ``JobRunner`` whose caller keeps a stopwatch on every job: the
    latency a client of ``run()`` sees, taken on the client's side."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.job_seconds: list[float] = []

    def run(self, job):
        start = perf_counter()
        try:
            return super().run(job)
        finally:
            self.job_seconds.append(perf_counter() - start)


def _sha(*blobs: bytes) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def _spill_counts(dep) -> dict[str, int]:
    """Out-of-core counters of one deployment (all zero when unbudgeted)."""
    runs = getattr(dep.runner, "spill_stats", None)
    paging = dep.hdfs.spill_stats
    return {
        "spill.run_bytes": runs.run_bytes if runs else 0,
        "spill.merge_bytes": runs.merge_bytes if runs else 0,
        "spill.pages_in": paging.pages_in if paging else 0,
        "spill.page_in_bytes": paging.page_in_bytes if paging else 0,
        "spill.pages_out": paging.pages_out if paging else 0,
        "spill.page_out_bytes": paging.page_out_bytes if paging else 0,
    }


@dataclass
class Workload:
    name: str
    why: str
    #: What one operation is ("job", "query", "window") and the tail
    #: percentile its sample count supports: the highest one with at
    #: least ten samples beyond it at ``min_ops`` operations — except that
    #: queries stop at p95, because their p99 moved 13-25 % between runs
    #: of one commit (p95: 5 %) and could not carry a bound.
    op: str
    tail_percentile: int
    min_ops: int
    workers: int = 1

    def make_inputs(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def deploy(self, inputs, stack: ExitStack) -> Any:
        raise NotImplementedError

    def run(self, dep, inputs) -> Any:
        raise NotImplementedError

    def op_seconds(self, dep, result) -> list[float]:
        return list(dep.runner.job_seconds)

    def observe(self, dep, inputs, result) -> dict[str, float]:
        """Layer counts only the deployment or the result knows."""
        out = _spill_counts(dep)
        out["simtime.sim_s"] = float(dep.runner.history.clock)
        return out

    def signature(self, result) -> str:
        raise NotImplementedError

    def check(self, inputs, result) -> list[str]:
        """Failed correctness checks, as one-line messages."""
        raise NotImplementedError


# -- k-means -----------------------------------------------------------------


@dataclass
class KMeans(Workload):
    executor: str = "serial"
    spill: bool = False

    def make_inputs(self, seed, scale):
        n = max(2_000, int(200_000 * scale))
        if self.spill:
            # Never materialized: the corpus reaches HDFS block by block.
            rng = np.random.default_rng(seed + 7)
            init = np.column_stack(
                (rng.uniform(39.6, 40.3, KMEANS_K), rng.uniform(116.0, 116.8, KMEANS_K))
            )
            return SimpleNamespace(
                n=n, seed=seed, corpus=None, init=init, traces=n,
                budget_mb=BUDGET_MB * scale,
            )
        corpus = synthetic_corpus(n, seed=seed)
        init = corpus.coordinates()[:KMEANS_K].copy()
        return SimpleNamespace(n=n, seed=seed, corpus=corpus, init=init, traces=n,
                               budget_mb=None)

    def _blocks(self, inputs):
        return synthetic_corpus_blocks(inputs.n, seed=inputs.seed, block=50_000)

    def deploy(self, inputs, stack):
        hdfs = SimulatedHDFS(
            paper_cluster(4), chunk_size=CHUNK_BYTES, seed=0,
            memory_budget_mb=inputs.budget_mb,
        )
        if self.spill:
            hdfs.put_trace_stream("input/traces", self._blocks(inputs))
        else:
            hdfs.put_trace_array("input/traces", inputs.corpus)
        runner = stack.enter_context(TimedRunner(
            hdfs,
            executor=self.executor,
            max_workers=None if self.executor == "serial" else self.workers,
            memory_budget_mb=inputs.budget_mb,
        ))
        return SimpleNamespace(hdfs=hdfs, runner=runner)

    def run(self, dep, inputs):
        return kmeans_mod.run_kmeans_mapreduce(
            dep.runner,
            "input/traces",
            k=KMEANS_K,
            distance="squared_euclidean" if self.spill else "haversine",
            convergence_delta=-1.0,  # never converges: exactly max_iter rounds
            max_iter=KMEANS_ITERATIONS,
            initial_centroids=inputs.init,
            use_combiner=not self.spill,
            use_aggregation=not self.spill,
        )

    def observe(self, dep, inputs, result):
        out = super().observe(dep, inputs, result)
        out["algorithms.kmeans_iterations"] = result.n_iterations
        return out

    def signature(self, result):
        return _sha(np.ascontiguousarray(result.centroids).tobytes())

    def check(self, inputs, result):
        failures = []
        if result.n_iterations != KMEANS_ITERATIONS:
            failures.append(
                f"ran {result.n_iterations} iterations, expected {KMEANS_ITERATIONS}")
        corpus = inputs.corpus
        if corpus is None:
            corpus = TraceArray.concatenate(list(self._blocks(inputs)))
        oracle = kmeans_mod.kmeans_sequential(
            corpus.coordinates(),
            KMEANS_K,
            metric="squared_euclidean" if self.spill else "haversine",
            convergence_delta=-1.0,
            max_iter=KMEANS_ITERATIONS,
            initial_centroids=inputs.init,
        )
        worst = float(np.abs(oracle.centroids - result.centroids).max())
        if not worst <= 1e-9:
            failures.append(f"centroids differ from kmeans_sequential by {worst:.3e}")
        return failures


# -- sampling + DJ-Cluster ---------------------------------------------------


@dataclass
class AttackChain(Workload):
    params: DJClusterParams = field(
        default_factory=lambda: DJClusterParams(radius_m=100.0, min_pts=8))

    def make_inputs(self, seed, scale):
        # DJ-Cluster's cost follows how densely users' stops overlap, and
        # varies ~2x between generator seeds at a fixed trace count; a
        # timing that jumps with the seed could bound nothing.  So the city
        # is fixed and the seed moves it: a shift of up to ~2 km, a start
        # time on another minute, other user names.
        dataset, _ = generate_dataset(
            SyntheticConfig(n_users=max(2, round(12 * scale)), days=1, seed=66))
        city = dataset.flat().sort_by_time()
        rng = np.random.default_rng(seed)
        d_lat, d_lon = rng.uniform(-0.02, 0.02, 2)
        names = np.array([f"s{seed}-{u}" for u in city.users])
        corpus = TraceArray.from_columns(
            names[city.user_index],
            city.latitude + d_lat,
            city.longitude + d_lon,
            city.timestamp + 60.0 * int(rng.integers(0, 1440)),
            city.altitude,
        )
        return SimpleNamespace(corpus=corpus, traces=len(corpus))

    def deploy(self, inputs, stack):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=CHUNK_BYTES, seed=0)
        hdfs.put_trace_array("input/traces", inputs.corpus)
        return SimpleNamespace(hdfs=hdfs, runner=stack.enter_context(TimedRunner(hdfs)))

    def run(self, dep, inputs):
        sampling_mod.run_sampling_job(dep.runner, "input/traces", "tmp/sampled", 60.0)
        return djcluster_mod.run_djcluster_mapreduce(
            dep.runner, "tmp/sampled", params=self.params)

    def signature(self, result):
        clusters = sorted(tuple(int(i) for i in ids) for ids in result.clusters)
        return _sha(repr(clusters).encode())

    def check(self, inputs, result):
        oracle = djcluster_mod.djcluster_sequential(
            result.preprocessed, self.params, preprocess=False)
        if oracle.cluster_signature() != result.cluster_signature():
            return [
                f"{result.n_clusters} clusters differ from djcluster_sequential's "
                f"{oracle.n_clusters}"
            ]
        return []


# -- persistent index build + serving ------------------------------------------

#: One cycle of the query mix.  Range scans take two slots of five so that
#: the median query is a range scan on every seed: with four kinds in equal
#: shares the median sits on the gap between two kinds' latency modes and
#: jumps from one to the other.
QUERY_MIX = ("point", "range", "radius", "knn", "range")


def _query_args(kind: str, lat: float, lon: float) -> tuple:
    if kind == "point":
        return (lat, lon)
    if kind == "range":
        return (lat - 0.01, lon - 0.01, lat + 0.01, lon + 0.01)
    if kind == "radius":
        return (lat, lon, 250.0)
    return (lat, lon, 8)


@dataclass
class IndexServe(Workload):
    def make_inputs(self, seed, scale):
        # Where the blobs overlap decides how many points a range scan
        # returns, and moved query latency by 20 % between generator seeds.
        # So the layout is fixed and the seed shifts it, as in attack_chain,
        # and draws the anchors.
        n = max(2_000, int(200_000 * scale))
        rng = np.random.default_rng(seed + 1000)
        layout = synthetic_corpus(n, seed=0)
        d_lat, d_lon = rng.uniform(-0.02, 0.02, 2)
        corpus = TraceArray.from_columns(
            ["bench"], layout.latitude + d_lat, layout.longitude + d_lon, layout.timestamp)
        coords = corpus.coordinates()
        per_phase = max(20, round(300 * min(scale, 1.0)))
        uniform = coords[rng.integers(0, n, per_phase)]
        # The hot phase stays inside one ~500 m box, whose pages fit the
        # budget: the same place of the layout on every seed (of 33 boxes
        # the one of median population), with the seed's own anchors in it.
        def box(center, points):
            return np.flatnonzero(np.abs(points - center).max(axis=1) <= 0.00225)

        candidates = coords[np.random.default_rng(0).integers(0, n, 33)]
        by_population = sorted(candidates, key=lambda c: len(box(c, coords[::4])))
        near = box(by_population[len(by_population) // 2], coords)
        hot = coords[near[rng.integers(0, len(near), per_phase)]]
        queries = [
            (phase, kind, _query_args(kind, float(a), float(b)))
            for phase, anchors in (("uniform", uniform), ("hot", hot))
            for (a, b), kind in zip(anchors, QUERY_MIX * per_phase)
        ]
        return SimpleNamespace(
            corpus=corpus, queries=queries, traces=n, budget_mb=BUDGET_MB * scale,
            sample_every=max(1, len(queries) // 200),
        )

    def deploy(self, inputs, stack):
        hdfs = SimulatedHDFS(
            paper_cluster(4), chunk_size=CHUNK_BYTES, seed=0,
            memory_budget_mb=inputs.budget_mb,
        )
        hdfs.put_trace_array("input/traces", inputs.corpus)
        runner = stack.enter_context(
            TimedRunner(hdfs, memory_budget_mb=inputs.budget_mb))
        return SimpleNamespace(hdfs=hdfs, runner=runner)

    def run(self, dep, inputs):
        catalog = IndexCatalog(dep.hdfs)
        start = perf_counter()
        _, built = catalog.ensure(dep.runner, "input/traces")
        build_s = perf_counter() - start
        jobs_before = len(dep.runner.job_seconds)
        index, rebuilt = catalog.ensure(dep.runner, "input/traces")
        reuse_jobs = len(dep.runner.job_seconds) - jobs_before
        engine = QueryEngine(index, hdfs=dep.hdfs, history=dep.runner.history)
        paging = dep.hdfs.spill_stats
        seconds: list[float] = []
        faults = {"uniform": 0, "hot": 0}
        sampled = []
        for i, (phase, kind, args) in enumerate(inputs.queries):
            before = paging.pages_in
            start = perf_counter()
            answer = getattr(engine, kind)(*args)
            seconds.append(perf_counter() - start)
            faults[phase] += paging.pages_in - before
            if i % inputs.sample_every == 0:
                sampled.append((kind, args, answer))
        return SimpleNamespace(
            built=built, rebuilt=rebuilt, reuse_jobs=reuse_jobs, build_s=build_s,
            query_seconds=seconds, faults=faults, sampled=sampled,
            stats=engine.stats.as_dict(),
        )

    def op_seconds(self, dep, result):
        return result.query_seconds

    def observe(self, dep, inputs, result):
        out = super().observe(dep, inputs, result)
        per_phase = len(inputs.queries) // 2
        out.update({
            "index.page_faults": result.stats["page_faults"],
            "index.fault_bytes": result.stats["fault_bytes"],
            "index.faults_per_query_uniform": result.faults["uniform"] / per_phase,
            "index.faults_per_query_hot": result.faults["hot"] / per_phase,
        })
        return out

    def signature(self, result):
        digest = hashlib.sha256()
        for kind, _, answer in result.sampled:
            ids = [i for i, _ in answer] if kind == "knn" else answer
            digest.update(np.asarray(ids, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def check(self, inputs, result):
        failures = []
        if not result.built or result.rebuilt or result.reuse_jobs:
            failures.append(
                f"catalog reuse broken: built={result.built} rebuilt={result.rebuilt} "
                f"jobs on re-ensure={result.reuse_jobs}")
        lat = inputs.corpus.latitude
        lon = inputs.corpus.longitude
        wrong = 0
        for kind, args, answer in result.sampled:
            if kind == "point":
                expect = np.flatnonzero((lat == args[0]) & (lon == args[1]))
            elif kind == "range":
                expect = np.flatnonzero(
                    (lat >= args[0]) & (lat <= args[2]) & (lon >= args[1]) & (lon <= args[3]))
            else:
                metres = haversine_m(lat, lon, args[0], args[1])
                if kind == "radius":
                    expect = np.flatnonzero(metres <= args[2])
                else:
                    nearest = np.sort(metres)[: args[2]]
                    got = np.array([d for _, d in answer])
                    ids = np.array([i for i, _ in answer], dtype=np.int64)
                    ok = (
                        len(got) == len(nearest)
                        and np.allclose(got, nearest, rtol=0.0, atol=1e-6)
                        and np.allclose(metres[ids], got, rtol=0.0, atol=1e-6)
                    )
                    wrong += not ok
                    continue
            wrong += not np.array_equal(np.sort(np.asarray(answer)), expect)
        if wrong:
            failures.append(
                f"{wrong} of {len(result.sampled)} sampled answers differ from a brute-force scan")
        return failures


# -- linkage attack ------------------------------------------------------------


@dataclass
class Linkage(Workload):
    def make_inputs(self, seed, scale):
        train, target, truth = linkage_mr.synthetic_linkage_corpus(
            max(20, round(600 * scale)), seed=seed)
        return SimpleNamespace(
            train=train, target=target, truth=truth, traces=len(train) + len(target))

    def deploy(self, inputs, stack):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=CHUNK_BYTES, seed=0)
        hdfs.put_trace_array("input/train", inputs.train, record_bytes=64)
        hdfs.put_trace_array("input/target", inputs.target, record_bytes=64)
        return SimpleNamespace(hdfs=hdfs, runner=stack.enter_context(TimedRunner(hdfs)))

    def run(self, dep, inputs):
        return linkage_mr.run_linkage_attack(
            dep.runner, "input/train", "input/target", inputs.truth,
            params=linkage_mr.SYNTH_ATTACK_PARAMS,
        )

    def observe(self, dep, inputs, result):
        out = super().observe(dep, inputs, result)
        out["attacks.pairs_scored"] = result.pairs_scored
        out["attacks.pairs_exact"] = result.pairs_exact or 0
        return out

    def signature(self, result):
        return result.signature()

    def check(self, inputs, result):
        failures = []
        if result.pairs_scored != result.pairs_exact:
            failures.append(
                f"blocking scored {result.pairs_scored} pairs, the index audit "
                f"counts {result.pairs_exact}")
        if not result.result.success_rate >= 0.9:
            failures.append(f"success rate {result.result.success_rate:.3f} < 0.9")
        return failures


# -- streaming windows -----------------------------------------------------------

STREAM_WINDOWS = 24
STREAM_WINDOW_S = 3600.0
TENANT = "bench"


@dataclass
class StreamWindows(Workload):
    def make_inputs(self, seed, scale):
        corpus = synthetic_stream_corpus(
            max(2_000, int(200_000 * scale)),
            n_users=max(4, round(40 * scale)),
            n_windows=STREAM_WINDOWS,
            window_s=STREAM_WINDOW_S,
            seed=seed,
        )
        chaos = ChaosSchedule(
            seed=seed + 101, late_batch_prob=0.08, lost_batch_prob=0.03,
            dup_batch_prob=0.05,
        )
        return SimpleNamespace(corpus=corpus, chaos=chaos, traces=len(corpus))

    def deploy(self, inputs, stack):
        hdfs = SimulatedHDFS(paper_cluster(6), chunk_size=CHUNK_BYTES, seed=0)
        source = StreamSource(inputs.corpus, STREAM_WINDOW_S, chaos=inputs.chaos, name=TENANT)
        service = stack.enter_context(JobService(hdfs, tenants={TENANT: 1.0}))
        manager = StreamingJobManager(
            service.client(TENANT), name=TENANT, k=8, max_iter=25, seed=0,
            sampling_window_s=600.0,
            dj_params=DJClusterParams(radius_m=150.0, min_pts=5),
        )
        return SimpleNamespace(
            hdfs=hdfs, runner=service, service=service, source=source, manager=manager)

    def run(self, dep, inputs):
        manager, source = dep.manager, dep.source
        seconds, datasets = [], []
        for window in range(source.n_windows):
            start = perf_counter()
            dataset = manager.batcher.close_window(source, window)
            manager.process(dataset)
            seconds.append(perf_counter() - start)
            datasets.append(dataset)
        return SimpleNamespace(
            stream=StreamRunResult(manager.timeline, list(manager.results), datasets),
            window_seconds=seconds,
            expected_windows=source.n_windows,
            total_points=source.total_points,
        )

    def op_seconds(self, dep, result):
        return result.window_seconds

    def observe(self, dep, inputs, result):
        out = super().observe(dep, inputs, result)
        stream = result.stream
        out.update({
            "service.cache_hits": dep.service.result_cache.hits,
            "streaming.jobs_per_window":
                len(dep.service.history.jobs()) / len(stream.results),
            "streaming.kmeans_iterations": stream.total_kmeans_iterations,
            "streaming.late_points": stream.late_points,
            "streaming.lost_points": stream.lost_points,
        })
        return out

    def signature(self, result):
        return result.stream.signature()

    def check(self, inputs, result):
        failures = []
        stream = result.stream
        if not STREAM_WINDOWS <= len(stream.results) == result.expected_windows:
            failures.append(
                f"processed {len(stream.results)} windows, the source has "
                f"{result.expected_windows}")
        sealed = sum(d.n_points for d in stream.datasets)
        if sealed + stream.lost_points != result.total_points:
            failures.append(
                f"points not conserved: {sealed} sealed + {stream.lost_points} lost "
                f"!= {result.total_points}")
        return failures


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    KMeans(
        "kmeans_serial",
        "Table III's job: map-side distance kernel dominates, shuffle is metadata; "
        "kernel and per-job overhead changes show, transport changes must not",
        op="job", tail_percentile=75, min_ops=40,
    ),
    KMeans(
        "kmeans_procs",
        "the same problem on 2 pool workers: shm publish, cache re-broadcast, pickled "
        "outcomes, driver replay; kmeans_serial is its single-threaded baseline",
        op="job", tail_percentile=75, min_ops=40, workers=2, executor="processes",
    ),
    KMeans(
        "kmeans_spill",
        "no combiner under a memory budget: the only workload on the external-sort "
        "shuffle and chunk paging path, so a speed-up bought with memory shows",
        op="job", tail_percentile=75, min_ops=40, spill=True,
    ),
    AttackChain(
        "attack_chain",
        "sampling then DJ-Cluster on multi-user geometry: six unlike jobs with a "
        "one-reducer merge; job fusion and index reuse show here, not in k-means",
        op="job", tail_percentile=75, min_ops=40,
    ),
    IndexServe(
        "index_serve",
        "R-tree build then point/range/radius/kNN under a budget, uniform anchors "
        "(working set over budget) then one hotspot (fits): storage write and read side",
        op="query", tail_percentile=95, min_ops=2000,
    ),
    Linkage(
        "linkage",
        "linkage attack: reduce-dominated per-user fingerprinting over an object-valued "
        "generic shuffle, Python-heavy; the inverse profile of kmeans_serial",
        op="job", tail_percentile=75, min_ops=40,
    ),
    StreamWindows(
        "stream_windows",
        "25 windows of about 8 tiny jobs through the JobService with k-means run to "
        "convergence: fixed per-job cost and Lloyd round count dominate",
        op="window", tail_percentile=90, min_ops=100,
    ),
)}
