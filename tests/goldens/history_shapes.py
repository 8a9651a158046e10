"""``golden_history_shapes.json``: the on-disk shape of every event kind.

Seven real engine runs that between them emit every event kind:

* budgeted k-means without a combiner under a chaos schedule with node
  loss, a chronically failing node (blacklisted) and shuffle refetches,
  then one round with a declared aggregation on the same deployment;
* sampling then DJ-Cluster on a straggler-prone cluster with speculation;
* the MapReduce linkage attack;
* a ``JobService`` submit and an identical resubmit (a result-cache hit);
* an ``IndexCatalog`` build and reuse, then one query of each kind;
* a two-window stream through a service tenant;
* one sweep cell.

The document pins each kind's ordered ``data`` key lists (every distinct
list seen, sorted) and the SHA-256 of each run's ``to_json()``.  Recorded
before the history payloads became one class per kind, so the key order
each class declares is the one the free-form payloads wrote.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms.djcluster import DJClusterParams, run_djcluster_mapreduce
from repro.algorithms.kmeans import run_kmeans_mapreduce
from repro.algorithms.sampling import SamplingMapper, run_sampling_job
from repro.attacks.linkage_mr import (
    SYNTH_ATTACK_PARAMS,
    run_linkage_attack,
    synthetic_linkage_corpus,
)
from repro.attacks.sweep import run_sweep
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.index.persistent import IndexCatalog, QueryEngine
from repro.mapreduce.config import Configuration
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import fresh_hdfs, fresh_runner
from repro.mapreduce.service import JobService
from repro.observability.events import PAYLOADS
from repro.observability.history import JobHistory
from repro.streaming.manager import StreamingJobManager
from repro.streaming.source import StreamSource
from tests.goldens import dump


def _traces(n_users: int, seed: int):
    dataset, _ = generate_dataset(SyntheticConfig(n_users=n_users, days=1, seed=seed))
    return dataset.sort_by_time()


def kmeans_chaos() -> JobHistory:
    chaos = ChaosSchedule(
        seed=3, crash_prob=0.1, shuffle_fetch_prob=0.3, node_loss_prob=1.0,
        bad_nodes=frozenset({"worker02"}),
    )
    with fresh_runner(
        {"input/traces": _traces(3, 5)}, chunk_size=32 * 1024, n_workers=4,
        budget_mb=0.005, chaos=chaos,
    ) as runner:
        run_kmeans_mapreduce(runner, "input/traces", k=4, max_iter=2, seed=3)
        # The declared aggregation takes the metadata-only shuffle instead.
        run_kmeans_mapreduce(
            runner, "input/traces", k=4, max_iter=1, seed=3, use_aggregation=True,
            workdir="tmp/kmeans-aggregated",
        )
        return runner.history


def djcluster_speculative() -> JobHistory:
    chaos = ChaosSchedule(seed=1, slow_node_prob=0.5, slow_factor=6.0)
    with fresh_runner(
        {"input/traces": _traces(3, 7)}, chunk_size=32 * 1024, chaos=chaos, speculative=True,
    ) as runner:
        run_sampling_job(runner, "input/traces", "out/sampled", window_s=60.0)
        run_djcluster_mapreduce(
            runner, "out/sampled", DJClusterParams(radius_m=100.0, min_pts=4)
        )
        return runner.history


def linkage() -> JobHistory:
    train, target, truth = synthetic_linkage_corpus(n_users=8, seed=5, pois_per_user=2)
    with fresh_runner(
        {"input/train": train, "input/target": target}, chunk_size=16 * 1024, n_workers=3,
    ) as runner:
        run_linkage_attack(
            runner, "input/train", "input/target", truth, params=SYNTH_ATTACK_PARAMS
        )
        return runner.history


def service_resubmit() -> JobHistory:
    hdfs = fresh_hdfs({"input/traces": _traces(2, 9)}, chunk_size=32 * 1024)
    conf = Configuration({"sampling.window_s": 60.0, "sampling.technique": "upper"})
    with JobService(hdfs, tenants={"alice": 1.0}) as service:
        client = service.client("alice")
        for output_path in ("out/sampled", "out/sampled-again"):
            client.run(JobSpec(
                name="sample", mapper=SamplingMapper, input_paths=["input/traces"],
                output_path=output_path, conf=conf,
            ))
        return service.history


def index_serving() -> JobHistory:
    traces = _traces(2, 11)
    with fresh_runner({"input/traces": traces}, chunk_size=32 * 1024) as runner:
        catalog = IndexCatalog(runner.hdfs)
        catalog.ensure(runner, "input/traces")
        index, _ = catalog.ensure(runner, "input/traces")
        engine = QueryEngine(index, history=runner.history)
        lat, lon = float(traces.latitude[0]), float(traces.longitude[0])
        engine.point(lat, lon)
        engine.range(lat - 0.01, lon - 0.01, lat + 0.01, lon + 0.01)
        engine.radius(lat, lon, 200.0)
        engine.knn(lat, lon, 3)
        return runner.history


def stream() -> JobHistory:
    """Two windows through a service tenant: its jobs carry the tenant and
    the stream labels."""
    traces = _traces(3, 13)
    window_s = float(np.ptp(traces.timestamp)) / 2 + 1.0
    source = StreamSource(traces, window_s, name="shapes")
    with JobService(fresh_hdfs({}, chunk_size=32 * 1024), tenants={"bob": 1.0}) as service:
        StreamingJobManager(service.client("bob"), name="shapes", k=2, max_iter=3).run(source)
        return service.history


def sweep() -> JobHistory:
    """One cell; ``run_sweep`` builds its own service, so the history
    comes back through the file it saves."""
    train, target, truth = synthetic_linkage_corpus(n_users=6, seed=2, pois_per_user=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        run_sweep(train, target, truth, ["none"], params=SYNTH_ATTACK_PARAMS,
                  history_path=str(path))
        return JobHistory.load(path)


RUNS = {
    "kmeans_chaos": kmeans_chaos,
    "djcluster_speculative": djcluster_speculative,
    "linkage": linkage,
    "service_resubmit": service_resubmit,
    "index_serving": index_serving,
    "stream": stream,
    "sweep": sweep,
}


def build() -> str:
    shapes: dict[str, set[tuple[str, ...]]] = {}
    runs = {}
    for name, run in RUNS.items():
        history = run()
        runs[name] = hashlib.sha256(history.to_json().encode()).hexdigest()
        for event in history.to_json_obj()["events"]:
            shapes.setdefault(event["kind"], set()).add(tuple(event.get("data", {})))
    return dump({
        "kinds": {kind: sorted(list(keys) for keys in lists) for kind, lists in shapes.items()},
        "runs": runs,
    })


def gates(doc: dict) -> list[str]:
    return [f"no run emits {kind}" for kind in PAYLOADS if kind not in doc["kinds"]]
