"""Streaming equivalence harness: stream vs batch, byte for byte.

The streaming layer's core invariant extends the chaos engine's: a
windowed streaming run over a fixed schedule — corpus, window size,
chaos seed, analysis parameters — must be **byte-identical** to the
equivalent sequence of batch jobs.  "Equivalent batch jobs" is not a
re-implementation: :func:`run_stream` executes the *same*
:class:`~repro.streaming.manager.StreamingJobManager` either through a
multi-tenant :class:`~repro.mapreduce.service.JobService` (``mode=
"service"``: submit → future, fair share, result cache, snapshot
isolation) or directly on a bare
:class:`~repro.mapreduce.runner.JobRunner` (``mode="runner"``: the
batch sequence).  If the whole service control plane is invisible in
the per-window output fingerprints, streaming adds scheduling — never
answers.

A run that cannot complete (a chaos schedule exhausting some task's
retry budget) must fail *cleanly* with
:class:`~repro.mapreduce.failures.JobFailedError`; the harness records
that as an acceptable outcome, mirroring
``tests/properties/test_chaos_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.failures import ChaosSchedule, JobFailedError
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import fresh_runner
from repro.mapreduce.service import JobService

from repro.streaming.manager import StreamingJobManager, StreamRunResult
from repro.streaming.source import StreamSource

__all__ = [
    "run_stream",
    "StreamOutcome",
    "run_multitenant_stream",
    "run_stream_selfcheck",
]

#: Deployment geometry shared by every check run (mirrors the chaos
#: campaign defaults: small enough to be fast, wide enough to shuffle).
N_WORKERS = 6
CHUNK_SIZE = 64 * 1024


def run_stream(
    array: TraceArray,
    window_s: float,
    mode: str = "service",
    executor: str = "serial",
    max_workers: int | None = None,
    memory_budget_mb: float | None = None,
    chaos: ChaosSchedule | None = None,
    tenant: str = "stream",
    n_workers: int = N_WORKERS,
    chunk_size: int = CHUNK_SIZE,
    history_path: str | None = None,
    **manager_kwargs,
) -> StreamRunResult:
    """One streaming run on a fresh deployment; returns its results.

    ``mode="service"`` drives every job through a single-tenant
    :class:`JobService`; ``mode="runner"`` runs the identical job
    sequence on a bare :class:`JobRunner` — the batch equivalent.  The
    same ``chaos`` schedule feeds both the engine (task crashes, node
    loss, ...) and the stream source (late/lost/duplicate batches), so
    one seed fixes the whole scenario.
    """
    if mode not in ("service", "runner"):
        raise ValueError(f"unknown mode {mode!r}; known: service, runner")
    source = StreamSource(array, window_s, chaos=chaos, name=tenant)
    if mode == "service":
        hdfs = SimulatedHDFS(
            paper_cluster(n_workers),
            chunk_size=chunk_size,
            seed=0,
            memory_budget_mb=memory_budget_mb,
        )
        with JobService(
            hdfs,
            tenants={tenant: 1.0},
            executor=executor,
            max_workers=max_workers,
            chaos=chaos,
            memory_budget_mb=memory_budget_mb,
        ) as service:
            client = service.client(tenant)
            manager = StreamingJobManager(client, name=tenant, **manager_kwargs)
            result = manager.run(source)
            if history_path is not None:
                client.history.save(history_path)
            return result
    with fresh_runner(
        {},
        chunk_size=chunk_size,
        n_workers=n_workers,
        backend=executor,
        max_workers=max_workers,
        budget_mb=memory_budget_mb,
        chaos=chaos,
    ) as runner:
        manager = StreamingJobManager(runner, name=tenant, **manager_kwargs)
        result = manager.run(source)
        if history_path is not None:
            runner.history.save(history_path)
        return result


@dataclass
class StreamOutcome:
    """One cell of the equivalence matrix."""

    label: str
    signature: str | None = None
    n_windows: int = 0
    kmeans_iterations: int = 0
    late_points: int = 0
    lost_points: int = 0
    cache_hits: int = 0
    failed: str | None = None

    @property
    def clean_failure(self) -> bool:
        return self.failed is not None


def _outcome(label: str, array, window_s, **kwargs) -> StreamOutcome:
    try:
        res = run_stream(array, window_s, **kwargs)
    except JobFailedError as err:
        return StreamOutcome(label=label, failed=str(err))
    return StreamOutcome(
        label=label,
        signature=res.signature(),
        n_windows=len(res.results),
        kmeans_iterations=res.total_kmeans_iterations,
        late_points=res.late_points,
        lost_points=res.lost_points,
        cache_hits=res.total_cache_hits,
    )


def run_multitenant_stream(
    array: TraceArray,
    window_s: float,
    tenants: dict[str, float],
    executor: str = "serial",
    max_workers: int | None = None,
    memory_budget_mb: float | None = None,
    chaos: ChaosSchedule | None = None,
    history_path: str | None = None,
    **manager_kwargs,
) -> tuple[dict[str, StreamRunResult], "object"]:
    """N tenants' feeds sharing one service, windows interleaved.

    Users are split round-robin (by sorted user id) into one sub-stream
    per tenant; each tenant gets its own manager, and every window index
    is processed for all tenants before the next one opens — the
    fair-share scheduler arbitrates the per-window job bursts.  Returns
    ``(per-tenant results, service report)``.
    """
    if not tenants:
        raise ValueError("tenants must not be empty")
    names = sorted(tenants)
    users = sorted(set(array.users))
    assignment = {u: names[i % len(names)] for i, u in enumerate(users)}
    hdfs = SimulatedHDFS(
        paper_cluster(N_WORKERS), chunk_size=CHUNK_SIZE, seed=0,
        memory_budget_mb=memory_budget_mb,
    )
    with JobService(
        hdfs,
        tenants=tenants,
        executor=executor,
        max_workers=max_workers,
        chaos=chaos,
        memory_budget_mb=memory_budget_mb,
    ) as service:
        managers: dict[str, StreamingJobManager] = {}
        sources: dict[str, StreamSource] = {}
        datasets: dict[str, list] = {}
        for name in names:
            keep = np.asarray(
                [i for i, u in enumerate(array.users) if assignment[u] == name]
            )
            mask = np.isin(array.user_index, keep)
            # Rebuild from columns so the sub-array's user table holds
            # only this tenant's users (slices keep the full table).
            sub = TraceArray.from_columns(
                array.user_ids()[mask],
                array.latitude[mask],
                array.longitude[mask],
                array.timestamp[mask],
                array.altitude[mask],
            )
            sources[name] = StreamSource(
                sub, window_s, chaos=chaos, name=name
            )
            managers[name] = StreamingJobManager(
                service.client(name), name=name, **manager_kwargs
            )
            managers[name].timeline.window_s = float(window_s)
            datasets[name] = []
        n_windows = max(s.n_windows for s in sources.values())
        for w in range(n_windows):
            for name in names:
                if w >= sources[name].n_windows:
                    continue
                dataset = managers[name].batcher.close_window(sources[name], w)
                datasets[name].append(dataset)
                managers[name].process(dataset)
        if history_path is not None:
            service.history.save(history_path)
        results = {
            name: StreamRunResult(
                timeline=managers[name].timeline,
                results=managers[name].results,
                datasets=datasets[name],
            )
            for name in names
        }
        return results, service.report()


# ---------------------------------------------------------------------------
# Selfcheck
# ---------------------------------------------------------------------------

def _selfcheck_manager_kwargs() -> dict:
    from repro.algorithms.djcluster import DJClusterParams

    return {
        "k": 3,
        "max_iter": 8,
        "sampling_window_s": 1800.0,
        "dj_params": DJClusterParams(radius_m=200.0, min_pts=3),
    }


def run_stream_selfcheck(verbose: bool = False) -> bool:
    """End-to-end streaming smoke: equivalence, chaos, warm start.

    Five runs over a small synthetic corpus: the batch baseline, the
    service path (with a memory budget and with the threads backend),
    both paths again under a feed+engine chaos schedule, and a
    cold-start run for the warm-start iteration bound.
    """
    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=11))
    array = dataset.flat()
    window_s = 3 * 3600.0
    kwargs = _selfcheck_manager_kwargs()
    checks: list[tuple[str, bool]] = []

    base = _outcome(
        "batch/serial", array, window_s, mode="runner", **kwargs
    )
    for label, cell_kwargs in (
        ("stream/serial+budget", dict(
            mode="service", executor="serial", memory_budget_mb=8.0)),
        ("stream/threads", dict(
            mode="service", executor="threads", max_workers=2)),
    ):
        cell = _outcome(label, array, window_s, **cell_kwargs, **kwargs)
        checks.append(
            (f"{label} == batch", cell.signature == base.signature)
        )
    from repro.mapreduce.failures import Fault, FaultKind

    # The scripted late fault guarantees watermark handling is exercised
    # even if every probabilistic draw misses on this small feed count.
    chaos = ChaosSchedule(
        seed=5,
        crash_prob=0.02,
        slow_node_prob=0.1,
        late_batch_prob=0.3,
        lost_batch_prob=0.1,
        dup_batch_prob=0.3,
        faults=(Fault(FaultKind.LATE_BATCH, window=0),),
    )
    chaos_batch = _outcome(
        "batch/serial+chaos", array, window_s,
        mode="runner", chaos=chaos, **kwargs,
    )
    chaos_stream = _outcome(
        "stream/serial+chaos", array, window_s,
        mode="service", chaos=chaos, **kwargs,
    )
    checks.append((
        "chaos stream == chaos batch",
        chaos_stream.signature == chaos_batch.signature
        and chaos_stream.signature is not None,
    ))
    checks.append((
        "chaos rerouted feed batches",
        chaos_stream.clean_failure
        or (chaos_stream.late_points + chaos_stream.lost_points) > 0,
    ))
    cold = _outcome(
        "batch/serial/cold", array, window_s,
        mode="runner", warm_start=False, **kwargs,
    )
    checks.append((
        "warm-start iterations <= cold-start",
        base.kmeans_iterations <= cold.kmeans_iterations,
    ))
    ok = all(passed for _, passed in checks)
    if verbose:
        for name, passed in checks:
            print(f"  [{'ok' if passed else 'FAIL'}] {name}")
    return ok
