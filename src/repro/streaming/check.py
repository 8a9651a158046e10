"""Streaming equivalence harness: stream vs batch, byte for byte.

The streaming layer's core invariant extends the chaos engine's: a
windowed streaming run over a fixed schedule — corpus, window size,
chaos seed, analysis parameters — must be **byte-identical** to the
equivalent sequence of batch jobs.  "Equivalent batch jobs" is not a
re-implementation: a streaming run is one cell
(:func:`repro.mapreduce.chaos.run_cell`) of the *same*
:class:`~repro.streaming.manager.StreamingJobManager` drive
(:func:`stream_drive`), either through a single-tenant
:class:`~repro.mapreduce.service.JobService` (submit → future, fair
share, result cache, snapshot isolation) or directly on a bare
:class:`~repro.mapreduce.runner.JobRunner` (the batch sequence).  If the
whole service control plane is invisible in the per-window output
fingerprints, streaming adds scheduling — never answers.

A run that cannot complete (a chaos schedule exhausting some task's
retry budget) fails *cleanly*: the cell records its
:class:`~repro.mapreduce.failures.JobFailedError` as an outcome, and
:func:`run_stream` raises it.
"""

from __future__ import annotations

import numpy as np

from repro.checks import count, positive
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.mapreduce.chaos import run_cell
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.runner import fresh_hdfs
from repro.mapreduce.service import JobService

from repro.streaming.manager import StreamingJobManager, StreamRunResult
from repro.streaming.source import StreamSource

__all__ = [
    "run_stream",
    "stream_drive",
    "run_multitenant_stream",
    "run_stream_selfcheck",
]

#: Deployment geometry shared by every check run (mirrors the chaos
#: campaign defaults: small enough to be fast, wide enough to shuffle).
N_WORKERS = 6
CHUNK_SIZE = 64 * 1024


def _check_manager_kwargs(manager_kwargs: dict) -> None:
    """The manager's number arguments, checked in the caller's thread: in
    a tenant thread of :func:`~repro.mapreduce.chaos.run_cell` a bad one
    would surface as that fan-out's ``RuntimeError``, windows later."""
    for name in ("k", "max_iter"):
        if name in manager_kwargs:
            count(name, manager_kwargs[name], 1)
    if "sampling_window_s" in manager_kwargs:
        positive("sampling_window_s", manager_kwargs["sampling_window_s"])


def stream_drive(
    array: TraceArray,
    window_s: float,
    chaos: ChaosSchedule | None = None,
    tenant: str = "stream",
    **manager_kwargs,
):
    """The :func:`~repro.mapreduce.chaos.run_cell` drive of one streaming
    run: ``tenant``'s manager over a fresh feed of ``array`` cut into
    ``window_s`` windows, with the feed faults of ``chaos``.  The drive
    returns the :class:`StreamRunResult`."""
    _check_manager_kwargs(manager_kwargs)
    source = StreamSource(array, window_s, chaos=chaos, name=tenant)

    def drive(client, _tenant) -> StreamRunResult:
        return StreamingJobManager(client, name=tenant, **manager_kwargs).run(source)

    return drive


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
    one seed fixes the whole scenario.  A clean failure is raised.
    """
    if mode not in ("service", "runner"):
        raise ValueError(f"unknown mode {mode!r}; known: service, runner")
    cell = run_cell(
        stream_drive(array, window_s, chaos, tenant, **manager_kwargs),
        {},
        chunk_size=chunk_size,
        n_workers=n_workers,
        backend=executor,
        max_workers=max_workers,
        budget_mb=memory_budget_mb,
        chaos=chaos,
        tenants={tenant: 1.0} if mode == "service" else None,
        history_path=history_path,
    )
    if cell.failure is not None:
        raise cell.failure
    return cell.output


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
    _check_manager_kwargs(manager_kwargs)
    names = sorted(tenants)
    users = sorted(set(array.users))
    assignment = {u: names[i % len(names)] for i, u in enumerate(users)}
    with JobService(
        fresh_hdfs({}, chunk_size=CHUNK_SIZE, n_workers=N_WORKERS, budget_mb=memory_budget_mb),
        tenants=tenants, executor=executor, max_workers=max_workers, chaos=chaos,
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

def run_stream_selfcheck(verbose: bool = False) -> bool:
    """End-to-end streaming smoke: equivalence, chaos, warm start.

    Six cells over a small synthetic corpus: the batch baseline, the
    service path (with a memory budget and with the threads backend),
    both paths again under a feed+engine chaos schedule, and a
    cold-start run for the warm-start iteration bound.
    """
    from repro.algorithms.djcluster import DJClusterParams
    from repro.mapreduce.failures import Fault, FaultKind

    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=11))
    array = dataset.flat()
    service = {"stream": 1.0}
    manager = dict(
        k=3, max_iter=8, sampling_window_s=1800.0,
        dj_params=DJClusterParams(radius_m=200.0, min_pts=3),
    )

    def cell(chaos=None, warm_start=True, **axes):
        drive = stream_drive(array, 3 * 3600.0, chaos, warm_start=warm_start, **manager)
        return run_cell(
            drive, {}, n_workers=N_WORKERS, chunk_size=CHUNK_SIZE, chaos=chaos, **axes
        )

    base = cell()
    checks = [
        ("stream/serial+budget == batch",
         cell(tenants=service, budget_mb=8.0).signature == base.signature),
        ("stream/threads == batch",
         cell(tenants=service, backend="threads", max_workers=2).signature == base.signature),
    ]
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
    chaos_batch = cell(chaos)
    chaos_stream = cell(chaos, tenants=service)
    checks.append((
        "chaos stream == chaos batch",
        chaos_stream.signature == chaos_batch.signature
        and chaos_stream.signature is not None,
    ))
    checks.append((
        "chaos rerouted feed batches",
        chaos_stream.failure is not None
        or (chaos_stream.output.late_points + chaos_stream.output.lost_points) > 0,
    ))
    cold = cell(warm_start=False)
    checks.append((
        "warm-start iterations <= cold-start",
        base.output.total_kmeans_iterations <= cold.output.total_kmeans_iterations,
    ))
    ok = all(passed for _, passed in checks)
    if verbose:
        for name, passed in checks:
            print(f"  [{'ok' if passed else 'FAIL'}] {name}")
    return ok
