"""The streaming invariant: stream == batch, byte for byte, under chaos.

hypothesis draws seeded chaos schedules mixing *engine* faults (task
crashes, stragglers, shuffle failures) with *feed* faults (late, lost,
duplicate micro-batches) and asserts that a streaming run through the
multi-tenant JobService is byte-identical to the equivalent batch-job
sequence — on every execution backend, with and without a memory
budget.  A schedule aggressive enough to exhaust a task's retry budget
must fail *cleanly* (:class:`JobFailedError` carrying the full failure
chain) in whichever mode it strikes, never corrupt output.

Each example is two full simulated deployments, so the example counts
are deliberately small; schedules are seeded and replay exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind, JobFailedError
from repro.mapreduce.chaos import run_cell
from repro.streaming.check import (
    CHUNK_SIZE,
    N_WORKERS,
    run_multitenant_stream,
    run_stream,
    stream_drive,
)

MAX_EXAMPLES = 2
WINDOW_S = 3 * 3600.0

MANAGER_KWARGS = dict(k=3, max_iter=6, sampling_window_s=1800.0)

#: The streaming side of every matrix: one tenant on a shared service.
SERVICE = {"stream": 1.0}


@pytest.fixture(scope="module")
def corpus():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=42))
    return dataset


feed_faults = st.lists(
    st.builds(
        Fault,
        kind=st.sampled_from(
            [FaultKind.LATE_BATCH, FaultKind.LOST_BATCH, FaultKind.DUP_BATCH]
        ),
        feed=st.one_of(st.none(), st.sampled_from(["000", "001", "002"])),
        window=st.one_of(st.none(), st.integers(0, 2)),
    ),
    max_size=3,
).map(tuple)

schedules = st.builds(
    ChaosSchedule,
    seed=st.integers(0, 2**32 - 1),
    crash_prob=st.sampled_from([0.0, 0.1]),
    slow_node_prob=st.sampled_from([0.0, 0.3]),
    late_batch_prob=st.sampled_from([0.0, 0.3]),
    lost_batch_prob=st.sampled_from([0.0, 0.2]),
    dup_batch_prob=st.sampled_from([0.0, 0.3]),
    faults=feed_faults,
)


def _cell(corpus, schedule, **axes):
    """One streaming cell: the batch sequence, or with ``tenants=SERVICE``
    the service path."""
    cell = run_cell(
        stream_drive(corpus, WINDOW_S, schedule, **MANAGER_KWARGS), {},
        n_workers=N_WORKERS, chunk_size=CHUNK_SIZE, chaos=schedule, **axes,
    )
    if cell.failure is not None:
        # Clean failure contract: the full per-attempt chain survives.
        assert len(cell.failure.failures) == cell.failure.max_attempts
        assert cell.failure.failure_chain
    return cell


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget_mb", [None, 8.0], ids=["unbudgeted", "budget8"])
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(schedule=schedules)
def test_stream_equals_batch_under_chaos(corpus, backend, budget_mb, schedule):
    workers = None if backend == "serial" else 2
    batch = _cell(corpus, schedule, budget_mb=budget_mb)
    stream = _cell(
        corpus, schedule, tenants=SERVICE, backend=backend, max_workers=workers,
        budget_mb=budget_mb,
    )
    if batch.failure is not None or stream.failure is not None:
        # A schedule that kills one mode must kill the other: both modes
        # run the identical job sequence against the same chaos seed.
        assert batch.failure is not None and stream.failure is not None
        return
    assert stream.signature == batch.signature, (
        f"streaming diverged from the batch sequence under "
        f"[{schedule.describe()}] on backend {backend} "
        f"(budget={budget_mb})"
    )


def test_feed_chaos_changes_results_but_not_equivalence(corpus):
    """Late/lost reroutes must show up in the outputs (different window
    datasets) while both modes still agree on what they are."""
    chaos = ChaosSchedule(
        seed=9,
        late_batch_prob=0.4,
        lost_batch_prob=0.2,
        faults=(Fault(FaultKind.LATE_BATCH, window=0),),
    )
    clean = run_stream(corpus, WINDOW_S, mode="runner", **MANAGER_KWARGS)
    chaotic = run_stream(
        corpus, WINDOW_S, mode="runner", chaos=chaos, **MANAGER_KWARGS
    )
    assert chaotic.late_points + chaotic.lost_points > 0
    assert chaotic.signature() != clean.signature()
    replay = run_stream(
        corpus, WINDOW_S, mode="service", chaos=chaos, **MANAGER_KWARGS
    )
    assert replay.signature() == chaotic.signature()


def test_multitenant_streams_are_fair_and_complete(corpus):
    """Two tenants' interleaved windows through one service: every
    window processed, per-tenant feeds disjoint, fair-share accounted."""
    results, report = run_multitenant_stream(
        corpus, WINDOW_S, {"alice": 1.0, "bob": 1.0}, **MANAGER_KWARGS
    )
    assert set(results) == {"alice", "bob"}
    total_points = sum(
        sum(d.n_points for d in r.datasets) for r in results.values()
    )
    assert total_points == len(corpus)
    for r in results.values():
        assert len(r.results) == len(r.datasets) > 0
    assert set(report.tenants) == {"alice", "bob"}


def test_bad_arguments_rejected(corpus):
    with pytest.raises(ValueError, match="unknown mode 'batch'"):
        run_stream(corpus, WINDOW_S, mode="batch")
    with pytest.raises(ValueError, match="tenants must not be empty"):
        run_multitenant_stream(corpus, WINDOW_S, {})


def test_runner_mode_exports_its_history(corpus, tmp_path):
    from repro.observability.history import load_history

    path = tmp_path / "stream.json"
    result = run_stream(corpus, WINDOW_S, mode="runner", history_path=str(path),
                        **MANAGER_KWARGS)
    history = load_history(path)
    assert history.validate() == []
    assert history.jobs() and len(result.results) > 1


def test_a_clean_failure_is_an_outcome_not_an_error(corpus):
    """The cell records a clean failure, solo or as a tenant; run_stream,
    which returns results, raises it."""

    def fails(client, tenant):
        raise JobFailedError("map-0000", 4)

    for tenants in (None, SERVICE):
        cell = run_cell(fails, {}, tenants=tenants)
        assert cell.failed == "task map-0000 failed 4 attempts"
        assert cell.outputs == {} and cell.signature is None
    with pytest.raises(JobFailedError, match="failed 4 attempts"):
        run_stream(corpus, WINDOW_S, mode="runner", chaos=ChaosSchedule(crash_prob=1.0),
                   **MANAGER_KWARGS)
