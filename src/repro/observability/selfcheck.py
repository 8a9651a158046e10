"""``python -m repro history --selfcheck``: end-to-end tracing smoke test.

Runs a miniature deployment through the three paper workloads' tracing
paths — a map-only sampling job and a short MapReduce k-means drive with
an injected task failure — then exercises the full observability loop:
export to JSON *and* JSONL, reload both, validate the ordering
guarantees, check the phase-sum-equals-JobTiming invariant, and render
the text report.  The CI smoke step (`tests/test_docs_and_smoke.py`)
runs this, so the tracing layer cannot silently rot.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

__all__ = ["run_selfcheck"]


def run_selfcheck(verbose: bool = True) -> int:
    """Run the smoke test; returns 0 on success, 1 on any violation."""
    # Imports are local so that `import repro.observability.selfcheck`
    # stays cheap and cycle-free (this module pulls in the whole engine).
    from repro.algorithms.kmeans import run_kmeans_mapreduce
    from repro.algorithms.sampling import run_sampling_job
    from repro.geo.synthetic import SyntheticConfig, generate_dataset
    from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind
    from repro.mapreduce.runner import fresh_runner
    from repro.observability.history import load_history
    from repro.observability.report import render_report, summarize

    problems: list[str] = []

    def say(message: str) -> None:
        if verbose:
            print(message)

    array, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=42))

    timings = {}
    with fresh_runner(
        {"input/traces": array},
        chunk_size=64 * 1024,
        n_workers=3,
        record_bytes=64,
        chaos=ChaosSchedule(faults=(Fault(FaultKind.TASK_CRASH, task="map-0001"),)),
    ) as runner:
        result = run_sampling_job(runner, "input/traces", "out/sampled", window_s=60.0)
        timings[result.job_name] = result.timing
        km = run_kmeans_mapreduce(
            runner, "input/traces", k=3, max_iter=2, seed=7, use_combiner=True,
            workdir="tmp/selfcheck-kmeans",
        )

    history = runner.history
    say(
        f"ran {len(history.jobs())} jobs "
        f"({km.n_iterations} k-means iterations), {len(history)} events"
    )

    violations = history.validate()
    if violations:
        problems.append(f"ordering violations: {violations}")

    # Per-phase durations must reproduce the cost model's JobTiming.
    for job_name, timing in timings.items():
        phases = history.phase_durations(job_name)
        total = sum(phases.values()) + timing.retry_penalty_s
        if abs(total - timing.total_s) > 1e-6:
            problems.append(
                f"{job_name}: phases {total:.3f}s != JobTiming {timing.total_s:.3f}s"
            )

    # The injected failure must appear before the task's successful finish.
    failed = [e for e in history if e.kind == "attempt_failed"]
    if not failed:
        problems.append("injected task failure produced no attempt_failed event")

    # Round-trip through both on-disk formats.
    with tempfile.TemporaryDirectory(prefix="repro-history-") as tmp:
        for suffix in (".json", ".jsonl"):
            path = Path(tmp) / f"history{suffix}"
            history.save(path)
            reloaded = load_history(path)
            if [e.to_dict() for e in reloaded] != [e.to_dict() for e in history]:
                problems.append(f"{suffix} round-trip altered the event stream")
            elif reloaded.validate():
                problems.append(f"{suffix} reload fails validation")

    summaries = summarize(history)
    if len(summaries) != len(history.jobs()):
        problems.append(
            f"summarized {len(summaries)} of {len(history.jobs())} jobs"
        )
    report = render_report(history)
    for needle in ("critical path", "sim s", "node-local"):
        if needle not in report:
            problems.append(f"report is missing {needle!r}")

    if problems:
        for problem in problems:
            print(f"selfcheck FAILED: {problem}")
        return 1
    say(
        "history selfcheck: ok "
        f"({len(history)} events, {len(history.jobs())} jobs, "
        f"{len(failed)} retried attempt(s) traced)"
    )
    return 0
