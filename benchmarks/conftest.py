"""Benchmark fixtures: paper-scale corpora and result reporting.

The paper evaluates on two GeoLife subsets — 66 MB / 1,050,000 traces
(90 users) and 128 MB / 2,033,686 traces (178 users) — plus the full
18 GB corpus for the sampling run.  The synthetic generator reproduces
those scales with the same user counts (~5.5 k traces per user per day,
two days each); the 18 GB corpus is modelled by inflating the per-record
on-disk size (the *computation* sees the 2 M traces, the *cost model*
sees 18 GB across 282 chunks — exactly the paper's task structure).

Every benchmark writes its reproduction table to
``benchmarks/results/<name>.txt`` so the numbers survive pytest's output
capture; EXPERIMENTS.md is curated from those files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.runner import JobRunner

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_collection_modifyitems(config, items):
    """``bench``-marked tests are opt-in: they time real wall-clock and
    are meaningless on a loaded CI box unless explicitly requested with
    ``-m bench`` (the marker is registered in pyproject.toml)."""
    if "bench" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="wall-clock benchmark; opt in with -m bench")
    for item in items:
        if "bench" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def corpus_66mb():
    """~0.9 M traces from 90 users (the paper's 66 MB subset)."""
    return generate_dataset(SyntheticConfig(n_users=90, days=1, seed=66))


@pytest.fixture(scope="session")
def corpus_128mb():
    """~1.8 M traces from 178 users (the paper's 128 MB subset)."""
    return generate_dataset(SyntheticConfig(n_users=178, days=1, seed=128))


def make_runner(
    array,
    n_workers: int = 5,
    chunk_mb: int = 64,
    record_bytes: int = 64,
    path: str = "input/traces",
    **runner_kwargs,
) -> JobRunner:
    """A fresh deployment with the corpus uploaded."""
    hdfs = SimulatedHDFS(paper_cluster(n_workers), chunk_size=chunk_mb * MB, seed=0)
    hdfs.put_trace_array(path, array, record_bytes=record_bytes)
    return JobRunner(hdfs, **runner_kwargs)


def write_report(name: str, lines: list[str]) -> str:
    """Persist a benchmark's reproduction table; returns the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


def write_history(name: str, runner: JobRunner) -> Path:
    """Persist a deployment's job-history trace next to its report.

    Saves ``benchmarks/results/<name>_history.json`` — renderable with
    ``python -m repro history`` (see docs/OBSERVABILITY.md) — so the
    per-task structure behind a reproduction table can be inspected
    without re-running the benchmark.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}_history.json"
    runner.history.save(path)
    return path
