"""Every golden in the repository, one entry each.

See :mod:`tests.goldens` for what an entry is and how a golden is
re-recorded.  ``tier1=False`` marks a golden too slow for tier-1 (CI
regenerates it and diffs); every other entry is rebuilt by
``tests/test_bench_goldens.py``.
"""

from __future__ import annotations

import functools
from fnmatch import fnmatch
from pathlib import Path

from tests.goldens import Golden, differences, fields
from tests.goldens import attacks, histories, index, kmeans, reports, serving, suites, windows

REPO = Path(__file__).resolve().parents[2]


def _suite(name: str, run, gates, tier1: bool = True) -> Golden:
    return Golden(name, f"benchmarks/results/BENCH_{name}.json", run, gates, tier1)


GOLDENS: dict[str, Golden] = {
    golden.name: golden
    for golden in (
        _suite("spill", suites._run_spill, suites._gates_spill),
        _suite("multitenant", suites._run_multitenant, suites._gates_multitenant),
        _suite("query", suites._run_query, suites._gates_query),
        _suite("stream", suites._run_stream, suites._gates_stream),
        _suite("shuffle", suites._run_shuffle, suites._gates_shuffle),
        _suite("attack", suites._run_attack, suites._gates_attack, tier1=False),
        Golden("kmeans", "tests/algorithms/golden_kmeans.json", kmeans.build),
        Golden(
            "linkage", "tests/attacks/golden_linkage_jobs.json", attacks.build_linkage,
            attacks.gates_linkage, numpy_fields=("runs/*/outputs_sha256/*",),
        ),
        Golden(
            "fingerprints", "tests/attacks/golden_fingerprints.json",
            attacks.build_fingerprints, numpy_fields=("users/*/pickle_len",),
        ),
        Golden("rtree_build", "tests/index/golden_rtree_build.json", index.build_rtree),
        Golden(
            "packed_shapes", "tests/index/golden_packed_shapes.json", index.build_packed_shapes
        ),
        Golden("radius", "tests/index/golden_radius_neighbourhoods.json", index.build_radius),
        Golden("serving", "tests/index/golden_serving_counters.json", serving.build_serving),
        Golden(
            "page_touches", "tests/index/golden_page_touches.json",
            serving.build_page_touches, serving.gates_page_touches,
        ),
        Golden("windows", "tests/streaming/golden_window_metrics.json", windows.build),
        Golden(
            "history", "tests/observability/golden_history.json",
            histories.build_history, histories.gates,
        ),
        Golden(
            "chaos_history", "tests/observability/golden_chaos_history.json",
            histories.build_chaos_history, histories.gates,
        ),
        Golden(
            "chaos_report", "tests/observability/golden_chaos_report.txt",
            histories.build_chaos_report,
        ),
        Golden("reports", "tests/golden_reports.json", reports.build),
    )
}


def built(name: str) -> str:
    """``GOLDENS[name].build()``, once per process: every check shares it."""
    return _build(GOLDENS[name])


@functools.cache
def _build(golden: Golden) -> str:
    return golden.build()


def committed(name: str) -> str:
    return (REPO / GOLDENS[name].path).read_text()


def check(name: str) -> list[str]:
    """The fields a fresh build of ``name`` changes in its committed file,
    as ``path: old → new`` lines; ``[]`` when none."""
    return list(_check(name))


@functools.cache
def _check(name: str) -> tuple[str, ...]:
    return tuple(differences(GOLDENS[name], committed(name), built(name)))


def changed(name: str, pattern: str) -> list[str]:
    """The lines of :func:`check` whose field matches ``pattern``, a field
    glob that must match some field of the committed file."""
    if not any(fnmatch(path, pattern) for path in fields(committed(name))):
        raise KeyError(f"no field of {GOLDENS[name].path} matches {pattern!r}")
    return [line for line in check(name) if fnmatch(line.split(": ", 1)[0], pattern)]
