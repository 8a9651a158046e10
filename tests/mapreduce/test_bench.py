"""The benchmark harness: corpus synthesis, the rule that a suite's
document reads no clock, and — for every suite — the gates, exercised on
the committed ``BENCH_*.json``.  That a fresh run writes those files byte
for byte is ``tests/test_bench_goldens.py``."""

import ast
import copy
import json
from pathlib import Path

import numpy as np
import pytest

import repro.mapreduce.bench as bench
from repro.mapreduce.bench import SUITES, save_result, synthetic_corpus

REPO = Path(__file__).resolve().parents[2]

#: Every key that held a clock, a resource meter or a host property.
HOST_KEYS = {
    "wall_s", "elapsed_s", "wall_clock_s", "build_wall_s", "query_wall_s",
    "times_s", "peak_rss_mb", "rss_saved_mb", "slowdown", "cpu_count",
    "isolated_cells", "reps", "iterations",
}


def _committed(suite):
    return json.loads((REPO / suite.baseline).read_text())


# -- synthetic corpus --------------------------------------------------------

def test_synthetic_corpus_shape_and_determinism():
    a = synthetic_corpus(500, seed=3)
    b = synthetic_corpus(500, seed=3)
    assert len(a) == 500
    assert np.array_equal(a.latitude, b.latitude)
    assert np.array_equal(a.longitude, b.longitude)
    assert len(synthetic_corpus(500, seed=4)) == 500
    assert not np.array_equal(synthetic_corpus(500, seed=4).latitude, a.latitude)


# -- a document is a pure function of the code ----------------------------------

def test_bench_reads_no_clock():
    tree = ast.parse(Path(bench.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"time", "resource", "subprocess"}
    assert not any(hasattr(suite, "wall_clock") for suite in SUITES.values())
    assert list(SUITES) == ["spill", "multitenant", "query", "stream", "shuffle", "attack"]


# Spill is the suite whose run goes through disk: spill files and paged chunks.
@pytest.mark.parametrize("name", ["spill"])
def test_two_runs_write_identical_documents(name, tmp_path):
    """Two runs in one process write the same bytes: nothing a run leaves
    behind reaches the next document."""
    docs = [SUITES[name].run() for _ in range(2)]
    first, second = (save_result(doc, tmp_path / f"{i}.json") for i, doc in enumerate(docs))
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text()) == docs[0]


# -- every suite's gates, on the committed documents ------------------------------

@pytest.mark.parametrize("name", list(SUITES))
def test_committed_baseline_passes_its_own_gates_and_comparison(name, tmp_path):
    """The committed document passes its gates and is already in the
    golden format, so the byte comparison compares content only."""
    suite = SUITES[name]
    committed = _committed(suite)
    assert suite.gates(committed) == []
    rewritten = save_result(committed, tmp_path / "doc.json")
    assert rewritten.read_bytes() == (REPO / suite.baseline).read_bytes()


def _keys(node):
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _keys(child)
    elif isinstance(node, list):
        for child in node:
            yield from _keys(child)


def test_wall_clock_fields_are_never_declared():
    """No committed document holds a host-dependent key at any depth."""
    for suite in SUITES.values():
        assert not set(_keys(_committed(suite))) & HOST_KEYS, suite.name


def test_spill_gates_catch_divergence_and_a_budget_that_never_bit():
    suite = SUITES["spill"]
    baseline = _committed(suite)
    diverged = copy.deepcopy(baseline)
    diverged["results"][0]["cells"]["budgeted"]["centroids_sha256"] = "0" * 64
    assert any("centroids_sha256" in p for p in suite.gates(diverged))
    iterations = copy.deepcopy(baseline)
    iterations["results"][1]["cells"]["budgeted"]["n_iterations"] += 1
    assert any("n_iterations" in p for p in suite.gates(iterations))
    idle = copy.deepcopy(baseline)
    for entry in idle["results"]:
        cell = entry["cells"]["budgeted"]
        cell["spill"]["runs_spilled"] = cell["paging"]["pages_out"] = 0
    assert any("never bit" in p for p in suite.gates(idle))
