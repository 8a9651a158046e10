"""The benchmark corpora and suites: corpus synthesis, the rule that no
golden build reads a clock, and — for every suite — the gates, exercised
on the committed ``BENCH_*.json``.  That a fresh run writes those files
byte for byte is ``tests/test_bench_goldens.py``."""

import ast
import copy
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.mapreduce.bench as bench
from repro.mapreduce.bench import synthetic_corpus
from tests.goldens.registry import GOLDENS, built, committed
from tests.goldens.suites import _gates_spill, bench_json

SUITES = [name for name, golden in GOLDENS.items() if golden.path.startswith("benchmarks/")]

#: Every key that held a clock, a resource meter or a host property.
HOST_KEYS = {
    "wall_s", "elapsed_s", "wall_clock_s", "build_wall_s", "query_wall_s",
    "times_s", "peak_rss_mb", "rss_saved_mb", "slowdown", "cpu_count",
    "isolated_cells", "reps", "iterations",
}


# -- synthetic corpus --------------------------------------------------------

def test_synthetic_corpus_shape_and_determinism():
    a = synthetic_corpus(500, seed=3)
    b = synthetic_corpus(500, seed=3)
    assert len(a) == 500
    assert np.array_equal(a.latitude, b.latitude)
    assert np.array_equal(a.longitude, b.longitude)
    assert len(synthetic_corpus(500, seed=4)) == 500
    assert not np.array_equal(synthetic_corpus(500, seed=4).latitude, a.latitude)


# -- a golden is a pure function of the code ----------------------------------------

def test_bench_reads_no_clock():
    """No module that defines a golden build (nor the corpora they draw
    on) imports a clock, a resource meter or a subprocess, and every
    build takes no argument."""
    modules = {bench, *(sys.modules[g.build.__module__] for g in GOLDENS.values())}
    for module in modules:
        imported = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        assert not imported & {"time", "resource", "subprocess"}, module.__name__
    for golden in GOLDENS.values():
        assert inspect.signature(golden.build).parameters == {}, golden.name
    assert SUITES == ["spill", "multitenant", "query", "stream", "shuffle", "attack"]


# Spill is the suite whose run goes through disk: spill files and paged chunks.
@pytest.mark.parametrize("name", ["spill"])
def test_two_runs_write_identical_documents(name):
    """Two runs in one process write the same bytes: nothing a run leaves
    behind reaches the next document."""
    assert GOLDENS[name].build() == built(name)


# -- every suite's gates, on the committed documents ------------------------------

@pytest.mark.parametrize("name", SUITES)
def test_committed_baseline_passes_its_own_gates_and_comparison(name):
    """The committed document passes its gates and is already in the
    golden format, so the byte comparison compares content only."""
    text = committed(name)
    assert GOLDENS[name].problems(text) == []
    assert bench_json(json.loads(text)) == text


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
    for name in SUITES:
        assert not set(_keys(json.loads(committed(name)))) & HOST_KEYS, name


def test_spill_gates_catch_divergence_and_a_budget_that_never_bit():
    baseline = json.loads(committed("spill"))
    diverged = copy.deepcopy(baseline)
    diverged["results"][0]["cells"]["budgeted"]["centroids_sha256"] = "0" * 64
    assert any("centroids_sha256" in p for p in _gates_spill(diverged))
    iterations = copy.deepcopy(baseline)
    iterations["results"][1]["cells"]["budgeted"]["n_iterations"] += 1
    assert any("n_iterations" in p for p in _gates_spill(iterations))
    idle = copy.deepcopy(baseline)
    for entry in idle["results"]:
        cell = entry["cells"]["budgeted"]
        cell["spill"]["runs_spilled"] = cell["paging"]["pages_out"] = 0
    assert any("never bit" in p for p in _gates_spill(idle))


@pytest.mark.parametrize("kwargs", [{"n_users": 0}, {"n_windows": 0}])
def test_stream_corpus_needs_users_and_windows(kwargs):
    with pytest.raises(ValueError, match="n_users and n_windows must be positive"):
        bench.synthetic_stream_corpus(100, **kwargs)
