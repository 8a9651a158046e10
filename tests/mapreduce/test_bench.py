"""The benchmark harness: corpus synthesis, the rule that a ``repro
bench`` document is a pure function of code and parameters, and — for
every suite — the gates and the one baseline comparison that gate CI,
exercised on the committed ``BENCH_*.json``."""

import ast
import copy
import re
from pathlib import Path

import numpy as np
import pytest

import repro.mapreduce.bench as bench
from repro.mapreduce.bench import (
    SUITES,
    Suite,
    compare_to_baseline,
    load_result,
    save_result,
    synthetic_corpus,
)

REPO = Path(__file__).resolve().parents[2]

#: The three suites cheap enough to run inside tier-1, at reduced parameters.
CHEAP_RUNS = {
    "spill": dict(sizes=[20_000], budget_mb=0.25, max_iter=2),
    "multitenant": dict(n_traces=5_000),
    "query": dict(sizes=[5_000], budget_mb=0.05, n_queries=8),
}

#: Every key that held a clock, a resource meter or a host property.
HOST_KEYS = {
    "wall_s", "elapsed_s", "wall_clock_s", "build_wall_s", "query_wall_s",
    "times_s", "peak_rss_mb", "rss_saved_mb", "slowdown", "cpu_count",
    "isolated_cells", "reps", "iterations",
}


@pytest.fixture(scope="module")
def cheap_documents():
    """Two runs of each cheap suite with the same parameters."""
    return {
        name: [SUITES[name].run(**kwargs) for _ in range(2)]
        for name, kwargs in CHEAP_RUNS.items()
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


# -- a document is a pure function of code and parameters --------------------

@pytest.mark.parametrize("name", CHEAP_RUNS)
def test_two_runs_write_identical_documents(cheap_documents, name, tmp_path):
    first, second = (
        save_result(doc, tmp_path / f"{i}.json") for i, doc in enumerate(cheap_documents[name])
    )
    assert first.read_bytes() == second.read_bytes()
    assert load_result(first) == cheap_documents[name][0]


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


def test_benchmark_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown backend"):
        SUITES["shuffle"].run(backends=("serial", "fibers"))
    with pytest.raises(ValueError, match="budget_mb"):
        SUITES["spill"].run(sizes=(100,), budget_mb=0)


def test_check_reports_schema_mismatch_and_no_overlap():
    suite = SUITES["spill"]
    baseline = load_result(REPO / suite.baseline)
    assert "schema mismatch" in compare_to_baseline(suite, baseline | {"schema": 0}, baseline)[0]

    elsewhere = copy.deepcopy(baseline)
    for entry in elsewhere["results"]:
        entry["size"] += 1
    (problem,) = compare_to_baseline(suite, elsewhere, baseline)
    assert "names nothing this run and the baseline share" in problem


# -- every suite's gates and baseline comparison, on the committed baselines --

SUITE_NAMES = list(SUITES)


@pytest.fixture(params=SUITE_NAMES)
def suite_and_baseline(request):
    suite = SUITES[request.param]
    return suite, load_result(REPO / suite.baseline)


def _leaves(node, path=()):
    """Every ``(path, value)`` leaf of a document; a per-size ``results``
    list is keyed by size, as the comparison addresses it."""
    if isinstance(node, list) and node and all(
        isinstance(e, dict) and "size" in e for e in node
    ):
        node = {str(e["size"]): e for e in node}
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from _leaves(child, path + (str(key),))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path, node


def _declared_rule(suite, path, value):
    """The ``(rule, tolerance)`` the suite declares for a leaf path — a
    declared pattern covers everything beneath it — or ``None``."""
    for pattern, rule, tolerance in suite.compared:
        segments = pattern.split(".")
        if len(segments) <= len(path) and all(
            segment == "*" or str(key) in segment.strip("{}").split(",")
            for segment, key in zip(segments, path)
        ):
            return rule, tolerance
    return None


def _with_leaf(doc, path, value):
    """A deep copy of ``doc`` with the leaf at ``path`` replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        if isinstance(node, list) and isinstance(key, str):
            node = next(e for e in node if str(e["size"]) == key)
        else:
            node = node[key]
    node[path[-1]] = value
    return doc


def _perturbed(value):
    """A value that differs from ``value`` by far more than any tolerance."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    return f"{value}-perturbed"


def test_committed_baseline_passes_its_own_gates_and_comparison(suite_and_baseline):
    suite, baseline = suite_and_baseline
    assert suite.gates(baseline) == []
    assert compare_to_baseline(suite, baseline, baseline) == []


def test_a_leaf_is_flagged_iff_its_path_is_declared(suite_and_baseline):
    suite, baseline = suite_and_baseline
    checked = {"flagged": 0, "ignored": 0}
    for path, value in _leaves(baseline):
        if path[0] in suite.pinned:
            continue
        problems = compare_to_baseline(
            suite, _with_leaf(baseline, path, _perturbed(value)), baseline
        )
        declared = _declared_rule(suite, path, value)
        if declared is None:
            assert problems == [], f"undeclared {path} was compared: {problems}"
            checked["ignored"] += 1
            continue
        dotted = ".".join(str(key) for key in path)
        # Exactly the one flagged path, reported at the declared depth.
        (problem,) = problems
        checked["flagged"] += 1
        rule, tolerance = declared
        flagged = problem.split(":")[0]
        assert dotted == flagged or dotted.startswith(flagged + "."), problems
        if rule != "exact":
            # Nudged inside the tolerance: not flagged.
            nudge = (abs(value) if rule == "rel" else 1.0) * tolerance * 0.5
            inside = _with_leaf(baseline, path, value + nudge)
            assert compare_to_baseline(suite, inside, baseline) == [], path
    # Every suite holds something to its baseline, and every suite but
    # stream (all of it pinned or compared) records something it does not.
    assert checked["flagged"] > 0
    assert (checked["ignored"] > 0) == (suite.name != "stream")


def _keys(node):
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _keys(child)
    elif isinstance(node, list):
        for child in node:
            yield from _keys(child)


def test_wall_clock_fields_are_never_declared(cheap_documents):
    """No suite declares a host-dependent key, no document a cheap suite
    produces holds one at any depth, and no committed baseline does."""
    for suite in SUITES.values():
        for pattern, _, _ in suite.compared:
            assert not set(re.findall(r"\w+", pattern)) & HOST_KEYS, (suite.name, pattern)
        assert not set(_keys(load_result(REPO / suite.baseline))) & HOST_KEYS, suite.name
    for name, (doc, _) in cheap_documents.items():
        assert not set(_keys(doc)) & HOST_KEYS, name


def test_a_pinned_mismatch_is_the_single_message(suite_and_baseline):
    suite, baseline = suite_and_baseline
    for field in suite.pinned:
        current = copy.deepcopy(baseline)
        current[field] = {"other": True} if field == "workload" else _perturbed(baseline[field])
        problems = compare_to_baseline(suite, current, baseline)
        assert len(problems) == 1, problems
        assert problems[0].startswith(f"{field} mismatch"), problems
    assert {"schema"} <= set(suite.pinned)
    assert ("budget_mb" in suite.pinned) == (suite.name in {"spill", "query"})


def test_a_declared_path_matching_nothing_is_an_error(suite_and_baseline):
    suite, baseline = suite_and_baseline
    for pattern in ("no_such_section.value", "no_such_section.*.value"):
        bogus = Suite(
            suite.name, suite.run, suite.gates, suite.render,
            compared=((pattern, "exact", 0.0),),
        )
        problems = compare_to_baseline(bogus, baseline, baseline)
        assert len(problems) == 1 and "no_such_section" in problems[0], problems
    # Present in the baseline, gone from the run: flagged, not skipped.
    for pattern, _, _ in suite.compared:
        head = pattern.split(".")[0]
        if head in baseline:
            current = {k: v for k, v in baseline.items() if k != head}
            assert compare_to_baseline(suite, current, baseline) != []


def test_a_run_restricted_to_some_cells_compares_where_it_overlaps():
    """`--backends serial` or `--sizes 1000000` against the full baseline
    passes on what the two share, and fails when they share nothing."""
    shuffle = load_result(REPO / SUITES["shuffle"].baseline)
    serial_only = copy.deepcopy(shuffle)
    for cells in serial_only["modes"].values():
        del cells["threads"], cells["processes"]
    assert compare_to_baseline(SUITES["shuffle"], serial_only, shuffle) == []

    query = load_result(REPO / SUITES["query"].baseline)
    one_size = copy.deepcopy(query)
    one_size["results"] = one_size["results"][1:]
    assert compare_to_baseline(SUITES["query"], one_size, query) == []
    one_size["results"][0]["size"] = 12_345
    assert compare_to_baseline(SUITES["query"], one_size, query) != []


def test_spill_gates_catch_divergence_and_a_budget_that_never_bit():
    suite = SUITES["spill"]
    baseline = load_result(REPO / suite.baseline)
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
