"""The benchmark harness: corpus synthesis, the timing run's divergence
guard, and — for every suite — the gates and the one baseline
comparison that gate CI, exercised on the committed ``BENCH_*.json``."""

import copy
import re
from pathlib import Path

import numpy as np
import pytest

from repro.mapreduce.bench import (
    SUITES,
    Suite,
    compare_to_baseline,
    load_result,
    save_result,
    synthetic_corpus,
    wall_clock_regressions,
)

REPO = Path(__file__).resolve().parents[2]
BACKENDS_SUITE = SUITES["backends"]


def _doc(times_by_size, cpu_count=4, schema=1):
    return {
        "schema": schema,
        "cpu_count": cpu_count,
        "results": [
            {"size": size, "times_s": dict(times)}
            for size, times in times_by_size.items()
        ],
    }


def compare_backends(current, baseline, tolerance=0.25):
    return compare_to_baseline(BACKENDS_SUITE, current, baseline, tolerance)


# -- synthetic corpus --------------------------------------------------------

def test_synthetic_corpus_shape_and_determinism():
    a = synthetic_corpus(500, seed=3)
    b = synthetic_corpus(500, seed=3)
    assert len(a) == 500
    assert np.array_equal(a.latitude, b.latitude)
    assert np.array_equal(a.longitude, b.longitude)
    assert len(synthetic_corpus(500, seed=4)) == 500
    assert not np.array_equal(synthetic_corpus(500, seed=4).latitude, a.latitude)


# -- the benchmark run -------------------------------------------------------

def test_small_benchmark_run_and_roundtrip(tmp_path):
    doc = BACKENDS_SUITE.run(
        sizes=(2_000,), backends=("serial", "threads"), iterations=1,
        max_iter=2, workers=2,
    )
    (entry,) = doc["results"]
    assert entry["size"] == 2_000
    assert set(entry["times_s"]) == {"serial", "threads"}
    assert all(t > 0 for t in entry["times_s"].values())
    assert entry["speedup_vs_serial"].keys() == {"threads"}
    assert "traces" in BACKENDS_SUITE.render(doc)

    path = save_result(doc, tmp_path / "bench.json")
    assert load_result(path) == doc


def test_benchmark_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown backend"):
        BACKENDS_SUITE.run(sizes=(100,), backends=("serial", "fibers"))
    with pytest.raises(ValueError, match="iterations"):
        BACKENDS_SUITE.run(sizes=(100,), iterations=0)


# -- the wall-clock regression check (the backends suite's compare step) -----

def test_check_passes_within_tolerance():
    base = _doc({1000: {"serial": 1.0, "processes": 0.5}})
    cur = _doc({1000: {"serial": 1.2, "processes": 0.6}})
    assert compare_backends(cur, base, tolerance=0.25) == []


def test_check_flags_absolute_regression_on_same_host():
    base = _doc({1000: {"serial": 1.0, "processes": 0.5}})
    cur = _doc({1000: {"serial": 1.0, "processes": 0.8}})
    problems = compare_backends(cur, base, tolerance=0.25)
    # The provenance header leads, then the one regressed cell.
    assert len(problems) == 2
    assert "provenance" in problems[0] and "cpu_count=4" in problems[0]
    assert "raw wall-clock" in problems[0]
    assert "processes" in problems[1] and "wall-clock" in problems[1]


def test_check_normalizes_on_different_host():
    base = _doc({1000: {"serial": 1.0, "processes": 0.5}}, cpu_count=4)
    # Host is 3x slower overall but the processes/serial ratio is intact:
    # not a regression in the backend machinery.
    cur = _doc({1000: {"serial": 3.0, "processes": 1.5}}, cpu_count=2)
    assert compare_backends(cur, base, tolerance=0.25) == []
    # Same hosts, but the ratio itself collapsed: flagged.
    worse = _doc({1000: {"serial": 3.0, "processes": 3.0}}, cpu_count=2)
    problems = compare_backends(worse, base, tolerance=0.25)
    assert len(problems) == 2
    assert "provenance" in problems[0] and "different hosts" in problems[0]
    assert "serial-normalized" in problems[1]


def test_check_skips_noise_floor_cells():
    base = _doc({1000: {"serial": 0.05}})
    cur = _doc({1000: {"serial": 0.2}})  # 4x, but 50 ms is jitter territory
    assert wall_clock_regressions(cur, base, min_seconds=0.25) == []
    assert wall_clock_regressions(cur, base, min_seconds=0.01) != []
    assert compare_backends(cur, base) == []


def test_check_reports_schema_mismatch_and_no_overlap():
    base = _doc({1000: {"serial": 1.0}}, schema=0)
    cur = _doc({1000: {"serial": 1.0}})
    assert "schema mismatch" in compare_backends(cur, base)[0]

    base = _doc({1000: {"serial": 1.0}})
    cur = _doc({2000: {"serial": 1.0}})
    problems = compare_backends(cur, base)
    assert any("no overlapping corpus sizes" in p for p in problems)


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
    if suite.wall_clock:
        # The wall-clock rule holds every timed cell above its 0.25 s
        # noise floor to the --tolerance slowdown.
        timed = len(path) == 4 and path[0] == "results" and path[2] == "times_s"
        return ("slowdown", 0.25) if timed and value >= 0.25 else None
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
        # (e) the provenance line leads; then exactly the one flagged path,
        # reported at the declared depth.
        assert len(problems) == 2, (path, problems)
        assert problems[0].startswith("provenance: baseline recorded on cpu_count=")
        checked["flagged"] += 1
        rule, tolerance = declared
        if rule == "slowdown":
            inside = _with_leaf(baseline, path, value * (1 + tolerance * 0.5))
            assert compare_to_baseline(suite, inside, baseline) == [], path
            continue
        flagged = problems[1].split(":")[0]
        assert dotted == flagged or dotted.startswith(flagged + "."), problems
        if rule != "exact":
            # Nudged inside the tolerance: not flagged.
            nudge = (abs(value) if rule == "rel" else 1.0) * tolerance * 0.5
            inside = _with_leaf(baseline, path, value + nudge)
            assert compare_to_baseline(suite, inside, baseline) == [], path
    # Wall-clock and provenance fields exist in every document and are
    # never compared (outside the wall-clock suite); every suite but
    # spill holds something to its baseline.
    assert checked["ignored"] > 0
    assert (checked["flagged"] > 0) == (suite.name != "spill")


def test_wall_clock_fields_are_never_declared():
    never = {
        "wall_s", "elapsed_s", "wall_clock_s", "build_wall_s", "query_wall_s",
        "cpu_count", "max_workers", "reps", "peak_rss_mb",
        "speedup_vs_serial", "slowdown", "ratio", "savings_pct",
    }
    for suite in SUITES.values():
        for pattern, _, _ in suite.compared:
            keys = set(re.findall(r"\w+", pattern))
            assert not keys & never, (suite.name, pattern)


def test_a_pinned_mismatch_is_the_single_message(suite_and_baseline):
    suite, baseline = suite_and_baseline
    for field in suite.pinned:
        current = copy.deepcopy(baseline)
        current[field] = {"other": True} if field == "workload" else _perturbed(baseline[field])
        # Drift elsewhere is not reported once a pinned field differs.
        current["cpu_count"] = 99
        problems = compare_to_baseline(suite, current, baseline)
        assert len(problems) == 1, problems
        assert problems[0].startswith(f"{field} mismatch"), problems
    assert {"schema"} <= set(suite.pinned)
    assert ("budget_mb" in suite.pinned) == (suite.name == "query")


def test_a_declared_path_matching_nothing_is_an_error(suite_and_baseline):
    suite, baseline = suite_and_baseline
    for pattern in ("no_such_section.value", "no_such_section.*.value"):
        bogus = Suite(
            suite.name, suite.run, suite.gates, suite.render,
            compared=((pattern, "exact", 0.0),),
        )
        problems = compare_to_baseline(bogus, baseline, baseline)
        assert len(problems) == 2 and "no_such_section" in problems[1], problems
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
