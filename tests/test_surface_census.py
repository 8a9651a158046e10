"""The surface census: every module, exported name and entry-point
parameter under ``src/repro`` is reached by something a curator runs, or
says here why it stays.  Its body-level twin, the reach census
(``make_reach_census.py`` writes ``reach_census.json``), does the same for
every function; the last tests here gate that file.

*Reached* means used from a reacher: the ``repro`` CLI, ``benchmarks/``
(the e2e workloads and their tracer, the table/figure/ablation tests) or
``examples/`` (which drive the ``Gepeto`` facade, README's public API).
Tests are not reachers for modules and names: what only its own unit test
imports is deleted with that test, unless a test compares another
implementation against it (an oracle, kept with that reason).  For a parameter any call site counts,
tests included.  The pinned lists make a new module or export a one-line
diff here; the walks make an unreached one a failing test.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from tests.make_reach_census import CENSUS as REACH_CENSUS
from tests.make_reach_census import EXECUTED, TAGS, safety_test, src_functions
from tests.test_option_census import CENSUS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: ``package: (its modules, its __all__)``.
SURFACE = {
    "repro": ("__main__ checks cli toolkit viz", "Gepeto GepetoCluster __version__"),
    "repro.algorithms": ("djcluster kmeans sampling", """
        SamplingTechnique sample_dataset sample_array
        SamplingMapper run_sampling_job kmeans_sequential run_kmeans_mapreduce
        KMeansResult KMeansIterationStats assign_points nearest_centroid
        DJClusterParams DJClusterResult filter_moving_traces remove_redundant_traces
        preprocess_array djcluster_sequential run_djcluster_mapreduce
        run_preprocessing_pipeline"""),
    "repro.attacks": (
        "deanonymization linkage_mr mmc mmc_mr poi prediction semantics social sweep", """
        PointOfInterestEstimate extract_pois poi_attack label_home_work
        MobilityMarkovChain build_mmc evaluate_next_place_prediction
        PredictionReport DeanonymizationResult deanonymization_attack
        fingerprint_user fingerprint_users ColocationParams colocation_graph
        contact_events run_mmc_mapreduce SemanticPlace SemanticVisit
        label_places"""),
    "repro.geo": ("distance geolife grid stats synthetic trace trajectory", """
        TraceArray haversine_km
        haversine_m squared_euclidean get_metric EARTH_RADIUS_KM read_plt
        write_plt read_geolife_dataset write_geolife_dataset GEOLIFE_EPOCH
        SyntheticConfig SyntheticUser generate_user generate_dataset Stay Trip
        segment_trail UserStats corpus_summary radius_of_gyration_m
        sampling_interval_stats user_stats"""),
    "repro.index": ("persistent rtree rtree_mr selfjoin spacefilling", """
        radius_self_join zorder_key get_curve CURVES
        normalize_to_grid RTree Rect build_rtree_mapreduce RTreeBuildResult
        IndexCatalog IndexCorruptError PersistentRTree PortableIndex QueryEngine"""),
    "repro.mapreduce": ("""
        aggregation backends bench cache chaos cluster config counters failures
        hdfs job pipeline runner scheduler service shuffle simtime spill types""", """
        Configuration Counters Chunk RecordPayload ArrayPayload ClusterSpec Node
        paper_cluster SimulatedHDFS Mapper Reducer Partitioner HashPartitioner
        JobSpec MapContext ReduceContext JobRunner JobResult JobPipeline
        CostModel TaskFailure DistributedCache JobHistory load_history"""),
    "repro.metrics": ("predictability privacy utility", """
        spatial_distortion_m trace_volume_ratio coverage_ratio range_query_error
        UtilityReport utility_report poi_recovery PoiRecoveryReport
        anonymity_set_sizes mixzone_anonymity_sets PrivacyReport privacy_report
        PredictabilityReport max_predictability predictability_report
        random_entropy real_entropy temporal_uncorrelated_entropy"""),
    "repro.observability": ("events history report selfcheck", """
        Event Payload Phase SCHEMA_VERSION JobHistory TaskSpan load_history
        JobSummary summarize summarize_job render_gantt render_report"""),
    "repro.sanitization": ("aggregation base cloaking masks mixzones pseudonyms", """
        ANONYMOUS_ID Pseudonymizer Sanitizer DonutMask GaussianMask PlanarLaplaceMask
        UniformNoiseMask RoundingMask SpatialAggregator TemporalAggregator
        SpatialCloaking MixZone MixZoneSanitizer"""),
    "repro.streaming": ("batcher check manager source", """
        FeedBatch StreamSource MicroBatcher WindowDataset StreamingJobManager
        WindowResult RiskTimeline StreamRunResult run_stream
        run_multitenant_stream run_stream_selfcheck"""),
    "repro.utils": ("hashrng", "splitmix64 trace_keys hash_uniform hash_normal"),
}

#: Modules and exported names no reacher uses, and why each stays.
KEPT = {
    "repro.index.selfjoin.radius_self_join":
        "the documented per-row form of self_join_csr (DESIGN.md, docs/PERFORMANCE.md); "
        "the oracle suites compare it, split per row, against the per-cell reference",
    **dict.fromkeys(
        (
            f"repro.metrics.privacy.{name}"
            for name in (
                "anonymity_set_sizes", "mixzone_anonymity_sets", "home_work_anonymity",
                "privacy_report", "division_warnings", "reset_division_warnings",
            )
        ),
        "GEPETO's measure leg (with its undefined-ratio fault record); the streaming "
        "risk timeline is pinned to it by tests/streaming/golden_window_metrics.json",
    ),
}

#: Entry-point parameters no call site passes, and why each stays.
UNSET_BUT_KEPT = {
    "JobService.__init__.spill_dir": "deployment setting: where spill files live",
    "StreamingJobManager.__init__.root":
        "deployment setting: the HDFS prefix a stream's windows and work files live under",
}

_FILES = {
    path: ast.parse(path.read_text())
    for top in ("src", "benchmarks", "examples", "tests")
    for path in sorted((REPO / top).rglob("*.py"))
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


_SRC_TREES = {_module_name(p): t for p, t in _FILES.items() if SRC in p.parents}
_LEAVES = set(_SRC_TREES) - set(SURFACE)
_REACHERS = [t for p, t in _FILES.items() if p.parts[len(REPO.parts)] in ("benchmarks", "examples")]


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return [element.value for element in node.value.elts]
    return []


def _resolve(package: str, name: str) -> str:
    """The leaf module ``from package import name`` lands in: a
    submodule, or the module a package ``__init__`` re-exports it from."""
    if f"{package}.{name}" in _SRC_TREES:
        return f"{package}.{name}"
    if package in SURFACE:
        for node in ast.walk(_SRC_TREES[package]):
            if isinstance(node, ast.ImportFrom) and node.module in _SRC_TREES:
                if any((a.asname or a.name) == name for a in node.names):
                    return _resolve(node.module, name)
    return package


def _imports(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in _SRC_TREES:
            found |= {_resolve(node.module, a.name) for a in node.names}
    return found & _LEAVES


def _uses(tree: ast.AST) -> set[str]:
    """Names a file loads, reads as an attribute, or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.rpartition(".")[2] for a in node.names}
    return found


def test_module_list_and_package_exports_are_pinned():
    pinned = set(SURFACE)
    for package, (modules, exports) in SURFACE.items():
        pinned |= {f"{package}.{module}" for module in modules.split()}
        assert importlib.import_module(package).__all__ == exports.split(), package
    assert sorted(_SRC_TREES) == sorted(pinned)


def test_every_module_is_reached_by_a_non_test_reacher():
    reached, frontier = set(), {"repro.cli", "repro.__main__"}
    for tree in _REACHERS:
        frontier |= _imports(tree)
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier |= _imports(_SRC_TREES[module])
    assert sorted(_LEAVES - reached - set(KEPT)) == []


def test_every_exported_name_is_used_outside_the_tests():
    used = set().union(*map(_uses, _REACHERS), *(_uses(_SRC_TREES[m]) for m in _LEAVES))
    unused = {
        f"{module}.{name}"
        for module in _LEAVES for name in _all_of(_SRC_TREES[module]) if name not in used
    }
    assert sorted(unused - set(KEPT)) == []
    assert sorted(set(KEPT) - unused - _LEAVES) == [], "reached now: drop it from KEPT"


def _call_name(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _call_sites() -> dict[str, list]:
    """``{callee name: [(enclosing function, call)]}`` over every file."""
    sites: dict[str, list] = {}

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        elif isinstance(node, ast.Call) and _call_name(node):
            sites.setdefault(_call_name(node), []).append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for tree in _FILES.values():
        visit(tree, None)
    return sites


_CALLS = _call_sites()


def _passed(callee: str, parameters: list[str], seen: frozenset = frozenset()) -> set[str]:
    """Parameters some call site hands ``callee``: positionally, by
    keyword, or through a ``**kwargs`` that its caller forwards from its
    own callers or built with ``dict(...)``."""
    passed = set()
    for function, call in _CALLS.get(callee, ()):
        if not seen:  # a position only names a parameter at a direct call
            passed |= set(parameters[: len(call.args)])
        for keyword in call.keywords:
            if keyword.arg is not None:
                passed.add(keyword.arg)
            elif function is None or not isinstance(keyword.value, ast.Name):
                continue
            elif getattr(function.args.kwarg, "arg", None) != keyword.value.id:
                passed |= {
                    kw.arg
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Call) and _call_name(node.value) == "dict"
                    and ast.unparse(getattr(node, "target", None) or node.targets[0])
                    == keyword.value.id
                    for kw in node.value.keywords
                }
            elif function.name not in seen:
                passed |= _passed(function.name, parameters, seen | {function.name})
    return passed


@pytest.mark.parametrize("func", CENSUS, ids=lambda f: f.__qualname__)
def test_every_parameter_is_passed_by_some_call_site(func):
    parameters = [
        name for name, p in inspect.signature(func).parameters.items()
        if name != "self" and p.kind is not p.VAR_KEYWORD
    ]
    callee = func.__qualname__.removesuffix(".__init__")
    unset = {
        f"{func.__qualname__}.{name}" for name in set(parameters) - _passed(callee, parameters)
    }
    kept = {key for key in UNSET_BUT_KEPT if key.startswith(func.__qualname__ + ".")}
    assert sorted(unset - kept) == []
    assert sorted(kept - unset) == [], "passed now: drop it from UNSET_BUT_KEPT"


def test_every_kept_entry_says_why():
    for reason in [*KEPT.values(), *UNSET_BUT_KEPT.values()]:
        assert len(reason) > 20 and "own test" not in reason


def test_the_assignment_kernels_are_exported_and_reached():
    """``nearest_centroid`` and its Haversine key are leaf exports whose
    reacher is ``run_kmeans_mapreduce`` (the three ``kmeans_*`` e2e
    workloads): the mapper assigns through the one and the one orders by
    the other, through the ``pairwise`` name the e2e tracer wraps."""
    assert "nearest_centroid" in _all_of(_SRC_TREES["repro.algorithms.kmeans"])
    assert "haversine_arg" in _all_of(_SRC_TREES["repro.geo.distance"])
    used = _uses(_SRC_TREES["repro.algorithms.kmeans"])
    assert {"nearest_centroid", "haversine_arg", "pairwise"} <= used
    assert any("run_kmeans_mapreduce" in _uses(tree) for tree in _REACHERS)


def test_the_bench_exports_are_pinned_and_e2e_reaches_the_generators():
    """``repro.mapreduce.bench`` exports the three corpus generators, whose
    reacher is ``benchmarks/e2e/workloads.py``; the suites that run on
    them are goldens under ``tests/goldens``."""
    assert _all_of(_SRC_TREES["repro.mapreduce.bench"]) == [
        "synthetic_corpus", "synthetic_corpus_blocks", "synthetic_stream_corpus",
    ]
    e2e = _uses(_FILES[REPO / "benchmarks" / "e2e" / "workloads.py"])
    assert {"synthetic_corpus", "synthetic_corpus_blocks", "synthetic_stream_corpus"} <= e2e


_REACH = json.loads(REACH_CENSUS.read_text())


def test_the_reach_census_lists_every_function():
    """A function added, renamed or deleted under ``src/repro`` is a diff
    of ``reach_census.json``: rerun ``tests/make_reach_census.py``."""
    assert sorted(_REACH["functions"]) == sorted(src_functions())


def test_every_unexecuted_function_says_why_it_stays():
    for key, value in _REACH["functions"].items():
        if value != EXECUTED:
            tag, sep, why = value.partition(":")
            assert tag in TAGS and sep and why.strip(), f"{key}: {value!r}"


def _test_exists(test_id: str) -> bool:
    path, *names = test_id.split("::")
    if not path.startswith("tests/") or not (REPO / path).is_file() or not names:
        return False
    scope = _FILES[REPO / path].body
    for name in names:
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_safety_reason_names_a_tier1_test_that_exists():
    safety = {
        key: safety_test(value)
        for key, value in [*_REACH["functions"].items(), *_REACH["statements"].items()]
        if safety_test(value)
    }
    assert safety
    assert sorted(key for key, test in safety.items() if not _test_exists(test)) == []


def test_every_statement_no_reacher_runs_is_tested_or_tagged():
    """A statement of an executed function that no reacher runs names
    the tier-1 test that runs it, or carries a tag; its key names the
    function and the lines as offsets from its ``def``."""
    bad = []
    for key, value in _REACH["statements"].items():
        function, _, span = key.rpartition(" ")
        tag, _, why = value.partition(":")
        if _REACH["functions"].get(function) != EXECUTED or not re.fullmatch(
            r"\+\d+\.\.\+\d+", span
        ):
            bad.append(f"{key}: not a span of an executed function")
        elif tag == "test" and not _test_exists(why.strip()):
            bad.append(f"{key}: no tier-1 test {why.strip()}")
        elif tag != "test" and (tag not in TAGS or not why.strip()):
            bad.append(f"{key}: {value!r}")
    assert bad == []
