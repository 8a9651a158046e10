"""Regenerates ``reach_census.json`` (checked in next to this file).

The reach census is the body-level twin of ``test_surface_census.py``:
that file pins the *names* a curator reaches, this one says, for every
function under ``src/repro`` (methods and nested functions included),
whether something a curator runs actually calls it.  A *reacher* is one
of the runs listed in ``REACHERS``: the five ``--selfcheck``s, every CLI
subcommand once per mode flag, the six benchmark suites (the five
``test_bench_goldens.py`` rebuilds and ``make_goldens.py attack``; the
kernel goldens are tests, not reachers), the seven ``examples/*.py``, the six serial-backend e2e workloads (through
``benchmarks/e2e/workloads.py``, at a fifth of their benchmark size) and
the paper-table tests under ``benchmarks/``.  Each runs in its own
interpreter under a ``sys.setprofile`` / ``threading.setprofile`` hook
that records every Python frame entered; a run that exits non-zero, or
any tracked file that differs afterwards, fails the census.

A function no reacher calls is deleted, or carries one reason in
``REASONS``, tagged with one of ``TAGS``:

``pool-worker``  runs only inside a processes-backend worker, where the
                 hook does not reach;
``interface``    a base-class method every reached subclass overrides;
``oracle``       a test compares another implementation against it;
``safety: <test id>``  a typed error, out-of-core or recovery path that
                 the named tier-1 test drives (checked: the census runs
                 those tests under the same hook and fails unless each
                 one calls its function);
``kept``         a ``KEPT`` entry of the surface census, or a name
                 README's quickstart calls.

Run it from the repository root (about three minutes on two cores)::

    PYTHONPATH=src python tests/make_reach_census.py

CI regenerates it and fails on any diff, so a function added without a
reacher or a reason is a red build.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
CENSUS = Path(__file__).parent / "reach_census.json"

TAGS = ("pool-worker", "interface", "oracle", "safety", "kept")
EXECUTED = "executed"

_POOL = "pool-worker: "
_BASE = "interface: the base-class default; every reached subclass overrides it"
_RECORD_VIEW = (
    "interface: the record view Mapper.run's default loop reads an array chunk "
    "through; every reached mapper overrides run"
)
_PRIVACY = (
    "kept: GEPETO's measure leg (surface census KEPT); "
    "tests/streaming/golden_window_metrics.json pins it"
)
_README = "kept: README's quickstart calls it"

#: ``module:qualname`` -> ``"<tag>: <one line>"`` for every function no
#: reacher calls that stays.  A ``safety:`` line starts with the tier-1
#: test that drives it.
REASONS: dict[str, str] = {
    "repro.mapreduce.backends:_pool_run_batch": _POOL + "the pool's one entry point",
    "repro.mapreduce.backends:_resolve_cache": _POOL + "rebuilds the broadcast cache",
    "repro.mapreduce.backends:_resolve_chunk": _POOL + "attaches a chunk's shm segment",
    "repro.mapreduce.backends:_untrack_shm": _POOL + "keeps the worker's resource "
        "tracker off the driver's segments",
    "repro.geo.trace:TraceArray.from_buffer": _POOL + "the zero-copy view over a segment",
    "repro.index.persistent:PortableIndex.__setstate__": _POOL + "unpickles the "
        "broadcast index",
    "repro.mapreduce.counters:Counters.__getstate__": _POOL + "pickles a task's "
        "counters back to the driver",
    "repro.mapreduce.aggregation:Aggregation.lift": _BASE,
    "repro.mapreduce.aggregation:Aggregation.merge": _BASE,
    "repro.mapreduce.aggregation:Aggregation.finalize": _BASE,
    "repro.mapreduce.aggregation:Aggregation.lift_pairs": _BASE,
    "repro.mapreduce.backends:ExecutionBackend.run_map_tasks": _BASE,
    "repro.mapreduce.backends:ExecutionBackend.run_reduce_tasks": _BASE,
    "repro.mapreduce.job:Mapper.map": _BASE,
    "repro.mapreduce.job:Mapper.run": _BASE,
    "repro.mapreduce.job:Reducer.reduce": _BASE,
    "repro.mapreduce.job:Partitioner.partition": _BASE,
    "repro.sanitization.base:Sanitizer.sanitize_array": _BASE,
    "repro.mapreduce.types:ArrayPayload.iter_records": _RECORD_VIEW,
    "repro.geo.trace:TraceArray.__iter__": _RECORD_VIEW,
    "repro.algorithms.kmeans:KMeansAggregation.lift": "oracle: test_aggregation's "
        "test_kmeans_lift_pairs_matches_object_loop_bitwise folds it against lift_pairs",
    "repro.index.rtree:Rect.min_dist_m": "oracle: test_rtree_properties' scalar "
        "best-first kNN prices children with it",
    "repro.index.rtree:Rect.union": "oracle: tests/conftest.py's check_invariants "
        "folds a node's child MBRs with it against the packed reduceat bounds",
    "repro.mapreduce.counters:Counters.__eq__": "oracle: the backend suites compare "
        "pooled outcomes, counters included, with the serial backend's",
    "repro.geo.trace:MobilityTrace.__post_init__": "safety: "
        "tests/geo/test_trace.py::TestMobilityTrace::test_latitude_bounds_validated "
        "rejects an out-of-range coordinate",
    "repro.index.selfjoin:_squeeze": "safety: "
        "tests/properties/test_selfjoin_properties.py::"
        "test_cell_key_too_wide_to_fold_is_squeezed_first keeps a cell key in int64",
    "repro.mapreduce.backends:ExecutionBackend.__enter__": "safety: "
        "tests/mapreduce/test_backends.py::test_failure_inside_a_batch_lands_on_its_task_only "
        "closes a pool on every exit path",
    "repro.mapreduce.backends:ExecutionBackend.__exit__": "safety: "
        "tests/mapreduce/test_backends.py::test_failure_inside_a_batch_lands_on_its_task_only "
        "closes a pool on every exit path",
    "repro.mapreduce.failures:JobFailedError.__init__": "safety: "
        "tests/mapreduce/test_chaos.py::TestRetryExhaustion::"
        "test_exhaustion_raises_job_failed_with_chain raises the typed error of a spent retry budget",
    "repro.mapreduce.failures:JobFailedError.failure_chain": "safety: "
        "tests/mapreduce/test_chaos.py::TestRetryExhaustion::"
        "test_exhaustion_raises_job_failed_with_chain lists the attempts behind that error",
    "repro.mapreduce.service:JobFuture._mark_cancelled": "safety: "
        "tests/mapreduce/test_service.py::test_cancel_queued_job cancels the queue "
        "of a service closed without waiting",
    "repro.mapreduce.service:_TenantState.admitted": "safety: "
        "tests/mapreduce/test_service.py::test_quota_caps_queued_jobs_per_tenant "
        "enforces a tenant's queue quota",
    "repro.mapreduce.shuffle:_sort_key": "safety: "
        "tests/mapreduce/test_shuffle.py::TestGroupSorted::test_mixed_key_types_do_not_crash "
        "orders unsortable keys",
    "repro.mapreduce.spill:spill_map_output": "safety: "
        "tests/mapreduce/test_backends.py::test_spill_stats_of_an_aggregated_budgeted_job "
        "spills a map output over budget",
    "repro.mapreduce.spill:SpilledMapOutput.delete": "safety: "
        "tests/mapreduce/test_backends.py::test_spill_stats_of_an_aggregated_budgeted_job "
        "removes a spilled map output",
    "repro.mapreduce.spill:SpilledMapOutput.load": "safety: "
        "tests/mapreduce/test_backends.py::test_bad_nodes_run_spills_like_the_fault_free_run "
        "reads a spilled map output back",
    "repro.mapreduce.spill:_StoreLoader.__reduce__": "safety: "
        "tests/mapreduce/test_spill.py::TestPayloadStore::test_paged_stub_refuses_to_pickle "
        "stops a paged chunk crossing a process boundary",
    "repro.index.selfjoin:radius_self_join": "kept: the per-row self-join the oracle "
        "suites compare against (surface census KEPT)",
    **dict.fromkeys(
        (
            f"repro.metrics.privacy:{name}"
            for name in (
                "anonymity_set_sizes", "mixzone_anonymity_sets", "home_work_anonymity",
                "privacy_report", "division_warnings", "reset_division_warnings",
            )
        ),
        _PRIVACY,
    ),
    "repro.toolkit:Gepeto.from_geolife": _README,
    "repro.toolkit:Gepeto.poi_attack_all": _README,
    "repro.toolkit:Gepeto.utility_versus": _README,
    "repro.algorithms.kmeans:KMeansResult.mean_iteration_sim_seconds": _README,
}


# -- the functions -------------------------------------------------------------


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defs(node: ast.AST, prefix: str):
    """``(qualname, def node)`` for every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def src_functions() -> dict[str, tuple[str, str, set[int]]]:
    """``module:qualname`` -> (path under ``src/``, name, the lines a code
    object of it may start on: the ``def`` or its first decorator)."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        module = _module_name(path)
        for qualname, node in _defs(ast.parse(path.read_text()), ""):
            lines = {node.lineno, *(d.lineno for d in node.decorator_list[:1])}
            out[f"{module}:{qualname}"] = (rel, node.name, lines)
    return out


# -- the reachers --------------------------------------------------------------

#: Stands for the reacher's own scratch directory in its arguments.
WORK = "{work}"
#: The corpus the ``--in`` subcommands read, written by the first step.
CORPUS = f"{WORK}/corpus"

_CLI = [
    ["history", "--selfcheck"],
    ["chaos", "--selfcheck"],
    ["service", "--selfcheck"],
    ["attack", "--linkage", "--selfcheck"],
    ["stream", "--selfcheck"],
    ["chaos"],
    ["chaos", "--node-loss", "--memory-budget-mb", "1"],
    ["submit", "--resubmit"],
    ["service"],
    ["service", "--no-chaos"],
    ["query", "--traces", "5000", "--queries", "8"],
    ["query", "--traces", "5000", "--point", "39.9,116.4", "--range", "39.8,116.3,40.0,116.5",
     "--radius-query", "39.9,116.4,500", "--knn", "39.9,116.4,5"],
    ["stream"],
    ["stream", "--no-warm-start"],
    ["sweep", "--users", "6", "--out", f"{WORK}/frontier.json"],
]

#: ``(label, kind, payload)``: ``cli`` runs each argv in turn through
#: ``python -m repro`` in one interpreter (so later steps read what earlier
#: ones wrote), ``script`` runs ``[file, *arguments]`` as ``__main__``,
#: ``e2e`` drives one benchmark workload, ``pytest`` runs pytest with the
#: given arguments.
REACHERS: list[tuple[str, str, object]] = [
    ("make_goldens.py attack", "script", [str(REPO / "tests" / "make_goldens.py"), "attack"]),
    ("test_bench_goldens.py", "pytest", [
        *(f"tests/test_bench_goldens.py::test_document_is_the_committed_golden[{suite}]"
          for suite in ("spill", "multitenant", "query", "stream", "shuffle")),
        "-q", "-p", "no:cacheprovider",
    ]),
    ("benchmarks", "pytest", ["benchmarks", "--ignore=benchmarks/e2e", "-q", "-p", "no:cacheprovider"]),
    *((" ".join(argv), "cli", [argv]) for argv in _CLI),
    ("corpus subcommands", "cli", [
        ["generate", "--out", CORPUS, "--users", "3", "--days", "1"],
        ["info", "--in", CORPUS],
        ["info", "--in", CORPUS, "--detailed"],
        ["visualize", "--in", CORPUS],
        ["sample", "--in", CORPUS, "--out", f"{WORK}/sampled-upper", "--technique", "upper"],
        ["sample", "--in", CORPUS, "--out", f"{WORK}/sampled-middle", "--technique", "middle"],
        ["attack", "--in", CORPUS],
        ["attack", "--in", CORPUS, "--semantic"],
        ["attack", "--in", CORPUS, "--linkage", "--memory-budget-mb", "1",
         "--history", f"{WORK}/linkage.json"],
        *(
            ["sanitize", "--in", CORPUS, "--out", f"{WORK}/sanitized-{i}", "--mechanism", spec]
            for i, spec in enumerate((
                "gaussian:100", "uniform:100", "donut:50-200", "laplace:0.01",
                "rounding:500", "aggregate:500", "sample:600", "cloak:2", "pseudonymize:7",
            ))
        ),
        ["sweep", "--in", CORPUS, "--mechanisms", "none,gaussian:200"],
        ["history", f"{WORK}/linkage.json"],
        ["history", f"{WORK}/linkage.json", "--validate-only"],
        ["stream", "--tenants", "2", "--late-prob", "0.2", "--lost-prob", "0.1",
         "--dup-prob", "0.1", "--memory-budget-mb", "1", "--out", f"{WORK}/timeline.json",
         "--history", f"{WORK}/stream.json"],
        ["stream", "--report", f"{WORK}/timeline.json"],
        ["history", f"{WORK}/stream.json", "--window"],
        ["history", f"{WORK}/stream.json", "--tenant", "tenant0"],
    ]),
    *((f"examples/{p.name}", "script", [str(p)]) for p in sorted((REPO / "examples").glob("*.py"))),
    *(
        (f"e2e {name}", "e2e", name)
        for name in ("kmeans_serial", "kmeans_spill", "attack_chain", "index_serve",
                     "linkage", "stream_windows")
    ),
]

#: The e2e workloads run at this fraction of ``--scale 1``.
E2E_SCALE = 0.2
E2E_SEED = 2013


# -- one run under the hook (a child interpreter) -------------------------------


def _record(kind: str, payload, out: str) -> int:
    """Run one reacher with the hook installed; write the frames it
    entered under ``src/repro`` to ``out`` as ``{test id: [[path, name,
    line], ...]}`` (one key, ``""``, outside pytest)."""
    sink = {"": set()}
    current = [sink[""]]

    def hook(frame, event, arg):
        if event == "call":
            current[0].add(frame.f_code)

    class PerTest:
        """Under ``pytest``, files each test's frames under its node id."""

        def pytest_runtest_logstart(self, nodeid, location):
            current[0] = sink.setdefault(nodeid, set())

        def pytest_runtest_logfinish(self, nodeid, location):
            current[0] = sink[""]

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = _run(kind, payload, PerTest())
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(SRC) + os.sep
    frames = {
        test: sorted(
            [c.co_filename[len(prefix):], c.co_name, c.co_firstlineno]
            for c in codes if c.co_filename.startswith(prefix)
        )
        for test, codes in sink.items()
    }
    Path(out).write_text(json.dumps(frames))
    return code


def _run(kind: str, payload, plugin) -> int:
    import runpy

    if kind == "cli":
        for argv in payload:
            sys.argv = ["repro", *argv]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    print(f"repro {' '.join(argv)}: exit {exc.code}", file=sys.stderr)
                    return 1
        return 0
    if kind == "script":
        sys.argv = list(payload)
        try:
            runpy.run_path(payload[0], run_name="__main__")
        except SystemExit as exc:
            return 0 if exc.code in (None, 0) else 1
        return 0
    if kind == "e2e":
        from contextlib import ExitStack

        sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
        from workloads import WORKLOADS

        workload = WORKLOADS[payload]
        inputs = workload.make_inputs(E2E_SEED, E2E_SCALE)
        with ExitStack() as stack:
            dep = workload.deploy(inputs, stack)
            result = workload.run(dep, inputs)
            workload.observe(dep, inputs, result)
            workload.signature(result)
        failures = workload.check(inputs, result)
        for failure in failures:
            print(f"e2e {payload}: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if kind == "pytest":
        import pytest

        return int(pytest.main(list(payload), plugins=[plugin]))
    raise ValueError(f"unknown reacher kind {kind!r}")


def _spawn(label: str, kind: str, payload, workdir: Path) -> dict[str, list]:
    """Run one reacher in a child interpreter; its recorded frames."""
    out = workdir / "frames.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(REPO)]),
               TMPDIR=str(workdir))
    command = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
               json.dumps(payload).replace(WORK, str(workdir)), str(out)]
    done = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"reacher {label!r} failed (exit {done.returncode}):\n"
                         f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    print(f"  reached: {label}", flush=True)
    return json.loads(out.read_text())


# -- the census ----------------------------------------------------------------


def _tracked_digest() -> dict[str, str]:
    files = subprocess.run(["git", "ls-files", "-z"], cwd=REPO, capture_output=True,
                           check=True).stdout.decode().split("\0")
    skip = str(CENSUS.relative_to(REPO))
    return {
        f: hashlib.sha256((REPO / f).read_bytes()).hexdigest()
        for f in files if f and f != skip and (REPO / f).is_file()
    }


def _keys(frames, index) -> set[str]:
    return {index[tuple(f)] for f in frames if tuple(f) in index}


def safety_test(reason: str) -> str | None:
    """The tier-1 test id a ``safety:`` reason names, else ``None``."""
    tag, _, rest = reason.partition(":")
    return rest.split()[0] if tag == "safety" and rest.split() else None


def build_census(workers: int = 2) -> dict[str, str]:
    functions = src_functions()
    index = {(path, name, line): key
             for key, (path, name, lines) in functions.items() for line in lines}
    before = _tracked_digest()
    reached: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        def one(reacher):
            label = reacher[0]
            workdir = Path(tmp) / hashlib.sha256(label.encode()).hexdigest()[:16]
            workdir.mkdir()
            return _spawn(*reacher, workdir)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for frames in pool.map(one, REACHERS):
                for test_frames in frames.values():
                    reached |= _keys(test_frames, index)

        safety = {key: safety_test(r) for key, r in REASONS.items() if safety_test(r)}
        workdir = Path(tmp) / "safety"
        workdir.mkdir()
        per_test = _spawn("safety tests", "pytest",
                          ["-q", "-p", "no:cacheprovider", *sorted(set(safety.values()))],
                          workdir) if safety else {}
    problems = [
        f"{key}: its safety test {test} does not call it"
        for key, test in sorted(safety.items())
        if key not in set().union(*(
            _keys(frames, index) for node, frames in per_test.items()
            if node == test or node.startswith(test + "[")
        ))
    ]
    after = _tracked_digest()
    problems += [f"a reacher changed the tracked file {f}"
                 for f in sorted(before) if before[f] != after.get(f)]
    problems += [f"{key}: a reason for a function that does not exist"
                 for key in sorted(set(REASONS) - set(functions))]
    census = {}
    for key in sorted(functions):
        if key in reached:
            census[key] = EXECUTED
        elif key in REASONS:
            census[key] = REASONS[key]
        else:
            census[key] = "unreached"
            problems.append(f"{key}: no reacher calls it and no reason keeps it")
    CENSUS.write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
    stale = sorted(key for key in REASONS if key in reached)
    problems += [f"{key}: reached now, drop its reason" for key in stale]
    if problems:
        raise SystemExit("\n".join(problems))
    return census


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _, _, kind, payload, out = sys.argv
        sys.exit(_record(kind, json.loads(payload), out))
    result = build_census()
    kept = sum(value != EXECUTED for value in result.values())
    print(f"wrote {CENSUS}: {len(result)} functions, {len(result) - kept} executed, "
          f"{kept} kept with a reason")
