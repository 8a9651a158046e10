"""Regenerates ``reach_census.json`` (checked in next to this file).

The reach census is the body-level twin of ``test_surface_census.py``:
that file pins the *names* a curator reaches, this one says, for every
function under ``src/repro`` (methods and nested functions included) and
for every statement inside one, whether something a curator runs
actually runs it.  A *reacher* is one of the runs listed in
``REACHERS``: the five ``--selfcheck``s, every CLI subcommand once per
mode flag, the six benchmark suites (the five ``test_bench_goldens.py``
rebuilds and ``make_goldens.py attack``; the kernel goldens are tests,
not reachers), the seven ``examples/*.py``, the six serial-backend e2e
workloads (through ``benchmarks/e2e/workloads.py``, at a fifth of their
benchmark size) and the paper-table tests under ``benchmarks/``.  Each
runs in its own interpreter under a ``sys.settrace`` /
``threading.settrace`` hook: the global tracer records every Python
frame entered and hands a line tracer to code under ``src/repro`` only;
a run that exits non-zero, or any tracked file that differs afterwards,
fails the census.

A function no reacher calls is deleted, or carries one reason in
``REASONS``, tagged with one of ``TAGS``:

``pool-worker``  runs only inside a processes-backend worker, where the
                 hook does not reach;
``interface``    a base-class method every reached subclass overrides;
``oracle``       a test compares another implementation against it;
``safety: <test id>``  a typed error, out-of-core or recovery path that
                 the named tier-1 test drives (checked: the census runs
                 tier-1 under the same hook and fails unless that test
                 calls its function);
``kept``         a ``KEPT`` entry of the surface census, or a name
                 README's quickstart calls.

The line pass.  A statement of an executed function counts as run when
one of its own lines (not those of its nested bodies) fires a line
event; a statement the compiler emits no code for (a docstring, ``pass``,
``else:``) is none.  A statement no reacher runs is, in this order:

- ``test: <id>``, the first tier-1 test (sorted node id, parameters
  dropped) that runs it: the census runs ``tests/`` once under the
  hook, tracing only the code objects that hold such statements;
- a tag of a ``STATEMENT_REASONS`` range that covers it: what no
  in-process test can run (a pool worker's side, a path only a
  subprocess takes);
- else the census fails, and the statement is deleted or given a test.

``reach_census.json`` lists functions under ``"functions"`` and those
statements under ``"statements"``, as runs of consecutive statements
with one verdict, keyed by line offsets from their function's ``def``
(``repro.mapreduce.runner:JobEvents.map_phase +27..+43``) so an
edit above a function does not move the keys below it.

Run it from the repository root (about ten minutes on two cores)::

    PYTHONPATH=src python tests/make_reach_census.py

CI regenerates it and fails on any diff, so a function or a branch added
without a reacher, a test or a reason is a red build.
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
from collections import Counter
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
    "repro.mapreduce.cache:DistributedCache.from_snapshot": _POOL + "turns the unpickled "
        "snapshot back into a cache",
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
    "repro.mapreduce.aggregation:Aggregation.lift_columns": _BASE,
    "repro.mapreduce.backends:ExecutionBackend.run_map_tasks": _BASE,
    "repro.mapreduce.backends:ExecutionBackend.run_reduce_tasks": _BASE,
    "repro.mapreduce.job:Mapper.map": _BASE,
    "repro.mapreduce.job:Mapper.run": _BASE,
    "repro.mapreduce.job:Reducer.reduce": _BASE,
    "repro.mapreduce.job:Partitioner.partition": _BASE,
    "repro.sanitization.base:Sanitizer.sanitize_array": _BASE,
    "repro.algorithms.kmeans:KMeansAggregation.lift": "oracle: test_aggregation's "
        "test_kmeans_lift_columns_matches_object_loop_bitwise folds it against lift_columns",
    "repro.mapreduce.shuffle:_group_sorted_generic": "oracle: test_shuffle_fastpath and "
        "test_shuffle_properties hold group_sorted's vectorized path to it; it also groups "
        "the mixed or tuple key streams that path declines",
    "repro.index.rtree:Rect.min_dist_m": "oracle: test_rtree_properties' scalar "
        "best-first kNN prices children with it",
    "repro.index.rtree:Rect.union": "oracle: tests/conftest.py's check_invariants "
        "folds a node's child MBRs with it against the packed reduceat bounds",
    "repro.mapreduce.counters:Counters.__eq__": "oracle: the backend suites compare "
        "pooled outcomes, counters included, with the serial backend's",
    "repro.checks:within": "safety: "
        "tests/geo/test_geolife.py::TestReadPltChecks::test_latitude_bounds_validated "
        "words the refusal of an out-of-range coordinate read from a PLT file",
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
    "repro.observability.events:_type_name": "safety: "
        "tests/observability/test_report.py::TestCli::"
        "test_mistyped_payload_value_is_one_line_exit names the type a history value "
        "failed to have",
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


#: ``"module:qualname +a..+b"`` (line offsets from the ``def``) ->
#: ``"<tag>: <one line>"`` for the statements of an executed function in
#: those lines that neither a reacher nor an in-process tier-1 test runs.
STATEMENT_REASONS: dict[str, str] = {}


# -- the functions and their statements ----------------------------------------


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


def _src_defs():
    """``(path under src/, module:qualname, def node)`` for every function."""
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        module = _module_name(path)
        for qualname, node in _defs(ast.parse(path.read_text()), ""):
            yield rel, f"{module}:{qualname}", node


def _starts(node: ast.AST) -> set[int]:
    """The lines a function's code object may start on: the ``def`` or
    its first decorator."""
    return {node.lineno, *(d.lineno for d in node.decorator_list[:1])}


def src_functions() -> dict[str, tuple[str, str, set[int]]]:
    """``module:qualname`` -> (path under ``src/``, name, its start lines)."""
    return {key: (rel, node.name, _starts(node)) for rel, key, node in _src_defs()}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _children(node: ast.AST):
    """The statements directly nested in ``node``'s bodies."""
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(node, field, ())
    for part in [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]:
        yield from part.body


def _span(node: ast.AST) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _code_lines(path: Path, starts: dict[tuple[str, int], str]) -> dict[str, set[int]]:
    """Function key -> the lines its compiled code (comprehensions and
    lambdas inside it included) attributes instructions to."""
    lines: dict[str, set[int]] = {}

    def walk(code, owner):
        key = starts.get((code.co_name, code.co_firstlineno))
        target = lines.setdefault(key, set()) if key else owner
        if target is not None:
            target.update(line for _, _, line in code.co_lines() if line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, target)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return lines


def src_statements() -> dict[str, tuple[str, int, list[tuple[int, frozenset[int]]]]]:
    """``module:qualname`` -> (path under ``src/``, ``def`` line, its
    statements as ``(first line, own lines that carry code)``, in source
    order).  A nested ``def`` or ``class`` is one statement of its
    enclosing function: its header, not its body."""
    by_path: dict[str, list] = {}
    for rel, key, node in _src_defs():
        by_path.setdefault(rel, []).append((key, node))
    out = {}
    for rel, defs in by_path.items():
        starts = {(node.name, line): key for key, node in defs for line in _starts(node)}
        code = _code_lines(SRC / rel, starts)

        def statements(node):
            for stmt in _children(node):
                yield stmt
                if not isinstance(stmt, _SCOPES):
                    yield from statements(stmt)

        for key, node in defs:
            found = []
            for stmt in statements(node):
                own = _span(stmt).union(*map(_span, getattr(stmt, "decorator_list", ())))
                own -= set().union(*map(_span, _children(stmt)))
                if own & code.get(key, set()):
                    found.append((min(own), frozenset(own & code[key])))
            out[key] = (rel, node.lineno, sorted(found, key=lambda s: s[0]))
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
    ["chaos", "--history", f"{WORK}/chaos.json"],
    ["chaos", "--node-loss", "--memory-budget-mb", "1"],
    ["submit", "--resubmit", "--history", f"{WORK}/submit.json"],
    ["service"],
    ["service", "--no-chaos"],
    ["query", "--traces", "5000", "--queries", "8", "--history", f"{WORK}/query.json"],
    ["query", "--traces", "5000", "--point", "39.9,116.4", "--range", "39.8,116.3,40.0,116.5",
     "--radius-query", "39.9,116.4,500", "--knn", "39.9,116.4,5"],
    ["stream", "--history", f"{WORK}/stream-solo.json"],
    ["stream", "--no-warm-start"],
    ["sweep", "--users", "6", "--out", f"{WORK}/frontier.json", "--history", f"{WORK}/sweep.json"],
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


def _test_id(nodeid: str) -> str:
    """A pytest node id without its parameters."""
    return nodeid.split("[", 1)[0]


def _record(kind: str, payload, out: str, focus: str | None = None) -> int:
    """Run one reacher with the hook installed; write what it ran under
    ``src/repro`` to ``out`` as ``{"codes": {test id: [[path, name,
    line], ...]}, "lines": {test id: {path: [line, ...]}}}`` (one test id,
    ``""``, outside pytest).  With ``focus`` (a JSON file ``{"lines":
    {path: [line, ...]}, "tests": [test id, ...]}``) only code objects
    holding one of those lines get a line tracer, and codes are kept
    only for the listed tests."""
    prefix = str(SRC) + os.sep
    wanted = watch = None
    if focus:
        spec = json.loads(Path(focus).read_text())
        wanted = {prefix + path: set(lines) for path, lines in spec["lines"].items()}
        watch = set(spec["tests"])
    sink = {"": (set(), set())}
    current = [sink[""]]
    verdicts: dict = {}

    def verdict(code) -> tuple[bool, bool]:
        """(is it ours, does it get a line tracer)."""
        ours = code.co_filename.startswith(prefix)
        if not ours or wanted is None:
            return ours, ours
        want = wanted.get(code.co_filename, ())
        return True, any(line in want for _, _, line in code.co_lines())

    def lines(frame, event, arg):
        if event == "line":
            current[0][1].add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        found = verdicts.get(code)
        if found is None:
            found = verdicts[code] = verdict(code)
        if found[0]:
            current[0][0].add(code)
        return lines if found[1] else None

    class PerTest:
        """Under ``pytest``, files what each test runs under its id."""

        def pytest_runtest_logstart(self, nodeid, location):
            current[0] = sink.setdefault(_test_id(nodeid), (set(), set()))

        def pytest_runtest_logfinish(self, nodeid, location):
            current[0] = sink[""]

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = _run(kind, payload, PerTest())
    finally:
        sys.settrace(None)
        threading.settrace(None)
    record = {"codes": {}, "lines": {}}
    for test, (codes, hits) in sink.items():
        if watch is None or test in watch:
            record["codes"][test] = sorted(
                [c.co_filename[len(prefix):], c.co_name, c.co_firstlineno] for c in codes
            )
        by_path: dict[str, list[int]] = {}
        for path, line in sorted(hits):
            if wanted is None or line in wanted.get(path, ()):
                by_path.setdefault(path[len(prefix):], []).append(line)
        if by_path:
            record["lines"][test] = by_path
    Path(out).write_text(json.dumps(record))
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


def _spawn(label: str, kind: str, payload, workdir: Path, focus: dict | None = None) -> dict:
    """Run one reacher in a child interpreter; what it ran."""
    out = workdir / "record.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
               json.dumps(payload).replace(WORK, str(workdir)), str(out)]
    if focus is not None:
        (workdir / "focus.json").write_text(json.dumps(focus))
        command.append(str(workdir / "focus.json"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(REPO)]),
               TMPDIR=str(workdir))
    done = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"reacher {label!r} failed (exit {done.returncode}):\n"
                         f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    print(f"  reached: {label}", flush=True)
    return json.loads(out.read_text())


# -- the census ----------------------------------------------------------------

#: Tier-1 runs under the hook in this many interleaved shards of its files,
#: with one Hypothesis seed, so the same tree always names the same tests.
#: One: shards run side by side, and a test that checks machine-wide state
#: (the shared-memory segments in /dev/shm) fails whenever the other
#: shard's process-pool run overlaps it.
TIER1_SHARDS = 1
#: The tier-1 tests that check ``reach_census.json`` itself: the census is
#: rewriting that file, so its attribution pass leaves them out.
CENSUS_CHECKS = [
    f"tests/test_surface_census.py::{name}"
    for name in (
        "test_the_reach_census_lists_every_function",
        "test_every_unexecuted_function_says_why_it_stays",
        "test_every_safety_reason_names_a_tier1_test_that_exists",
        "test_every_statement_no_reacher_runs_is_tested_or_tagged",
    )
]


def _tracked_digest() -> dict[str, str]:
    files = subprocess.run(["git", "ls-files", "-z"], cwd=REPO, capture_output=True,
                           check=True).stdout.decode().split("\0")
    skip = str(CENSUS.relative_to(REPO))
    return {
        f: hashlib.sha256((REPO / f).read_bytes()).hexdigest()
        for f in files if f and f != skip and (REPO / f).is_file()
    }


def safety_test(reason: str) -> str | None:
    """The tier-1 test id a ``safety:`` reason names, else ``None``."""
    tag, _, rest = reason.partition(":")
    return rest.split()[0] if tag == "safety" and rest.split() else None


def _span_key(function: str, start: int, end: int) -> str:
    return f"{function} +{start}..+{end}"


def _parse_span_key(key: str) -> tuple[str, int, int]:
    function, _, span = key.rpartition(" ")
    start, _, end = span.partition("..")
    return function, int(start), int(end)


def _run_all(runs, workers: int) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        def one(run):
            workdir = Path(tmp) / hashlib.sha256(run[0].encode()).hexdigest()[:16]
            workdir.mkdir()
            return _spawn(*run[:3], workdir, *run[3:])

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, runs))


def build_census(workers: int = 2) -> tuple[dict[str, dict[str, str]], Counter]:
    """Write ``reach_census.json``; return it with the statement counts:
    ``missed`` (no reacher runs it), ``tested`` (a tier-1 test does) and
    ``tagged``."""
    functions = src_functions()
    index = {(path, name, line): key
             for key, (path, name, lines) in functions.items() for line in lines}

    def keys(frames) -> set[str]:
        return {index[tuple(f)] for f in frames if tuple(f) in index}

    before = _tracked_digest()
    reached: set[str] = set()
    fired: set[tuple[str, int]] = set()
    for record in _run_all(REACHERS, workers):
        for frames in record["codes"].values():
            reached |= keys(frames)
        for by_path in record["lines"].values():
            fired |= {(path, line) for path, lines in by_path.items() for line in lines}

    # Statements of executed functions no reacher ran: tier-1 names a test.
    table = src_statements()
    missed = {
        (key, first): (path, own)
        for key, (path, _, statements) in table.items() if key in reached
        for first, own in statements if not any((path, line) in fired for line in own)
    }
    focus_lines: dict[str, set[int]] = {}
    for path, own in missed.values():
        focus_lines.setdefault(path, set()).update(own)
    safety = {key: safety_test(r) for key, r in REASONS.items() if safety_test(r)}
    focus = {"lines": {path: sorted(lines) for path, lines in focus_lines.items()},
             "tests": sorted(set(safety.values()))}
    files = sorted(str(f.relative_to(REPO)) for f in (REPO / "tests").rglob("test_*.py"))
    shards = [
        (f"tier-1 shard {i + 1}/{TIER1_SHARDS}", "pytest",
         [*files[i::TIER1_SHARDS], *(f"--deselect={t}" for t in CENSUS_CHECKS),
          "--hypothesis-seed=0", "-q", "-p", "no:cacheprovider"], focus)
        for i in range(TIER1_SHARDS)
    ]
    first_test: dict[tuple[str, int], str] = {}
    called_by: dict[str, set[str]] = {}
    for record in _run_all(shards, workers):
        for test, frames in record["codes"].items():
            called_by.setdefault(test, set()).update(keys(frames))
        for test, by_path in record["lines"].items():
            if not test:
                continue  # collection, not a test: a module-level call in a test file
            for path, lines in by_path.items():
                for line in lines:
                    if test < first_test.get((path, line), "~"):
                        first_test[path, line] = test

    problems = [
        f"{key}: its safety test {test} does not call it"
        for key, test in sorted(safety.items()) if key not in called_by.get(test, ())
    ]
    after = _tracked_digest()
    problems += [f"a reacher changed the tracked file {f}"
                 for f in sorted(before) if before[f] != after.get(f)]
    problems += [f"{key}: a reason for a function that does not exist"
                 for key in sorted(set(REASONS) - set(functions))]
    census: dict[str, dict[str, str]] = {"functions": {}, "statements": {}}
    for key in sorted(functions):
        if key in reached:
            census["functions"][key] = EXECUTED
        elif key in REASONS:
            census["functions"][key] = REASONS[key]
        else:
            census["functions"][key] = "unreached"
            problems.append(f"{key}: no reacher calls it and no reason keeps it")
    problems += [f"{key}: reached now, drop its reason"
                 for key in sorted(REASONS) if key in reached]

    tags: dict[str, list[tuple[int, int, str]]] = {}
    for span, reason in STATEMENT_REASONS.items():
        function, start, end = _parse_span_key(span)
        if function not in reached:
            problems.append(f"{span}: a reason for statements of no executed function")
        tags.setdefault(function, []).append((start, end, span))
    used: set[str] = set()
    counts: Counter = Counter()
    for key in sorted(reached & set(table)):
        path, def_line, statements = table[key]
        run: list = []  # [start, end, verdict] of the open range
        for first, own in statements:
            if (key, first) not in missed:
                run = []
                continue
            offset = first - def_line
            tests = [first_test[path, line] for line in own if (path, line) in first_test]
            spans = [span for start, end, span in tags.get(key, ()) if start <= offset <= end]
            counts["missed"] += 1
            if tests:
                verdict = f"test: {min(tests)}"
                counts["tested"] += 1
            elif spans:
                verdict = STATEMENT_REASONS[spans[0]]
                used.add(spans[0])
                counts["tagged"] += 1
            else:
                verdict = "unreached"
                problems.append(f"{key} line {first}: no reacher or test runs it "
                                "and no reason keeps it")
            if run and run[2] == verdict:
                del census["statements"][_span_key(key, run[0], run[1])]
                run[1] = max(run[1], max(own) - def_line)
            else:
                run = [offset, max(own) - def_line, verdict]
            census["statements"][_span_key(key, run[0], run[1])] = verdict
    problems += [f"{span}: every statement it covers is run now, drop its reason"
                 for span in sorted(set(STATEMENT_REASONS) - used)]
    CENSUS.write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
    if problems:
        raise SystemExit("\n".join(problems))
    return census, counts


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _, _, kind, payload, out, *focus = sys.argv
        sys.exit(_record(kind, json.loads(payload), out, *focus))
    result, counts = build_census()
    kept = sum(value != EXECUTED for value in result["functions"].values())
    print(f"wrote {CENSUS}: {len(result['functions'])} functions, "
          f"{len(result['functions']) - kept} executed, {kept} kept with a reason; "
          f"{counts['missed']} statements no reacher runs: {counts['tested']} run by a "
          f"tier-1 test, {counts['tagged']} tagged")
