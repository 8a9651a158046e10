"""Smoke test of the end-to-end benchmark at 1/100 scale.

Not part of the tier-1 suite (``testpaths = tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import contract  # noqa: E402

DECLARED = contract.load()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_contract_names_are_well_formed():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    from workloads import WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in DECLARED["workloads"])


def test_tiny_suite_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "suite.json"
    start = time.perf_counter()
    proc = _run("--scale", "0.01", "--seconds", "0.2", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30, f"tiny suite took {elapsed:.1f} s"
    doc = json.loads(out.read_text())
    assert list(doc["runs"]) == [w["name"] for w in DECLARED["workloads"]]
    assert {"nproc", "python", "numpy", "commit", "workers"} <= set(doc["env"])
    declared = {m["name"] for m in DECLARED["end_to_end"]}
    for name, run in doc["runs"].items():
        (untraced,) = run["untraced"]
        assert set(untraced["metrics"]) == declared, name
        assert untraced["failed"] == 0, untraced["failures"]
        assert all(v > 0 for v in untraced["metrics"].values()), name
        assert len(untraced["samples"]["wall_s"]) == untraced["repeats"]
    # Against itself a document shows no regression (millisecond repeats are
    # too noisy to resolve, which is a verdict of its own) and a different
    # seed is refused.
    same = _run("--compare", str(out), str(out))
    assert "regression" not in same.stdout and "differs" not in same.stdout
    doc["seed"] += 1
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    refused = _run("--compare", str(out), str(other))
    assert refused.returncode == 2 and "refusing" in refused.stdout


def test_traced_run_emits_exactly_the_declared_layers():
    declared = {m["name"] for m in DECLARED["per_layer"]}
    # One workload on a bare runner, one through the service's dispatcher thread.
    for name in ("kmeans_spill", "stream_windows"):
        proc = _run("--workload", name, "--scale", "0.01", "--seconds", "0.5", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == declared
        assert result["metrics"]["runner.jobs"]["value"] > 0
        assert result["metrics"]["trace.untraced_s"]["value"] > 0
        spans = json.loads((HERE / "results" / f"trace_{name}.json").read_text())["spans"]
        ids = {s["id"] for s in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)


def test_tracer_uninstall_restores_every_entry_point():
    from contextlib import ExitStack

    from repro.algorithms import kmeans
    from repro.mapreduce import hdfs, runner, shuffle
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    before = (
        vars(runner.JobRunner)["run"], runner.shuffle, shuffle.shuffle,
        kmeans.pairwise, vars(hdfs.SimulatedHDFS)["chunks"],
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.installed and vars(runner.JobRunner)["run"] is not before[0]
        workload = WORKLOADS["kmeans_serial"]
        inputs = workload.make_inputs(seed=3, scale=0.01)
        with ExitStack() as stack:
            dep = workload.deploy(inputs, stack)
            tracer.recording = True
            start = time.perf_counter()
            workload.run(dep, inputs)
            traced_s = time.perf_counter() - start
            tracer.recording = False
    finally:
        tracer.uninstall()
    after = (
        vars(runner.JobRunner)["run"], runner.shuffle, shuffle.shuffle,
        kmeans.pairwise, vars(hdfs.SimulatedHDFS)["chunks"],
    )
    assert not tracer.installed
    assert all(a is b for a, b in zip(after, before))
    layers = layer_metrics(tracer.spans, tracer.counts)
    assert layers["runner.jobs"] == 8 and layers["geo.pair_evals"] == 2_000 * 11 * 9
    # Every traced second lies inside a job span or the driver around it.
    assert 0 < layers["runner.job_s"] <= traced_s
    assert 0 <= layers["runner.self_s"] <= layers["runner.job_s"]
    with ExitStack() as stack:
        dep = workload.deploy(inputs, stack)
        start = time.perf_counter()
        workload.run(dep, inputs)
        untraced_s = time.perf_counter() - start
    assert tracer.spans and len(tracer.spans) == len(
        {s[0] for s in tracer.spans}), "span ids are unique"
    # Tracing adds little: generous here, because a 1/100-scale repeat
    # lasts milliseconds; the README records the full-scale overhead.
    assert traced_s <= 1.5 * untraced_s + 0.05
