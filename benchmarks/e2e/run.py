#!/usr/bin/env python3
"""End-to-end and per-layer wall-clock benchmark of the seven headline workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--scale F] [--trace [0|1]] [--runs N] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Without ``--workload`` every workload declared in ``BENCHMARK.json`` runs,
each in its own subprocess (``worker.py``); with ``--trace`` a second,
traced run per workload adds the per-layer metrics and writes
``results/trace_<workload>.json``.  Every metric is printed by name with
its unit.  With ``--workload`` the last line of standard output is the
one-object JSON result the benchmark driver reads.  The exit code is
non-zero when any operation or correctness check failed.

After a workload's subprocess has exited, shared-memory segments it left
in ``/dev/shm`` and spill directories it left in its temporary directory
count as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

import contract

HERE = contract.HERE
ROOT = contract.ROOT

#: One worker may use this long before it is killed (the driver allows 180 s).
WORKER_TIMEOUT_S = 170


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def run_worker(name: str, seed: int, scale: float, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; return its document with the
    resource-hygiene outcome folded into ``attempted`` / ``failed``."""
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        TMPDIR=str(work),  # spill directories land here, inside the checkout
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if trace:
        (HERE / "results").mkdir(exist_ok=True)
        command += ["--trace-out", str(HERE / "results" / f"trace_{name}.json")]
    shm_before = _shm_segments()
    # Its own process group, so that a worker that overruns is stopped
    # together with the pool processes it forked.
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"worker for {name} ran over {WORKER_TIMEOUT_S} s") from None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
        doc = json.loads(lines[-1])
        leaks = [f"leaked /dev/shm segment {n}" for n in sorted(_shm_segments() - shm_before)]
        leaks += [f"surviving spill directory {p.name}" for p in sorted(work.iterdir())]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc["attempted"] += 1
    doc["failed"] += len(leaks)
    doc["failures"] += leaks
    return doc


def driver_result(doc: dict, declared: dict[str, dict]) -> dict:
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": contract.with_units(doc["metrics"], declared),
    }


def print_metrics(doc: dict, declared: dict[str, dict]) -> None:
    kind = "per-layer (traced)" if doc["trace"] else "end-to-end"
    print(f"== {doc['workload']}: {kind}, seed {doc['seed']}, scale {doc['scale']:g}, "
          f"{doc['traces']} traces, n={doc['repeats']} repeats, {doc['ops']} ops "
          f"(op = {doc['op']}, tail = p{doc['tail_percentile']})")
    for name, entry in contract.with_units(doc["metrics"], declared).items():
        value = entry["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:36s} {shown} {entry['unit']}")
    print(f"{'ops_total':36s} {doc['attempted']:>16d} count")
    print(f"{'ops_failed':36s} {doc['failed']:>16d} count")
    for failure in doc["failures"]:
        print(f"FAILED: {failure}")
    if doc["underfilled"]:
        print("note: stopped before the minimum sample count was reached")


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def run_suite(args, declared: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]
    e2e = contract.specs(declared, "end_to_end")
    layers = contract.specs(declared, "per_layer")
    #: ``runs[workload]["untraced" | "traced"]`` is one document per seed.
    runs: dict[str, dict[str, list]] = {}
    failed = 0
    last = None
    for name in names:
        modes = [0, 1] if (args.trace and not args.workload) else [args.trace]
        for trace in modes:
            for seed in range(args.seed, args.seed + args.runs):
                doc = run_worker(name, seed, args.scale, args.seconds, trace)
                print_metrics(doc, layers if trace else e2e)
                runs.setdefault(name, {}).setdefault(
                    "traced" if trace else "untraced", []).append(doc)
                failed += doc["failed"]
                last = doc
    serial = runs.get("kmeans_serial", {}).get("untraced", [])
    procs = runs.get("kmeans_procs", {}).get("untraced", [])
    if any(s["signature"] != p["signature"] for s, p in zip(serial, procs)):
        print("FAILED: kmeans_serial and kmeans_procs centroids differ")
        failed += 1
    if args.out:
        env = environment()
        env["numpy"] = last["numpy"]
        env["workers"] = {name: next(iter(docs.values()))[0]["workers"]
                          for name, docs in runs.items()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "env": env, "seed": args.seed, "runs_per_workload": args.runs,
                       "scale": args.scale, "seconds": args.seconds, "runs": runs}, fh, indent=1)
    if args.workload:
        print(json.dumps(driver_result(last, layers if args.trace else e2e)))
    return 1 if failed else 0


# -- --compare -----------------------------------------------------------------


def _values(docs: list[dict], metric: str) -> list[float]:
    """What the spread of a metric is taken over: the runs' values when a
    document holds several runs (``--runs``), else the one run's repeats."""
    if len(docs) > 1:
        return [d["metrics"][metric] for d in docs]
    return docs[0]["samples"].get(metric, [])


def compare(path_a: str, path_b: str, declared: dict) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    for key in ("seed", "scale", "seconds", "runs_per_workload"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} differs ({a[key]} vs {b[key]})")
            return 2
    for key in ("nproc", "workers"):
        if a["env"][key] != b["env"][key]:
            print(f"refusing to compare: {key} differs ({a['env'][key]} vs {b['env'][key]})")
            return 2
    print(f"A = {path_a} (commit {a['env']['commit']})")
    print(f"B = {path_b} (commit {b['env']['commit']})")
    print(f"medians of {a['runs_per_workload']} run(s) per workload")
    print(f"{'workload':15s} {'metric':13s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    bad = 0
    for name in a["runs"]:
        runs_a = a["runs"][name].get("untraced")
        runs_b = b["runs"].get(name, {}).get("untraced")
        if not runs_a or not runs_b:
            continue
        for metric, spec in contract.specs(declared, "end_to_end").items():
            va = statistics.median(d["metrics"][metric] for d in runs_a)
            vb = statistics.median(d["metrics"][metric] for d in runs_b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse_by = sign * (vb - va) / va
            values_a, values_b = _values(runs_a, metric), _values(runs_b, metric)
            wide = max(contract.spread(values_a), contract.spread(values_b))
            verdict = "ok"
            if wide > spec["bound"]:
                # Too noisy to call, unless B beats A on every single value.
                clean_win = values_a and values_b and (
                    max(values_b) < min(values_a) if sign > 0
                    else min(values_b) > max(values_a))
                verdict = "ok" if clean_win else "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "regression"
            bad += verdict != "ok"
            print(f"{name:15s} {metric:13s} {va:12.5g} {vb:12.5g} {vb / va:7.3f} "
                  f"{spec['bound']:6.2f} {wide:7.3f}  {verdict}  "
                  f"[{spec['unit']}, base A={va:.5g}]")
        traced = zip(a["runs"][name].get("traced", []), b["runs"][name].get("traced", []))
        for traced_a, traced_b in traced:
            for metric, spec in contract.specs(declared, "per_layer").items():
                if spec["unit"] not in contract.EXACT_UNITS:
                    continue
                va, vb = traced_a["metrics"][metric], traced_b["metrics"][metric]
                if va != vb:
                    bad += 1
                    print(f"{name:15s} {metric} (seed {traced_a['seed']}): "
                          f"exact count differs, {va} vs {vb}")
    print("all pairs within bounds" if not bad else f"{bad} pairs not ok")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is not at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    declared = contract.load()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="how long one run measures (default: run_seconds)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; 5 is the paper-sized run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds SEED..SEED+RUNS-1 (--compare "
                             "then takes medians and spreads over the runs)")
    parser.add_argument("--out", help="write the full document (raw samples) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds <= 0 or args.runs < 1:
        parser.error("--scale, --seconds and --runs must be positive")
    if args.compare:
        return compare(*args.compare, declared)
    return run_suite(args, declared)


if __name__ == "__main__":
    sys.exit(main())
