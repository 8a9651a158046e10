"""One workload in one process: warm-up, repeats, metrics, checks.

Spawned by ``run.py`` so that ``ru_maxrss`` belongs to this workload
alone and so that leaked shared-memory segments or spill directories are
visible once the process has exited.  Prints one JSON document as the
last line of standard output.

Closed loop, one client: the next repeat starts when the previous one
returns.  Each repeat sets up from scratch (generate inputs, fresh HDFS,
ingest, fresh runner or service) and then times one call of the
workload; reported timings are medians over the repeats.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import contract

sys.path.insert(0, str(contract.ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: A run that has not gathered its minimum sample by this multiple of
#: ``--seconds`` stops anyway and says so.
OVERRUN = 4.0

#: Share of a traced run spent on untraced repeats (the overhead baseline).
UNTRACED_SHARE = 0.4


class SpeedGauge:
    """How fast this machine is running right now, from a fixed kernel.

    The sandbox's cores change speed by up to 40 % for seconds at a time
    (neighbours on the host; no steal time is reported), which moved the
    median of identical repeats by 10-35 % between runs.  A reading is
    the trimmed mean time of a short interpreter-plus-NumPy kernel; every
    duration the benchmark reports is scaled by ``REFERENCE_S`` over the
    mean of the readings taken just before and just after it, i.e. it is
    in seconds of a machine that runs the kernel in ``REFERENCE_S``.  The
    kernel is the benchmark's own and calls nothing under ``src/``, so a
    change to the program moves the program's time and not the gauge.
    """

    KERNELS = 16
    REFERENCE_S = 0.003

    def __init__(self) -> None:
        self._vector = np.arange(20_000, dtype=np.float64)

    def _kernel(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        for _ in range(8):
            np.sin(self._vector).sum()
        return perf_counter() - start

    def read(self) -> float:
        times = sorted(self._kernel() for _ in range(self.KERNELS))
        kept = times[: self.KERNELS - 2]  # a preempted kernel is not speed
        return sum(kept) / len(kept)

    def factor(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2.0)


@dataclass
class Repeat:
    #: Seconds at reference speed (see :class:`SpeedGauge`).
    setup_s: float
    wall_s: float
    cpu_s: float
    #: What the clock said, and the gauge readings around the timed region.
    raw_wall_s: float
    gauge: tuple[float, float]
    op_seconds: list[float]
    signature: str
    observed: dict[str, float]
    traces: int
    layers: dict[str, float] | None = None
    #: Kept on the latest repeat only, for the checks.
    inputs: Any = None
    result: Any = None


def _cpu_seconds() -> tuple[float, float]:
    """(this process, reaped children) user+system seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, reaped.ru_utime + reaped.ru_stime


def run_repeat(workload: Workload, seed: int, scale: float, gauge: SpeedGauge,
               tracer: Tracer | None = None) -> Repeat:
    speed_a = gauge.read()
    start = perf_counter()
    inputs = workload.make_inputs(seed, scale)
    _, reaped0 = _cpu_seconds()
    with ExitStack() as stack:
        dep = workload.deploy(inputs, stack)
        setup_s = perf_counter() - start
        speed_b = gauge.read()
        if tracer is not None:
            tracer.reset()
            tracer.recording = True
        own1, _ = _cpu_seconds()
        start = perf_counter()
        try:
            result = workload.run(dep, inputs)
        finally:
            wall_s = perf_counter() - start
            own2, _ = _cpu_seconds()
            if tracer is not None:
                tracer.recording = False
        op_seconds = workload.op_seconds(dep, result)
        observed = workload.observe(dep, inputs, result)
    # Pool workers are reaped when the runner closes, so their CPU time is
    # read after the deployment is gone; set-up is single-process.
    _, reaped1 = _cpu_seconds()
    speed_c = gauge.read()
    at_speed = gauge.factor(speed_b, speed_c)
    repeat = Repeat(
        setup_s=setup_s * gauge.factor(speed_a, speed_b),
        wall_s=wall_s * at_speed,
        cpu_s=((own2 - own1) + (reaped1 - reaped0)) * at_speed,
        raw_wall_s=wall_s,
        gauge=(speed_b, speed_c),
        op_seconds=[s * at_speed for s in op_seconds],
        signature=workload.signature(result),
        observed=observed,
        traces=inputs.traces,
        inputs=inputs,
        result=result,
    )
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.counts)
        repeat.layers = {
            name: value * at_speed if name.endswith(("_s", "_ms")) else value
            for name, value in layers.items()
        }
        repeat.layers.update(observed)
    return repeat


def _measure(workload, seed, scale, gauge, tracer, repeats, enough) -> None:
    """Append repeats until ``enough(elapsed)``, keeping only the latest
    repeat's inputs and result alive."""
    start = perf_counter()
    while True:
        if repeats:
            repeats[-1].inputs = repeats[-1].result = None
        repeats.append(run_repeat(workload, seed, scale, gauge, tracer))
        if enough(perf_counter() - start):
            return


def end_to_end(workload: Workload, repeats: list[Repeat], peak_rss_mb: float) -> dict:
    ops = np.array([s for r in repeats for s in r.op_seconds])
    wall_s = statistics.median(r.wall_s for r in repeats)
    return {
        "setup_s": statistics.median(r.setup_s for r in repeats),
        "wall_s": wall_s,
        "cpu_s": statistics.median(r.cpu_s for r in repeats),
        "traces_per_s": repeats[-1].traces / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": 1e3 * float(np.percentile(ops, 50)),
        "op_tail_ms": 1e3 * float(np.percentile(ops, workload.tail_percentile)),
    }


def per_layer(workload, untraced, traced, twin, units) -> tuple[dict, list[str]]:
    """Medians of the measured layer metrics over the traced repeats; the
    exact ones must agree between repeats and are taken from the first.
    A layer the workload never enters reads 0."""
    failures = []
    out = {}
    for name in units:
        values = [r.layers.get(name, 0) for r in traced]
        if units.get(name) in contract.EXACT_UNITS:
            if any(v != values[0] for v in values):
                failures.append(f"{name} differs between traced repeats: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    untraced_s = statistics.median(r.wall_s for r in untraced)
    traced_s = statistics.median(r.wall_s for r in traced)
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    # Serial map time over workers x this backend's map time; 1 by
    # construction wherever the backend already is the serial one.
    out["backends.map_efficiency"] = (
        twin.layers["backends.map_s"] / (workload.workers * out["backends.map_s"])
        if twin is not None and out["backends.map_s"] else 1.0
    )
    return out, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    declared = contract.load()
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    failures: list[str] = []
    untraced: list[Repeat] = []
    traced: list[Repeat] = []
    twin = None
    tracer = Tracer() if args.trace else None

    gauge = SpeedGauge()
    run_repeat(workload, args.seed, args.scale / 10, gauge)  # warm-up, discarded

    def n_ops() -> int:
        return sum(len(r.op_seconds) for r in untraced)

    budget = args.seconds * (UNTRACED_SHARE if tracer else 1.0)
    _measure(
        workload, args.seed, args.scale, gauge, None, untraced,
        lambda elapsed: elapsed >= OVERRUN * args.seconds or (
            elapsed >= budget
            and (tracer is not None or (len(untraced) >= 3 and n_ops() >= workload.min_ops))
        ),
    )
    # Before the oracles run: they materialize what the program never does.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = None
    if tracer is not None:
        tracer.install()
    try:
        if tracer is not None:
            untraced[-1].inputs = untraced[-1].result = None
            _measure(
                workload, args.seed, args.scale, gauge, tracer, traced,
                lambda elapsed: len(traced) >= 2 and elapsed >= args.seconds - budget,
            )
            spans = tracer.spans_as_docs(f"{workload.name}-seed{args.seed}")
        if workload.workers > 1:
            # The same inputs on the serial backend: the centroids the pool
            # must reproduce bit for bit and, traced, the single-threaded
            # map time its efficiency is measured against.
            twin = run_repeat(
                dataclasses.replace(workload, executor="serial", workers=1),
                args.seed, args.scale, gauge, tracer,
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if spans is not None and args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "scale": args.scale, "spans": spans}, fh)

    repeats = untraced + traced
    last = repeats[-1]
    checks = 2
    signatures = {r.signature for r in repeats}
    if len(signatures) != 1:
        failures.append(f"result differs between repeats: {sorted(signatures)}")
    failures += workload.check(last.inputs, last.result)
    if twin is not None:
        checks += 1
        if twin.signature != last.signature:
            failures.append("process-backend centroids differ from the serial backend's")

    if tracer is not None:
        checks += 1
        metrics, unstable = per_layer(workload, untraced, traced, twin, units)
        failures += unstable
    else:
        metrics = end_to_end(workload, untraced, peak_rss_mb)

    measured = traced if tracer is not None else untraced
    doc = {
        "workload": workload.name,
        "op": workload.op,
        "tail_percentile": workload.tail_percentile,
        "workers": workload.workers,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "traces": last.traces,
        "repeats": len(measured),
        "ops": sum(len(r.op_seconds) for r in measured),
        "underfilled": tracer is None and (len(untraced) < 3 or n_ops() < workload.min_ops),
        "attempted": sum(len(r.op_seconds) for r in measured) + checks,
        "failed": len(failures),
        "failures": failures,
        "signature": last.signature,
        "metrics": metrics,
        "samples": {
            "setup_s": [r.setup_s for r in measured],
            "wall_s": [r.wall_s for r in measured],
            "raw_wall_s": [r.raw_wall_s for r in measured],
            "gauge_s": [r.gauge for r in measured],
            "cpu_s": [r.cpu_s for r in measured],
            "traces_per_s": [r.traces / r.wall_s for r in measured],
            "op_p50_ms": [1e3 * statistics.median(r.op_seconds) for r in measured],
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
