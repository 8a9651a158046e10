"""Seeded chaos campaigns: equivalence-under-failure for the paper's drivers.

The paper's central claim is that the MapReduce adaptations compute *the
same thing* as GEPETO's sequential implementations — just over millions
of traces.  That claim only holds if it survives the failures a real
Hadoop deployment absorbs routinely: task crashes, straggler nodes,
mid-job node loss, shuffle fetch timeouts, corrupt distributed-cache
loads.  This module turns :class:`repro.mapreduce.failures.ChaosSchedule`
into a repeatable experiment:

1. run a driver on a pristine deployment (no faults) and fingerprint its
   output;
2. re-run it on a fresh deployment with a seeded fault schedule and check
   the output fingerprint is **byte-identical** — recovery must be
   invisible to the algorithm;
3. re-run the *same* seeded schedule again and check the whole traced
   execution (every event dict, every counter, the simulated makespan)
   is **bit-reproducible** — chaos is an input, not a source of noise.

``python -m repro chaos`` drives this from the command line; the
property-based suite (`tests/properties/test_chaos_equivalence.py`)
drives it from hypothesis with randomized schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mapreduce.failures import ChaosSchedule

__all__ = [
    "ChaosDriver",
    "DriverOutcome",
    "ChaosReport",
    "DRIVERS",
    "driver_names",
    "default_schedule",
    "run_chaos_campaign",
    "run_chaos_selfcheck",
    "MultiTenantOutcome",
    "run_multitenant_check",
]

#: HDFS path every campaign deployment stores its corpus under.
INPUT_PATH = "input/traces"


# ---------------------------------------------------------------------------
# Output fingerprints
# ---------------------------------------------------------------------------

def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _trace_array_signature(array) -> str:
    """Canonical fingerprint of a columnar trace array (order-sensitive)."""
    return _digest(
        ",".join(array.users).encode(),
        np.ascontiguousarray(array.user_index).tobytes(),
        np.ascontiguousarray(array.latitude).tobytes(),
        np.ascontiguousarray(array.longitude).tobytes(),
        np.ascontiguousarray(array.timestamp).tobytes(),
    )


# ---------------------------------------------------------------------------
# Driver registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosDriver:
    """One algorithm driver the campaign can subject to faults.

    ``run`` executes the driver end to end on ``runner`` over
    :data:`INPUT_PATH` and returns a canonical fingerprint of the
    *algorithmic output* (not the trace) — equal fingerprints mean the
    algorithm produced byte-identical results.
    """

    name: str
    title: str
    run: Callable[..., str]


def _drive_sampling(runner, context) -> str:
    from repro.algorithms.sampling import run_sampling_job

    prefix = context.get("prefix", "")
    result = run_sampling_job(
        runner, INPUT_PATH, f"{prefix}out/chaos-sampled", window_s=600.0
    )
    return _trace_array_signature(runner.hdfs.read_trace_array(result.output_path))


def _drive_kmeans(runner, context) -> str:
    from repro.algorithms.kmeans import run_kmeans_mapreduce

    result = run_kmeans_mapreduce(
        runner,
        INPUT_PATH,
        k=3,
        max_iter=3,
        seed=7,
        use_combiner=True,
        workdir=f"{context.get('prefix', '')}tmp/chaos-kmeans",
    )
    return _digest(
        np.ascontiguousarray(result.centroids).tobytes(),
        str(result.n_iterations).encode(),
    )


def _drive_djcluster(runner, context) -> str:
    from repro.algorithms.djcluster import DJClusterParams, run_preprocessing_pipeline

    pipeline = run_preprocessing_pipeline(
        runner, INPUT_PATH, DJClusterParams(),
        workdir=f"{context.get('prefix', '')}tmp/chaos-dj",
    )
    return _trace_array_signature(
        runner.hdfs.read_trace_array(pipeline.output_path)
    )


def _drive_mmc(runner, context) -> str:
    from repro.attacks.mmc_mr import run_mmc_mapreduce

    models = run_mmc_mapreduce(
        runner,
        INPUT_PATH,
        context["poi_coords"],
        output_path=f"{context.get('prefix', '')}tmp/chaos-mmc/models",
    )
    blobs = []
    for user in sorted(models):
        chain = models[user]
        blobs.append(user.encode())
        blobs.append(np.ascontiguousarray(chain.transitions).tobytes())
        blobs.append(np.ascontiguousarray(chain.visit_counts).tobytes())
    return _digest(*blobs)


def _drive_linkage(runner, context) -> str:
    from repro.attacks.linkage_mr import run_linkage_attack, split_linkage_corpus
    from repro.algorithms.djcluster import DJClusterParams

    prefix = context.get("prefix", "")
    training, target, truth = split_linkage_corpus(
        runner.hdfs.read_trace_array(INPUT_PATH)
    )
    train_path = f"{prefix}tmp/chaos-linkage/train"
    target_path = f"{prefix}tmp/chaos-linkage/target"
    runner.hdfs.delete(train_path, missing_ok=True)
    runner.hdfs.delete(target_path, missing_ok=True)
    runner.hdfs.put_trace_array(train_path, training, record_bytes=64)
    runner.hdfs.put_trace_array(target_path, target, record_bytes=64)
    outcome = run_linkage_attack(
        runner,
        train_path,
        target_path,
        truth,
        params=DJClusterParams(radius_m=150.0, min_pts=3),
        workdir=f"{prefix}tmp/chaos-linkage/work",
    )
    return outcome.signature()


DRIVERS: dict[str, ChaosDriver] = {
    "sampling": ChaosDriver("sampling", "map-only temporal sampling", _drive_sampling),
    "kmeans": ChaosDriver("kmeans", "iterative k-means clustering", _drive_kmeans),
    "djcluster": ChaosDriver(
        "djcluster", "DJ-Cluster preprocessing pipeline", _drive_djcluster
    ),
    "mmc": ChaosDriver("mmc", "Mobility Markov Chain learning", _drive_mmc),
    "linkage": ChaosDriver(
        "linkage", "MapReduce fingerprint linkage attack", _drive_linkage
    ),
}


def driver_names() -> list[str]:
    return list(DRIVERS)


def default_schedule(seed: int, node_loss: bool = False) -> ChaosSchedule:
    """A campaign schedule touching every fault kind the engine injects."""
    return ChaosSchedule(
        seed=seed,
        crash_prob=0.15,
        cache_load_prob=0.1,
        shuffle_fetch_prob=0.1,
        slow_node_prob=0.25,
        slow_factor=3.0,
        node_loss_prob=1.0 if node_loss else 0.0,
        max_node_losses=1,
    )


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass
class _RunArtifacts:
    signature: str
    events: list[dict]
    makespan_s: float
    faults: dict[str, int]
    retried: int
    nodes_lost: list[str]
    blacklisted: list[str]
    refetches: int


@dataclass
class DriverOutcome:
    """Result of one driver's clean/chaos/replay triple."""

    driver: str
    title: str
    equivalent: bool
    reproducible: bool
    clean_makespan_s: float
    chaos_makespan_s: float
    faults: dict[str, int] = field(default_factory=dict)
    retried: int = 0
    nodes_lost: list[str] = field(default_factory=list)
    blacklisted: list[str] = field(default_factory=list)
    refetches: int = 0
    signature: str = ""

    @property
    def ok(self) -> bool:
        return self.equivalent and self.reproducible

    @property
    def overhead_s(self) -> float:
        return self.chaos_makespan_s - self.clean_makespan_s


@dataclass
class ChaosReport:
    """Aggregate campaign outcome, renderable as a recovery report."""

    seed: int
    schedule: ChaosSchedule
    outcomes: list[DriverOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def render(self) -> str:
        lines = [
            f"chaos campaign  seed={self.seed}  [{self.schedule.describe()}]",
            "",
        ]
        for o in self.outcomes:
            verdict = "ok" if o.ok else "FAILED"
            lines.append(f"{o.driver} ({o.title}): {verdict}")
            lines.append(
                "  output equivalence: "
                + ("identical with and without faults" if o.equivalent
                   else "DIVERGED under faults")
            )
            lines.append(
                "  bit-reproducibility: "
                + ("same seed -> same events, counters, makespan" if o.reproducible
                   else "same seed produced a DIFFERENT execution")
            )
            injected = ", ".join(f"{k} x{v}" for k, v in sorted(o.faults.items()))
            lines.append(f"  faults injected: {injected or 'none'}")
            recovery = []
            if o.retried:
                recovery.append(f"{o.retried} attempt(s) re-dispatched")
            if o.nodes_lost:
                recovery.append(f"node(s) lost: {', '.join(o.nodes_lost)}")
            if o.blacklisted:
                recovery.append(f"blacklisted: {', '.join(o.blacklisted)}")
            if o.refetches:
                recovery.append(f"{o.refetches} shuffle refetch(es)")
            lines.append(f"  recovery: {'; '.join(recovery) or 'none needed'}")
            lines.append(
                f"  simulated makespan: {o.clean_makespan_s:.1f}s clean -> "
                f"{o.chaos_makespan_s:.1f}s under chaos "
                f"(+{o.overhead_s:.1f}s recovery overhead)"
            )
            lines.append(f"  output sha256: {o.signature[:16]}…")
            lines.append("")
        lines.append(
            "campaign result: "
            + ("all drivers recovered with identical outputs"
               if self.ok else "EQUIVALENCE VIOLATED — see above")
        )
        return "\n".join(lines)


def _run_once(
    driver: ChaosDriver,
    array,
    context: dict,
    n_workers: int,
    chunk_size: int,
    chaos: ChaosSchedule | None,
    save_path: "str | None" = None,
    executor: str = "serial",
    max_workers: "int | None" = None,
    memory_budget_mb: "float | None" = None,
) -> _RunArtifacts:
    from repro.mapreduce.runner import fresh_runner
    from repro.observability.events import EventKind

    runner = fresh_runner(
        {INPUT_PATH: array},
        chunk_size=chunk_size,
        n_workers=n_workers,
        backend=executor,
        max_workers=max_workers,
        budget_mb=memory_budget_mb,
        record_bytes=64,
        chaos=chaos,
    )
    try:
        signature = driver.run(runner, context)
    finally:
        runner.close()
    history = runner.history
    if save_path is not None:
        history.save(save_path)
    faults: dict[str, int] = {}
    retried = 0
    nodes_lost: list[str] = []
    blacklisted: list[str] = []
    refetches = 0
    for event in history:
        if event.kind == EventKind.FAULT_INJECTED:
            kind = event.data.get("fault", "unknown")
            faults[kind] = faults.get(kind, 0) + 1
        elif event.kind == EventKind.ATTEMPT_RETRIED:
            retried += 1
        elif event.kind == EventKind.NODE_LOST:
            nodes_lost.append(event.node or "?")
        elif event.kind == EventKind.NODE_BLACKLISTED:
            if event.node and event.node not in blacklisted:
                blacklisted.append(event.node)
        elif event.kind == EventKind.SHUFFLE_REFETCH:
            refetches += 1
    return _RunArtifacts(
        signature=signature,
        events=[e.to_dict() for e in history],
        makespan_s=history.clock,
        faults=faults,
        retried=retried,
        nodes_lost=nodes_lost,
        blacklisted=sorted(set(blacklisted)),
        refetches=refetches,
    )


def _build_corpus(n_users: int, days: int, data_seed: int):
    from repro.geo.synthetic import SyntheticConfig, generate_dataset

    dataset, _ = generate_dataset(
        SyntheticConfig(n_users=n_users, days=days, seed=data_seed)
    )
    return dataset.flat().sort_by_time()


def run_chaos_campaign(
    drivers: "list[str] | None" = None,
    seed: int = 0,
    schedule: ChaosSchedule | None = None,
    n_users: int = 3,
    days: int = 1,
    data_seed: int = 42,
    n_workers: int = 3,
    chunk_size: int = 64 * 1024,
    history_path: "str | None" = None,
    executor: str = "serial",
    max_workers: "int | None" = None,
    memory_budget_mb: "float | None" = None,
) -> ChaosReport:
    """Run the clean/chaos/replay triple for each requested driver.

    Every run gets a *fresh* deployment (own HDFS, own cluster state), so
    a node killed under chaos cannot leak into the clean baseline or the
    replay.  ``history_path`` exports the traced chaos run of the last
    driver for ``python -m repro history`` inspection.  ``executor``
    selects the execution backend for every run — outputs, counters and
    histories are backend-invariant, so the report must be identical for
    any choice.  ``memory_budget_mb`` runs every deployment out-of-core
    under that budget; outputs and counters are budget-invariant too.
    """
    chosen = drivers or driver_names()
    unknown = [d for d in chosen if d not in DRIVERS]
    if unknown:
        raise ValueError(
            f"unknown chaos driver(s) {unknown}; known: {driver_names()}"
        )
    chaos = schedule if schedule is not None else default_schedule(seed)
    array = _build_corpus(n_users, days, data_seed)
    context: dict = {}
    if "mmc" in chosen:
        from repro.algorithms.kmeans import kmeans_sequential

        context["poi_coords"] = kmeans_sequential(
            array.coordinates(), k=4, seed=0
        ).centroids
    report = ChaosReport(seed=chaos.seed, schedule=chaos)
    for name in chosen:
        driver = DRIVERS[name]
        save = history_path if name == chosen[-1] else None
        clean = _run_once(
            driver, array, context, n_workers, chunk_size, None,
            executor=executor, max_workers=max_workers,
            memory_budget_mb=memory_budget_mb,
        )
        faulted = _run_once(
            driver, array, context, n_workers, chunk_size, chaos,
            save_path=save, executor=executor, max_workers=max_workers,
            memory_budget_mb=memory_budget_mb,
        )
        replay = _run_once(
            driver, array, context, n_workers, chunk_size, chaos,
            executor=executor, max_workers=max_workers,
            memory_budget_mb=memory_budget_mb,
        )
        report.outcomes.append(
            DriverOutcome(
                driver=name,
                title=driver.title,
                equivalent=faulted.signature == clean.signature,
                reproducible=(
                    faulted.events == replay.events
                    and faulted.makespan_s == replay.makespan_s
                ),
                clean_makespan_s=clean.makespan_s,
                chaos_makespan_s=faulted.makespan_s,
                faults=faulted.faults,
                retried=faulted.retried,
                nodes_lost=faulted.nodes_lost,
                blacklisted=faulted.blacklisted,
                refetches=faulted.refetches,
                signature=faulted.signature,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Multi-tenant equivalence: tenants on a shared service == solo runs
# ---------------------------------------------------------------------------


@dataclass
class MultiTenantOutcome:
    """One driver's tenants-vs-solo verdict.

    ``signatures`` holds each tenant's output fingerprint from a shared
    :class:`~repro.mapreduce.service.JobService` deployment; every one
    must equal ``solo_signature`` (the driver on a pristine solo runner)
    — concurrent tenancy, and any chaos schedule applied to the shared
    deployment, must be invisible in the outputs.
    """

    driver: str
    title: str
    solo_signature: str
    signatures: dict[str, str]
    chaos_active: bool
    #: The shared service's rendered fair-share report (for display).
    report: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.signatures) and all(
            s == self.solo_signature for s in self.signatures.values()
        )


def run_multitenant_check(
    drivers: "list[str] | None" = None,
    seed: int = 0,
    with_chaos: bool = True,
    tenants: "dict[str, float] | None" = None,
    n_users: int = 3,
    days: int = 1,
    data_seed: int = 42,
    n_workers: int = 3,
    chunk_size: int = 64 * 1024,
    executor: str = "serial",
    result_cache: bool = True,
) -> list[MultiTenantOutcome]:
    """Run each driver concurrently for every tenant on one shared service.

    Per driver: fingerprint a pristine solo run, then stand up a fresh
    :class:`~repro.mapreduce.service.JobService` (optionally under the
    seeded chaos schedule, with node loss enabled) and run the *same*
    driver from one thread per tenant, each under its own
    ``tenants/<name>/`` path prefix.  Every tenant's fingerprint must be
    byte-identical to the solo run — the acceptance invariant of the
    service layer.  With ``result_cache=True`` later tenants typically
    hit the result cache for identical sub-jobs, which must not change a
    byte either.
    """
    import threading

    from repro.mapreduce.cluster import paper_cluster
    from repro.mapreduce.hdfs import SimulatedHDFS
    from repro.mapreduce.service import JobService

    chosen = drivers or driver_names()
    unknown = [d for d in chosen if d not in DRIVERS]
    if unknown:
        raise ValueError(
            f"unknown chaos driver(s) {unknown}; known: {driver_names()}"
        )
    roster = tenants or {"alice": 2.0, "bob": 1.0}
    array = _build_corpus(n_users, days, data_seed)
    context: dict = {}
    if "mmc" in chosen:
        from repro.algorithms.kmeans import kmeans_sequential

        context["poi_coords"] = kmeans_sequential(
            array.coordinates(), k=4, seed=0
        ).centroids

    outcomes: list[MultiTenantOutcome] = []
    for name in chosen:
        driver = DRIVERS[name]
        solo = _run_once(
            driver, array, context, n_workers, chunk_size, None,
            executor=executor,
        )
        schedule = (
            default_schedule(seed, node_loss=True) if with_chaos else None
        )
        hdfs = SimulatedHDFS(
            paper_cluster(n_workers), chunk_size=chunk_size, seed=0
        )
        hdfs.put_trace_array(INPUT_PATH, array, record_bytes=64)
        service = JobService(
            hdfs,
            tenants=roster,
            chaos=schedule,
            executor=executor,
            result_cache=result_cache,
        )
        signatures: dict[str, str] = {}
        errors: dict[str, BaseException] = {}

        def tenant_workload(tenant: str) -> None:
            ctx = dict(context)
            ctx["prefix"] = f"tenants/{tenant}/"
            try:
                signatures[tenant] = driver.run(service.client(tenant), ctx)
            except BaseException as exc:
                errors[tenant] = exc

        try:
            threads = [
                threading.Thread(target=tenant_workload, args=(t,))
                for t in sorted(roster)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            service.close()
        if errors:
            tenant, exc = sorted(errors.items())[0]
            raise RuntimeError(
                f"driver {name!r} failed for tenant {tenant!r}: {exc!r}"
            ) from exc
        outcomes.append(
            MultiTenantOutcome(
                driver=name,
                title=driver.title,
                solo_signature=solo.signature,
                signatures=signatures,
                chaos_active=with_chaos,
                report=service.report().render(),
            )
        )
    return outcomes


def run_chaos_selfcheck(verbose: bool = True) -> int:
    """CI smoke: all five drivers survive a fault-heavy seeded schedule.

    Returns 0 when every driver's output is equivalent under failure and
    the chaos runs are bit-reproducible, 1 otherwise — mirroring
    :func:`repro.observability.selfcheck.run_selfcheck`.
    """
    report = run_chaos_campaign(seed=1, schedule=default_schedule(1, node_loss=True))
    problems = []
    injected = sum(sum(o.faults.values()) for o in report.outcomes)
    if injected == 0:
        problems.append("selfcheck schedule injected no faults at all")
    for o in report.outcomes:
        if not o.equivalent:
            problems.append(f"{o.driver}: output diverged under faults")
        if not o.reproducible:
            problems.append(f"{o.driver}: same seed replay diverged")
    if problems:
        for problem in problems:
            print(f"chaos selfcheck FAILED: {problem}")
        return 1
    if verbose:
        drivers = ", ".join(o.driver for o in report.outcomes)
        print(
            f"chaos selfcheck: ok ({drivers}; {injected} fault(s) injected, "
            "outputs identical, replays bit-stable)"
        )
    return 0
