"""Seeded chaos campaigns, and the cell runner every equivalence matrix shares.

The paper's central claim is that the MapReduce adaptations compute *the
same thing* as GEPETO's sequential implementations — just over millions
of traces.  That claim only holds if it survives the failures a real
Hadoop deployment absorbs routinely: task crashes, straggler nodes,
mid-job node loss, shuffle fetch timeouts, corrupt distributed-cache
loads.  A campaign runs each driver three times: on a pristine
deployment, under a seeded :class:`~repro.mapreduce.failures.ChaosSchedule`
(the output must be **byte-identical** — recovery is invisible to the
algorithm), and under the same schedule again (every event, counter and
the simulated makespan must be **bit-reproducible** — chaos is an input,
not a source of noise).

Each run is a *cell* (:func:`run_cell`): one run of one driver on a
fresh deployment, fixed by the axes the equivalence claims range over —
backend, pool workers, memory budget, chaos schedule, and a solo runner
vs tenants sharing one JobService.  Every matrix — clean vs faulted here,
solo vs tenants (:func:`run_multitenant_check`), batch vs stream
(:mod:`repro.streaming.check`), serial vs MR on every backend
(:func:`repro.attacks.linkage_mr.run_attack_selfcheck`) — is a list of
cells plus one comparison.  ``python -m repro chaos`` runs a campaign;
`tests/properties/test_chaos_equivalence.py` drives cells from hypothesis.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, TypeVar

import numpy as np

from repro.geo.trace import TraceArray, digest
from repro.mapreduce.failures import ChaosSchedule, JobFailedError
from repro.observability.history import JobHistory

__all__ = [
    "Cell",
    "run_cell",
    "fan_out",
    "ChaosDriver",
    "DRIVERS",
    "default_schedule",
    "DriverOutcome",
    "ChaosReport",
    "run_chaos_campaign",
    "run_chaos_selfcheck",
    "MultiTenantOutcome",
    "run_multitenant_check",
]

#: HDFS path every campaign deployment stores its corpus under.
INPUT_PATH = "input/traces"

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

def fan_out(work: Callable[[str], T], names: Iterable[str], failed: str) -> dict[str, T]:
    """``{name: work(name)}``, every name on its own thread at once.

    Once all have finished, the first error by name is raised as a
    ``RuntimeError`` reading ``failed.format(name)`` and the error's
    repr, chained to it.
    """
    names = list(names)
    with ThreadPoolExecutor(max_workers=max(len(names), 1)) as pool:
        runs = {name: pool.submit(work, name) for name in names}
    for name in sorted(names):
        error = runs[name].exception()
        if error is not None:
            raise RuntimeError(f"{failed.format(name)}: {error!r}") from error
    return {name: run.result() for name, run in runs.items()}


def _signature(output: Any) -> str:
    return output if isinstance(output, str) else output.signature()


@dataclass
class Cell:
    """What one cell left: each tenant's output (``None`` keys the solo
    runner's; a tenant that failed cleanly has none), the history, the
    first clean failure by tenant, and the shared service's report."""

    outputs: dict[str | None, Any]
    history: JobHistory
    failure: JobFailedError | None = None
    report: Any = None

    @property
    def output(self) -> Any:
        """The output of a solo or single-tenant cell, ``None`` on failure."""
        return next(iter(self.outputs.values()), None)

    @property
    def signature(self) -> str | None:
        return None if self.output is None else _signature(self.output)

    @property
    def signatures(self) -> dict[str | None, str]:
        return {tenant: _signature(out) for tenant, out in self.outputs.items()}

    @property
    def failed(self) -> str | None:
        """The clean failure with its attempt chain, ``None`` on success."""
        return None if self.failure is None else str(self.failure)

    @property
    def events(self) -> list[dict]:
        return [event.to_dict() for event in self.history]

    @property
    def makespan_s(self) -> float:
        return self.history.clock


def run_cell(
    drive: Callable[[Any, str | None], Any],
    datasets: Mapping[str, TraceArray],
    *,
    chunk_size: int = 64 * 1024,
    n_workers: int = 3,
    backend: str = "serial",
    max_workers: int | None = None,
    budget_mb: float | None = None,
    chaos: ChaosSchedule | None = None,
    tenants: Mapping[str, float] | None = None,
    failed: str = "tenant {!r} failed",
    history_path: str | None = None,
    **service_kwargs: Any,
) -> Cell:
    """Run ``drive`` once on a fresh deployment holding ``datasets``.

    Solo (``tenants=None``): ``drive(runner, None)`` on a
    :func:`~repro.mapreduce.runner.fresh_runner`.  Tenants:
    ``drive(service.client(t), t)`` for every tenant at once
    (:func:`fan_out`) on one :class:`~repro.mapreduce.service.JobService`
    built with ``service_kwargs`` on a
    :func:`~repro.mapreduce.runner.fresh_hdfs`.

    The failure policy of every matrix: a task that exhausts its retries
    ends its run with a :class:`JobFailedError` carrying the attempt
    chain, and that clean failure is the cell's ``failure`` — an outcome
    to compare, not an exception.  Any other error propagates.
    """
    from repro.mapreduce.runner import fresh_hdfs, fresh_runner
    from repro.mapreduce.service import JobService

    def attempt(client, tenant):
        try:
            return drive(client, tenant), None
        except JobFailedError as err:
            return None, err

    deployment = dict(chunk_size=chunk_size, n_workers=n_workers, budget_mb=budget_mb, record_bytes=64)
    report = None
    if tenants is None:
        with fresh_runner(
            datasets, backend=backend, max_workers=max_workers, chaos=chaos, **deployment
        ) as runner:
            ran = {None: attempt(runner, None)}
        history = runner.history
    else:
        with JobService(
            fresh_hdfs(datasets, **deployment), tenants=tenants, executor=backend,
            max_workers=max_workers, chaos=chaos, memory_budget_mb=budget_mb, **service_kwargs,
        ) as service:
            ran = fan_out(lambda t: attempt(service.client(t), t), sorted(tenants), failed)
            report = service.report()
        history = service.history
    if history_path is not None:
        history.save(history_path)
    failures = [err for _, err in ran.values() if err is not None]
    return Cell(
        {tenant: out for tenant, (out, err) in ran.items() if err is None},
        history, failures[0] if failures else None, report,
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

    def cell(self, array: TraceArray, context: dict, **axes: Any) -> Cell:
        """One :func:`run_cell` of this driver over ``array``; each tenant
        works under its own ``tenants/<name>/`` path prefix."""

        def drive(client, tenant):
            prefix = {} if tenant is None else {"prefix": f"tenants/{tenant}/"}
            return self.run(client, {**context, **prefix})

        failed = f"driver {self.name!r} failed for tenant {{!r}}"
        return run_cell(drive, {INPUT_PATH: array}, failed=failed, **axes)


def _drive_sampling(runner, context) -> str:
    from repro.algorithms.sampling import run_sampling_job

    prefix = context.get("prefix", "")
    result = run_sampling_job(
        runner, INPUT_PATH, f"{prefix}out/chaos-sampled", window_s=600.0
    )
    return runner.hdfs.read_trace_array(result.output_path).signature()


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
    return digest(
        np.ascontiguousarray(result.centroids).tobytes(),
        str(result.n_iterations).encode(),
    )


def _drive_djcluster(runner, context) -> str:
    from repro.algorithms.djcluster import DJClusterParams, run_preprocessing_pipeline

    pipeline = run_preprocessing_pipeline(
        runner, INPUT_PATH, DJClusterParams(),
        workdir=f"{context.get('prefix', '')}tmp/chaos-dj",
    )
    return runner.hdfs.read_trace_array(pipeline.output_path).signature()


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
    return digest(*blobs)


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


def _inputs(
    drivers: "list[str] | None" = None, n_users: int = 3, days: int = 1, data_seed: int = 42
) -> tuple[list[str], TraceArray, dict]:
    """The chosen drivers (all by default), the corpus they run over and
    their shared context (MMC's POI centroids)."""
    from repro.algorithms.kmeans import kmeans_sequential
    from repro.geo.synthetic import SyntheticConfig, generate_dataset

    chosen = drivers or list(DRIVERS)
    unknown = [d for d in chosen if d not in DRIVERS]
    if unknown:
        raise ValueError(f"unknown chaos driver(s) {unknown}; known: {list(DRIVERS)}")
    dataset, _ = generate_dataset(SyntheticConfig(n_users=n_users, days=days, seed=data_seed))
    array = dataset.flat().sort_by_time()
    context: dict = {}
    if "mmc" in chosen:
        context["poi_coords"] = kmeans_sequential(array.coordinates(), k=4, seed=0).centroids
    return chosen, array, context


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass
class DriverOutcome:
    """One driver's clean/chaos/replay verdict.  ``failure`` is the chaos
    run's clean failure with its attempt chain; the replay must fail the
    same way.  The recovery tallies come from the chaos run's job
    summaries (:func:`repro.observability.report.summarize`)."""

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
    failure: str | None = None

    @classmethod
    def of(cls, driver: ChaosDriver, clean: Cell, faulted: Cell, replay: Cell) -> "DriverOutcome":
        from repro.observability.report import summarize

        jobs = summarize(faulted.history)
        return cls(
            driver.name,
            driver.title,
            equivalent=faulted.failure is None and faulted.signature == clean.signature,
            reproducible=(faulted.events, faulted.makespan_s, faulted.failed)
            == (replay.events, replay.makespan_s, replay.failed),
            clean_makespan_s=clean.makespan_s,
            chaos_makespan_s=faulted.makespan_s,
            faults=dict(sum((Counter(job.faults) for job in jobs), Counter())),
            retried=sum(job.retries for job in jobs),
            nodes_lost=[node for job in jobs for node in job.nodes_lost],
            blacklisted=sorted({node for job in jobs for node in job.nodes_blacklisted}),
            refetches=sum(job.shuffle_refetches for job in jobs),
            signature=faulted.signature or "",
            failure=faulted.failed,
        )

    @property
    def ok(self) -> bool:
        return self.equivalent and self.reproducible

    def render(self) -> list[str]:
        lines = [f"{self.driver} ({self.title}): {'ok' if self.ok else 'FAILED'}"]
        if self.failure is not None:
            # The failed job never finished: its attempt chain is the story.
            return lines + [
                f"  clean failure under faults: {self.failure}",
                "  bit-reproducibility: " + ("same seed -> same failure chain"
                                             if self.reproducible else
                                             "same seed produced a DIFFERENT failure"),
            ]
        recovery = [
            f"{self.retried} attempt(s) re-dispatched" if self.retried else "",
            f"node(s) lost: {', '.join(self.nodes_lost)}" if self.nodes_lost else "",
            f"blacklisted: {', '.join(self.blacklisted)}" if self.blacklisted else "",
            f"{self.refetches} shuffle refetch(es)" if self.refetches else "",
        ]
        injected = ", ".join(f"{k} x{v}" for k, v in sorted(self.faults.items()))
        return lines + [
            "  output equivalence: " + ("identical with and without faults"
                                        if self.equivalent else "DIVERGED under faults"),
            "  bit-reproducibility: " + ("same seed -> same events, counters, makespan"
                                         if self.reproducible else
                                         "same seed produced a DIFFERENT execution"),
            f"  faults injected: {injected or 'none'}",
            f"  recovery: {'; '.join(filter(None, recovery)) or 'none needed'}",
            f"  simulated makespan: {self.clean_makespan_s:.1f}s clean -> "
            f"{self.chaos_makespan_s:.1f}s under chaos "
            f"(+{self.chaos_makespan_s - self.clean_makespan_s:.1f}s recovery overhead)",
            f"  output sha256: {self.signature[:16]}…",
        ]


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
        lines = [f"chaos campaign  seed={self.seed}  [{self.schedule.describe()}]", ""]
        for o in self.outcomes:
            lines += o.render() + [""]
        # Diverged or irreproducible; a clean failure alone is neither.
        violated = any(
            not o.reproducible or (o.failure is None and not o.equivalent) for o in self.outcomes
        )
        verdict = (
            "all drivers recovered with identical outputs" if self.ok
            else "EQUIVALENCE VIOLATED — see above" if violated
            else "a task exhausted its retries; the run failed cleanly — see above"
        )
        return "\n".join(lines + [f"campaign result: {verdict}"])


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

    Every run is its own cell, so a node killed under chaos cannot leak
    into the clean baseline or the replay.  ``history_path`` exports the
    traced chaos run of the last driver for ``python -m repro history``.
    Outputs, counters and histories are invariant under ``executor`` and
    ``memory_budget_mb`` (out-of-core), so the report must be too.
    """
    chosen, array, context = _inputs(drivers, n_users, days, data_seed)
    chaos = schedule if schedule is not None else default_schedule(seed)
    axes = dict(
        n_workers=n_workers, chunk_size=chunk_size, backend=executor,
        max_workers=max_workers, budget_mb=memory_budget_mb,
    )
    report = ChaosReport(seed=chaos.seed, schedule=chaos)
    for name in chosen:
        driver = DRIVERS[name]
        save = history_path if name == chosen[-1] else None
        clean = driver.cell(array, context, **axes)
        faulted = driver.cell(array, context, chaos=chaos, history_path=save, **axes)
        replay = driver.cell(array, context, chaos=chaos, **axes)
        report.outcomes.append(DriverOutcome.of(driver, clean, faulted, replay))
    return report


# ---------------------------------------------------------------------------
# Multi-tenant equivalence: tenants on a shared service == solo runs
# ---------------------------------------------------------------------------


@dataclass
class MultiTenantOutcome:
    """One driver's tenants-vs-solo verdict: every tenant's output
    fingerprint on a shared :class:`~repro.mapreduce.service.JobService`
    must equal ``solo_signature`` — tenancy, and any chaos applied to
    the shared deployment, must be invisible.  A tenant's clean
    ``failure`` fails the check too."""

    driver: str
    solo_signature: str
    signatures: dict[str, str]
    chaos_active: bool
    #: The shared service's rendered fair-share report (for display).
    report: str = ""
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and bool(self.signatures) and all(
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
    """Per driver, a pristine solo cell and a tenants cell: every tenant
    runs the same driver at once on one service, optionally under the
    seeded chaos schedule with node loss.  With ``result_cache=True``
    later tenants typically hit the result cache for identical sub-jobs,
    which must not change a byte either.
    """
    chosen, array, context = _inputs(drivers, n_users, days, data_seed)
    schedule = default_schedule(seed, node_loss=True) if with_chaos else None
    axes = dict(n_workers=n_workers, chunk_size=chunk_size, backend=executor)
    outcomes = []
    for name in chosen:
        solo = DRIVERS[name].cell(array, context, **axes)
        shared = DRIVERS[name].cell(
            array, context, chaos=schedule, tenants=tenants or {"alice": 2.0, "bob": 1.0},
            result_cache=result_cache, **axes,
        )
        outcomes.append(MultiTenantOutcome(
            name, solo.signature, shared.signatures, with_chaos,
            report=shared.report.render(), failure=shared.failed,
        ))
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
        if o.failure is not None:
            problems.append(f"{o.driver}: failed cleanly under faults: {o.failure}")
        elif not o.equivalent:
            problems.append(f"{o.driver}: output diverged under faults")
        if not o.reproducible:
            problems.append(f"{o.driver}: same seed replay diverged")
    for problem in problems:
        print(f"chaos selfcheck FAILED: {problem}")
    if not problems and verbose:
        drivers = ", ".join(o.driver for o in report.outcomes)
        print(
            f"chaos selfcheck: ok ({drivers}; {injected} fault(s) injected, "
            "outputs identical, replays bit-stable)"
        )
    return 1 if problems else 0
