"""The multi-tenant JobService: submit → future lifecycle, admission
control, result-cache semantics, fair-share accounting, and the
byte-identity invariant (every tenant of a shared service produces the
same bytes as a solo run, on every backend and under chaos)."""

from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.algorithms.sampling import SamplingMapper
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.chaos import run_cell, run_multitenant_check
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS, Configuration
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper
from repro.mapreduce.service import (
    RESULT_CACHE_HITS,
    SERVICE_GROUP,
    JobService,
    JobStatus,
    QuotaExceededError,
    UnknownTenantError,
    result_cache_key,
)
from repro.observability.report import summarize, tenant_accounting

from tests.conftest import CountAggregation


def _corpus():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=2, days=1, seed=7))
    return dataset.sort_by_time()


def _hdfs(n_workers=3):
    hdfs = SimulatedHDFS(paper_cluster(n_workers), chunk_size=64 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", _corpus())
    return hdfs


def _sampling_spec(name, out, window=600.0):
    return JobSpec(
        name=name,
        mapper=SamplingMapper,
        input_paths=["input/traces"],
        output_path=out,
        conf=Configuration(
            {"sampling.window_s": window, "sampling.technique": "upper"}
        ),
        map_cost_factor=0.6,
    )


# -- futures lifecycle -------------------------------------------------------

def test_future_lifecycle_queued_then_done():
    with JobService(_hdfs(), tenants={"t1": 1.0}, start=False) as service:
        future = service.submit(_sampling_spec("samp", "out/a"), tenant="t1")
        assert future.status == JobStatus.QUEUED
        service.start()
        result = future.result(timeout=60)
        assert future.status == JobStatus.DONE
        # The service namespaces job names by tenant (history validation
        # requires unique names across tenants).
        assert result.job_name == "t1:samp"
        assert result.n_map_tasks > 0
        assert len(service.hdfs.read_trace_array("out/a")) > 0


def test_failed_job_resolves_future_with_exception():
    bad = JobSpec(
        name="bad",
        mapper=SamplingMapper,
        input_paths=["input/does-not-exist"],
        output_path="out/bad",
    )
    with JobService(_hdfs(), tenants={"t1": 1.0}) as service:
        future = service.submit(bad, tenant="t1")
        with pytest.raises(Exception):
            future.result(timeout=60)
        assert future.status == JobStatus.FAILED


def test_unknown_tenant_rejected():
    with JobService(_hdfs(), tenants={"alice": 1.0}, start=False) as service:
        with pytest.raises(UnknownTenantError):
            service.submit(_sampling_spec("s", "out/s"), tenant="mallory")


def test_quota_caps_queued_jobs_per_tenant():
    roster = {"t": {"weight": 1.0, "max_queued": 1}}
    with JobService(_hdfs(), tenants=roster, start=False) as service:
        first = service.submit(_sampling_spec("s0", "out/s0"), tenant="t")
        with pytest.raises(QuotaExceededError):
            service.submit(_sampling_spec("s1", "out/s1"), tenant="t")
        service.start()
        first.result(timeout=60)
        # Admission is a queue-depth cap, not a lifetime cap: once the
        # backlog drains the tenant may submit again.
        service.submit(_sampling_spec("s2", "out/s2"), tenant="t").result(
            timeout=60
        )


def test_cancel_queued_job():
    """A service whose ``with`` block raises closes without waiting and
    cancels what is still queued; nothing of it runs."""
    with pytest.raises(RuntimeError, match="analyst gave up"):
        with JobService(_hdfs(), tenants={"t": 1.0}, start=False) as service:
            drop = service.submit(_sampling_spec("drop", "out/drop"), tenant="t")
            raise RuntimeError("analyst gave up")
    assert drop.status == JobStatus.CANCELLED
    with pytest.raises(CancelledError):
        drop.result(timeout=5)
    assert not service.hdfs.exists("out/drop")


# -- result cache ------------------------------------------------------------

def test_resubmission_is_cache_hit_with_zero_map_tasks():
    with JobService(_hdfs(), tenants={"t": 1.0}) as service:
        spec = _sampling_spec("first", "out/first")
        r1 = service.submit(spec, tenant="t").result(timeout=60)
        assert r1.n_map_tasks > 0
        r2 = service.submit(
            _sampling_spec("again", "out/again"), tenant="t"
        ).result(timeout=60)
        assert r2.n_map_tasks == 0
        assert r2.counters.value(SERVICE_GROUP, RESULT_CACHE_HITS) == 1
        assert service.result_cache.hits == 1
        sig = service.hdfs.read_trace_array("out/first").signature()
        assert service.hdfs.read_trace_array("out/again").signature() == sig
        # A hit is charged one job-setup, not a map phase.
        assert r2.timing.map_s == 0.0
        assert r2.timing.setup_s == pytest.approx(service.cost_model.job_setup_s)


def test_different_conf_is_not_a_hit():
    with JobService(_hdfs(), tenants={"t": 1.0}) as service:
        service.submit(_sampling_spec("a", "out/a"), tenant="t").result(timeout=60)
        other = service.submit(
            _sampling_spec("b", "out/b", window=120.0), tenant="t"
        ).result(timeout=60)
        assert other.n_map_tasks > 0
        assert service.result_cache.hits == 0
        assert service.result_cache.misses == 2


class _MaxAggregation(CountAggregation):
    """A second toy monoid over the same mapper: per-key maximum."""

    def merge(self, acc, partial):
        return max(acc, partial)

    def lift_pairs(self, pairs):
        return None


class _ScaledCount(CountAggregation):
    """A parameterised monoid: its state is part of its identity."""

    def __init__(self, scale):
        self.scale = scale

    def finalize(self, key, acc, ctx):
        ctx.emit(key, int(acc) * self.scale)


class _UserCensusMapper(Mapper):
    """Per-user record counts over one chunk."""

    def run(self, chunk, ctx):
        array = chunk.trace_array()
        idx, counts = np.unique(array.user_index, return_counts=True)
        for i, count in zip(idx.tolist(), counts.tolist()):
            ctx.emit(array.users[i], int(count), nbytes=16)


def _census_spec(name, out, aggregation=CountAggregation):
    return JobSpec(
        name=name, mapper=_UserCensusMapper, aggregation=aggregation,
        input_paths=["input/traces"], output_path=out, map_cost_factor=0.3,
    )


def test_cache_key_tells_aggregations_apart():
    """With ``reducer=`` optional the monoid may be all that separates two
    specs: same mapper + different aggregation must not share a key."""
    hdfs = _hdfs()

    def key(aggregation):
        return result_cache_key(_census_spec("j", "out/j", aggregation), hdfs, {})

    assert key(CountAggregation) is not None
    assert key(CountAggregation) == key(CountAggregation())  # class or instance
    assert key(CountAggregation) != key(_MaxAggregation)
    assert key(_ScaledCount(2)) == key(_ScaledCount(2)) != key(_ScaledCount(3))
    assert key(_ScaledCount(object())) is None  # unfingerprintable state: uncacheable
    assert key(None) != key(CountAggregation)  # a map-only census is another job


def test_different_aggregation_is_not_a_hit_and_resubmission_is():
    with JobService(_hdfs(), tenants={"t": 1.0}) as service:
        def run(name, aggregation):
            spec = _census_spec(name, f"out/{name}", aggregation)
            result = service.submit(spec, tenant="t").result(timeout=60)
            return result, sorted(service.hdfs.read_records(f"out/{name}"))

        first, sums = run("sum", CountAggregation)
        other, maxima = run("max", _MaxAggregation)
        assert first.n_map_tasks > 0 and other.n_map_tasks > 0
        assert service.result_cache.hits == 0
        assert maxima != sums  # several chunks per user: max of counts < their sum
        again, sums_again = run("sum-again", CountAggregation)
        assert again.n_map_tasks == 0
        assert service.result_cache.hits == 1
        assert sums_again == sums


def test_cache_can_be_disabled():
    with JobService(_hdfs(), tenants={"t": 1.0}, result_cache=False) as service:
        assert service.result_cache is None
        service.submit(_sampling_spec("a", "out/a"), tenant="t").result(timeout=60)
        rerun = service.submit(
            _sampling_spec("b", "out/b"), tenant="t"
        ).result(timeout=60)
        assert rerun.n_map_tasks > 0


# -- multi-tenant equivalence ------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_two_tenants_byte_identical_to_solo(backend):
    def drive(client, tenant):
        out = "out/solo" if tenant is None else f"tenants/{tenant}/out"
        client.run(_sampling_spec("samp", out))
        return client.hdfs.read_trace_array(out)

    axes = dict(backend=backend, max_workers=None if backend == "serial" else 2)
    solo = run_cell(drive, {"input/traces": _corpus()}, **axes)
    shared = run_cell(
        drive, {"input/traces": _corpus()}, tenants={"alice": 2.0, "bob": 1.0}, **axes
    )
    assert shared.signatures == {"alice": solo.signature, "bob": solo.signature}
    assert not shared.history.validate()


def test_two_tenants_equivalent_under_chaos():
    outcomes = run_multitenant_check(
        drivers=["sampling"], seed=3, with_chaos=True
    )
    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert outcome.chaos_active
    assert outcome.ok, outcome
    assert "alice" in outcome.report and "bob" in outcome.report


# -- fair-share accounting and observability ---------------------------------

def _run_contended_service():
    hdfs = _hdfs()
    service = JobService(hdfs, tenants={"alice": 2.0, "bob": 1.0}, start=False)
    for tenant in ("alice", "bob"):
        client = service.client(tenant)
        for j in range(2):
            client.submit(
                _sampling_spec(
                    f"samp-{j}", f"tenants/{tenant}/out-{j}",
                    window=300.0 * (j + 1) + (7 if tenant == "bob" else 0),
                )
            )
    service.start()
    service.wait(timeout=120)
    return service


def test_interleave_is_deterministic():
    a = _run_contended_service()
    b = _run_contended_service()
    try:
        assert a.fair_share_plan().tasks == b.fair_share_plan().tasks
        ra, rb = a.report(), b.report()
        assert ra.tenants == rb.tenants
        assert ra.interleaved_makespan_s == rb.interleaved_makespan_s
    finally:
        a.close()
        b.close()


def test_report_shape_and_render():
    service = _run_contended_service()
    try:
        report = service.report()
        assert set(report.tenants) == {"alice", "bob"}
        alice = report.tenants["alice"]
        assert alice["weight"] == 2.0
        assert alice["jobs"] == 2
        assert alice["weight_share"] == pytest.approx(2.0 / 3.0)
        assert 0.0 < report.contended_window_s <= report.interleaved_makespan_s
        assert report.serial_s > 0
        rendered = report.render()
        assert "alice" in rendered and "bob" in rendered
    finally:
        service.close()


def test_history_tags_tenants_and_accounting_rolls_up():
    service = _run_contended_service()
    try:
        history = service.history
        assert not history.validate()
        accounts = tenant_accounting(summarize(history))
        assert set(accounts) == {"alice", "bob"}
        for row in accounts.values():
            assert row["jobs"] == 2
            assert row["total_s"] > 0
    finally:
        service.close()


# -- refusals and cache corner cases -----------------------------------------

def test_refusals_are_typed_errors():
    with JobService(_hdfs(), tenants={"t": 1.0}, start=False) as service:
        queued = service.submit(_sampling_spec("q", "out/q"), tenant="t")
        with pytest.raises(TimeoutError, match="still queued"):
            queued.result(timeout=0.01)
        with pytest.raises(UnknownTenantError, match="known tenants: t"):
            service.client("mallory")
        client = service.client("t")
        with pytest.raises(ValueError, match="exactly one of path= or key="):
            client.query_engine()
        with pytest.raises(ValueError, match="exactly one of path= or key="):
            client.query_engine(path="idx", key="k")
        service.start()
    with pytest.raises(RuntimeError, match="service is closed"):
        service.submit(_sampling_spec("late", "out/late"), tenant="t")


def test_a_hit_onto_an_existing_output_fails_its_future():
    with JobService(_hdfs(), tenants={"t": 1.0}) as service:
        service.submit(_sampling_spec("a", "out/a"), tenant="t").result(timeout=60)
        again = service.submit(_sampling_spec("b", "out/a"), tenant="t")
        with pytest.raises(FileExistsError, match="out/a"):
            again.result(timeout=60)


def test_a_cached_copy_deleted_behind_the_cache_is_a_miss():
    with JobService(_hdfs(), tenants={"t": 1.0}) as service:
        service.submit(_sampling_spec("a", "out/a"), tenant="t").result(timeout=60)
        (cached,) = [p for p in service.hdfs.ls() if p.startswith(".cache/")]
        service.hdfs.delete(cached)
        rerun = service.submit(_sampling_spec("b", "out/b"), tenant="t").result(timeout=60)
        assert rerun.n_map_tasks > 0
        assert service.result_cache.hits == 0 and service.hdfs.exists(cached)


def test_a_new_service_adopts_the_copy_a_previous_one_cached():
    hdfs = _hdfs()
    with JobService(hdfs, tenants={"t": 1.0}) as first:
        first.submit(_sampling_spec("a", "out/a"), tenant="t").result(timeout=60)
    with JobService(hdfs, tenants={"t": 1.0}) as second:
        second.submit(_sampling_spec("b", "out/b"), tenant="t").result(timeout=60)
        assert len(second.result_cache) == 1
        hit = second.submit(_sampling_spec("c", "out/c"), tenant="t").result(timeout=60)
        assert hit.n_map_tasks == 0


class _Opaque:
    """A value no digest can describe."""


def test_unfingerprintable_jobs_are_uncacheable():
    hdfs = _hdfs()
    spec = _sampling_spec("s", "out/s")
    assert result_cache_key(spec, hdfs, {}) is not None

    def closure_mapper():
        return SamplingMapper()

    for job in (
        JobSpec("s", closure_mapper, ["input/traces"], "out/s"),
        JobSpec("s", SamplingMapper, ["input/traces"], "out/s",
                conf=Configuration({"opaque": _Opaque()})),
        JobSpec("s", SamplingMapper, ["input/traces"], "out/s",
                conf=Configuration({"raw": b"bytes"})),
    ):
        assert result_cache_key(job, hdfs, {}) is None


def test_speedup_of_an_empty_report_is_one():
    from repro.mapreduce.service import ServiceReport

    assert ServiceReport({}, 0.0, 0.0, 0.0, plan=None).speedup == 1.0
