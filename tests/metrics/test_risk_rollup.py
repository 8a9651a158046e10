"""The MapReduce risk rollup equals the driver-side risk metric exactly."""

import pytest

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import Configuration
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import JobRunner
from repro.metrics.privacy import window_reidentification_risk
from repro.metrics.risk_rollup import RiskBucketMapper, risk_from_rows, window_risk_mapreduce
from repro.observability.events import EventKind
from tests.conftest import CountSumReducer

BACKENDS = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def corpus():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=6, days=1, seed=21))
    return dataset.flat().sort_by_time()


def _run_rollup(corpus, backend, aggregation=True):
    """The rollup — or, with ``aggregation=False``, its reference: the
    same mapper under a separate spec that declares the oracle reducer
    and no monoid, so raw (bucket, user) records cross the shuffle."""
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=48 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", corpus)
    workers = None if backend == "serial" else 2
    with JobRunner(hdfs, executor=backend, max_workers=workers) as runner:
        if aggregation:
            risk, result = window_risk_mapreduce(
                runner, "input/traces", "out/risk", cell_m=400.0, window_s=1800.0
            )
        else:
            result = runner.run(JobSpec(
                "risk-reference", RiskBucketMapper, ["input/traces"], "out/risk",
                reducer=CountSumReducer, num_reducers=2,
                conf=Configuration({"risk.cell_m": 400.0, "risk.window_s": 1800.0}),
            ))
            risk = risk_from_rows([key for key, _ in hdfs.read_records("out/risk")])
        return risk, result, runner.history


@pytest.mark.parametrize("backend", BACKENDS)
def test_rollup_equals_driver_side_risk(corpus, backend):
    """WindowRisk dataclass equality — counts, risk and anonymity stats
    all match the sequential metric bit for bit."""
    want = window_reidentification_risk(corpus, cell_m=400.0, window_s=1800.0)
    got, _, _ = _run_rollup(corpus, backend)
    assert got == want


def test_rollup_equals_driver_side_without_preagg(corpus):
    want = window_reidentification_risk(corpus, cell_m=400.0, window_s=1800.0)
    got, _, history = _run_rollup(corpus, "serial", aggregation=False)
    assert got == want
    assert not [e for e in history.events if e.kind == EventKind.SHUFFLE_PREAGG]


def test_rollup_takes_metadata_only_path(corpus):
    _, _, history = _run_rollup(corpus, "serial")
    preagg_events = [
        e for e in history.events if e.kind == EventKind.SHUFFLE_PREAGG
    ]
    assert len(preagg_events) == 1
    assert preagg_events[0].data["envelopes"] > 0


def test_rollup_shuffles_fewer_bytes_with_preagg(corpus):
    from repro.mapreduce.counters import STANDARD

    _, with_pa, _ = _run_rollup(corpus, "serial")
    _, without, _ = _run_rollup(corpus, "serial", aggregation=False)
    pa = with_pa.counters.value(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES)
    raw = without.counters.value(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES)
    assert 0 < pa < raw


def test_streaming_rollup_keeps_signature_chain(corpus):
    """The manager's ``risk_rollup`` knob swaps the window risk
    computation for the MR job; every window report, and therefore the
    run signature, is unchanged."""
    from repro.streaming.check import run_stream

    plain = run_stream(corpus, 3 * 3600.0, mode="runner")
    rollup = run_stream(corpus, 3 * 3600.0, mode="runner", risk_rollup=True)
    assert rollup.signature() == plain.signature()
