"""The handcrafted history goldens the report renderer is checked against.

``golden_history.json`` is one job exercising every report feature at
once: a retried task, a straggler with a speculative copy, skewed
shuffle transfers and a combiner.  ``golden_chaos_history.json`` does the
same for the *chaos* features: a crash-retried map task, a node lost
mid-map with its task re-dispatched and replicas healed, a blacklisted
node, a retried reducer and a shuffle refetch.
``golden_chaos_report.txt`` is the exact ``repro history`` rendering of
that trace.  The CLI and report tests assert against all three; each
history must validate (its gate).
"""

from __future__ import annotations

from repro.observability import events as ev
from repro.observability.events import Phase
from repro.observability.history import JobHistory
from repro.observability.report import render_report

HISTORY_JOB = "poi-extraction"
JOB = "mmc-learning"


def _setup(h, job, setup_s, entries, nbytes, broadcast_s):
    h.emit(ev.PhaseStart(phase=Phase.SETUP), job, 0.0)
    h.emit(ev.CacheLoad(entries=entries, nbytes=nbytes, broadcast_s=broadcast_s), job, 0.0)
    h.emit(ev.PhaseFinish(phase=Phase.SETUP, duration_s=setup_s), job, setup_s)


def _map_start(h, job, ts, task, node, locality="node_local", speculative=False):
    h.emit(ev.TaskStart(phase=Phase.MAP, locality=locality, input_bytes=65536,
                        input_records=1024, speculative=speculative),
           job, ts, task=task, node=node)


def _reduce_start(h, job, ts, task, node, input_records):
    h.emit(ev.TaskStart(phase=Phase.REDUCE, input_records=input_records),
           job, ts, task=task, node=node)


def _finish(h, job, ts, task, node, phase, duration_s, attempts=1, wasted_s=0.0,
            locality="", speculative=False):
    h.emit(ev.TaskFinish(phase=phase, duration_s=duration_s, attempts=attempts,
                         wasted_s=wasted_s, locality=locality, speculative=speculative),
           job, ts, task=task, node=node)


def _phase(h, job, ts, phase, duration_s=None):
    """A phase start, or a phase finish when ``duration_s`` is given."""
    h.emit(ev.PhaseStart(phase=phase) if duration_s is None
           else ev.PhaseFinish(phase=phase, duration_s=duration_s), job, ts)


def _skewed_shuffle(h, job, ts):
    """Reducer 1 receives 3x the bytes of reducer 0."""
    for task, nbytes, records, groups in (("reduce-0000", 2000, 100, 10),
                                          ("reduce-0001", 6000, 300, 30)):
        h.emit(ev.ShuffleTransfer(reducer=task, bytes=nbytes, records=records, groups=groups),
               job, ts, task=task)


def _retried(h, job, ts, task, node, fault, reason, backoff_s):
    """An injected fault fails attempt 1; attempt 2 is dispatched."""
    h.emit(ev.FaultInjected(attempt=1, fault=fault, reason=reason), job, ts, task=task, node=node)
    h.emit(ev.AttemptFailed(attempt=1, reason=reason), job, ts, task=task, node=node)
    h.emit(ev.AttemptRetried(attempt=2, backoff_s=backoff_s,
                             reason=f"re-dispatched after {fault}"), job, ts, task=task)


def _job_start(h, job, output_path, n_chunks, combiner):
    h.emit(ev.JobStart(input_paths=["input/traces"], output_path=output_path,
                       n_chunks=n_chunks, map_only=False, num_reducers=2, combiner=combiner),
           job, 0.0)


def _job_finish(h, job, setup_s, map_s, reduce_s, retry_penalty_s, counters, output_path):
    timing = ev.Timing(setup_s=setup_s, map_s=map_s, reduce_s=reduce_s,
                       retry_penalty_s=retry_penalty_s, total_s=75.0)
    h.emit(ev.JobFinish(timing=timing, counters=counters, n_map_tasks=3, n_reduce_tasks=2,
                        output_path=output_path), job, 75.0)
    h.advance(75.0)


def history() -> JobHistory:
    h, job = JobHistory(), HISTORY_JOB
    _job_start(h, job, "out/pois", 4, True)
    _setup(h, job, 25.0, ["rtree.index"], 4096, 0.5)

    _phase(h, job, 25.0, Phase.MAP)
    # map-0000: clean node-local task.
    _map_start(h, job, 25.0, "map-0000", "worker00")
    _finish(h, job, 35.0, "map-0000", "worker00", Phase.MAP, 10.0, locality="node_local")
    # map-0001: first attempt crashes, retry succeeds.
    _map_start(h, job, 25.0, "map-0001", "worker01")
    h.emit(ev.AttemptFailed(attempt=1, reason="injected crash"), job, 35.0,
           task="map-0001", node="worker01")
    _finish(h, job, 45.0, "map-0001", "worker01", Phase.MAP, 10.0, 2, 10.0,
            locality="node_local")
    # map-0002: rack-local straggler, speculatively duplicated.
    _map_start(h, job, 25.0, "map-0002", "worker02", "rack_local")
    h.emit(ev.SpeculativeLaunch(original_node="worker02", duration_s=10.0), job, 40.0,
           task="map-0002", node="worker03")
    _map_start(h, job, 40.0, "map-0002", "worker03", "remote", speculative=True)
    _finish(h, job, 50.0, "map-0002", "worker03", Phase.MAP, 10.0,
            locality="remote", speculative=True)
    _finish(h, job, 55.0, "map-0002", "worker02", Phase.MAP, 30.0, locality="rack_local")
    _phase(h, job, 55.0, Phase.MAP, 30.0)

    _skewed_shuffle(h, job, 55.0)

    _phase(h, job, 55.0, Phase.REDUCE)
    _reduce_start(h, job, 55.0, "reduce-0000", "worker00", 100)
    _finish(h, job, 60.0, "reduce-0000", "worker00", Phase.REDUCE, 5.0)
    _reduce_start(h, job, 55.0, "reduce-0001", "worker01", 300)
    _finish(h, job, 65.0, "reduce-0001", "worker01", Phase.REDUCE, 10.0)
    _phase(h, job, 65.0, Phase.REDUCE, 10.0)

    _job_finish(
        h, job, 25.0, 30.0, 10.0, 10.0,
        {
            "task": {
                "map_input_records": 3072,
                "map_output_records": 3072,
                "combine_input_records": 3072,
                "combine_output_records": 400,
                "reduce_input_records": 400,
                "reduce_output_records": 40,
                "shuffle_bytes": 8000,
            },
            "scheduler": {
                "data_local_maps": 2,
                "rack_local_maps": 1,
                "failed_tasks": 1,
                "speculative_tasks": 1,
            },
        },
        "out/pois",
    )
    return h


def chaos_history() -> JobHistory:
    h, job = JobHistory(), JOB
    _job_start(h, job, "out/models", 3, False)
    _setup(h, job, 20.0, ["mmc.poi_coords"], 64, 0.2)

    _phase(h, job, 20.0, Phase.MAP)
    # map-0000: clean node-local task.
    _map_start(h, job, 20.0, "map-0000", "worker00")
    _finish(h, job, 30.0, "map-0000", "worker00", Phase.MAP, 10.0, locality="node_local")
    # map-0001: first attempt crashes, backoff, retry succeeds elsewhere.
    _map_start(h, job, 20.0, "map-0001", "worker02")
    _retried(h, job, 30.0, "map-0001", "worker02", "task_crash", "chaos crash", 2.0)
    _finish(h, job, 40.0, "map-0001", "worker02", Phase.MAP, 10.0, 2, 12.0,
            locality="node_local")
    # map-0002: its node dies mid-phase; the map output is re-dispatched
    # and the under-replicated chunks heal onto survivors.
    _map_start(h, job, 20.0, "map-0002", "worker01")
    _retried(h, job, 32.0, "map-0002", "worker01", "node_loss",
             "node worker01 lost mid-phase; map output re-dispatched", 0.0)
    _finish(h, job, 44.0, "map-0002", "worker01", Phase.MAP, 12.0, 2, 12.0,
            locality="node_local")
    h.emit(ev.NodeLost(lost_tasks=["map-0002"], detect_s=10.0), job, 32.0, node="worker01")
    h.emit(ev.ReplicaHealed(replicas=2, nbytes=131072, rereplicate_s=2.6), job, 32.0)
    _phase(h, job, 50.0, Phase.MAP, 30.0)

    _skewed_shuffle(h, job, 50.0)
    h.emit(ev.ShuffleRefetch(bytes=1500, refetch_s=0.03, reason="fetch timeout"), job, 50.0,
           task="reduce-0001")
    h.emit(ev.NodeBlacklisted(failures=3, threshold=3), job, 50.0, node="worker01")

    _phase(h, job, 50.0, Phase.REDUCE)
    _reduce_start(h, job, 50.0, "reduce-0000", "worker00", 100)
    _finish(h, job, 55.0, "reduce-0000", "worker00", Phase.REDUCE, 5.0)
    _reduce_start(h, job, 50.0, "reduce-0001", "worker02", 300)
    _retried(h, job, 56.0, "reduce-0001", "worker02", "task_crash", "chaos crash", 2.0)
    # A recorded null locality (the runner leaves a reduce task's out).
    _finish(h, job, 62.0, "reduce-0001", "worker02", Phase.REDUCE, 6.0, 2, 8.0, locality=None)
    _phase(h, job, 62.0, Phase.REDUCE, 12.0)

    _job_finish(
        h, job, 20.0, 30.0, 12.0, 13.0,
        {
            "task": {
                "map_input_records": 3072,
                "map_output_records": 96,
                "reduce_input_records": 96,
                "reduce_output_records": 3,
                "shuffle_bytes": 8000,
            },
            "scheduler": {
                "data_local_maps": 3,
                "failed_tasks": 3,
                "nodes_lost": 1,
                "replicas_healed": 2,
                "nodes_blacklisted": 1,
                "shuffle_refetches": 1,
            },
        },
        "out/models",
    )
    return h


def gates(doc: dict) -> list[str]:
    return JobHistory.from_json_obj(doc).validate()


def build_history() -> str:
    return history().to_json(indent=1)


def build_chaos_history() -> str:
    return chaos_history().to_json(indent=1)


def build_chaos_report() -> str:
    return render_report(chaos_history())
