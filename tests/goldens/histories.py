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

from repro.observability.events import EventKind, Phase
from repro.observability.history import JobHistory
from repro.observability.report import render_report

K = EventKind
HISTORY_JOB = "poi-extraction"
JOB = "mmc-learning"


def _setup(h, job, setup_s, entries, nbytes, broadcast_s):
    h.emit(K.PHASE_START, job, 0.0, phase=Phase.SETUP)
    h.emit(K.CACHE_LOAD, job, 0.0, entries=entries, nbytes=nbytes, broadcast_s=broadcast_s)
    h.emit(K.PHASE_FINISH, job, setup_s, phase=Phase.SETUP, duration_s=setup_s)


def _map_start(h, job, ts, task, node, locality="node_local", **extra):
    h.emit(K.TASK_START, job, ts, task=task, node=node, phase=Phase.MAP, locality=locality,
           **extra, input_bytes=65536, input_records=1024)


def _finish(h, job, ts, task, node, phase, duration_s, attempts=1, wasted_s=0.0, **extra):
    h.emit(K.TASK_FINISH, job, ts, task=task, node=node, phase=phase, duration_s=duration_s,
           attempts=attempts, wasted_s=wasted_s, **extra)


def _skewed_shuffle(h, job, ts):
    """Reducer 1 receives 3x the bytes of reducer 0."""
    h.emit(K.SHUFFLE_TRANSFER, job, ts, task="reduce-0000",
           reducer="reduce-0000", bytes=2000, records=100, groups=10)
    h.emit(K.SHUFFLE_TRANSFER, job, ts, task="reduce-0001",
           reducer="reduce-0001", bytes=6000, records=300, groups=30)


def _retried(h, job, ts, task, node, fault, reason, backoff_s):
    """An injected fault fails attempt 1; attempt 2 is dispatched."""
    h.emit(K.FAULT_INJECTED, job, ts, task=task, node=node, attempt=1, fault=fault, reason=reason)
    h.emit(K.ATTEMPT_FAILED, job, ts, task=task, node=node, attempt=1, reason=reason)
    h.emit(K.ATTEMPT_RETRIED, job, ts, task=task, attempt=2, backoff_s=backoff_s,
           reason=f"re-dispatched after {fault}")


def history() -> JobHistory:
    h, job = JobHistory(), HISTORY_JOB
    h.emit(
        K.JOB_START, job, 0.0,
        input_paths=["input/traces"], output_path="out/pois",
        n_chunks=4, map_only=False, num_reducers=2, combiner=True,
    )
    _setup(h, job, 25.0, ["rtree.index"], 4096, 0.5)

    h.emit(K.PHASE_START, job, 25.0, phase=Phase.MAP)
    # map-0000: clean node-local task.
    _map_start(h, job, 25.0, "map-0000", "worker00")
    _finish(h, job, 35.0, "map-0000", "worker00", Phase.MAP, 10.0, locality="node_local")
    # map-0001: first attempt crashes, retry succeeds.
    _map_start(h, job, 25.0, "map-0001", "worker01")
    h.emit(K.ATTEMPT_FAILED, job, 35.0, task="map-0001", node="worker01",
           attempt=1, reason="injected crash")
    _finish(h, job, 45.0, "map-0001", "worker01", Phase.MAP, 10.0, 2, 10.0,
            locality="node_local")
    # map-0002: rack-local straggler, speculatively duplicated.
    _map_start(h, job, 25.0, "map-0002", "worker02", "rack_local")
    h.emit(K.SPECULATIVE_LAUNCH, job, 40.0, task="map-0002", node="worker03",
           original_node="worker02", duration_s=10.0)
    _map_start(h, job, 40.0, "map-0002", "worker03", "remote", speculative=True)
    _finish(h, job, 50.0, "map-0002", "worker03", Phase.MAP, 10.0,
            locality="remote", speculative=True)
    _finish(h, job, 55.0, "map-0002", "worker02", Phase.MAP, 30.0, locality="rack_local")
    h.emit(K.PHASE_FINISH, job, 55.0, phase=Phase.MAP, duration_s=30.0)

    _skewed_shuffle(h, job, 55.0)

    h.emit(K.PHASE_START, job, 55.0, phase=Phase.REDUCE)
    h.emit(K.TASK_START, job, 55.0, task="reduce-0000", node="worker00",
           phase=Phase.REDUCE, input_records=100)
    _finish(h, job, 60.0, "reduce-0000", "worker00", Phase.REDUCE, 5.0)
    h.emit(K.TASK_START, job, 55.0, task="reduce-0001", node="worker01",
           phase=Phase.REDUCE, input_records=300)
    _finish(h, job, 65.0, "reduce-0001", "worker01", Phase.REDUCE, 10.0)
    h.emit(K.PHASE_FINISH, job, 65.0, phase=Phase.REDUCE, duration_s=10.0)

    h.emit(
        K.JOB_FINISH, job, 75.0,
        timing={"setup_s": 25.0, "map_s": 30.0, "reduce_s": 10.0,
                "retry_penalty_s": 10.0, "total_s": 75.0},
        counters={
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
        n_map_tasks=3, n_reduce_tasks=2, output_path="out/pois",
    )
    h.advance(75.0)
    return h


def chaos_history() -> JobHistory:
    h, job = JobHistory(), JOB
    h.emit(
        K.JOB_START, job, 0.0,
        input_paths=["input/traces"], output_path="out/models",
        n_chunks=3, map_only=False, num_reducers=2, combiner=False,
    )
    _setup(h, job, 20.0, ["mmc.poi_coords"], 64, 0.2)

    h.emit(K.PHASE_START, job, 20.0, phase=Phase.MAP)
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
    h.emit(K.NODE_LOST, job, 32.0, node="worker01", lost_tasks=["map-0002"], detect_s=10.0)
    h.emit(K.REPLICA_HEALED, job, 32.0, replicas=2, nbytes=131072, rereplicate_s=2.6)
    h.emit(K.PHASE_FINISH, job, 50.0, phase=Phase.MAP, duration_s=30.0)

    _skewed_shuffle(h, job, 50.0)
    h.emit(K.SHUFFLE_REFETCH, job, 50.0, task="reduce-0001", bytes=1500,
           refetch_s=0.03, reason="fetch timeout")
    h.emit(K.NODE_BLACKLISTED, job, 50.0, node="worker01", failures=3, threshold=3)

    h.emit(K.PHASE_START, job, 50.0, phase=Phase.REDUCE)
    h.emit(K.TASK_START, job, 50.0, task="reduce-0000", node="worker00",
           phase=Phase.REDUCE, input_records=100)
    _finish(h, job, 55.0, "reduce-0000", "worker00", Phase.REDUCE, 5.0)
    h.emit(K.TASK_START, job, 50.0, task="reduce-0001", node="worker02",
           phase=Phase.REDUCE, input_records=300)
    _retried(h, job, 56.0, "reduce-0001", "worker02", "task_crash", "chaos crash", 2.0)
    _finish(h, job, 62.0, "reduce-0001", "worker02", Phase.REDUCE, 6.0, 2, 8.0, locality=None)
    h.emit(K.PHASE_FINISH, job, 62.0, phase=Phase.REDUCE, duration_s=12.0)

    h.emit(
        K.JOB_FINISH, job, 75.0,
        timing={"setup_s": 20.0, "map_s": 30.0, "reduce_s": 12.0,
                "retry_penalty_s": 13.0, "total_s": 75.0},
        counters={
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
        n_map_tasks=3, n_reduce_tasks=2, output_path="out/models",
    )
    h.advance(75.0)
    return h


def gates(doc: dict) -> list[str]:
    return JobHistory.from_json_obj(doc).validate()


def build_history() -> str:
    return history().to_json(indent=1)


def build_chaos_history() -> str:
    return chaos_history().to_json(indent=1)


def build_chaos_report() -> str:
    return render_report(chaos_history())
