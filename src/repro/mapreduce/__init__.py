"""Simulated Hadoop substrate: HDFS, MapReduce runtime, cost model.

The paper runs on Hadoop over the Grid'5000 Parapluie cluster.  This
subpackage is the documented substitution (DESIGN.md §2): an in-process
Hadoop simulator that preserves the behaviours the paper's evaluation
depends on —

* **HDFS** (:mod:`repro.mapreduce.hdfs`): files split into fixed-size
  chunks, rack-aware 3-way replica placement, namenode metadata.
* **Cluster** (:mod:`repro.mapreduce.cluster`): racks, nodes, map/reduce
  slots; the default spec mirrors the paper's Parapluie deployment
  (dedicated namenode + jobtracker nodes, the rest tasktrackers).
* **Jobs** (:mod:`repro.mapreduce.job`): Mapper / Reducer / Combiner /
  Partitioner base classes and the :class:`~repro.mapreduce.job.JobSpec`
  driver description.
* **Scheduling** (:mod:`repro.mapreduce.scheduler`): jobtracker dispatch
  with data-locality preference (node-local > rack-local > remote).
* **Execution** (:mod:`repro.mapreduce.runner`): the job runner — map
  tasks (optionally thread-parallel), combiner, hash-partitioned shuffle
  with sorted key groups, reduce tasks, counters, failure recovery.
* **Cost model** (:mod:`repro.mapreduce.simtime`): converts the executed
  DAG (chunk sizes, locality, shuffle bytes, slot contention) into
  simulated wall-clock seconds so chunk-size and distance-function effects
  (Table III) are measurable and deterministic.
* **Tracing** (:mod:`repro.observability`): every runner owns a
  :class:`~repro.observability.history.JobHistory` that receives typed
  lifecycle events (job/phase/task start+finish, attempt failures,
  speculative launches, shuffle transfers, cache loads) aligned to the
  cost-model clock; export it with ``runner.history.save(path)`` and
  render it with ``python -m repro history <file>``.
"""

from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import Counters
from repro.mapreduce.types import Chunk, RecordPayload, ArrayPayload
from repro.mapreduce.cluster import ClusterSpec, Node, paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import (
    Mapper,
    Reducer,
    Partitioner,
    HashPartitioner,
    JobSpec,
    MapContext,
    ReduceContext,
)
from repro.mapreduce.runner import JobRunner, JobResult
from repro.mapreduce.pipeline import JobPipeline
from repro.mapreduce.simtime import CostModel
from repro.mapreduce.failures import TaskFailure
from repro.mapreduce.cache import DistributedCache
from repro.observability.history import JobHistory, load_history

__all__ = [
    "Configuration",
    "Counters",
    "Chunk",
    "RecordPayload",
    "ArrayPayload",
    "ClusterSpec",
    "Node",
    "paper_cluster",
    "SimulatedHDFS",
    "Mapper",
    "Reducer",
    "Partitioner",
    "HashPartitioner",
    "JobSpec",
    "MapContext",
    "ReduceContext",
    "JobRunner",
    "JobResult",
    "JobPipeline",
    "CostModel",
    "TaskFailure",
    "DistributedCache",
    "JobHistory",
    "load_history",
]
