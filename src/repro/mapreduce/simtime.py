"""Cost model: converting an executed job DAG into simulated seconds.

The paper's Table III reports k-means iteration times measured on a 7-node
Hadoop deployment; our substrate executes in-process, so wall-clock time
would reflect this machine, not the modelled cluster.  Instead the runner
feeds the *actual* execution facts — chunk sizes, task locality, shuffle
bytes, retries — into this cost model to obtain deterministic simulated
seconds that respond to the same knobs the paper turns (chunk size, number
of nodes, distance-function cost).

Calibration
-----------
The default constants are least-squares fits to the eight Table III cells
(k = 11, 7-node Parapluie deployment, 10 map slots):

* a one-wave map phase whose longest task dominates — so halving the chunk
  size from 64 MB to 32 MB removes ``32 MB x map_cost`` from the iteration
  (observed: 7 s for squared Euclidean, 12 s for Haversine; the Haversine
  map is ~1.7x the squared-Euclidean map);
* ~30 s of fixed job overhead (job setup, task launch, commit) — consistent
  with Hadoop's well-known per-job latency floor;
* shuffle+reduce cost proportional to map-output volume (the paper's
  mapper emits one pair per trace, so this scales with the dataset and
  accounts for the 128 MB rows running ~3 s behind the 66 MB rows).

The separately reported "deployment overhead" of ~25 s (HDFS install,
daemon start, data upload) is :attr:`CostModel.deploy_overhead_s`, charged
once per deployment rather than per job, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.scheduler import Locality
from repro.mapreduce.types import Chunk

__all__ = ["CostModel", "JobTiming", "MB_F"]

MB_F = float(1024 * 1024)


@dataclass
class CostModel:
    """Tunable constants of the simulated-time model (seconds / per-MB)."""

    #: One-time HDFS deployment + data-upload overhead (paper: ~25 s).
    deploy_overhead_s: float = 25.0
    #: Fixed per-job overhead (driver, jobtracker setup, output commit).
    job_setup_s: float = 30.0
    #: Per-task launch overhead (JVM spawn in real Hadoop).
    task_startup_s: float = 1.0
    #: Map I/O cost per input MB (read + parse), independent of the
    #: algorithm's compute weight.
    map_io_s_per_mb: float = 0.15
    #: Map compute cost per input MB at ``map_cost_factor=1``.  The cost
    #: factor scales only this term — a Haversine assignment step costs
    #: ~3.2x a squared-Euclidean one, but both pay the same I/O, which is
    #: exactly how Table III's Haversine rows end up ~1.7x on the map part
    #: rather than 3.2x end to end.
    map_compute_s_per_mb: float = 0.07
    #: Extra read cost per MB when the chunk is rack-local / remote.
    rack_local_read_s_per_mb: float = 0.010
    remote_read_s_per_mb: float = 0.025
    #: Network transfer cost per MB of shuffled intermediate data.
    shuffle_s_per_mb: float = 0.015
    #: Reduce compute cost per MB of reduce input at ``reduce_cost_factor=1``.
    reduce_s_per_mb: float = 0.008
    #: Distributed-cache broadcast cost per MB per tasktracker wave.
    cache_broadcast_s_per_mb: float = 0.02
    #: Heartbeat-timeout window before the jobtracker declares a
    #: tasktracker dead (real Hadoop: ``mapred.tasktracker.expiry``-style
    #: lag; we charge a flat detection cost per lost node).
    node_loss_detect_s: float = 10.0
    #: Namenode re-replication cost per MB of under-replicated chunk data
    #: copied to a fresh datanode after node loss.
    rereplicate_s_per_mb: float = 0.02
    #: Cost per MB a reducer re-fetches after a failed shuffle fetch (the
    #: retry reads from a surviving replica / re-executed map's output).
    shuffle_refetch_s_per_mb: float = 0.02
    #: Local-disk write cost per MB of spilled run data (memory-budgeted
    #: runs; sequential local writes, cheaper than network shuffle).
    spill_write_s_per_mb: float = 0.008
    #: Local-disk read cost per MB merged back from spilled runs.
    spill_read_s_per_mb: float = 0.005

    def map_task_time(self, chunk: Chunk, locality: str, cost_factor: float = 1.0) -> float:
        """Duration of one map attempt over ``chunk`` read at ``locality``."""
        mb = chunk.nbytes / MB_F
        time = self.task_startup_s + mb * (
            self.map_io_s_per_mb + self.map_compute_s_per_mb * cost_factor
        )
        if locality == Locality.RACK_LOCAL:
            time += mb * self.rack_local_read_s_per_mb
        elif locality == Locality.REMOTE:
            time += mb * self.remote_read_s_per_mb
        return time

    def reduce_task_time(self, input_nbytes: int, cost_factor: float = 1.0) -> float:
        """Duration of one reduce attempt: fetch + sort/merge + reduce."""
        mb = input_nbytes / MB_F
        return (
            self.task_startup_s
            + mb * self.shuffle_s_per_mb
            + mb * self.reduce_s_per_mb * cost_factor
        )

    def cache_broadcast_time(self, cache_nbytes: int) -> float:
        return (cache_nbytes / MB_F) * self.cache_broadcast_s_per_mb

    def rereplication_time(self, nbytes: int) -> float:
        """Cost of re-replicating ``nbytes`` of chunk data after node loss."""
        return (nbytes / MB_F) * self.rereplicate_s_per_mb

    def shuffle_refetch_time(self, nbytes: int) -> float:
        """Cost of one reducer re-fetching ``nbytes`` of map output."""
        return (nbytes / MB_F) * self.shuffle_refetch_s_per_mb

    def spill_write_time(self, nbytes: int) -> float:
        """Cost of writing ``nbytes`` of spill data to local disk."""
        return (nbytes / MB_F) * self.spill_write_s_per_mb

    def spill_read_time(self, nbytes: int) -> float:
        """Cost of reading ``nbytes`` of spill data back during a merge."""
        return (nbytes / MB_F) * self.spill_read_s_per_mb


@dataclass
class JobTiming:
    """Breakdown of one job's simulated duration.

    ``spill_s`` is the simulated local-disk IO of memory-budget spills
    (run writes + merge reads).  Hadoop performs these on a background
    spill thread overlapped with map compute, so it is reported but
    **excluded** from ``total_s`` — a budgeted run finishes at the same
    simulated instant as an unbudgeted one, which is what keeps job
    histories comparable across budgets.
    """

    setup_s: float
    map_s: float
    reduce_s: float
    retry_penalty_s: float = 0.0
    spill_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.setup_s + self.map_s + self.reduce_s + self.retry_penalty_s
