"""GEPETO — the GEoPrivacy-Enhancing TOolkit facade.

The public API a data curator uses: load or synthesize a geolocated
dataset, sanitize it, run inference attacks, measure the privacy/utility
trade-off, visualize — locally or on a simulated Hadoop deployment.

Typical session::

    from repro import Gepeto
    from repro.sanitization import GaussianMask

    gep, truth = Gepeto.synthetic(n_users=10, days=3, seed=7)
    sanitized = gep.sanitize(GaussianMask(sigma_m=120))
    pois = sanitized.poi_attack_all()
    print(sanitized.utility_versus(gep))

    cluster = gep.deploy(n_workers=5, chunk_size_mb=64)
    result = cluster.kmeans(k=11, distance="haversine")
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.algorithms.djcluster import DJClusterParams, DJClusterResult, run_djcluster_mapreduce
from repro.algorithms.kmeans import KMeansResult, run_kmeans_mapreduce
from repro.algorithms.sampling import SamplingTechnique, run_sampling_job, sample_dataset
from repro.attacks.poi import PointOfInterestEstimate, poi_attack
from repro.geo.geolife import read_geolife_dataset
from repro.geo.synthetic import SyntheticConfig, SyntheticUser, generate_dataset
from repro.geo.trace import GeolocatedDataset
from repro.index.rtree_mr import RTreeBuildResult, build_rtree_mapreduce
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.simtime import CostModel
from repro.metrics.utility import UtilityReport, utility_report
from repro.sanitization.base import Sanitizer
from repro.viz import ascii_density_map

__all__ = ["Gepeto", "GepetoCluster"]


class Gepeto:
    """A geolocated dataset plus GEPETO's operations over it."""

    def __init__(self, dataset: GeolocatedDataset):
        self.dataset = dataset

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_geolife(cls, root: str | Path, user_ids=None) -> "Gepeto":
        """Load a GeoLife-layout directory tree."""
        return cls(read_geolife_dataset(root, user_ids))

    @classmethod
    def synthetic(cls, **config) -> tuple["Gepeto", list[SyntheticUser]]:
        """Generate a synthetic GeoLife-like corpus.

        Keyword arguments are :class:`~repro.geo.synthetic.SyntheticConfig`
        fields.  Returns the toolkit plus the per-user ground truth used
        to score attacks.
        """
        dataset, users = generate_dataset(SyntheticConfig(**config))
        return cls(dataset), users

    # -- local (sequential) operations --------------------------------------
    def sample(self, window_s: float, technique: "str | SamplingTechnique" = "upper") -> "Gepeto":
        """Temporal down-sampling (Section V), sequential path."""
        return Gepeto(sample_dataset(self.dataset, window_s, technique))

    def sanitize(self, sanitizer: Sanitizer) -> "Gepeto":
        """Apply a geo-sanitization mechanism."""
        return Gepeto(sanitizer.sanitize_dataset(self.dataset))

    def poi_attack_all(
        self, params: DJClusterParams = DJClusterParams()
    ) -> dict[str, list[PointOfInterestEstimate]]:
        """Run the POI inference attack on every user."""
        return {
            user: poi_attack(trail, params)
            for user, trail in zip(self.dataset.user_ids, self.dataset.trails())
        }

    def utility_versus(self, original: "Gepeto", cell_m: float = 500.0) -> UtilityReport:
        """Utility of this (sanitized) dataset relative to ``original``."""
        return utility_report(original.dataset, self.dataset, cell_m)

    def visualize(self, width: int = 72, height: int = 24, markers=()) -> str:
        """ASCII density map of the dataset."""
        return ascii_density_map(self.dataset, width, height, markers)

    # -- distribution ---------------------------------------------------------
    def deploy(
        self,
        n_workers: int = 5,
        chunk_size_mb: int = 64,
        map_slots: int = 2,
        executor: str = "serial",
        cost_model: CostModel | None = None,
        path: str = "input/traces",
    ) -> "GepetoCluster":
        """Stand up a simulated Hadoop deployment and upload the dataset.

        Mirrors the paper's setup: the deployment overhead (~25 s of HDFS
        install + upload) is charged once and reported on the cluster.
        """
        cluster = paper_cluster(n_workers=n_workers, map_slots=map_slots)
        hdfs = SimulatedHDFS(cluster, chunk_size=chunk_size_mb * MB)
        runner = JobRunner(hdfs, cost_model=cost_model, executor=executor)
        hdfs.put_trace_array(path, self.dataset.flat())
        return GepetoCluster(runner, path)

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.dataset)


@dataclass
class GepetoCluster:
    """GEPETO operations running on a simulated Hadoop deployment."""

    runner: JobRunner
    input_path: str

    @property
    def deploy_overhead_s(self) -> float:
        """One-time HDFS deployment + upload cost (paper: ~25 s)."""
        return self.runner.deploy_overhead_s

    def sample(
        self,
        window_s: float,
        technique: "str | SamplingTechnique" = "upper",
        output_path: str | None = None,
    ):
        """MapReduce sampling job; returns the :class:`JobResult`."""
        out = output_path or f"output/sampled-{int(window_s)}s-{SamplingTechnique.parse(technique).value}"
        self.runner.hdfs.delete(out, missing_ok=True)
        return run_sampling_job(self.runner, self.input_path, out, window_s, technique)

    def kmeans(self, k: int, distance: str = "squared_euclidean", **kwargs) -> KMeansResult:
        """MapReduced k-means over the uploaded dataset."""
        return run_kmeans_mapreduce(self.runner, self.input_path, k, distance, **kwargs)

    def djcluster(
        self, params: DJClusterParams = DJClusterParams(), input_path: str | None = None, **kwargs
    ) -> DJClusterResult:
        """MapReduced DJ-Cluster over the uploaded dataset."""
        return run_djcluster_mapreduce(
            self.runner, input_path or self.input_path, params, **kwargs
        )

    def build_rtree(
        self, n_partitions: int = 4, curve: str = "hilbert", **kwargs
    ) -> RTreeBuildResult:
        """Three-phase MapReduce R-tree construction (Figure 6)."""
        return build_rtree_mapreduce(
            self.runner, self.input_path, n_partitions, curve=curve, **kwargs
        )
