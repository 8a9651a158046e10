"""The paper's MapReduced GEPETO algorithms.

Each module pairs a **sequential reference implementation** (the original
GEPETO behaviour, used as the correctness baseline in tests and benches)
with its **MapReduce adaptation** (Sections V–VII):

* :mod:`repro.algorithms.sampling` — temporal down-sampling, map-only.
* :mod:`repro.algorithms.kmeans` — one MapReduce job per k-means
  iteration, optional combiner.
* :mod:`repro.algorithms.djcluster` — DJ-Cluster: two pipelined map-only
  preprocessing jobs, an R-tree-backed neighborhood map phase and a
  single-reducer merge phase.
"""

from repro.algorithms.sampling import (
    SamplingTechnique,
    sample_trail,
    sample_dataset,
    sample_array,
    SamplingMapper,
    run_sampling_job,
)
from repro.algorithms.kmeans import (
    kmeans_sequential,
    run_kmeans_mapreduce,
    KMeansResult,
    KMeansIterationStats,
    assign_points,
    nearest_centroid,
)
from repro.algorithms.djcluster import (
    DJClusterParams,
    DJClusterResult,
    filter_moving_traces,
    remove_redundant_traces,
    preprocess_array,
    djcluster_sequential,
    run_djcluster_mapreduce,
    run_preprocessing_pipeline,
)

__all__ = [
    "SamplingTechnique",
    "sample_trail",
    "sample_dataset",
    "sample_array",
    "SamplingMapper",
    "run_sampling_job",
    "kmeans_sequential",
    "run_kmeans_mapreduce",
    "KMeansResult",
    "KMeansIterationStats",
    "assign_points",
    "nearest_centroid",
    "DJClusterParams",
    "DJClusterResult",
    "filter_moving_traces",
    "remove_redundant_traces",
    "preprocess_array",
    "djcluster_sequential",
    "run_djcluster_mapreduce",
    "run_preprocessing_pipeline",
]
