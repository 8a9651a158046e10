"""The synthetic corpora the benchmarks and their goldens run on.

Three generators, all O(n) NumPy and seeded: :func:`synthetic_corpus`
(Gaussian blobs in the Beijing box), its streamed twin
:func:`synthetic_corpus_blocks`, and :func:`synthetic_stream_corpus`
(stationary users hopping between two anchors, cut for streaming).
``benchmarks/e2e/workloads.py`` measures wall-clock and peak RSS on
them; the deterministic suites whose documents are the committed
``BENCH_*.json`` goldens live with the other goldens under
``tests/goldens/``.
"""

from __future__ import annotations

import numpy as np

from repro.geo.trace import TraceArray

__all__ = ["synthetic_corpus", "synthetic_corpus_blocks", "synthetic_stream_corpus"]


def _blob_centers(rng: np.random.Generator, n_clusters: int) -> np.ndarray:
    return np.column_stack(
        (rng.uniform(39.6, 40.3, n_clusters), rng.uniform(116.0, 116.8, n_clusters))
    )


def synthetic_corpus(
    n_traces: int,
    seed: int = 0,
    n_clusters: int = 8,
    timestamp_step: float = 1.0,
) -> TraceArray:
    """A clustered corpus of ``n_traces`` synthetic mobility traces.

    Gaussian blobs around ``n_clusters`` centers in the Beijing bounding
    box — structured enough that k-means does real work, generated in
    O(n) NumPy time so corpus construction never dominates the benchmark.
    ``timestamp_step`` spaces consecutive timestamps: at the default 1 s
    the blob-hopping points read as fast movement, while a large step
    makes every trace stationary by DJ-Cluster's speed-filter definition.
    """
    rng = np.random.default_rng(seed)
    centers = _blob_centers(rng, n_clusters)
    which = rng.integers(0, n_clusters, n_traces)
    lat = centers[which, 0] + rng.normal(0.0, 0.03, n_traces)
    lon = centers[which, 1] + rng.normal(0.0, 0.03, n_traces)
    timestamp = np.arange(n_traces, dtype=np.float64) * timestamp_step
    return TraceArray.from_columns(["bench"], lat, lon, timestamp)


def synthetic_corpus_blocks(
    n_traces: int,
    seed: int = 0,
    n_clusters: int = 8,
    block: int = 100_000,
    timestamp_step: float = 1.0,
):
    """The blob corpus as a stream of ``block``-trace pieces.

    The out-of-core twin of :func:`synthetic_corpus`: pieces feed
    ``SimulatedHDFS.put_trace_stream`` so no more than one block plus
    one chunk is ever resident during ingestion.  The draw order differs
    from the one-shot generator, so the two corpora are statistically —
    not byte — identical; a benchmark always pairs cells from the same
    generator.
    """
    rng = np.random.default_rng(seed)
    centers = _blob_centers(rng, n_clusters)
    for start in range(0, n_traces, block):
        n = min(block, n_traces - start)
        which = rng.integers(0, n_clusters, n)
        lat = centers[which, 0] + rng.normal(0.0, 0.03, n)
        lon = centers[which, 1] + rng.normal(0.0, 0.03, n)
        timestamp = np.arange(start, start + n, dtype=np.float64) * timestamp_step
        yield TraceArray.from_columns(["bench"], lat, lon, timestamp)


def synthetic_stream_corpus(
    n_points: int,
    n_users: int = 50,
    n_windows: int = 10,
    window_s: float = 3600.0,
    seed: int = 0,
    n_clusters: int = 8,
) -> TraceArray:
    """A stationary multi-user corpus cut for streaming benchmarks.

    Every user dwells at two fixed anchors — a "home" and a "work"
    offset from the shared blob centers — and hops between them on a
    slow square wave (period 1.5 windows).  Two properties follow by
    construction.  First, consecutive *sampled* points at an anchor are
    tens of meters apart over hundreds of seconds, i.e. stationary by
    DJ-Cluster's speed-filter definition, so the windowed POI extraction
    has real clusters to find.  Second, the blob structure is identical
    from window to window, so k-means warm-started from the previous
    window's centroids converges in strictly fewer iterations than a
    cold start — the incremental-analysis speedup the streaming layer
    claims, made measurable.
    """
    if n_users < 1 or n_windows < 1:
        raise ValueError("n_users and n_windows must be positive")
    rng = np.random.default_rng(seed)
    centers = _blob_centers(rng, n_clusters)
    home = centers[np.arange(n_users) % n_clusters] + rng.normal(
        0.0, 0.004, (n_users, 2)
    )
    work = centers[(np.arange(n_users) + 3) % n_clusters] + rng.normal(
        0.0, 0.004, (n_users, 2)
    )
    per_user = max(1, n_points // n_users)
    n = per_user * n_users
    ui = np.repeat(np.arange(n_users), per_user)
    idx = np.tile(np.arange(per_user), n_users)
    span = n_windows * window_s
    # Evenly spaced emissions with a per-user phase so no two feeds
    # share a timestamp; max(ts) < span keeps exactly n_windows windows.
    ts = (idx + ui / n_users) * (span / per_user)
    period = 1.5 * window_s
    at_work = ((ts // period).astype(np.int64) + ui) % 2 == 1
    anchor = np.where(at_work[:, None], work[ui], home[ui])
    lat = anchor[:, 0] + rng.normal(0.0, 3e-4, n)
    lon = anchor[:, 1] + rng.normal(0.0, 3e-4, n)
    users = np.array([f"u{i:04d}" for i in range(n_users)])
    return TraceArray.from_columns(users[ui], lat, lon, ts, np.zeros(n))
