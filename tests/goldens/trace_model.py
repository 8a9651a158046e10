"""``golden_trace_model.json``: what a dataset in by-user order holds.

For each dataset below: its ``users`` (recorded as ``user_ids``), its
``signature()`` (recorded as ``flat``), its trace count and a SHA-256 of
each trail's latitude, longitude, timestamp and altitude columns.  The
datasets are a seeded synthetic corpus, the ``by_user()`` of both sides
of a linkage corpus, a down-sample of the first, every sanitizer's
``sanitize_dataset`` output (anonymous pseudonyms and two mix zones
included), cloaking then pseudonymizing, and a GeoLife write/read round
trip with two ``.plt`` files for one user.  Recorded while a dataset was
still a type of its own, so the layout can never change what a dataset
holds.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms.sampling import sample_dataset
from repro.attacks.linkage_mr import synthetic_linkage_corpus
from repro.geo.geolife import read_geolife_dataset, write_plt
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.sanitization import (
    DonutMask,
    GaussianMask,
    MixZone,
    MixZoneSanitizer,
    PlanarLaplaceMask,
    Pseudonymizer,
    RoundingMask,
    SpatialAggregator,
    SpatialCloaking,
    TemporalAggregator,
    UniformNoiseMask,
)
from tests.goldens import dump, sha256

SYNTHETIC = SyntheticConfig(n_users=6, days=1, seed=42)


def describe(dataset: TraceArray) -> dict:
    return {
        "user_ids": list(dataset.users),
        "traces": len(dataset),
        "flat": dataset.signature(),
        "trails": {
            user: sha256(trail.latitude, trail.longitude, trail.timestamp, trail.altitude)
            for user, trail in zip(dataset.users, dataset.trails())
        },
    }


def mix_zones(dataset: TraceArray) -> list[MixZone]:
    """Two zones on rows of the first trail that the trail leaves again,
    so its segments take fresh pseudonyms."""
    first = dataset.trail(dataset.users[0])
    rows = (len(first) // 3, 2 * len(first) // 3)
    return [MixZone(float(first.latitude[i]), float(first.longitude[i]), 300.0) for i in rows]


def geolife_round_trip() -> TraceArray:
    """Three ``.plt`` files, two of them one user's with a tied timestamp."""
    def trail(user: str, start: float, n: int, lat0: float) -> TraceArray:
        ts = start + 5.0 * np.arange(n)
        lat = lat0 + 1e-4 * np.arange(n)
        lon = 116.3 + 1e-4 * np.arange(n)
        return TraceArray.from_columns([user], lat, lon, ts, np.full(n, 150.0))

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_plt(trail("007", 1.2e9, 12, 39.9), root / "007" / "Trajectory" / "a.plt")
        write_plt(trail("007", 1.2e9 + 30.0, 9, 39.8), root / "007" / "Trajectory" / "b.plt")
        write_plt(trail("003", 1.2e9, 7, 40.0), root / "003" / "Trajectory" / "a.plt")
        return read_geolife_dataset(root)


def build() -> str:
    synthetic, _ = generate_dataset(SYNTHETIC)
    training, target, _ = synthetic_linkage_corpus(12, seed=3)
    cloaked = SpatialCloaking(k=2).sanitize_dataset(synthetic)
    sanitizers = {
        "gaussian": GaussianMask(sigma_m=50.0, seed=1),
        "uniform": UniformNoiseMask(radius_m=80.0, seed=2),
        "planar_laplace": PlanarLaplaceMask(epsilon=0.01, seed=3),
        "donut": DonutMask(r_min=20.0, r_max=90.0, seed=4),
        "rounding": RoundingMask(cell_m=500.0),
        "spatial_aggregator": SpatialAggregator(cell_m=400.0),
        "temporal_aggregator": TemporalAggregator(window_s=600.0),
        "pseudonymizer": Pseudonymizer(seed=5),
        "anonymous": Pseudonymizer(anonymous=True),
        "mixzones": MixZoneSanitizer(mix_zones(synthetic), seed=6),
        "cloaking": SpatialCloaking(k=2),
    }
    doc = {
        "synthetic": describe(synthetic),
        "linkage_training": describe(training.by_user()),
        "linkage_target": describe(target.by_user()),
        "sampled": describe(sample_dataset(synthetic, 300.0)),
        "sanitized": {
            name: describe(sanitizer.sanitize_dataset(synthetic))
            for name, sanitizer in sanitizers.items()
        },
        "cloaked_then_pseudonymized": describe(Pseudonymizer(seed=5).sanitize_dataset(cloaked)),
        "geolife_round_trip": describe(geolife_round_trip()),
    }
    return dump(doc)
