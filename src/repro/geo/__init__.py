"""Mobility-trace substrate: data model, distances, GeoLife I/O, synthesis.

This subpackage provides the geolocated-data layer that GEPETO operates on:

* :mod:`repro.geo.trace` — the one trace model (Section II of the paper):
  the columnar :class:`~repro.geo.trace.TraceArray`, of which a trail is a
  one-user slice and a dataset the array in by-user order
  (:meth:`~repro.geo.trace.TraceArray.by_user`), sorted by user and time.
* :mod:`repro.geo.distance` — vectorized distance metrics (Haversine,
  squared Euclidean).
* :mod:`repro.geo.geolife` — reader/writer for the exact GeoLife PLT on-disk
  format (Figure 1 of the paper).
* :mod:`repro.geo.synthetic` — a generative model producing GeoLife-like
  datasets, used as the stand-in for the (proprietary-scale) GeoLife corpus.
"""

from repro.geo.trace import TraceArray
from repro.geo.distance import (
    haversine_km,
    haversine_m,
    squared_euclidean,
    get_metric,
    EARTH_RADIUS_KM,
)
from repro.geo.geolife import (
    read_plt,
    write_plt,
    read_geolife_dataset,
    write_geolife_dataset,
    GEOLIFE_EPOCH,
)
from repro.geo.synthetic import (
    SyntheticConfig,
    SyntheticUser,
    generate_user,
    generate_dataset,
)
from repro.geo.trajectory import Stay, Trip, segment_trail
from repro.geo.stats import (
    UserStats,
    corpus_summary,
    radius_of_gyration_m,
    sampling_interval_stats,
    user_stats,
)

__all__ = [
    "TraceArray",
    "haversine_km",
    "haversine_m",
    "squared_euclidean",
    "get_metric",
    "EARTH_RADIUS_KM",
    "read_plt",
    "write_plt",
    "read_geolife_dataset",
    "write_geolife_dataset",
    "GEOLIFE_EPOCH",
    "SyntheticConfig",
    "SyntheticUser",
    "generate_user",
    "generate_dataset",
    "Stay",
    "Trip",
    "segment_trail",
    "UserStats",
    "corpus_summary",
    "radius_of_gyration_m",
    "sampling_interval_stats",
    "user_stats",
]
