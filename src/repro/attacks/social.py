"""Social-relation discovery from co-location (Section II).

One of the paper's inference-attack objectives: "discover social
relations between individuals, by considering that two individuals that
are in contact during a non-negligible amount of time share some kind of
social link (false positive may happen)".

Two individuals are *in contact* during a time window when they have
traces within ``contact_radius_m`` of each other inside the same window.
The attack accumulates contact time per pair and emits a weighted social
graph (a :class:`networkx.Graph`), keeping only pairs above a minimum
total contact duration.

The implementation buckets traces into (time window, coarse spatial
cell) pairs so candidate generation is a hash join rather than an
all-pairs distance scan, then refines candidates with exact Haversine
distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.checks import non_negative, positive
from repro.geo.distance import haversine_m
from repro.geo.grid import grid_cells, time_windows
from repro.geo.trace import GeolocatedDataset, TraceArray

__all__ = ["ColocationParams", "colocation_graph", "contact_events"]


@dataclass(frozen=True)
class ColocationParams:
    """Parameters of the co-location attack.

    ``window_s`` is the temporal resolution of "being there at the same
    time"; each co-located window contributes ``window_s`` seconds of
    contact.  ``min_contact_s`` is the "non-negligible amount of time"
    threshold below which a pair is considered coincidental.
    """

    contact_radius_m: float = 50.0
    window_s: float = 300.0
    min_contact_s: float = 1800.0

    def __post_init__(self) -> None:
        positive("contact_radius_m", self.contact_radius_m)
        positive("window_s", self.window_s)
        non_negative("min_contact_s", self.min_contact_s)


def _window_cells(array: TraceArray, params: ColocationParams) -> np.ndarray:
    """(window, cell_lat, cell_lon) bucket per trace, cell = radius-sized."""
    lat_band, lon_band = grid_cells(
        array.latitude, array.longitude, params.contact_radius_m
    )
    window = time_windows(array.timestamp, params.window_s)
    return np.stack([window, lat_band, lon_band], axis=1)


def contact_events(
    dataset: GeolocatedDataset | TraceArray,
    params: ColocationParams = ColocationParams(),
) -> dict[tuple[str, str], float]:
    """Total contact seconds per (user_a, user_b) pair, a < b.

    A pair is in contact during a window if any two of their traces in
    that window are within ``contact_radius_m`` (checked exactly with
    Haversine after a coarse cell join over the window's 3x3 cell
    neighbourhood).
    """
    array = dataset.flat() if isinstance(dataset, GeolocatedDataset) else dataset
    if len(array) == 0:
        return {}
    buckets = _window_cells(array, params)
    users = array.user_index
    # Index traces by bucket for the hash join.
    order = np.lexsort((buckets[:, 2], buckets[:, 1], buckets[:, 0]))
    sorted_buckets = buckets[order]
    bucket_index: dict[tuple[int, int, int], list[int]] = {}
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or not np.array_equal(sorted_buckets[i], sorted_buckets[start]):
            key = tuple(int(v) for v in sorted_buckets[start])
            bucket_index[key] = order[start:i].tolist()
            start = i

    lat, lon, ts = array.latitude, array.longitude, array.timestamp
    user_names = array.users
    #: (pair) -> set of windows in contact.
    contact_windows: dict[tuple[str, str], set[int]] = {}
    for (window, clat, clon), members in bucket_index.items():
        # Gather this cell plus its 8 neighbours (same window) so pairs
        # straddling a cell boundary are not missed.
        candidates: list[int] = []
        for dlat in (-1, 0, 1):
            for dlon in (-1, 0, 1):
                candidates.extend(
                    bucket_index.get((window, clat + dlat, clon + dlon), ())
                )
        if len(candidates) < 2:
            continue
        cand = np.array(sorted(set(candidates)), dtype=np.int64)
        cand_users = users[cand]
        if len(np.unique(cand_users)) < 2:
            continue
        # Exact refinement, restricted to members of the centre cell vs
        # all candidates (each pair is seen from its own cells; the set
        # union of windows dedupes).
        mem = np.array(members, dtype=np.int64)
        d = haversine_m(
            lat[mem][:, None], lon[mem][:, None], lat[cand][None, :], lon[cand][None, :]
        )
        close = np.atleast_2d(d) <= params.contact_radius_m
        mi, ci = np.nonzero(close)
        for a, b in zip(mem[mi], cand[ci]):
            ua, ub = int(users[a]), int(users[b])
            if ua == ub:
                continue
            pair = tuple(sorted((user_names[ua], user_names[ub])))
            contact_windows.setdefault(pair, set()).add(int(window))
    return {
        pair: len(windows) * params.window_s
        for pair, windows in contact_windows.items()
    }


def colocation_graph(
    dataset: GeolocatedDataset | TraceArray,
    params: ColocationParams = ColocationParams(),
) -> nx.Graph:
    """The inferred social graph: nodes are users, edge weight is total
    contact seconds; only pairs above ``min_contact_s`` survive."""
    graph = nx.Graph()
    array = dataset.flat() if isinstance(dataset, GeolocatedDataset) else dataset
    graph.add_nodes_from(array.users)
    for (a, b), seconds in contact_events(dataset, params).items():
        if seconds >= params.min_contact_s:
            graph.add_edge(a, b, contact_s=seconds)
    return graph
