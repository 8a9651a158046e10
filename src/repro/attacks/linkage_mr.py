"""MapReduce-parallel de-anonymization: the linking attack at scale.

The serial :func:`repro.attacks.deanonymization.deanonymization_attack`
scores every pseudonym against every training identity — an
O(targets × trainings) loop that caps the paper's central question
("does pseudonymization survive a motivated adversary?") at a few
thousand users.  This module runs the same attack as first-class
MapReduce jobs:

* **fingerprint jobs** (one per side) — mappers slice each chunk's rows
  per user and ship raw *trail fragments*; reducers stitch each user's
  fragments in file order and fingerprint a block of users per
  :func:`~repro.attacks.deanonymization.fingerprint_users` call
  (DJ-Cluster POIs + MMC; the serial attack's ``fingerprint_user`` is
  its one-user call).  Shipping raw rows matters: preprocessing is not
  idempotent (the speed filter and dedup compare original neighbours),
  so fingerprinting anything but the original per-user rows would break
  bit-equality with the serial reference.
* **linkage job** (``linkage-score``) — the driver reads both
  fingerprint files into one :class:`FingerprintTable` and broadcasts it
  through the distributed cache.  The table gives every fingerprint an
  ordinal and its sorted *candidate-blocking cells*: a geographic grid
  of width ``2 × max_match_dist_m``, a target fingerprint in the cells
  containing its POIs, a training fingerprint in every cell of a
  conservatively-rounded ``max_match_dist_m`` box around each POI.
  Mappers emit ``(cell, ordinal)``, each cell folded into one ``int64``,
  so the blocking shuffle moves ints on its vectorized path and never a
  chain (Meta-MapReduce, arXiv:1508.01171: ship who meets whom, not the
  data).  Two fingerprints that share no cell cannot have a POI pair
  within ``max_match_dist_m``, hence (post tie-break fix) cannot link —
  so reducers score only plausible pairs instead of the full cross
  product.  A reduce task prices the POI distances of all the pairs it
  owns in one Haversine call, then scores each pair as
  :func:`~repro.attacks.mmc.mmc_link_score` does, and emits each
  cell's per-pseudonym best link; the driver folds reducer outputs with
  the same deterministic ``min((score, user_id))`` the serial attack
  uses.

A pair sharing several cells is scored exactly once: only the smallest
cell both share (its "owner") scores it; the fold keeps the cells'
``(band, j)`` order.

**Exactness audit.** The training POI table is also published through the
shared persistent R-tree :class:`~repro.index.persistent.IndexCatalog`;
target mappers radius-query the portable index to count, independently
of the grid, the exact number of (pseudonym × training) pairs with any
POI pair within ``max_match_dist_m``.  Because a pair is scored iff it
has such a POI pair (see :func:`~repro.attacks.mmc.mmc_link_score`),
``candidate_pairs_scored == candidate_pairs_exact`` proves the blocking
grid dropped nothing; the bench and the property suite gate on it.

Input contract: each side is a trace-array file whose per-user row order
equals the trail's time order (any time-sorted layout qualifies —
user-major files and globally time-sorted flats both do).

``runner`` is anything runner-shaped: a
:class:`~repro.mapreduce.runner.JobRunner` or a
:class:`~repro.mapreduce.service.TenantClient` (the sweep harness runs
one attack per tenant through a shared service).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks.deanonymization import DeanonymizationResult, fingerprint_users
from repro.attacks.mmc import MobilityMarkovChain, _greedy_match, _pair_score
from repro.checks import count, finite_column, non_negative, positive
from repro.geo.distance import haversine_m
from repro.geo.grid import ragged_arange, unique_rows
from repro.geo.trace import _TRACE_DTYPE, GeolocatedDataset, TraceArray, digest
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.types import ArrayPayload, Chunk, concrete_payload
from repro.observability.events import EventKind

__all__ = [
    "LinkageAttackResult",
    "run_linkage_attack",
    "run_attack_selfcheck",
    "linkage_signature",
    "split_linkage_corpus",
    "synthetic_linkage_corpus",
    "blocking_cells",
    "cover_cells",
    "TrailFragmentMapper",
    "FingerprintReducer",
    "BlockingMapper",
    "LinkageScoreReducer",
    "PARAMS_CACHE_KEY",
    "INDEX_CACHE_KEY",
    "GROUP_LINKAGE",
    "COUNTER_PAIRS_SCORED",
    "COUNTER_PAIRS_EXACT",
]

#: Distributed-cache key for (params, max_pois, attach_radius_m).
PARAMS_CACHE_KEY = "linkage.params"
#: Distributed-cache key for (portable POI index, per-row owner users).
INDEX_CACHE_KEY = "linkage.train_poi_index"
#: Distributed-cache key for the :class:`FingerprintTable`.
TABLE_CACHE_KEY = "linkage.fingerprints"

GROUP_LINKAGE = "linkage"
#: Pairs actually scored by reducers (owner-cell deduplicated).
COUNTER_PAIRS_SCORED = "candidate_pairs_scored"
#: Pairs with spatial evidence per the persistent-index ground truth.
COUNTER_PAIRS_EXACT = "candidate_pairs_exact"

# Conservative metres per degree of latitude: a deliberate UNDERestimate
# (true value ≈ 110,574 m), so degree spans derived from it OVERestimate
# — cells can only get extra members, never lose one.
_M_PER_DEG = 110_000.0
#: Radius the repo's haversine uses, in metres (EARTH_RADIUS_KM * 1000).
_R_M = 6_371_008.8
#: Beyond this latitude everything shares one per-hemisphere cell; the
#: band geometry degenerates near the poles and mobility data there is
#: noise anyway.
_POLAR_LAT = 85.0
#: Above every other band: the grid's bands and columns stay below it in
#: magnitude (:func:`_floor`), so a cell folds into one int64 (:func:`_fold`).
_POLAR_BAND = (1 << 31) - 1

#: Rows a fingerprint reducer gathers (whole users, so up to one user
#: more) per segmented pass: bounds the pass's transient arrays.
_BLOCK_ROWS = 1 << 15


# ---------------------------------------------------------------------------
# Candidate-blocking geometry
# ---------------------------------------------------------------------------

def _lat_width_deg(max_match_dist_m: float) -> float:
    return 2.0 * max_match_dist_m / _M_PER_DEG


def _lon_width_deg(band: int, w_lat: float, max_match_dist_m: float) -> float:
    cos_c = max(math.cos(math.radians((band + 0.5) * w_lat)), 1e-9)
    return 2.0 * max_match_dist_m / (_M_PER_DEG * cos_c)


def _points(lat, lon) -> tuple[np.ndarray, np.ndarray]:
    lat = finite_column(lat, "coordinates")
    lon = finite_column(lon, "coordinates")
    if lat.ndim != 1 or lat.shape != lon.shape:
        raise ValueError("lat and lon must be 1-D arrays of one length")
    return lat, lon


def _floor(values: np.ndarray) -> np.ndarray:
    """``math.floor`` of every value, as ``int64`` below ``_POLAR_BAND``
    in magnitude."""
    floors = np.floor(values)
    if len(floors) and float(np.abs(floors).max()) >= _POLAR_BAND:
        raise ValueError("max_match_dist_m is too small for an int64 blocking grid")
    return floors.astype(np.int64)


def _fold(band: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Cells ``(band, j)`` as one ``int64`` each, ``band * 2**32 + j + 2**31``:
    injective, and ascending in ``(band, j)`` order, over every cell the
    grid makes (``|band|, |j| <= _POLAR_BAND``)."""
    band = np.asarray(band, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if len(band) and max(int(np.abs(band).max()), int(np.abs(j).max())) > _POLAR_BAND:
        raise ValueError(f"blocking cells must lie within ±{_POLAR_BAND} to fold into int64")
    return (band << 32) + (j + (1 << 31))


def _lon_widths(band: np.ndarray, w_lat: float, max_match_dist_m: float) -> np.ndarray:
    """:func:`_lon_width_deg` of every band, computed once per distinct
    band.  The trigonometry of the blocking grid goes through ``math``,
    so a cell does not depend on which NumPy build computed it."""
    distinct, inverse = np.unique(band, return_inverse=True)
    widths = [_lon_width_deg(b, w_lat, max_match_dist_m) for b in distinct.tolist()]
    return np.array(widths, dtype=np.float64)[inverse.reshape(-1)]


def blocking_cells(lat, lon, max_match_dist_m: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid cell containing each POI: ``(band, j)`` as ``int64`` arrays.

    Beyond ±``_POLAR_LAT`` a hemisphere's points share the one cell
    ``(_POLAR_BAND, ±1)``.
    """
    d = positive("max_match_dist_m", max_match_dist_m)
    lat, lon = _points(lat, lon)
    w_lat = _lat_width_deg(d)
    polar = np.abs(lat) > _POLAR_LAT
    band = np.full(len(lat), _POLAR_BAND, dtype=np.int64)
    j = np.where(lat > 0, 1, -1).astype(np.int64)
    band[~polar] = _floor(lat[~polar] / w_lat)
    j[~polar] = _floor(lon[~polar] / _lon_widths(band[~polar], w_lat, d))
    return band, j


def cover_cells(lat, lon, max_match_dist_m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell that could contain a point within ``max_match_dist_m``
    of each POI, as ``(point, band, j)`` rows (a cell may repeat for one
    point).

    The cover is conservative (it may include cells no reachable point
    maps to) but never lossy: for any point ``p`` with
    ``haversine(p, q) <= max_match_dist_m``, ``p``'s blocking cell is
    among ``q``'s cover cells.  The latitude span uses the exact
    haversine bound ``Δφ ≤ d/R``; the longitude span uses
    ``sin(Δλ/2) ≤ sin(d/2R)/cos(φ_edge)`` with the cosine taken at the
    most poleward latitude the box reaches.  Boxes crossing the
    antimeridian also cover their wrapped image.
    """
    d = positive("max_match_dist_m", max_match_dist_m)
    lat, lon = _points(lat, lon)
    dlat = math.degrees(d / _R_M)
    # Haversine rounds: a point a few ulps outside the exact box can still
    # measure <= d (and sit across a band edge, e.g. just below 0°).
    dlat = dlat + 4.0 * np.spacing(np.abs(lat) + dlat)
    lat_lo, lat_hi = lat - dlat, lat + dlat
    north = np.flatnonzero(lat_hi > _POLAR_LAT)
    south = np.flatnonzero(lat_lo < -_POLAR_LAT)
    lo = np.maximum(lat_lo, -_POLAR_LAT)
    hi = np.minimum(lat_hi, _POLAR_LAT)
    live = np.flatnonzero(lo <= hi)
    edge = np.minimum(np.maximum(np.abs(lat_lo[live]), np.abs(lat_hi[live])), 89.9)
    sin_d = math.sin(d / (2.0 * _R_M))
    dlon = np.array([
        math.degrees(2.0 * math.asin(min(1.0, sin_d / max(math.cos(math.radians(e)), 1e-9))))
        for e in edge.tolist()
    ], dtype=np.float64)
    west, east = lon[live] - dlon, lon[live] + dlon
    # One row per (live point q, band) pair; then the row's longitude
    # spans: the box's own, and its images across the antimeridian.
    w_lat = _lat_width_deg(d)
    first = _floor(lo[live] / w_lat)
    q, k = ragged_arange(_floor(hi[live] / w_lat) - first + 1)
    band = first[q] + k
    west, east = west[q], east[q]
    wraps_west, wraps_east = west < -180.0, east > 180.0
    n_west, n_east = int(wraps_west.sum()), int(wraps_east.sum())
    row = np.concatenate(
        (np.arange(len(q)), np.flatnonzero(wraps_west), np.flatnonzero(wraps_east))
    )
    span_lo = np.concatenate((west, west[wraps_west] + 360.0, np.full(n_east, -180.0)))
    span_hi = np.concatenate((east, np.full(n_west, 180.0), east[wraps_east] - 360.0))
    w_lon = _lon_widths(band, w_lat, d)[row]
    j_first = _floor(span_lo / w_lon)
    span, k = ragged_arange(_floor(span_hi / w_lon) - j_first + 1)
    j = j_first[span] + k
    poles = len(north) + len(south)
    return (
        np.concatenate((live[q[row[span]]], north, south)),
        np.concatenate((band[row[span]], np.full(poles, _POLAR_BAND, dtype=np.int64))),
        np.concatenate(
            (j, np.ones(len(north), dtype=np.int64), np.full(len(south), -1, dtype=np.int64))
        ),
    )


# ---------------------------------------------------------------------------
# Stage 1 — fingerprint jobs
# ---------------------------------------------------------------------------

class TrailFragmentMapper(Mapper):
    """Ship each chunk's rows as per-user raw trail fragments.

    One stable argsort per chunk; within a user the original row order is
    preserved (stable sort), so reducers can reconstruct the exact trail
    by concatenating fragments in chunk-offset order.
    """

    def run(self, chunk: Chunk, ctx) -> None:
        payload = concrete_payload(chunk.payload)
        if not isinstance(payload, ArrayPayload):
            raise TypeError("fingerprint jobs read trace-array files")
        array = payload.array
        if len(array) == 0:
            return
        users = array.user_index
        order = np.argsort(users, kind="stable")
        sorted_users = users[order]
        boundaries = np.nonzero(
            np.concatenate(([True], sorted_users[1:] != sorted_users[:-1]))
        )[0]
        ends = np.concatenate((boundaries[1:], [len(order)]))
        for start, end in zip(boundaries.tolist(), ends.tolist()):
            rows = order[start:end]
            lat = array.latitude[rows]
            ctx.emit(
                array.users[int(sorted_users[start])],
                (
                    int(payload.offset),
                    lat,
                    array.longitude[rows],
                    array.timestamp[rows],
                ),
                nbytes=int(lat.nbytes * 3 + 8),
                n_records=int(len(rows)),
            )


class FingerprintReducer(Reducer):
    """Stitch users' fragments (each user's in chunk-offset order) and
    fingerprint them :data:`_BLOCK_ROWS` rows per ``fingerprint_users``
    call: a task's Python cost follows its block count, not its users."""

    def setup(self, ctx) -> None:
        self._params, self._max_pois, self._attach_radius_m = ctx.cache.get(
            PARAMS_CACHE_KEY
        )
        self._role = ctx.conf.get_str("linkage.role")

    def run(self, groups, ctx) -> None:
        keys: list = []
        rows: list[int] = []
        fragments: list[tuple] = []
        pending = 0
        for key, values in groups:
            mine = sorted(values, key=lambda fragment: fragment[0])
            keys.append(key)
            rows.append(sum(len(fragment[1]) for fragment in mine))
            fragments += mine
            pending += rows[-1]
            if pending >= _BLOCK_ROWS:
                self._fingerprint(keys, rows, fragments, ctx)
                keys, rows, fragments, pending = [], [], [], 0
        if keys:
            self._fingerprint(keys, rows, fragments, ctx)

    def _fingerprint(self, keys, rows, fragments, ctx) -> None:
        data = np.empty(sum(rows), dtype=_TRACE_DTYPE)
        data["user_idx"] = np.repeat(np.arange(len(keys), dtype=np.int32), rows)
        for column, field in enumerate(("latitude", "longitude", "timestamp"), start=1):
            data[field] = np.concatenate([fragment[column] for fragment in fragments])
        data["altitude"] = -777.0
        prints = fingerprint_users(
            TraceArray(data, [str(key) for key in keys]),
            self._params,
            self._max_pois,
            self._attach_radius_m,
        )
        for user, key in enumerate(keys):
            fp = prints.get(user)
            nbytes = 16
            if fp is not None:
                nbytes = int(fp.states.nbytes + fp.transitions.nbytes + fp.visit_counts.nbytes + 32)
            # None fingerprints ride along: the driver needs the full target
            # roster to report unlinkable pseudonyms, exactly like the serial
            # attack does.
            ctx.emit(key, (self._role, fp), nbytes=nbytes)


# ---------------------------------------------------------------------------
# Stage 2 — blocking shuffle + scoring reduce
# ---------------------------------------------------------------------------

@dataclass
class FingerprintTable:
    """Both sides' fingerprints, indexed by ordinal: stage 2's broadcast.

    Ordinals ``0 .. n_train - 1`` are the training fingerprints in their
    stage-1 file's order, the rest the targets' in theirs.  Fingerprint
    ``o`` is ``chains[o]``; its POIs are also rows
    ``state_offsets[o]:state_offsets[o + 1]`` of ``states`` (every
    chain's states end to end), and its distinct blocking cells, folded
    (:func:`_fold`) and ascending, are
    ``cells[cell_offsets[o]:cell_offsets[o + 1]]``: a target's are the
    cells holding its POIs, a training fingerprint's their covers.
    """

    users: list[str]
    n_train: int
    chains: list[MobilityMarkovChain]
    states: np.ndarray
    state_offsets: np.ndarray
    cells: np.ndarray
    cell_offsets: np.ndarray

    @property
    def nbytes(self) -> int:
        """The broadcast's modelled size, from array lengths: each chain's
        arrays once, the cells, the offsets and the user ids."""
        return (
            sum(c.states.nbytes + c.transitions.nbytes + c.visit_counts.nbytes for c in self.chains)
            + self.state_offsets.nbytes + self.cells.nbytes + self.cell_offsets.nbytes
            + sum(len(user.encode()) for user in self.users)
        )

    @functools.cached_property
    def ordinal(self) -> dict[tuple[str, str], int]:
        """``(role, user) -> ordinal``, roles as stage 1 writes them."""
        return {
            ("train" if o < self.n_train else "target", user): o
            for o, user in enumerate(self.users)
        }


def _fingerprint_table(train: list, target: list, max_match_dist_m: float) -> FingerprintTable:
    """The table of ``train`` and ``target`` ``(user, fingerprint)`` lists:
    one :func:`cover_cells` call over every training POI, one
    :func:`blocking_cells` call over every target POI."""
    chains = [fp for _, fp in train + target]
    k = np.array([fp.n_states for fp in chains], dtype=np.int64)
    state_offsets = np.concatenate(([0], np.cumsum(k)))
    states = np.concatenate([fp.states for fp in chains])
    owner = np.repeat(np.arange(len(chains)), k)
    split = int(state_offsets[len(train)])
    at, cover_band, cover_j = cover_cells(states[:split, 0], states[:split, 1], max_match_dist_m)
    own_band, own_j = blocking_cells(states[split:, 0], states[split:, 1], max_match_dist_m)
    cell_owner, cells = unique_rows(
        np.concatenate((owner[:split][at], owner[split:])),
        _fold(np.concatenate((cover_band, own_band)), np.concatenate((cover_j, own_j))),
    )
    return FingerprintTable(
        users=[user for user, _ in train + target],
        n_train=len(train),
        chains=chains,
        states=states,
        state_offsets=state_offsets,
        cells=cells,
        cell_offsets=np.searchsorted(cell_owner, np.arange(len(chains) + 1)),
    )


class BlockingMapper(Mapper):
    """Send each fingerprint's ordinal to each of its blocking cells.

    Emits ``(folded cell, ordinal)`` int pairs read off the fingerprint
    table, so the blocking shuffle moves 16 bytes a record and no chain.
    For the exactness audit, target POIs are also batch-queried against
    the portable R-tree over the training POI table to count exact
    candidate pairs.
    """

    def setup(self, ctx) -> None:
        self._d = ctx.conf.get_float("linkage.max_match_dist_m")
        self._index, self._owners = ctx.cache.get(INDEX_CACHE_KEY)
        self._table = ctx.cache.get(TABLE_CACHE_KEY)

    def run(self, chunk: Chunk, ctx) -> None:
        table = self._table
        prints = np.array(
            [
                table.ordinal[role, str(user)]
                for user, (role, fp) in chunk.records()
                if fp is not None
            ],
            dtype=np.int64,
        )
        first = table.cell_offsets[prints]
        owner, k = ragged_arange(table.cell_offsets[prints + 1] - first)
        for cell, ordinal in zip(table.cells[first[owner] + k].tolist(), prints[owner].tolist()):
            ctx.emit(cell, ordinal, nbytes=16)
        targets = prints[prints >= table.n_train]
        if not len(targets):
            return
        # The audit: distinct (target, training owner) pairs with a POI
        # pair within the match distance.
        first = table.state_offsets[targets]
        poi, k = ragged_arange(table.state_offsets[targets + 1] - first)
        hits = self._index.query_radius_batch(table.states[first[poi] + k], self._d)
        target = np.repeat(targets[poi], [len(hit) for hit in hits])
        pairs = len(set(zip(target.tolist(), self._owners[np.concatenate(hits)].tolist())))
        if pairs:
            ctx.counters.increment(GROUP_LINKAGE, COUNTER_PAIRS_EXACT, pairs)


def _owned_pairs(table: FingerprintTable, groups) -> list[tuple[int, int, int]]:
    """``(cell, target, training)`` ordinals of every pair a task's cell
    groups own: the pair's smallest shared cell is the group's, so a
    pair sharing several cells is scored once."""
    offsets, cells = table.cell_offsets, table.cells
    listed: dict[int, list[int]] = {}
    as_set: dict[int, frozenset[int]] = {}
    owned = []
    for key, ordinals in groups:
        targets = [o for o in ordinals if o >= table.n_train]
        if not targets:
            continue
        trains = [o for o in ordinals if o < table.n_train]
        for target in targets:
            if target not in listed:
                listed[target] = cells[offsets[target] : offsets[target + 1]].tolist()
            # Both sides hold ``key``, so ``key`` owns the pair iff none
            # of the target's cells below it (a prefix of its sorted
            # list) is also the training fingerprint's.
            smaller = listed[target][: bisect_left(listed[target], key)]
            for train in trains:
                if smaller:
                    if train not in as_set:
                        mine = cells[offsets[train] : offsets[train + 1]]
                        as_set[train] = frozenset(mine.tolist())
                    if not as_set[train].isdisjoint(smaller):
                        continue
                owned.append((key, target, train))
    return owned


def _pair_distances(
    states: np.ndarray, offsets: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Haversine metres from every state of fingerprint ``a[n]`` to every
    state of ``b[n]``, all pairs in one call: pair ``n``'s row-major
    ``(k_a, k_b)`` matrix is ``dists[starts[n]:starts[n + 1]]``.

    Every element comes out bit for bit as ``_match_states``'s per-pair
    broadcast computes it: the Haversine is elementwise, and its NumPy
    ufuncs give an element the same bits wherever it sits in an array
    (``tests/attacks/test_pair_distances.py`` gates this).
    """
    k_a = offsets[a + 1] - offsets[a]
    k_b = offsets[b + 1] - offsets[b]
    pair, flat = ragged_arange(k_a * k_b)
    i, j = np.divmod(flat, k_b[pair])
    rows_a = offsets[a][pair] + i
    rows_b = offsets[b][pair] + j
    dists = haversine_m(states[rows_a, 0], states[rows_a, 1], states[rows_b, 0], states[rows_b, 1])
    return dists, np.concatenate(([0], np.cumsum(k_a * k_b)))


class LinkageScoreReducer(Reducer):
    """Score each pair a task's cells own once; emit per-pseudonym cell bests.

    A pair may co-occur in several cells; only its *owner* cell — the
    smallest cell both sides share — scores it, so the scored-pairs
    counter is an exact pair count and no work is duplicated.  One
    Haversine call prices every owned pair's POI distances; the greedy
    match and the score are :func:`~repro.attacks.mmc.mmc_link_score`'s.
    """

    def setup(self, ctx) -> None:
        self._d = ctx.conf.get_float("linkage.max_match_dist_m")
        self._table = ctx.cache.get(TABLE_CACHE_KEY)

    def run(self, groups, ctx) -> None:
        table = self._table
        owned = _owned_pairs(table, groups)
        if not owned:
            return
        _, targets, trains = (np.array(column, dtype=np.int64) for column in zip(*owned))
        dists, starts = _pair_distances(table.states, table.state_offsets, targets, trains)
        best: dict[tuple[int, int], tuple[float, str]] = {}
        scored = 0
        for (key, target, train), lo, hi in zip(owned, starts.tolist(), starts[1:].tolist()):
            width = table.chains[train].n_states
            matched = _greedy_match(dists[lo:hi].reshape(-1, width), self._d)
            if not matched:
                continue
            score = _pair_score(table.chains[target], table.chains[train], matched, 1.0)
            scored += 1
            cand = (score, table.users[train])
            if (key, target) not in best or cand < best[key, target]:
                best[key, target] = cand
        for (_key, target), cand in best.items():
            ctx.emit(table.users[target], cand, nbytes=24)
        if scored:
            ctx.counters.increment(GROUP_LINKAGE, COUNTER_PAIRS_SCORED, scored)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def linkage_signature(result: DeanonymizationResult) -> str:
    """Canonical byte fingerprint of a linkage outcome.

    Order-insensitive over pseudonyms (sorted), exact over scores
    (``float.hex``) — equal signatures mean byte-identical attacks.
    """
    rows = []
    for pseud in sorted(result.linkage):
        link = result.linkage[pseud]
        score = result.scores.get(pseud)
        rows.append(
            f"{pseud}\t{link if link is not None else '-'}\t"
            f"{score.hex() if score is not None else '-'}\n".encode()
        )
    return digest(*rows)


@dataclass
class LinkageAttackResult:
    """Outcome and audit trail of one MapReduce linkage attack."""

    result: DeanonymizationResult
    n_train_fingerprints: int
    n_target_fingerprints: int
    #: pairs scored by the blocking reduce (owner-cell deduplicated).
    pairs_scored: int
    #: exact candidate pairs per the persistent index (None = a side had
    #: no fingerprints, so nothing was scored or audited).
    pairs_exact: "int | None"
    #: what the serial attack would have scored.
    cross_product: int
    sim_seconds: float

    @property
    def blocking_exact(self) -> "bool | None":
        """Did the grid provably score every pair with spatial evidence?"""
        if self.pairs_exact is None:
            return None
        return self.pairs_scored == self.pairs_exact

    def signature(self) -> str:
        return linkage_signature(self.result)


def run_linkage_attack(
    runner,
    training_path: str,
    target_path: str,
    ground_truth: "dict[str, str] | None" = None,
    params: DJClusterParams = DJClusterParams(),
    max_pois: int = 8,
    attach_radius_m: float = 200.0,
    max_match_dist_m: float = 500.0,
    num_reducers: "int | None" = None,
    workdir: str = "tmp/linkage",
) -> LinkageAttackResult:
    """Run the full linking attack as MapReduce jobs.

    ``training_path`` and ``target_path`` are trace-array files (see the
    module docstring for the row-order contract).  ``ground_truth`` maps
    pseudonyms to true identities and is used only for scoring.  Output
    equals the serial
    :func:`~repro.attacks.deanonymization.deanonymization_attack` on the
    same data, byte for byte, on every backend and chunking.

    Whenever both sides have fingerprints, the training POI table is
    published through the shared
    :class:`~repro.index.persistent.IndexCatalog` and the exact
    candidate-pair audit runs (see module docstring); the audit never
    changes the attack's output, only ``pairs_exact``/``blocking_exact``.
    """
    # Checked here, before any job runs, not inside a reduce task.
    positive("max_match_dist_m", max_match_dist_m)
    count("max_pois", max_pois, 1)
    non_negative("attach_radius_m", attach_radius_m)
    hdfs = runner.hdfs
    t0 = runner.history.clock
    fps_train = f"{workdir}/fingerprints-train"
    fps_target = f"{workdir}/fingerprints-target"
    poi_path = f"{workdir}/train-pois"
    links_path = f"{workdir}/links"

    runner.cache.replace(PARAMS_CACHE_KEY, (params, max_pois, attach_radius_m))
    reducers = num_reducers or min(8, runner.cluster.total_reduce_slots())
    for role, in_path, out_path in (
        ("train", training_path, fps_train),
        ("target", target_path, fps_target),
    ):
        hdfs.delete(out_path, missing_ok=True)
        runner.run(
            JobSpec(
                name=f"linkage-fingerprint-{role}",
                mapper=TrailFragmentMapper,
                reducer=FingerprintReducer,
                input_paths=[in_path],
                output_path=out_path,
                conf=Configuration({"linkage.role": role}),
                num_reducers=reducers,
                reduce_cost_factor=3.0,  # DJ-Cluster + MMC per user
            )
        )

    train_fps = [
        (str(user), fp)
        for user, (_role, fp) in hdfs.read_records(fps_train)
        if fp is not None
    ]
    roster: list[str] = []
    target_fps = []
    for user, (_role, fp) in hdfs.read_records(fps_target):
        roster.append(str(user))
        if fp is not None:
            target_fps.append((str(user), fp))

    pairs_scored = 0
    pairs_exact: "int | None" = None
    best: dict[str, tuple[float, str]] = {}
    if train_fps and target_fps:
        table = _fingerprint_table(train_fps, target_fps, max_match_dist_m)
        # The training POI table: owner, coordinates, and the POI's rank
        # as the timestamp.
        counts = np.diff(table.state_offsets[: len(train_fps) + 1])
        owners = np.repeat(np.array(table.users[: len(train_fps)], dtype=object), counts)
        states = table.states[: len(owners)]
        ranks = ragged_arange(counts)[1].astype(np.float64)
        hdfs.delete(poi_path, missing_ok=True)
        hdfs.put_trace_array(
            poi_path, TraceArray.from_columns(owners, states[:, 0], states[:, 1], ranks)
        )
        from repro.index.persistent import IndexCatalog

        index, _built = IndexCatalog(hdfs).ensure(runner, poi_path)
        runner.cache.replace(INDEX_CACHE_KEY, (index.to_portable(), owners))
        runner.cache.replace(TABLE_CACHE_KEY, table, nbytes=table.nbytes)

        hdfs.delete(links_path, missing_ok=True)
        link_result = runner.run(
            JobSpec(
                name="linkage-score",
                mapper=BlockingMapper,
                reducer=LinkageScoreReducer,
                input_paths=[fps_train, fps_target],
                output_path=links_path,
                conf=Configuration({"linkage.max_match_dist_m": max_match_dist_m}),
                num_reducers=reducers,
                map_cost_factor=1.2,
                reduce_cost_factor=2.0,
            )
        )
        pairs_scored = link_result.counters.value(GROUP_LINKAGE, COUNTER_PAIRS_SCORED)
        pairs_exact = link_result.counters.value(GROUP_LINKAGE, COUNTER_PAIRS_EXACT)
        for pseud, (score, user) in hdfs.read_records(links_path):
            cand = (float(score), str(user))
            cur = best.get(str(pseud))
            if cur is None or cand < cur:
                best[str(pseud)] = cand

    linkage: dict[str, "str | None"] = {}
    scores: dict[str, float] = {}
    for pseud in roster:
        winner = best.get(pseud)
        if winner is None:
            linkage[pseud] = None
        else:
            linkage[pseud] = winner[1]
            scores[pseud] = winner[0]

    outcome = LinkageAttackResult(
        result=DeanonymizationResult(linkage, dict(ground_truth or {}), scores),
        n_train_fingerprints=len(train_fps),
        n_target_fingerprints=len(target_fps),
        pairs_scored=int(pairs_scored),
        pairs_exact=int(pairs_exact) if pairs_exact is not None else None,
        cross_product=len(train_fps) * len(target_fps),
        sim_seconds=float(runner.history.clock - t0),
    )
    data = {
        "driver": "linkage-attack",
        "n_train_fingerprints": outcome.n_train_fingerprints,
        "n_target_fingerprints": outcome.n_target_fingerprints,
        "linked": sum(1 for v in linkage.values() if v is not None),
        "success_rate": outcome.result.success_rate,
        "pairs_scored": outcome.pairs_scored,
        "cross_product": outcome.cross_product,
        "signature": outcome.signature(),
    }
    if pairs_exact is not None:
        data["pairs_exact"] = outcome.pairs_exact
    runner.history.emit(
        EventKind.ATTACK_RESULT, "linkage-score", runner.history.clock, **data
    )
    return outcome


# ---------------------------------------------------------------------------
# Corpus helpers (chaos driver, selfcheck, bench)
# ---------------------------------------------------------------------------

def split_linkage_corpus(
    array: TraceArray, pseudonym_prefix: str = "anon-"
) -> tuple[TraceArray, TraceArray, dict[str, str]]:
    """Split a corpus in time into (training, pseudonymized target, truth).

    Rows before the time midpoint become the adversary's training data
    (identities intact); rows after become the attacked release, with
    every user renamed ``pseudonym_prefix + user``.
    """
    if len(array) == 0:
        return array, array, {}
    ts = array.timestamp
    cut = (float(ts.min()) + float(ts.max())) / 2.0
    train = array[np.nonzero(ts < cut)[0]]
    released = array[np.nonzero(ts >= cut)[0]]
    renamed = [pseudonym_prefix + u for u in released.user_ids()]
    target = TraceArray.from_columns(
        renamed if renamed else [pseudonym_prefix],
        released.latitude,
        released.longitude,
        released.timestamp,
        released.altitude,
    )
    truth = {
        pseudonym_prefix + u: u for u in sorted(set(released.user_ids().tolist()))
    }
    return train, target, truth


#: DJ-Cluster parameters matched to :func:`synthetic_linkage_corpus`
#: (its POI visits leave ~3 surviving points per visit after the speed
#: filter, so the default min_pts would discard everything).
SYNTH_ATTACK_PARAMS = DJClusterParams(radius_m=150.0, min_pts=3)


def synthetic_linkage_corpus(
    n_users: int,
    seed: int = 0,
    pois_per_user: int = 2,
    visits: int = 6,
    points_per_visit: int = 5,
    jitter_deg: float = 4e-5,
    region: tuple[tuple[float, float], tuple[float, float]] = ((25.0, 55.0), (-120.0, 120.0)),
) -> tuple[TraceArray, TraceArray, dict[str, str]]:
    """A fully vectorized linkage workload: (training, target, truth).

    Each user commutes between ``pois_per_user`` personal POIs scattered
    a few km around a per-user anchor; anchors are spread over a wide
    ``region`` so blocking cells stay sparse at 10^5 users.  The target
    release re-observes the same POIs ten days later with independent
    jitter and pseudonymized ids — so the true link survives sanitized
    observation noise, which is exactly the paper's threat model.  Use
    :data:`SYNTH_ATTACK_PARAMS` when attacking this corpus.
    """
    (lat_lo, lat_hi), (lon_lo, lon_hi) = region
    rng = np.random.default_rng(seed)
    anchor_lat = rng.uniform(lat_lo, lat_hi, n_users)
    anchor_lon = rng.uniform(lon_lo, lon_hi, n_users)
    poi_lat = anchor_lat[:, None] + rng.uniform(-0.03, 0.03, (n_users, pois_per_user))
    poi_lon = anchor_lon[:, None] + rng.uniform(-0.03, 0.03, (n_users, pois_per_user))
    visit_poi = np.arange(visits) % pois_per_user
    base_lat = np.repeat(poi_lat[:, visit_poi][:, :, None], points_per_visit, axis=2)
    base_lon = np.repeat(poi_lon[:, visit_poi][:, :, None], points_per_visit, axis=2)
    stamps = (
        np.arange(visits)[:, None] * 4 * 3600.0
        + np.arange(points_per_visit)[None, :] * 60.0
    )
    shape = (n_users, visits, points_per_visit)
    user_names = [f"u{i:06d}" for i in range(n_users)]
    rows_per_user = visits * points_per_visit

    def side(side_rng, names, t_offset):
        lat = base_lat + side_rng.uniform(-jitter_deg, jitter_deg, shape)
        lon = base_lon + side_rng.uniform(-jitter_deg, jitter_deg, shape)
        ts = np.broadcast_to(stamps + t_offset, shape)
        row_users = np.repeat(np.asarray(names, dtype=object), rows_per_user)
        return TraceArray.from_columns(
            row_users, lat.ravel(), lon.ravel(), np.ascontiguousarray(ts).ravel()
        )

    training = side(rng, user_names, 0.0)
    pseudonyms = [f"anon-{i:06d}" for i in range(n_users)]
    target = side(
        np.random.default_rng(seed + 1), pseudonyms, 10 * 86_400.0
    )
    truth = dict(zip(pseudonyms, user_names))
    return training, target, truth


def run_attack_selfcheck(n_users: int = 8, seed: int = 11, verbose: bool = True) -> bool:
    """Small end-to-end check: MR attack ≡ serial attack, every backend.

    Runs the fixed serial reference on a synthetic corpus, then the MR
    attack on all three backends plus a memory-budgeted deployment, and
    checks byte-identical signatures and the blocking-exactness audit.
    Returns True when everything matches (``repro attack --linkage
    --selfcheck`` exits non-zero otherwise).
    """
    from repro.mapreduce.chaos import run_cell
    from repro.mapreduce.config import BACKENDS

    training, target, truth = synthetic_linkage_corpus(n_users, seed=seed)
    serial = deanonymization_attack_reference(
        training, target, truth, params=SYNTH_ATTACK_PARAMS
    )
    reference = linkage_signature(serial)
    lines = [
        f"attack selfcheck: {n_users} users, serial reference "
        f"success={serial.success_rate:.2f} signature={reference[:12]}…"
    ]
    ok = True

    def drive(runner, _tenant):
        return run_linkage_attack(
            runner, "input/train", "input/target", truth, params=SYNTH_ATTACK_PARAMS
        )

    for backend, budget in [(backend, None) for backend in BACKENDS] + [("serial", 8.0)]:
        outcome = run_cell(
            drive, {"input/train": training, "input/target": target},
            chunk_size=16 * 1024, backend=backend, budget_mb=budget,
        ).output
        label = backend + (" (budgeted)" if budget else "")
        match = outcome.signature() == reference
        exact = outcome.blocking_exact in (True, None)
        ok = ok and match and exact
        lines.append(
            f"  {label:22s} signature {'==' if match else '!='} serial, "
            f"pairs scored/exact {outcome.pairs_scored}/{outcome.pairs_exact} "
            f"(cross product {outcome.cross_product})"
        )
    lines.append("attack selfcheck: " + ("ok" if ok else "FAILED"))
    if verbose:
        print("\n".join(lines))
    return ok


def deanonymization_attack_reference(
    training: TraceArray,
    target: TraceArray,
    ground_truth: dict[str, str],
    params: DJClusterParams = DJClusterParams(),
    max_pois: int = 8,
    max_match_dist_m: float = 500.0,
    attach_radius_m: float = 200.0,
) -> DeanonymizationResult:
    """The serial attack on trace arrays (the MR job's ground truth)."""
    from repro.attacks.deanonymization import deanonymization_attack

    return deanonymization_attack(
        GeolocatedDataset.from_array(training),
        GeolocatedDataset.from_array(target),
        ground_truth,
        params=params,
        max_pois=max_pois,
        max_match_dist_m=max_match_dist_m,
        attach_radius_m=attach_radius_m,
    )
