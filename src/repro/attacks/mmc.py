"""Mobility Markov Chains (the paper's first planned extension).

"A MMC represents in a compact way the mobility behavior of an individual
and can be used to predict his future locations or even to perform
de-anonymization attacks" (Section VIII).  States are the individual's
POIs; transitions count observed moves between consecutive POI visits.

The chain is built from a trail by snapping each trace to its nearest POI
(within an attachment radius), collapsing consecutive repeats into visits
and counting visit-to-visit transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geo.distance import haversine_m
from repro.geo.grid import ragged_arange
from repro.geo.trace import TraceArray

__all__ = [
    "MobilityMarkovChain",
    "build_mmc",
    "mmc_link_score",
    "visit_sequence",
]

#: ``np.allclose(row_sums, 1.0, atol=1e-9)``'s bound on ``|row_sum - 1|``
#: (its default ``rtol`` of 1e-5 counts once, against the 1).
_ROW_SUM_TOL = 1e-9 + 1e-5


@dataclass
class MobilityMarkovChain:
    """A Markov chain over an individual's POIs.

    ``states`` is an (n, 2) array of POI coordinates; ``transitions`` is a
    row-stochastic (n, n) matrix (rows with no observations are uniform).
    """

    states: np.ndarray
    transitions: np.ndarray
    visit_counts: np.ndarray
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.transitions.shape != (n, n):
            raise ValueError("transition matrix shape mismatch")
        # NaN fails the comparison, so a NaN row is rejected too.
        if not np.all(np.abs(self.transitions.sum(axis=1) - 1.0) <= _ROW_SUM_TOL):
            raise ValueError("transition matrix rows must sum to 1")
        if not self.labels:
            self.labels = [f"state_{i}" for i in range(n)]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def stationary_distribution(self, tol: float = 1e-12, max_iter: int = 10_000) -> np.ndarray:
        """Long-run visit distribution via power iteration.

        Starts from the empirical visit frequencies so reducible chains
        converge to the component actually visited.
        """
        total = self.visit_counts.sum()
        pi = (
            self.visit_counts / total
            if total > 0
            else np.full(self.n_states, 1.0 / self.n_states)
        )
        for _ in range(max_iter):
            nxt = pi @ self.transitions
            if np.abs(nxt - pi).max() < tol:
                return nxt
            pi = nxt
        return pi

def visit_sequence(
    array: TraceArray, poi_coords: np.ndarray, attach_radius_m: float = 200.0
) -> np.ndarray:
    """A trail's sequence of visited POI indices.

    Each trace snaps to its nearest POI if within ``attach_radius_m``
    (otherwise it is transit and ignored); consecutive repeats collapse
    into a single visit.
    """
    if len(poi_coords) == 0 or len(array) == 0:
        return np.empty(0, dtype=np.int64)
    ordered = array.sort_by_time()
    lat = ordered.latitude[:, None]
    lon = ordered.longitude[:, None]
    dists = haversine_m(lat, lon, poi_coords[None, :, 0], poi_coords[None, :, 1])
    nearest = np.argmin(dists, axis=1)
    within = dists[np.arange(len(nearest)), nearest] <= attach_radius_m
    attached = nearest[within]
    if len(attached) == 0:
        return np.empty(0, dtype=np.int64)
    change = np.ones(len(attached), dtype=bool)
    change[1:] = attached[1:] != attached[:-1]
    return attached[change]


def build_mmc(
    trail: TraceArray,
    poi_coords: np.ndarray,
    attach_radius_m: float = 200.0,
    labels: list[str] | None = None,
    smoothing: float = 0.0,
) -> MobilityMarkovChain:
    """Build an MMC over the given POIs from a trail.

    ``smoothing`` adds Laplace pseudo-counts to every transition, which
    keeps the chain irreducible for prediction tasks on sparse data.
    """
    poi_coords = np.asarray(poi_coords, dtype=np.float64)
    if poi_coords.ndim != 2 or poi_coords.shape[1] != 2:
        raise ValueError("poi_coords must be an (n, 2) array")
    if len(poi_coords) == 0:
        raise ValueError("an MMC needs at least one state")
    seq = visit_sequence(trail, poi_coords, attach_radius_m)
    n = len(poi_coords)
    counts = np.full((n, n), float(smoothing))
    if len(seq) >= 2:
        np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
    visit_counts = np.bincount(seq, minlength=n).astype(np.float64)
    row_sums = counts.sum(axis=1, keepdims=True)
    transitions = np.where(row_sums > 0, counts / np.where(row_sums == 0, 1, row_sums), 1.0 / n)
    return MobilityMarkovChain(
        states=poi_coords.copy(),
        transitions=transitions,
        visit_counts=visit_counts,
        labels=list(labels) if labels else [],
    )


def segmented_chains(
    trails: TraceArray,
    states: np.ndarray,
    owners: np.ndarray,
    n_states: np.ndarray,
    attach_radius_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`visit_sequence` and :func:`build_mmc`'s counting (no
    smoothing) for many users' chains at once.

    ``trails`` holds the users' trails back to back in (user, time)
    order; ``owners`` (ascending user indices) have ``n_states[i]`` POIs
    each, listed owner after owner in ``states``.  Returns
    ``(transitions, visit_counts)``: every chain's row-major transition
    matrix, and its visit counts, laid end to end in owner order.  One
    Haversine call prices every (trace, own POI) pair; visits and
    transitions are two ``bincount``s.
    """
    k = n_states
    first = np.cumsum(k) - k
    users = trails.user_index
    chain = np.minimum(np.searchsorted(owners, users), len(owners) - 1)
    rows = np.flatnonzero(owners[chain] == users)
    chain = chain[rows]
    # dists[i, j]: trace i to the j-th POI of its own user, +inf past the
    # user's last POI so argmin keeps visit_sequence's first-minimum rule.
    per_row = k[chain]
    pair_row, pair_col = ragged_arange(per_row)
    state = first[chain][pair_row] + pair_col
    at = rows[pair_row]
    dists = np.full((len(rows), int(k.max())), np.inf)
    dists[pair_row, pair_col] = haversine_m(
        trails.latitude[at], trails.longitude[at], states[state, 0], states[state, 1]
    )
    nearest = np.argmin(dists, axis=1)
    within = dists[np.arange(len(rows)), nearest] <= attach_radius_m
    chain, nearest = chain[within], nearest[within]
    visit = np.ones(len(chain), dtype=bool)
    visit[1:] = (chain[1:] != chain[:-1]) | (nearest[1:] != nearest[:-1])
    chain, nearest = chain[visit], nearest[visit]
    visit_counts = np.bincount(first[chain] + nearest, minlength=len(states)).astype(np.float64)
    cells = k * k
    moved = chain[1:] == chain[:-1]
    src = chain[:-1][moved]
    counts = np.bincount(
        (np.cumsum(cells) - cells)[src] + nearest[:-1][moved] * k[src] + nearest[1:][moved],
        minlength=int(cells.sum()),
    ).astype(np.float64)
    # Cell -> its matrix row (= state); counts are whole numbers, so the
    # row sums are exact in any order.
    width = np.repeat(k, k)
    row = np.repeat(np.arange(len(states)), width)
    row_sums = np.bincount(row, weights=counts, minlength=len(states))[row]
    transitions = np.where(
        row_sums > 0, counts / np.where(row_sums == 0, 1, row_sums), 1.0 / width[row]
    )
    return transitions, visit_counts


def _match_states(a: MobilityMarkovChain, b: MobilityMarkovChain, max_dist_m: float) -> list[tuple[int, int]]:
    """Greedy nearest-pair matching of two chains' POI sets."""
    if a.n_states == 0 or b.n_states == 0:
        return []
    d = haversine_m(
        a.states[:, None, 0], a.states[:, None, 1],
        b.states[None, :, 0], b.states[None, :, 1],
    )
    return _greedy_match(np.atleast_2d(d), max_dist_m)


def _greedy_match(d: np.ndarray, max_dist_m: float) -> list[tuple[int, int]]:
    """The greedy walk over an ``(n_a, n_b)`` distance matrix: closest
    pairs first, each state matched at most once, none beyond
    ``max_dist_m``."""
    pairs: list[tuple[int, int]] = []
    used_a: set[int] = set()
    used_b: set[int] = set()
    order = np.argsort(d, axis=None)
    width = d.shape[1]
    for flat, dist in zip(order.tolist(), d.ravel()[order].tolist()):
        if dist > max_dist_m:
            break
        i, j = divmod(flat, width)
        if i in used_a or j in used_b:
            continue
        pairs.append((i, j))
        used_a.add(i)
        used_b.add(j)
    return pairs


def mmc_link_score(
    a: MobilityMarkovChain,
    b: MobilityMarkovChain,
    max_match_dist_m: float = 500.0,
    unmatched_penalty: float = 1.0,
) -> "float | None":
    """Dissimilarity between two mobility fingerprints (lower = closer),
    or ``None`` when the chains share no nearby POIs.

    States are matched greedily by spatial proximity; matched states
    contribute the absolute difference of their stationary probabilities
    plus the L1 gap between their outgoing transition rows (restricted to
    matched columns); unmatched stationary mass pays ``unmatched_penalty``.

    When no POI of ``a`` lies within ``max_match_dist_m`` of any POI of
    ``b`` the chains carry *no spatial evidence* about each other; the
    score in that regime would be the pure unmatched-mass penalty — a
    constant independent of which candidate is being scored, so "best by
    penalty" degenerates to whichever candidate is enumerated first.  Returning ``None`` lets callers skip such pairs
    outright, which is also what makes spatial candidate blocking exact:
    every pair with a non-``None`` score has at least one POI pair within
    ``max_match_dist_m``, hence shares a blocking cell.
    """
    pairs = _match_states(a, b, max_match_dist_m)
    if not pairs:
        return None
    return _pair_score(a, b, pairs, unmatched_penalty)


def _pair_score(
    a: MobilityMarkovChain,
    b: MobilityMarkovChain,
    pairs: list[tuple[int, int]],
    unmatched_penalty: float,
) -> float:
    # Python floats: the same IEEE operations as NumPy scalars, in the
    # same order, without a NumPy call per term.
    pi_a = a.stationary_distribution().tolist()
    pi_b = b.stationary_distribution().tolist()
    rows_a = a.transitions.tolist()
    rows_b = b.transitions.tolist()
    matched_a = {i for i, _ in pairs}
    matched_b = {j for _, j in pairs}
    score = 0.0
    for i, j in pairs:
        score += abs(pi_a[i] - pi_b[j])
        # Compare transition rows over the common matched state space.
        for i2, j2 in pairs:
            score += abs(rows_a[i][i2] - rows_b[j][j2]) * pi_a[i]
    score += unmatched_penalty * float(
        sum(pi_a[i] for i in range(a.n_states) if i not in matched_a)
        + sum(pi_b[j] for j in range(b.n_states) if j not in matched_b)
    )
    return float(score)
