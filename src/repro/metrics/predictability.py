"""Predictability of mobility (Song et al. 2010, cited in Section II).

"According to some recent work, our movements are easily predictable by
nature" — the paper cites Song, Qu, Blumm & Barabási, *Limits of
predictability in human mobility*.  This module implements that
analysis over a POI-visit sequence:

* ``random_entropy`` — ``log2(N)`` over the N distinct visited places;
* ``temporal_uncorrelated_entropy`` — Shannon entropy of the visit
  frequency distribution;
* ``real_entropy`` — the Lempel–Ziv estimator of the true entropy rate,
  which accounts for the order of visits;
* ``max_predictability`` — the Fano-bound Π_max: the highest achievable
  accuracy of *any* next-place predictor given an entropy rate.

These quantify the privacy risk independent of any concrete attack: a
high Π_max means the individual's future is exposed by their history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.checks import count

__all__ = [
    "random_entropy",
    "temporal_uncorrelated_entropy",
    "real_entropy",
    "max_predictability",
    "PredictabilityReport",
    "predictability_report",
]


def _as_sequence(visits) -> np.ndarray:
    seq = np.asarray(visits)
    if seq.ndim != 1:
        raise ValueError("visit sequence must be one-dimensional")
    return seq


def random_entropy(visits) -> float:
    """``log2`` of the number of distinct visited places (bits)."""
    seq = _as_sequence(visits)
    if len(seq) == 0:
        return 0.0
    return math.log2(len(np.unique(seq)))


def temporal_uncorrelated_entropy(visits) -> float:
    """Shannon entropy of the visit histogram (bits)."""
    seq = _as_sequence(visits)
    if len(seq) == 0:
        return 0.0
    _, counts = np.unique(seq, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def real_entropy(visits) -> float:
    """Lempel–Ziv estimate of the entropy rate (bits per visit).

    Uses the Kontoyiannis et al. estimator:
    ``S = (n * log2(n)) / sum(Lambda_i)`` where ``Lambda_i`` is the
    length of the shortest substring starting at ``i`` that never
    appeared in ``visits[:i]`` (n must be >= 2; shorter sequences return
    0).  The estimator converges to the true entropy rate for stationary
    ergodic sources and always satisfies ``real <= uncorrelated``
    asymptotically.
    """
    seq = list(_as_sequence(visits))
    n = len(seq)
    if n < 2:
        return 0.0
    lambdas = []
    for i in range(n):
        # Shortest prefix of seq[i:] not seen in seq[:i].
        max_sub = 0
        history = seq[:i]
        for length in range(1, n - i + 1):
            sub = seq[i : i + length]
            found = any(
                history[j : j + length] == sub for j in range(max(0, i - length + 1))
            )
            if found:
                max_sub = length
            else:
                break
        lambdas.append(max_sub + 1)
    return float(n * math.log2(n) / sum(lambdas))


def max_predictability(entropy_bits: float, n_states: int, tol: float = 1e-9) -> float:
    """Π_max from Fano's inequality: solve
    ``S = H(Π) + (1 - Π) * log2(N - 1)`` for Π by bisection.

    Returns 1.0 when the entropy is (near) zero and ``1/N`` when the
    entropy saturates at ``log2(N)``.
    """
    count("n_states", n_states, 1)
    if n_states == 1:
        return 1.0
    s_max = math.log2(n_states)
    entropy = min(max(entropy_bits, 0.0), s_max)

    def fano(p: float) -> float:
        h = 0.0
        if 0.0 < p < 1.0:
            h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        return h + (1 - p) * math.log2(n_states - 1)

    # fano(p) decreases from log2(N-1)... over [1/N, 1]; bisect.
    lo, hi = 1.0 / n_states, 1.0
    if entropy >= fano(lo):
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if fano(mid) > entropy:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass
class PredictabilityReport:
    """The Song-et-al. triple for one individual's visit sequence."""

    n_visits: int
    n_states: int
    s_rand: float
    s_unc: float
    s_real: float
    pi_max: float


def predictability_report(visits) -> PredictabilityReport:
    """Compute all predictability quantities for a visit sequence."""
    seq = _as_sequence(visits)
    n_states = int(len(np.unique(seq))) if len(seq) else 0
    s_real = real_entropy(seq)
    return PredictabilityReport(
        n_visits=int(len(seq)),
        n_states=n_states,
        s_rand=random_entropy(seq),
        s_unc=temporal_uncorrelated_entropy(seq),
        s_real=s_real,
        pi_max=max_predictability(s_real, max(n_states, 1)),
    )
