"""Next-location prediction using Mobility Markov Chains.

"[An MMC] can be used to predict his future locations" (Section VIII).
The evaluation protocol: split an individual's POI-visit sequence in two,
train the MMC on the prefix, then walk the suffix predicting each next
visit from the current one and measure top-1 accuracy (plus the
random-guess baseline, for context against the predictability literature
the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.mmc import visit_sequence
from repro.geo.trace import TraceArray

__all__ = ["PredictionReport", "evaluate_next_place_prediction"]


@dataclass
class PredictionReport:
    """Outcome of a next-place prediction evaluation."""

    n_predictions: int
    n_correct: int
    accuracy: float
    baseline_accuracy: float
    n_states: int

    @property
    def lift(self) -> float:
        """Accuracy relative to random guessing (1.0 = no better)."""
        if self.baseline_accuracy == 0:
            return float("inf") if self.accuracy > 0 else 1.0
        return self.accuracy / self.baseline_accuracy


def evaluate_next_place_prediction(
    trail: TraceArray,
    poi_coords: np.ndarray,
    train_fraction: float = 0.7,
    attach_radius_m: float = 200.0,
    smoothing: float = 0.1,
) -> PredictionReport:
    """Train/test evaluation of MMC next-place prediction on one trail.

    Returns a report with zero predictions when the visit sequence is too
    short to split (fewer than 3 visits).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    poi_coords = np.asarray(poi_coords, dtype=np.float64)
    seq = visit_sequence(trail, poi_coords, attach_radius_m)
    n_states = len(poi_coords)
    if len(seq) < 3 or n_states == 0:
        return PredictionReport(0, 0, 0.0, 0.0, n_states)
    split = max(2, int(len(seq) * train_fraction))
    train, test = seq[:split], seq[split - 1 :]  # overlap one visit as seed
    counts = np.full((n_states, n_states), float(smoothing))
    np.add.at(counts, (train[:-1], train[1:]), 1.0)
    transitions = counts / counts.sum(axis=1, keepdims=True)
    correct = 0
    total = 0
    for current, actual in zip(test[:-1], test[1:]):
        predicted = int(np.argmax(transitions[current]))
        correct += int(predicted == actual)
        total += 1
    accuracy = correct / total if total else 0.0
    baseline = 1.0 / n_states
    return PredictionReport(total, correct, accuracy, baseline, n_states)
