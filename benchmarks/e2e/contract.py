"""``BENCHMARK.json`` as the one declaration of workloads and metrics.

Names, units, directions and regression bounds live in that file only;
the benchmark reads them back so a value it emits under an undeclared
name, or a declared name it fails to emit, is an error rather than drift.
Standard library only: the parent process imports this before ``src`` is
known to be importable.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Units of per-layer metrics that are exact for given inputs and so must
#: repeat between repeats and between runs of one commit; every other unit
#: is a measurement.
EXACT_UNITS = frozenset({"count", "B", "sim_s"})


def load() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def specs(contract: dict, section: str) -> dict[str, dict]:
    """``{metric name: its declaration}`` of ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m for m in contract[section]}


def with_units(values: dict[str, float], declared: dict[str, dict]) -> dict[str, dict]:
    """Attach units; raise if emitted and declared names differ."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise ValueError(f"metrics missing: {missing}; undeclared: {extra}")
    return {name: {"value": values[name], "unit": declared[name]["unit"]}
            for name in declared}


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (q3 - q1) / middle if middle else 0.0
