"""Hadoop-style job configuration.

A :class:`Configuration` is the bag of string-keyed parameters handed to
every mapper/reducer at ``setup`` time, mirroring Hadoop's ``Configuration``
/ ``JobConf``.  The paper's algorithms read their runtime arguments from it
(e.g. the k-means arguments of Table II: ``k``, ``distanceMeasure``,
``convergencedelta``, ``maxIter``, input/output/clusters paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.checks import count, positive

__all__ = ["Configuration", "MapReduceConfig", "BACKENDS", "validate_tenants"]

_MISSING = object()

#: Execution backends the runner can dispatch tasks on.
BACKENDS = ("serial", "threads", "processes")


@dataclass(frozen=True)
class MapReduceConfig:
    """Engine-level execution knobs (as opposed to per-job parameters).

    ``backend`` selects how tasks execute: ``"serial"`` runs everything
    inline in the driver, ``"threads"`` uses a thread pool (concurrent
    I/O, GIL-bound compute), ``"processes"`` uses a persistent process
    pool with shared-memory chunk transport (true CPU parallelism; see
    docs/PERFORMANCE.md).  All backends produce byte-identical outputs,
    counters and histories.

    ``max_workers`` caps pool size; ``None`` picks a backend-specific
    default (map slots for threads, CPU count for processes).  Zero or
    negative worker counts are rejected here — ``ThreadPoolExecutor``
    would otherwise accept them silently and hang or misbehave at
    dispatch time.

    ``memory_budget_mb`` bounds the engine's resident working set (the
    Hadoop ``io.sort.mb`` analogue, generalized): map outputs above the
    budget spill worker-side, the shuffle switches to an external merge
    sort, and a budgeted namenode pages chunk payloads to disk.  ``None``
    (the default) means unbounded — everything stays in memory.  Results
    are byte-identical either way.

    ``tenants`` declares the multi-tenant roster for a
    :class:`~repro.mapreduce.service.JobService` deployment: a mapping
    of tenant name to either a numeric fair-share weight or a knob dict
    ``{"weight": float, "max_queued": int | None}`` (``max_queued`` is
    the tenant's admission quota — the most jobs it may have queued or
    running at once).  Zero/negative weights and quotas are rejected
    here, mirroring the ``max_workers`` validation: the fair-share
    scheduler divides by the weight and a zero quota would silently
    reject every submit.  ``None`` means single-tenant (``"default"``
    with weight 1).
    """

    backend: str = "serial"
    max_workers: int | None = None
    memory_budget_mb: float | None = None
    tenants: Mapping[str, Any] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {self.backend!r}; "
                f"choose one of {', '.join(BACKENDS)}"
            )
        if self.max_workers is not None:
            count("max_workers", self.max_workers, 1)
        if self.memory_budget_mb is not None:
            positive("memory_budget_mb", self.memory_budget_mb)
        if self.tenants is not None:
            validate_tenants(self.tenants)


def validate_tenants(tenants: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """Validate a tenant roster; returns ``{name: {weight, max_queued}}``.

    Accepts the two spellings :class:`MapReduceConfig.tenants` documents
    (bare weight, or a ``{"weight", "max_queued"}`` dict) and normalizes
    both.  Raises ``ValueError`` with an actionable message on empty
    rosters, blank names, non-positive/non-finite weights, non-positive
    quotas, and unknown per-tenant keys — the same fail-at-construction
    stance as the ``max_workers`` check above.
    """
    if not isinstance(tenants, Mapping):
        raise ValueError(
            f"tenants must be a mapping of name -> weight or knob dict, "
            f"got {type(tenants).__name__}"
        )
    if not tenants:
        raise ValueError("tenants must not be empty; pass None for single-tenant")
    normalized: dict[str, dict[str, Any]] = {}
    for name, knobs in tenants.items():
        if not isinstance(name, str) or not name.strip():
            raise ValueError(f"tenant names must be non-empty strings, got {name!r}")
        if isinstance(knobs, Mapping):
            unknown = set(knobs) - {"weight", "max_queued"}
            if unknown:
                raise ValueError(
                    f"tenant {name!r}: unknown knobs {sorted(unknown)}; "
                    f"expected 'weight' and/or 'max_queued'"
                )
            weight = knobs.get("weight", 1.0)
            max_queued = knobs.get("max_queued")
        else:
            weight, max_queued = knobs, None
        normalized[name] = {
            "weight": positive(f"tenant {name!r} weight", weight),
            "max_queued": None if max_queued is None
            else count(f"tenant {name!r} max_queued", max_queued, 1),
        }
    return normalized


class Configuration:
    """Immutable-by-convention key/value job configuration.

    Values are stored as given; typed getters coerce on read, as Hadoop
    does with its ``getInt``/``getFloat`` accessors.
    """

    def __init__(self, values: Mapping[str, Any] | None = None, **kwargs: Any):
        self._values: dict[str, Any] = dict(values or {})
        self._values.update(kwargs)

    # -- raw access -------------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def as_dict(self) -> dict[str, Any]:
        return dict(self._values)

    # -- typed getters ------------------------------------------------------
    def _typed(self, key: str, default: Any, caster) -> Any:
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise KeyError(f"missing required configuration key {key!r}")
            return default
        try:
            return caster(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"configuration key {key!r} = {value!r}: {exc}") from exc

    def get_int(self, key: str, default: int | object = _MISSING) -> int:
        return self._typed(key, default, int)

    def get_float(self, key: str, default: float | object = _MISSING) -> float:
        return self._typed(key, default, float)

    def get_str(self, key: str, default: str | object = _MISSING) -> str:
        return self._typed(key, default, str)
