"""Privacy-vs-utility frontier sweeps over (sanitizer × attack) cells.

A sanitization mechanism is only worth its utility cost if it actually
blunts the attack.  This harness answers that question the way the
paper's cluster would: every (mechanism, parameter) cell becomes a
*tenant* of one shared :class:`~repro.mapreduce.service.JobService`, the
MapReduce linkage attack (:mod:`repro.attacks.linkage_mr`) runs against
each tenant's sanitized release under fair-share scheduling, and the
harvested points — attack success on one axis, utility damage on the
other — form the privacy-vs-utility frontier.

Inputs are an (identified) training array and a pseudonymized target
release plus ground truth, e.g. from
:func:`~repro.attacks.linkage_mr.split_linkage_corpus` or
:func:`~repro.attacks.linkage_mr.synthetic_linkage_corpus`.  Mechanisms
are ``name:param`` specs (``gaussian:200``, ``rounding:500``, …, parsed
by the CLI's mechanism grammar); the reserved spec ``none`` measures the
pseudonymize-only release every frontier needs as its origin.

Each cell records:

* **privacy axes** — linkage success rate (the attack), plus the
  deterministic window re-identification risk and the achieved
  k-anonymity floor of the release;
* **utility axes** — mean spatial distortion in metres and the surviving
  trace-volume ratio;
* the attack's audit trail (pairs scored vs cross product, signature).

``python -m repro sweep`` drives this from the command line and renders
the frontier table; ``FrontierResult.to_doc``/``save`` produce the JSON
artifact.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks.linkage_mr import run_linkage_attack
from repro.geo.trace import TraceArray
from repro.metrics.privacy import window_reidentification_risk
from repro.metrics.utility import spatial_distortion_m, trace_volume_ratio
from repro.observability import events as ev

__all__ = ["SweepCell", "FrontierResult", "run_sweep", "tenant_slug"]


def tenant_slug(spec: str) -> str:
    """A mechanism spec as a path/tenant-safe slug (``gaussian:200`` →
    ``gaussian-200``)."""
    slug = re.sub(r"[^A-Za-z0-9.]+", "-", spec.strip()).strip("-")
    return slug or "none"


def _sanitize(spec: str, release: TraceArray) -> TraceArray:
    if spec.strip().lower() == "none":
        return release
    from repro.cli import parse_mechanism

    return parse_mechanism(spec).sanitize_array(release)


def _json_safe(value: float) -> "float | None":
    return None if value != value else float(value)


@dataclass
class SweepCell:
    """One (mechanism × attack) point of the frontier."""

    mechanism: str
    tenant: str
    n_targets: int
    linked: int
    success_rate: float
    pairs_scored: int
    cross_product: int
    #: deterministic release-level risk (singleton-bucket exposure).
    window_risk: float
    min_anonymity: int
    #: mean displacement of surviving matched traces (None: nothing matched).
    distortion_m: "float | None"
    volume_ratio: float
    sim_seconds: float
    signature: str

    def to_doc(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "tenant": self.tenant,
            "n_targets": self.n_targets,
            "linked": self.linked,
            "success_rate": round(self.success_rate, 9),
            "pairs_scored": self.pairs_scored,
            "cross_product": self.cross_product,
            "window_risk": round(self.window_risk, 9),
            "min_anonymity": self.min_anonymity,
            "distortion_m": self.distortion_m,
            "volume_ratio": round(self.volume_ratio, 9),
            "sim_seconds": round(self.sim_seconds, 6),
            "signature": self.signature,
        }


@dataclass
class FrontierResult:
    """The harvested privacy-vs-utility frontier."""

    n_train_users: int
    n_target_users: int
    cells: list[SweepCell] = field(default_factory=list)
    #: the shared service's rendered fair-share report.
    service_report: str = ""

    def to_doc(self) -> dict:
        return {
            "kind": "privacy_utility_frontier",
            "n_train_users": self.n_train_users,
            "n_target_users": self.n_target_users,
            "cells": [c.to_doc() for c in self.cells],
        }

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        header = (
            f"privacy-vs-utility frontier · {self.n_target_users} targets "
            f"vs {self.n_train_users} training users"
        )
        rows = [
            header,
            "",
            f"{'mechanism':<16} {'success':>8} {'linked':>7} {'risk':>7} "
            f"{'min-k':>5} {'distort(m)':>10} {'kept':>6} {'pairs':>10}",
        ]
        for cell in self.cells:
            distortion = (
                f"{cell.distortion_m:10.1f}" if cell.distortion_m is not None else f"{'—':>10}"
            )
            rows.append(
                f"{cell.mechanism:<16} {cell.success_rate:8.2%} {cell.linked:>7} "
                f"{cell.window_risk:7.2%} {cell.min_anonymity:>5} {distortion} "
                f"{cell.volume_ratio:6.2f} "
                f"{cell.pairs_scored}/{cell.cross_product:>{1}}"
            )
        return "\n".join(rows)


def run_sweep(
    training: TraceArray,
    target: TraceArray,
    ground_truth: dict[str, str],
    mechanisms: list[str],
    params: DJClusterParams = DJClusterParams(),
    executor: str = "serial",
    history_path: "str | None" = None,
) -> FrontierResult:
    """Attack every mechanism's release concurrently through one service.

    Each mechanism spec becomes a tenant named :func:`tenant_slug`; the
    tenant's thread writes its sanitized release under its own
    ``tenants/<slug>/`` prefix, runs the MapReduce linkage attack via
    ``service.client(slug)``, and emits a ``sweep_cell`` history event.
    The release-level metrics (risk, distortion, volume) are computed
    driver-side so they land in the artifact even if a cell's attack
    links nothing.
    """
    from repro.mapreduce.chaos import fan_out
    from repro.mapreduce.runner import fresh_hdfs
    from repro.mapreduce.service import JobService

    if not mechanisms:
        raise ValueError("run_sweep needs at least one mechanism spec")
    slugs = [tenant_slug(m) for m in mechanisms]
    if len(set(slugs)) != len(slugs):
        raise ValueError(f"mechanism specs collide after slugging: {slugs}")
    releases = {slug: _sanitize(spec, target) for slug, spec in zip(slugs, mechanisms)}

    specs = dict(zip(slugs, mechanisms))

    def cell_workload(slug: str):
        client = service.client(slug)
        train_path = f"tenants/{slug}/input/train"
        release_path = f"tenants/{slug}/input/target"
        client.hdfs.put_trace_array(train_path, training, record_bytes=64)
        client.hdfs.put_trace_array(release_path, releases[slug], record_bytes=64)
        outcome = run_linkage_attack(
            client,
            train_path,
            release_path,
            ground_truth,
            params=params,
            workdir=f"tenants/{slug}/tmp/linkage",
        )
        client.history.emit(
            ev.SweepCell(
                mechanism=specs[slug],
                tenant=slug,
                success_rate=outcome.result.success_rate,
                linked=sum(
                    1 for v in outcome.result.linkage.values() if v is not None
                ),
                n_targets=outcome.result.n_targets,
                sim_seconds=outcome.sim_seconds,
            ),
            "linkage-sweep",
            client.history.clock,
        )
        return outcome

    hdfs = fresh_hdfs({}, chunk_size=256 * 1024, n_workers=3)
    with JobService(hdfs, tenants=dict.fromkeys(slugs, 1.0), executor=executor) as service:
        outcomes = fan_out(cell_workload, slugs, "sweep cell {!r} failed")
        report = service.report().render()
        if history_path is not None:
            service.history.save(history_path)

    frontier = FrontierResult(
        n_train_users=len(set(training.user_ids().tolist())),
        n_target_users=len(set(target.user_ids().tolist())),
        service_report=report,
    )
    for slug, spec in zip(slugs, mechanisms):
        outcome = outcomes[slug]
        release = releases[slug]
        risk = window_reidentification_risk(release)
        mean_distortion, _median = spatial_distortion_m(target, release)
        frontier.cells.append(
            SweepCell(
                mechanism=spec,
                tenant=slug,
                n_targets=outcome.result.n_targets,
                linked=sum(
                    1 for v in outcome.result.linkage.values() if v is not None
                ),
                success_rate=outcome.result.success_rate,
                pairs_scored=outcome.pairs_scored,
                cross_product=outcome.cross_product,
                window_risk=risk.risk,
                min_anonymity=risk.min_anonymity,
                distortion_m=_json_safe(mean_distortion),
                volume_ratio=trace_volume_ratio(target, release),
                sim_seconds=outcome.sim_seconds,
                signature=outcome.signature(),
            )
        )
    return frontier
