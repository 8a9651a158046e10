"""Command-line interface: ``python -m repro <command>``.

Lets a data curator run the standard workflow — generate/load, inspect,
sample, attack, sanitize — without writing Python.  Each subcommand calls
the algorithm, attack, sanitization and engine modules directly (the
:class:`~repro.toolkit.Gepeto` facade is the *library* front-end; the
CLI does not go through it).  Datasets on disk use the GeoLife directory
layout (``<root>/<user>/Trajectory/*.plt``).

Commands
--------
``generate``   synthesize a GeoLife-like corpus to a directory
``info``       corpus statistics (users, traces, span, bounding box)
``visualize``  ASCII density map
``sample``     temporal down-sampling (Section V)
``attack``     POI inference, or the MapReduce linkage attack (docs/ATTACKS.md)
``sanitize``   apply a geo-sanitization mechanism
``sweep``      privacy-vs-utility frontier over sanitizer cells (docs/ATTACKS.md)
``history``    render a job-history trace report (docs/OBSERVABILITY.md)
``chaos``      seeded fault-injection campaign over a driver (docs/CHAOS.md)
``submit``     submit one job to a JobService and trace its future (docs/JOBSERVICE.md)
``service``    multi-tenant campaign over the algorithm drivers (docs/JOBSERVICE.md)
``query``      build/reuse a persistent R-tree and serve queries from it (docs/SERVING.md)
``stream``     micro-batch streaming run over a simulated feed (docs/STREAMING.md)
"""

from __future__ import annotations

import argparse
import datetime as _dt
import os
import sys

import numpy as np

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks.poi import poi_attack
from repro.checks import count, finite, non_negative, positive
from repro.geo.geolife import read_geolife_dataset, write_geolife_dataset
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.sanitization import (
    DonutMask,
    GaussianMask,
    PlanarLaplaceMask,
    Pseudonymizer,
    RoundingMask,
    SpatialAggregator,
    SpatialCloaking,
    TemporalAggregator,
    UniformNoiseMask,
)
from repro.viz import ascii_density_map, cluster_summary_table

__all__ = ["main", "build_parser", "parse_mechanism"]


def parse_mechanism(spec: str):
    """Parse a ``name:param`` mechanism spec into a Sanitizer.

    Supported: ``gaussian:<sigma_m>``, ``uniform:<radius_m>``,
    ``donut:<r_min>-<r_max>``, ``rounding:<cell_m>``,
    ``aggregate:<cell_m>``, ``sample:<window_s>``, ``cloak:<k>``,
    ``pseudonymize[:<seed>]``.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "donut":
            r_min, _, r_max = arg.partition("-")
            return DonutMask(float(r_min), float(r_max))
        if name == "laplace":
            return PlanarLaplaceMask(float(arg))
        if name == "gaussian":
            return GaussianMask(float(arg))
        if name == "uniform":
            return UniformNoiseMask(float(arg))
        if name == "rounding":
            return RoundingMask(float(arg))
        if name == "aggregate":
            return SpatialAggregator(float(arg))
        if name == "sample":
            return TemporalAggregator(float(arg))
        if name == "cloak":
            return SpatialCloaking(k=int(arg))
        if name == "pseudonymize":
            return Pseudonymizer(seed=int(arg) if arg else 0)
    except ValueError as exc:
        raise SystemExit(f"bad mechanism parameter in {spec!r}: {exc}")
    raise SystemExit(
        f"unknown mechanism {name!r}; known: gaussian, uniform, donut, "
        "laplace, rounding, aggregate, sample, cloak, pseudonymize"
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.mapreduce.config import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="GEPETO-MR: privacy analysis of mobility traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a GeoLife-like corpus")
    gen.add_argument("--out", required=True, help="output directory (GeoLife layout)")
    gen.add_argument("--users", type=int, default=5)
    gen.add_argument("--days", type=int, default=2)
    gen.add_argument("--seed", type=int, default=2013)

    info = sub.add_parser("info", help="corpus statistics")
    info.add_argument("--in", dest="input", required=True)
    info.add_argument(
        "--detailed",
        action="store_true",
        help="add radius of gyration and logging-interval statistics",
    )

    viz = sub.add_parser("visualize", help="ASCII density map")
    viz.add_argument("--in", dest="input", required=True)
    viz.add_argument("--width", type=int, default=72)
    viz.add_argument("--height", type=int, default=24)

    samp = sub.add_parser("sample", help="temporal down-sampling (Section V)")
    samp.add_argument("--in", dest="input", required=True)
    samp.add_argument("--out", required=True)
    samp.add_argument("--window", type=float, default=60.0, help="seconds")
    samp.add_argument("--technique", choices=["upper", "middle"], default="upper")

    atk = sub.add_parser(
        "attack",
        help="POI inference attack, or the MapReduce linkage attack",
        description=(
            "Default mode: the serial POI inference attack (Section VII "
            "+ labelling).  With --linkage the corpus is split in time "
            "into training/pseudonymized halves and the MapReduce "
            "de-anonymization attack links them (docs/ATTACKS.md); "
            "--linkage --selfcheck instead proves the MR attack "
            "byte-identical to the serial reference on every backend."
        ),
    )
    atk.add_argument("--in", dest="input", required=False)
    atk.add_argument("--user", help="restrict to one user id")
    atk.add_argument("--radius", type=float, default=100.0, help="metres")
    atk.add_argument("--min-pts", type=int, default=10)
    atk.add_argument(
        "--semantic",
        action="store_true",
        help="also label places semantically (home/work/lunch/leisure)",
    )
    atk.add_argument(
        "--linkage",
        action="store_true",
        help="run the MapReduce linkage attack on a time-split of --in "
        "instead of the per-user POI report",
    )
    atk.add_argument(
        "--selfcheck",
        action="store_true",
        help="with --linkage: verify MR ≡ serial attack on every "
        "backend (no --in needed); exit non-zero on divergence",
    )
    atk.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="serial",
        help="execution backend for --linkage (default serial)",
    )
    atk.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="optional per-node memory budget for --linkage (spills to disk)",
    )
    atk.add_argument(
        "--max-match-dist",
        type=float,
        default=500.0,
        help="POI match distance in metres for --linkage (default 500)",
    )
    atk.add_argument(
        "--max-pois",
        type=int,
        default=8,
        help="fingerprint size cap for --linkage (default 8)",
    )
    atk.add_argument(
        "--history", help="with --linkage: export the job history here"
    )

    san = sub.add_parser("sanitize", help="apply a geo-sanitization mechanism")
    san.add_argument("--in", dest="input", required=True)
    san.add_argument("--out", required=True)
    san.add_argument(
        "--mechanism",
        required=True,
        help="e.g. gaussian:200, rounding:500, sample:600, cloak:3, pseudonymize:7",
    )

    swp = sub.add_parser(
        "sweep",
        help="privacy-vs-utility frontier over sanitizer cells",
        description=(
            "Runs the MapReduce linkage attack against one sanitized "
            "release per --mechanisms spec, every cell a tenant of one "
            "fair-share JobService, and renders the privacy-vs-utility "
            "frontier (docs/ATTACKS.md).  Reads a GeoLife corpus with "
            "--in (split in time into training/target) or synthesizes a "
            "linkage corpus with --users."
        ),
    )
    swp.add_argument("--in", dest="input", help="GeoLife corpus to sweep over")
    swp.add_argument(
        "--users", type=int, default=12,
        help="synthetic corpus size when --in is omitted (default 12)",
    )
    swp.add_argument("--seed", type=int, default=0, help="synthetic corpus seed")
    swp.add_argument(
        "--mechanisms",
        default="none,gaussian:100,gaussian:300,rounding:500,sample:600",
        help="comma-separated sanitizer specs; 'none' is the "
        "pseudonymize-only origin cell",
    )
    swp.add_argument(
        "--radius", type=float, default=None,
        help="DJ-Cluster radius in metres (default: matched to the corpus)",
    )
    swp.add_argument(
        "--min-pts", type=int, default=None,
        help="DJ-Cluster density floor (default: matched to the corpus)",
    )
    swp.add_argument(
        "--backend", choices=list(BACKENDS), default="serial",
        help="execution backend for the attack jobs (default serial)",
    )
    swp.add_argument("--out", help="write the frontier JSON document here")
    swp.add_argument(
        "--history", help="export the shared service's job history here"
    )

    hist = sub.add_parser(
        "history",
        help="render a Gantt/summary report from a job-history file",
        description=(
            "Reads a .json/.jsonl job-history file written by "
            "JobHistory.save (every JobRunner records one in "
            "runner.history) and renders per-job "
            "summaries: phase breakdown, critical path, straggler "
            "ranking, locality mix, combiner effectiveness, per-reducer "
            "shuffle bytes, and a per-task text Gantt timeline."
        ),
    )
    hist.add_argument(
        "file", nargs="?", help="history file (.json or .jsonl)"
    )
    hist.add_argument("--job", action="append", help="restrict to job name(s)")
    hist.add_argument(
        "--tenant",
        help="restrict to one tenant's jobs (service histories tag each "
        "job_start with its tenant)",
    )
    hist.add_argument(
        "--window",
        action="store_true",
        help="per-window/per-tenant rollups instead of per-job blocks "
        "(streaming histories tag each job_start with its stream and "
        "window index)",
    )
    hist.add_argument(
        "--no-gantt", action="store_true", help="omit the per-task timeline"
    )
    hist.add_argument(
        "--width", type=int, default=48, help="Gantt bar width in characters"
    )
    hist.add_argument(
        "--validate-only",
        action="store_true",
        help="only check the event-ordering guarantees, print nothing else",
    )
    hist.add_argument(
        "--selfcheck",
        action="store_true",
        help="trace a miniature deployment end to end and verify the "
        "history invariants (used by the CI smoke step)",
    )

    from repro.mapreduce.chaos import DRIVERS

    cha = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign over a MapReduce driver",
        description=(
            "Runs a driver three times on fresh simulated deployments — "
            "clean, under a seeded ChaosSchedule, and a same-seed replay "
            "— then reports whether the output stayed byte-identical "
            "under faults and the chaotic run is bit-reproducible "
            "(docs/CHAOS.md)."
        ),
    )
    cha.add_argument(
        "--driver",
        action="append",
        choices=list(DRIVERS),
        help="driver(s) to campaign over (default: all)",
    )
    cha.add_argument("--seed", type=int, default=0, help="chaos schedule seed")
    cha.add_argument(
        "--crash-prob", type=float, default=0.15, help="per-attempt crash probability"
    )
    cha.add_argument(
        "--cache-prob", type=float, default=0.1,
        help="per-attempt distributed-cache load-failure probability",
    )
    cha.add_argument(
        "--shuffle-prob", type=float, default=0.1,
        help="per-reducer shuffle fetch-failure probability",
    )
    cha.add_argument(
        "--slow-prob", type=float, default=0.25,
        help="per-node straggler probability",
    )
    cha.add_argument(
        "--slow-factor", type=float, default=3.0,
        help="slowdown multiplier for straggler nodes",
    )
    cha.add_argument(
        "--node-loss", action="store_true",
        help="also kill one tasktracker+datanode mid-map-phase",
    )
    cha.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="run the campaign out-of-core under this memory budget "
        "(the report must be identical to an unbudgeted run)",
    )
    cha.add_argument("--users", type=int, default=3, help="synthetic corpus users")
    cha.add_argument("--days", type=int, default=1, help="synthetic corpus days")
    cha.add_argument("--workers", type=int, default=3, help="simulated worker nodes")
    cha.add_argument(
        "--history", help="export the chaotic run's job history (.json/.jsonl)"
    )
    cha.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the fixed fault-heavy campaign over all drivers and "
        "verify equivalence + reproducibility (used by the CI smoke step)",
    )
    cha.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="execution backend to run the campaign on (the report must "
        "be identical for all of them)",
    )

    smt = sub.add_parser(
        "submit",
        help="submit one job to a JobService and trace its future",
        description=(
            "The worked docs/JOBSERVICE.md example: builds a miniature "
            "simulated deployment, submits a sampling job through a "
            "JobService as one tenant, and prints the future's lifecycle "
            "(queued -> running -> done) plus the job summary.  With "
            "--resubmit the same spec is submitted a second time under a "
            "fresh output path, demonstrating the result cache: the "
            "second run is a hit and executes zero map tasks."
        ),
    )
    smt.add_argument("--users", type=int, default=3, help="synthetic corpus users")
    smt.add_argument("--days", type=int, default=1, help="synthetic corpus days")
    smt.add_argument("--seed", type=int, default=42, help="corpus seed")
    smt.add_argument("--tenant", default="analyst", help="tenant name to submit as")
    smt.add_argument(
        "--window", type=float, default=600.0, help="sampling window (seconds)"
    )
    smt.add_argument(
        "--resubmit", action="store_true",
        help="submit the identical spec again and show the cache hit",
    )
    smt.add_argument(
        "--history", help="export the service's job history (.json/.jsonl)"
    )

    svc = sub.add_parser(
        "service",
        help="multi-tenant campaign over the MapReduce algorithm drivers",
        description=(
            "Runs each driver solo on a clean deployment, then again with "
            "every tenant of a weighted roster submitting it concurrently "
            "through one shared JobService (optionally under a seeded "
            "chaos schedule), and verifies each tenant's output is "
            "byte-identical to the solo run.  Prints the per-driver "
            "verdicts and the service's fair-share report."
        ),
    )
    svc.add_argument(
        "--driver",
        action="append",
        choices=list(DRIVERS),
        help="driver(s) to campaign over (default: all)",
    )
    svc.add_argument("--seed", type=int, default=0, help="chaos schedule seed")
    svc.add_argument(
        "--weights", default="alice=2,bob=1",
        help="tenant roster as name=weight pairs (default alice=2,bob=1)",
    )
    svc.add_argument(
        "--no-chaos", action="store_true",
        help="run fault-free instead of under the default chaos schedule",
    )
    svc.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="execution backend for the shared service",
    )
    svc.add_argument("--users", type=int, default=3, help="synthetic corpus users")
    svc.add_argument("--days", type=int, default=1, help="synthetic corpus days")
    svc.add_argument("--workers", type=int, default=3, help="simulated worker nodes")
    svc.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the fixed two-tenant equivalence campaign over all "
        "drivers, with and without chaos (used by the CI smoke step)",
    )

    qry = sub.add_parser(
        "query",
        help="build/reuse a persistent R-tree index and serve queries",
        description=(
            "The worked docs/SERVING.md example: persists the Figure-6 "
            "MapReduce R-tree build as checksummed node pages in "
            "simulated HDFS under a memory budget, shows the second "
            "catalog ensure coming back as a zero-job reuse hit, then "
            "serves point/range/radius/kNN queries through a tenant's "
            "QueryEngine — zero map tasks per query — and verifies the "
            "answers byte-identical to the in-memory tree."
        ),
    )
    qry.add_argument(
        "--traces", type=int, default=50_000, help="synthetic corpus size"
    )
    qry.add_argument("--seed", type=int, default=0, help="corpus/workload seed")
    qry.add_argument(
        "--budget-mb", type=float, default=8.0,
        help="memory budget the index is served under (default 8)",
    )
    qry.add_argument(
        "--queries", type=int, default=12,
        help="seeded demo queries to serve (round-robin over the kinds)",
    )
    qry.add_argument("--tenant", default="analyst", help="tenant name to serve as")
    qry.add_argument(
        "--point", help="one point lookup as 'lat,lon' (replaces the demo mix)"
    )
    qry.add_argument(
        "--range",
        dest="range_query",
        help="one range query as 'min_lat,min_lon,max_lat,max_lon'",
    )
    qry.add_argument(
        "--radius-query", help="one radius query as 'lat,lon,metres'"
    )
    qry.add_argument("--knn", help="one kNN query as 'lat,lon,k'")
    qry.add_argument(
        "--no-verify", action="store_true",
        help="skip the in-memory reference build and byte-identity check",
    )
    qry.add_argument(
        "--history", help="export the serving job history (.json/.jsonl)"
    )

    strm = sub.add_parser(
        "stream",
        help="micro-batch streaming run over a simulated feed",
        description=(
            "The worked docs/STREAMING.md example: a StreamSource cuts a "
            "synthetic corpus into per-user feed batches on the simtime "
            "clock (optionally with chaos-driven late/lost/duplicate "
            "deliveries), a MicroBatcher seals fixed windows into HDFS "
            "datasets, and a StreamingJobManager runs the per-window "
            "analysis chain — sampling, warm-started k-means, DJ-Cluster "
            "POIs, a re-identification risk score — through a "
            "multi-tenant JobService, printing the rolling risk "
            "timeline.  A streaming run is byte-identical to the "
            "equivalent batch-job sequence; --selfcheck proves it."
        ),
    )
    strm.add_argument("--users", type=int, default=4, help="synthetic corpus users")
    strm.add_argument("--days", type=int, default=1, help="synthetic corpus days")
    strm.add_argument("--seed", type=int, default=11, help="corpus seed")
    strm.add_argument(
        "--window-s", type=float, default=3 * 3600.0,
        help="micro-batch window size in simtime seconds (default 10800)",
    )
    strm.add_argument(
        "--tenants", type=int, default=1,
        help="split the feeds round-robin over this many tenants "
        "sharing one JobService (default 1)",
    )
    strm.add_argument("--k", type=int, default=3, help="k-means cluster count")
    strm.add_argument(
        "--max-iter", type=int, default=8, help="k-means iteration cap per window"
    )
    strm.add_argument(
        "--sampling-window", type=float, default=1800.0,
        help="down-sampling window within each micro-batch (seconds)",
    )
    strm.add_argument(
        "--no-warm-start", action="store_true",
        help="cold-start k-means in every window instead of reusing the "
        "previous window's centroids",
    )
    strm.add_argument(
        "--late-prob", type=float, default=0.0,
        help="per-batch probability of a late delivery (next window)",
    )
    strm.add_argument(
        "--lost-prob", type=float, default=0.0,
        help="per-batch probability of a lost delivery",
    )
    strm.add_argument(
        "--dup-prob", type=float, default=0.0,
        help="per-batch probability of a duplicate delivery",
    )
    strm.add_argument(
        "--chaos-seed", type=int, default=0, help="feed-chaos schedule seed"
    )
    strm.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="execution backend for the service",
    )
    strm.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="run out-of-core under this memory budget",
    )
    strm.add_argument(
        "--out", help="write the risk-timeline JSON document here"
    )
    strm.add_argument(
        "--report", help="render a previously saved risk-timeline JSON and exit"
    )
    strm.add_argument(
        "--history", help="export the streaming run's job history (.json/.jsonl)"
    )
    strm.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the fixed stream-vs-batch equivalence, chaos and "
        "warm-start checks (used by the CI smoke step)",
    )
    return parser


def _load(path: str):
    dataset = read_geolife_dataset(path) if os.path.isdir(path) else None
    if dataset is None or dataset.num_users() == 0:
        raise SystemExit(f"no GeoLife data found under {path}")
    return dataset


def query_workload(
    corpus, n_queries: int, seed: int
) -> list[tuple[str, tuple[float, ...]]]:
    """A seeded mix of point/range/radius/kNN queries anchored on corpus
    points (so point lookups actually hit) — deterministic given ``seed``."""
    rng = np.random.default_rng(seed + 1000)
    coords = corpus.coordinates()
    anchors = coords[rng.integers(0, len(coords), n_queries)]
    kinds = ("point", "range", "radius", "knn")
    out: list[tuple[str, tuple[float, ...]]] = []
    for i in range(n_queries):
        lat, lon = float(anchors[i, 0]), float(anchors[i, 1])
        kind = kinds[i % len(kinds)]
        if kind == "point":
            out.append(("point", (lat, lon)))
        elif kind == "range":
            out.append(("range", (lat - 0.01, lon - 0.01, lat + 0.01, lon + 0.01)))
        elif kind == "radius":
            out.append(("radius", (lat, lon, 250.0)))
        else:
            out.append(("knn", (lat, lon, 8)))
    return out


def matches_reference(ref_tree, kind: str, args: tuple[float, ...], got) -> bool:
    """Whether ``got``, the served answer to one :func:`query_workload`
    query, is byte-identical to the in-memory ``ref_tree``'s (kNN
    including tie order)."""
    from repro.index.rtree import Rect

    if kind == "knn":
        return got == ref_tree.knn(*args)
    if kind == "radius":
        return np.array_equal(got, ref_tree.query_radius(*args))
    if kind == "point":
        args = (args[0], args[1], args[0], args[1])
    return np.array_equal(got, ref_tree.query_rect(Rect(*args)))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        (command,) = (a.choices[args.command] for a in parser._actions if a.dest == "command")
        for action in command._actions:
            # argparse reads ``--flag=--`` as an empty list (appended to
            # the list of an ``append`` flag), never calling the type.
            value = getattr(args, action.dest, None)
            if action.option_strings and isinstance(value, list) and (value == [] or [] in value):
                raise ValueError(f"{action.option_strings[0]} needs a value, got '--'")
        return _run(args)
    except ValueError as exc:
        # The one place a bad argument becomes an exit: one line, status 1.
        raise SystemExit(f"{args.command}: {exc}")


def _run(args: argparse.Namespace) -> int:
    if args.command == "generate":
        dataset, users = generate_dataset(
            SyntheticConfig(n_users=args.users, days=args.days, seed=args.seed)
        )
        written = write_geolife_dataset(dataset, args.out)
        print(
            f"wrote {len(dataset):,} traces for {dataset.num_users()} users "
            f"({len(written)} PLT files) under {args.out}"
        )
        return 0

    if args.command == "info":
        dataset = _load(args.input)
        flat = dataset.flat()
        lo, hi = flat.time_span()
        bbox = flat.bounding_box()
        print(f"users:  {dataset.num_users()}")
        print(f"traces: {len(flat):,}")
        print(
            "span:   "
            f"{_dt.datetime.fromtimestamp(lo, tz=_dt.timezone.utc):%Y-%m-%d %H:%M} .. "
            f"{_dt.datetime.fromtimestamp(hi, tz=_dt.timezone.utc):%Y-%m-%d %H:%M} UTC"
        )
        print(f"bbox:   lat [{bbox[0]:.4f}, {bbox[2]:.4f}]  lon [{bbox[1]:.4f}, {bbox[3]:.4f}]")
        if args.detailed:
            from repro.geo.stats import corpus_summary, user_stats

            summary = corpus_summary(dataset)
            print(
                f"median r_g: {summary['median_rg_m']:,.0f} m  "
                f"(p90 {summary['p90_rg_m']:,.0f} m); "
                f"median log interval: {summary['median_interval_s']:.1f} s"
            )
            for user in dataset.user_ids:
                s = user_stats(dataset.trail(user))
                print(
                    f"  user {user}: {s.n_traces:,} traces, "
                    f"r_g {s.radius_of_gyration_m:,.0f} m, "
                    f"interval {s.median_interval_s:.1f} s"
                )
        else:
            for user in dataset.user_ids:
                print(f"  user {user}: {len(dataset.trail(user)):,} traces")
        return 0

    if args.command == "visualize":
        dataset = _load(args.input)
        print(ascii_density_map(dataset, width=args.width, height=args.height))
        return 0

    if args.command == "sample":
        from repro.algorithms.sampling import sample_dataset

        dataset = _load(args.input)
        sampled = sample_dataset(dataset, args.window, args.technique)
        write_geolife_dataset(sampled, args.out)
        print(
            f"sampled {len(dataset):,} -> {len(sampled):,} traces "
            f"(window {args.window:.0f}s, {args.technique}) -> {args.out}"
        )
        return 0

    if args.command == "attack":
        if args.selfcheck:
            from repro.attacks.linkage_mr import run_attack_selfcheck

            return 0 if run_attack_selfcheck() else 1
        if not args.input:
            raise SystemExit("attack: provide --in (or --linkage --selfcheck)")
        if args.linkage:
            from repro.attacks.linkage_mr import (
                run_linkage_attack,
                split_linkage_corpus,
            )
            from repro.mapreduce.hdfs import MB
            from repro.mapreduce.runner import fresh_runner

            dataset = _load(args.input)
            train, target, truth = split_linkage_corpus(dataset.flat())
            if len(train) == 0 or len(target) == 0:
                raise SystemExit(
                    "attack: corpus too small to split into training/target halves"
                )
            with fresh_runner(
                {"input/train": train, "input/target": target},
                chunk_size=64 * MB,
                backend=args.backend,
                budget_mb=args.memory_budget_mb,
                record_bytes=64,
            ) as runner:
                outcome = run_linkage_attack(
                    runner,
                    "input/train",
                    "input/target",
                    truth,
                    params=DJClusterParams(radius_m=args.radius, min_pts=args.min_pts),
                    max_pois=args.max_pois,
                    max_match_dist_m=args.max_match_dist,
                )
                if args.history:
                    runner.history.save(args.history)
            result = outcome.result
            linked = sum(1 for v in result.linkage.values() if v is not None)
            print(
                f"linkage attack: {outcome.n_train_fingerprints} training "
                f"fingerprints vs {result.n_targets} pseudonyms "
                f"({args.backend} backend)"
            )
            if result.n_targets <= 30:
                for pseud in sorted(result.linkage):
                    link = result.linkage[pseud]
                    mark = "" if truth.get(pseud) == link else "  (wrong)"
                    if link is None:
                        print(f"  {pseud:<16} -> unlinked")
                    else:
                        score = result.scores[pseud]
                        print(f"  {pseud:<16} -> {link}  (score {score:.4f}){mark}")
            exact = outcome.blocking_exact
            audit = (
                "audit off"
                if exact is None
                else ("blocking exact" if exact else "BLOCKING DROPPED PAIRS")
            )
            print(
                f"linked {linked}/{result.n_targets} "
                f"({result.success_rate:.2%} correct); scored "
                f"{outcome.pairs_scored:,} of {outcome.cross_product:,} "
                f"candidate pairs ({audit}); {outcome.sim_seconds:.1f} "
                "simulated seconds"
            )
            if args.history:
                print(f"job history exported to {args.history}")
            return 0
        dataset = _load(args.input)
        params = DJClusterParams(radius_m=args.radius, min_pts=args.min_pts)
        users = [args.user] if args.user else dataset.user_ids
        for user in users:
            if user not in dataset:
                raise SystemExit(f"unknown user {user!r}")
            pois = poi_attack(dataset.trail(user), params)
            print(f"\nuser {user}: {len(pois)} POIs")
            if pois:
                print(cluster_summary_table(pois))
            if args.semantic:
                from repro.attacks.semantics import label_places

                places, visits = label_places(dataset.trail(user))
                print(f"semantic places ({len(visits)} visits):")
                for p in sorted(places, key=lambda p: -p.total_dwell_s):
                    print(
                        f"  {p.label:<8} at ({p.latitude:.5f}, {p.longitude:.5f}) "
                        f"{p.n_visits} visits, {p.total_dwell_s / 3600:.1f} h"
                    )
        return 0

    if args.command == "sanitize":
        dataset = _load(args.input)
        sanitizer = parse_mechanism(args.mechanism)
        released = sanitizer.sanitize_dataset(dataset)
        write_geolife_dataset(released, args.out)
        print(
            f"applied {sanitizer!r}: {len(dataset):,} -> "
            f"{len(released.flat()):,} traces -> {args.out}"
        )
        return 0

    if args.command == "sweep":
        from repro.attacks.linkage_mr import (
            SYNTH_ATTACK_PARAMS,
            split_linkage_corpus,
            synthetic_linkage_corpus,
        )
        from repro.attacks.sweep import run_sweep

        mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
        if not mechanisms:
            raise SystemExit("sweep: provide at least one --mechanisms spec")
        if args.input:
            dataset = _load(args.input)
            train, target, truth = split_linkage_corpus(dataset.flat())
            defaults = DJClusterParams()
        else:
            train, target, truth = synthetic_linkage_corpus(
                args.users, seed=args.seed
            )
            defaults = SYNTH_ATTACK_PARAMS
        if len(train) == 0 or len(target) == 0:
            raise SystemExit(
                "sweep: corpus too small to split into training/target halves"
            )
        params = DJClusterParams(
            radius_m=args.radius if args.radius is not None else defaults.radius_m,
            min_pts=args.min_pts if args.min_pts is not None else defaults.min_pts,
        )
        frontier = run_sweep(
            train,
            target,
            truth,
            mechanisms,
            params=params,
            executor=args.backend,
            history_path=args.history,
        )
        print(frontier.render())
        print()
        print(frontier.service_report)
        if args.out:
            print(f"frontier written to {frontier.save(args.out)}")
        if args.history:
            print(f"service history exported to {args.history}")
        return 0

    if args.command == "history":
        if args.selfcheck:
            from repro.observability.selfcheck import run_selfcheck

            return run_selfcheck()
        if not args.file:
            raise SystemExit("history: provide a history file or --selfcheck")
        count("--width", args.width, 1)
        from repro.observability.history import load_history
        from repro.observability.report import render_report, render_window_report

        try:
            history = load_history(args.file)
        except FileNotFoundError:
            raise SystemExit(f"no such history file: {args.file}")
        except ValueError as exc:
            raise SystemExit(f"cannot read {args.file}: {exc}")
        violations = history.validate()
        if args.validate_only:
            for violation in violations:
                print(f"violation: {violation}")
            print(
                f"{len(history)} events, {len(history.jobs())} jobs, "
                f"{len(violations)} ordering violation(s)"
            )
            return 1 if violations else 0
        if args.window:
            print(render_window_report(history, tenant=args.tenant))
        else:
            print(
                render_report(
                    history,
                    jobs=args.job,
                    gantt=not args.no_gantt,
                    width=args.width,
                    tenant=args.tenant,
                )
            )
        if violations:
            print(f"\nWARNING: {len(violations)} ordering violation(s); run --validate-only")
            return 1
        return 0

    if args.command == "chaos":
        from repro.mapreduce.chaos import ChaosSchedule, run_chaos_campaign, run_chaos_selfcheck

        if args.selfcheck:
            return run_chaos_selfcheck()
        schedule = ChaosSchedule(
            seed=args.seed,
            crash_prob=args.crash_prob,
            cache_load_prob=args.cache_prob,
            shuffle_fetch_prob=args.shuffle_prob,
            slow_node_prob=args.slow_prob,
            slow_factor=args.slow_factor,
            node_loss_prob=1.0 if args.node_loss else 0.0,
        )
        report = run_chaos_campaign(
            drivers=args.driver,
            seed=args.seed,
            schedule=schedule,
            n_users=args.users,
            days=args.days,
            n_workers=args.workers,
            history_path=args.history,
            executor=args.backend,
            memory_budget_mb=args.memory_budget_mb,
        )
        print(report.render())
        if args.history:
            print(f"chaotic run history exported to {args.history}")
        return 0 if report.ok else 1

    if args.command == "submit":
        from repro.algorithms.sampling import SamplingMapper
        from repro.mapreduce.config import Configuration
        from repro.mapreduce.job import JobSpec
        from repro.mapreduce.runner import fresh_hdfs
        from repro.mapreduce.service import JobService

        positive("--window", args.window)
        dataset, _ = generate_dataset(
            SyntheticConfig(n_users=args.users, days=args.days, seed=args.seed)
        )
        hdfs = fresh_hdfs(
            {"input/traces": dataset.flat().sort_by_time()},
            chunk_size=64 * 1024, n_workers=3, record_bytes=64,
        )
        # Paused service: the future is observably QUEUED before start().
        service = JobService(hdfs, tenants={args.tenant: 1.0}, start=False)
        conf = Configuration({"sampling.window_s": args.window, "sampling.technique": "upper"})

        def sampling_spec(name: str, out: str) -> JobSpec:
            return JobSpec(name, SamplingMapper, ["input/traces"], out, conf=conf,
                           map_cost_factor=0.6)

        with service:
            future = service.submit(sampling_spec("sampling", "out/sampled"),
                                    tenant=args.tenant)
            print(
                f"submitted {future.job_name!r} as tenant {args.tenant!r}: "
                f"status={future.status}"
            )
            service.start()
            result = future.result()
            print(
                f"future resolved: status={future.status} "
                f"cache_hit={future.cache_hit}"
            )
            print(
                f"  {result.output_path}: {result.n_map_tasks} map task(s), "
                f"{result.n_reduce_tasks} reduce task(s), "
                f"{result.timing.total_s:.1f} sim s"
            )
            if args.resubmit:
                fut2 = service.submit(
                    sampling_spec("sampling-resubmit", "out/sampled-resubmit"),
                    tenant=args.tenant,
                )
                r2 = fut2.result()
                print(
                    f"resubmitted identical spec as {fut2.job_name!r}: "
                    f"cache_hit={fut2.cache_hit}, {r2.n_map_tasks} map task(s), "
                    f"setup charge {r2.timing.total_s:.1f} sim s"
                )
            print()
            print(service.report().render())
            if args.history:
                service.history.save(args.history)
                print(f"history exported to {args.history}")
        return 0

    if args.command == "service":
        from repro.mapreduce.chaos import run_multitenant_check

        def show(outcomes) -> bool:
            for o in outcomes:
                verdict = (
                    f"failed cleanly: {o.failure}" if o.failure
                    else f"outputs {'identical' if o.ok else 'DIVERGED'} to solo"
                )
                tenants_txt = ", ".join(sorted(o.signatures))
                chaos_txt = "chaos" if o.chaos_active else "fault-free"
                print(f"  {o.driver:<10} [{chaos_txt}] tenants {tenants_txt}: {verdict}")
            return all(o.ok for o in outcomes)

        if args.selfcheck:
            ok = all([show(run_multitenant_check(seed=args.seed, with_chaos=chaos))
                      for chaos in (False, True)])
            print("service selfcheck OK: every tenant matched solo" if ok
                  else "service selfcheck FAILED")
            return 0 if ok else 1

        tenants: dict[str, float] = {}
        for part in args.weights.split(","):
            name, sep, weight = part.partition("=")
            if not sep:
                raise SystemExit(f"service: bad --weights entry {part!r} (want name=weight)")
            if name.strip() in tenants:
                raise SystemExit(f"service: tenant {name.strip()!r} appears twice in --weights")
            try:
                tenants[name.strip()] = float(weight)
            except ValueError:
                raise SystemExit(f"service: bad weight in {part!r}")
        outcomes = run_multitenant_check(
            drivers=args.driver,
            seed=args.seed,
            with_chaos=not args.no_chaos,
            tenants=tenants,
            n_users=args.users,
            days=args.days,
            n_workers=args.workers,
            executor=args.backend,
        )
        ok = show(outcomes)
        if outcomes:
            print()
            print(outcomes[-1].report)
        return 0 if ok else 1

    if args.command == "query":
        from repro.index.persistent import IndexCatalog
        from repro.index.rtree_mr import build_rtree_mapreduce
        from repro.mapreduce.bench import synthetic_corpus
        from repro.mapreduce.hdfs import MB
        from repro.mapreduce.runner import fresh_runner
        from repro.mapreduce.service import JobService

        def parse_floats(spec: str, n: int, what: str) -> tuple[float, ...]:
            parts = [p for p in spec.split(",") if p.strip()]
            if len(parts) != n:
                raise SystemExit(f"query: {what} wants {n} comma-separated values")
            try:
                values = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise SystemExit(f"query: bad {what}: {exc}")
            for value in values:
                finite(f"{what} values", value)
            return values

        positive("--traces", args.traces)
        if args.budget_mb is not None:
            positive("--budget-mb", args.budget_mb)
        positive("--queries", args.queries)
        explicit: list[tuple[str, tuple[float, ...]]] = []
        if args.point:
            explicit.append(("point", parse_floats(args.point, 2, "--point")))
        if args.range_query:
            rect = parse_floats(args.range_query, 4, "--range")
            if rect[0] > rect[2] or rect[1] > rect[3]:
                raise SystemExit(
                    f"query: --range wants min_lat <= max_lat and min_lon <= max_lon, "
                    f"got {args.range_query!r}"
                )
            explicit.append(("range", rect))
        if args.radius_query:
            lat, lon, radius = parse_floats(args.radius_query, 3, "--radius-query")
            non_negative("--radius-query radius", radius)
            explicit.append(("radius", (lat, lon, radius)))
        if args.knn:
            lat, lon, k = parse_floats(args.knn, 3, "--knn")
            if k < 1 or k != int(k):
                raise SystemExit(f"query: --knn k must be a positive integer, got {k:g}")
            explicit.append(("knn", (lat, lon, int(k))))
        corpus = synthetic_corpus(args.traces, seed=args.seed)
        with fresh_runner(
            {"input/traces": corpus}, chunk_size=MB, budget_mb=args.budget_mb
        ) as runner:
            hdfs = runner.hdfs
            n_partitions = max(1, runner.cluster.total_reduce_slots() // 2)
            catalog = IndexCatalog(hdfs)
            index, built = catalog.ensure(
                runner, "input/traces", n_partitions=n_partitions
            )
            entry = catalog.entries()[0]
            print(
                f"published index {entry.key}: {entry.n_points:,} points, "
                f"{index.meta['n_pages']} pages "
                f"({index.meta['page_bytes'] / MB:.1f} MB) built in "
                f"{entry.build_sim_seconds:.1f} sim s under a "
                f"{args.budget_mb} MB budget"
            )
            starts_before = len(runner.history.jobs())
            index, rebuilt = catalog.ensure(
                runner, "input/traces", n_partitions=n_partitions
            )
            reuse_jobs = len(runner.history.jobs()) - starts_before
            if rebuilt or reuse_jobs:
                print(f"WARNING: second ensure rebuilt ({reuse_jobs} job(s) ran)")
            else:
                print("second ensure: catalog hit, 0 jobs ran")

        ref_tree = None
        if not args.no_verify:
            # The identical MapReduce build on an unbudgeted twin keeps
            # its merged tree in memory as the byte-identity reference.
            with fresh_runner({"input/traces": corpus}, chunk_size=MB) as ref_runner:
                ref_tree = build_rtree_mapreduce(
                    ref_runner,
                    "input/traces",
                    n_partitions=n_partitions,
                    workdir="tmp/rtree-ref",
                ).tree

        workload = explicit or query_workload(corpus, args.queries, args.seed)

        mismatches = 0
        with JobService(hdfs, tenants={args.tenant: 1.0}) as service:
            client = service.client(args.tenant)
            engine = client.query_engine(key=entry.key)
            for kind, params in workload:
                got = getattr(engine, kind)(*params)
                same = ref_tree is None or matches_reference(ref_tree, kind, params, got)
                mismatches += 0 if same else 1
                last = engine.stats.last
                verdict = "" if ref_tree is None else (
                    "  [identical]" if same else "  [DIVERGED]"
                )
                shown = ", ".join(f"{p:g}" for p in params)
                print(
                    f"  {kind:<7} ({shown}): {last['n_results']} result(s), "
                    f"{last['page_faults']} page fault(s), "
                    f"{1000 * last['latency_s']:.2f} ms sim{verdict}"
                )
            report = engine.report()
            print(
                f"served {report['n_queries']} queries with zero map tasks: "
                f"{report['page_faults']} page fault(s) "
                f"({report['fault_bytes'] / MB:.2f} MB paged in), "
                f"mean sim latency {report['mean_latency_ms']:.2f} ms"
            )
            if ref_tree is not None:
                print(
                    "answers byte-identical to the in-memory R-tree"
                    if mismatches == 0
                    else f"{mismatches} quer(ies) DIVERGED from the in-memory R-tree"
                )
            if args.history:
                service.history.save(args.history)
                print(f"history exported to {args.history}")
        return 1 if mismatches else 0

    if args.command == "stream":
        import json as _json

        if args.report:
            from repro.streaming.manager import RiskTimeline

            try:
                with open(args.report) as fh:
                    doc = _json.load(fh)
                # --out writes one timeline, or {tenant: timeline} for --tenants > 1.
                docs = [doc] if "schema" in doc else [doc[name] for name in sorted(doc)]
                timelines = [RiskTimeline.from_doc(d) for d in docs]
            except FileNotFoundError:
                raise SystemExit(f"stream: no such timeline file: {args.report}")
            except (ValueError, LookupError, TypeError) as exc:
                raise SystemExit(f"stream: cannot read {args.report}: {exc}")
            for timeline in timelines:
                print(timeline.render())
            return 0

        if args.selfcheck:
            from repro.streaming.check import run_stream_selfcheck

            ok = run_stream_selfcheck(verbose=True)
            print("stream selfcheck: ok" if ok else "stream selfcheck: FAILED")
            return 0 if ok else 1

        from repro.mapreduce.failures import ChaosSchedule, JobFailedError
        from repro.streaming.check import run_multitenant_stream, run_stream

        positive("--tenants", args.tenants)
        positive("--window-s", args.window_s)
        dataset, _ = generate_dataset(
            SyntheticConfig(n_users=args.users, days=args.days, seed=args.seed)
        )
        array = dataset.flat()
        chaos = None
        if args.late_prob or args.lost_prob or args.dup_prob:
            chaos = ChaosSchedule(
                seed=args.chaos_seed,
                late_batch_prob=args.late_prob,
                lost_batch_prob=args.lost_prob,
                dup_batch_prob=args.dup_prob,
            )
        manager_kwargs = dict(
            k=args.k,
            max_iter=args.max_iter,
            sampling_window_s=args.sampling_window,
            warm_start=not args.no_warm_start,
            seed=args.seed,
        )
        try:
            if args.tenants == 1:
                result = run_stream(
                    array,
                    args.window_s,
                    mode="service",
                    executor=args.backend,
                    max_workers=None if args.backend == "serial" else 2,
                    memory_budget_mb=args.memory_budget_mb,
                    chaos=chaos,
                    history_path=args.history,
                    **manager_kwargs,
                )
                results = {"stream": result}
            else:
                tenants = {
                    f"tenant{i}": 1.0 for i in range(args.tenants)
                }
                results, report = run_multitenant_stream(
                    array,
                    args.window_s,
                    tenants,
                    executor=args.backend,
                    max_workers=None if args.backend == "serial" else 2,
                    memory_budget_mb=args.memory_budget_mb,
                    chaos=chaos,
                    history_path=args.history,
                    **manager_kwargs,
                )
        except JobFailedError as exc:
            raise SystemExit(f"stream: run failed cleanly under chaos: {exc}")
        for name in sorted(results):
            print(results[name].timeline.render())
            print(f"run signature: {results[name].signature()}")
        if args.tenants > 1:
            print(report.render())
        if args.out:
            docs = (
                results["stream"].timeline.to_doc()
                if args.tenants == 1
                else {
                    name: results[name].timeline.to_doc()
                    for name in sorted(results)
                }
            )
            with open(args.out, "w") as fh:
                _json.dump(docs, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"timeline written to {args.out}")
        if args.history:
            print(f"history exported to {args.history}")
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
