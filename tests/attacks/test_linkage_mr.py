"""Tests for the MapReduce linkage attack (repro.attacks.linkage_mr)."""

import math
import pickle

import numpy as np
import pytest

from repro.attacks.deanonymization import deanonymization_attack
from repro.attacks.linkage_mr import (
    SYNTH_ATTACK_PARAMS,
    blocking_cells,
    cover_cells,
    linkage_signature,
    run_linkage_attack,
    split_linkage_corpus,
    synthetic_linkage_corpus,
)
from repro.geo.distance import haversine_m
from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from tests.conftest import count_calls

from .blocking_oracle import cell as blocking_cell
from .blocking_oracle import cover, oracle_cell, oracle_cover

D = 500.0


def _deployment(train, target, *, chunk_size=16 * 1024, budget_mb=None, executor="serial"):
    hdfs = SimulatedHDFS(
        paper_cluster(3), chunk_size=chunk_size, seed=0, memory_budget_mb=budget_mb
    )
    hdfs.put_trace_array("input/train", train, record_bytes=64)
    hdfs.put_trace_array("input/target", target, record_bytes=64)
    return JobRunner(hdfs, executor=executor, memory_budget_mb=budget_mb)


class TestBlockingGeometry:
    def test_cell_is_deterministic_int_pair(self):
        cell = blocking_cell(48.85, 2.35, D)
        assert isinstance(cell, tuple) and len(cell) == 2
        assert all(isinstance(c, int) for c in cell)
        assert cell == blocking_cell(48.85, 2.35, D)

    def test_cover_contains_own_cell(self):
        for lat, lon in [(0.0, 0.0), (48.85, 2.35), (-33.9, 151.2), (64.1, -21.9)]:
            assert blocking_cell(lat, lon, D) in cover(lat, lon, D)

    def test_cover_never_drops_a_nearby_point(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lat = float(rng.uniform(-84.0, 84.0))
            lon = float(rng.uniform(-180.0, 180.0))
            # A point on the edge of the match radius, any bearing.
            bearing = float(rng.uniform(0, 2 * math.pi))
            frac = float(rng.uniform(0.0, 1.0))
            dlat = math.degrees(frac * D * math.cos(bearing) / 6_371_008.8)
            dlon = math.degrees(
                frac * D * math.sin(bearing)
                / (6_371_008.8 * max(math.cos(math.radians(lat)), 1e-9))
            )
            plat, plon = lat + dlat, lon + dlon
            if plon > 180.0:
                plon -= 360.0
            if plon < -180.0:
                plon += 360.0
            if haversine_m(lat, lon, plat, plon) > D:
                continue
            assert blocking_cell(plat, plon, D) in cover(lat, lon, D)

    def test_polar_caps_collapse_to_one_cell(self):
        assert blocking_cell(89.0, 10.0, D) == blocking_cell(86.0, -170.0, D)
        assert blocking_cell(-89.0, 10.0, D) != blocking_cell(89.0, 10.0, D)

    def test_antimeridian_cover_wraps(self):
        assert blocking_cell(10.0, -179.999, D) in cover(10.0, 179.999, D)

    @pytest.mark.parametrize("d", [100.0, D, 2_000.0])
    def test_one_batch_equals_the_scalar_oracle_point_by_point(self, d):
        rng = np.random.default_rng(int(d))
        lat = np.concatenate((
            rng.uniform(-89.9, 89.9, 300),
            [0.0, -0.0, 84.999, 85.0, 85.001, -84.999, -85.001, 89.999, -89.999, 10.0, 10.0],
            # One ulp either side of band edges.
            np.nextafter(np.arange(-5, 5) * 2.0 * d / 110_000.0, np.inf),
            np.nextafter(np.arange(-5, 5) * 2.0 * d / 110_000.0, -np.inf),
        ))
        lon = np.concatenate((
            rng.uniform(-180.0, 180.0, 300),
            [0.0, 0.0, 179.9999, -179.9999, 180.0, -180.0, 0.0, 120.0, -60.0, 179.999, -179.999],
            rng.uniform(-180.0, 180.0, 20),
        ))
        band, j = blocking_cells(lat, lon, d)
        point, cover_band, cover_j = cover_cells(lat, lon, d)
        covers = [set() for _ in lat]
        for p, b, c in zip(point.tolist(), cover_band.tolist(), cover_j.tolist()):
            covers[p].add((b, c))
        for i, (a, o) in enumerate(zip(lat.tolist(), lon.tolist())):
            assert (int(band[i]), int(j[i])) == oracle_cell(a, o, d)
            assert covers[i] == oracle_cover(a, o, d)

    def test_empty_batches(self):
        band, j = blocking_cells([], [], D)
        assert band.dtype == j.dtype == np.int64 and len(band) == len(j) == 0
        assert all(len(column) == 0 for column in cover_cells([], [], D))

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_match_distance(self, d):
        with pytest.raises(ValueError, match="max_match_dist_m"):
            blocking_cells([1.0], [2.0], d)
        with pytest.raises(ValueError, match="max_match_dist_m"):
            cover_cells([1.0], [2.0], d)

    @pytest.mark.parametrize("lat, lon", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite_points(self, lat, lon):
        with pytest.raises(ValueError, match="finite"):
            blocking_cells([0.0, lat], [0.0, lon], D)
        with pytest.raises(ValueError, match="finite"):
            cover_cells([0.0, lat], [0.0, lon], D)


class TestArgumentChecks:
    """Bad attack parameters fail before any job runs, with a named error."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(max_match_dist_m=math.nan), "max_match_dist_m"),
            (dict(max_match_dist_m=0.0), "max_match_dist_m"),
            (dict(max_match_dist_m=-1.0), "max_match_dist_m"),
            (dict(max_match_dist_m=math.inf), "max_match_dist_m"),
            (dict(max_pois=0), "max_pois"),
            (dict(max_pois=2.5), "max_pois"),
            (dict(max_pois=True), "max_pois"),
            (dict(attach_radius_m=math.nan), "attach_radius_m"),
            (dict(attach_radius_m=-1.0), "attach_radius_m"),
        ],
    )
    def test_rejected_before_the_first_job(self, kwargs, message):
        train, target, truth = synthetic_linkage_corpus(2, seed=1)
        runner = _deployment(train, target)
        try:
            with pytest.raises(ValueError, match=message):
                run_linkage_attack(
                    runner, "input/train", "input/target", truth,
                    params=SYNTH_ATTACK_PARAMS, **kwargs,
                )
            assert runner.history.clock == 0.0
        finally:
            runner.close()


class TestEquivalence:
    @pytest.fixture(scope="class")
    def corpus(self):
        return synthetic_linkage_corpus(10, seed=21)

    @pytest.fixture(scope="class")
    def reference(self, corpus):
        train, target, truth = corpus
        return deanonymization_attack(
            train, target, truth, params=SYNTH_ATTACK_PARAMS
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mr_equals_serial_on_every_backend(self, corpus, reference, backend):
        train, target, truth = corpus
        runner = _deployment(train, target, executor=backend)
        try:
            outcome = run_linkage_attack(
                runner,
                "input/train",
                "input/target",
                truth,
                params=SYNTH_ATTACK_PARAMS,
            )
        finally:
            runner.close()
        assert outcome.signature() == linkage_signature(reference)
        assert outcome.result.linkage == reference.linkage
        assert outcome.result.scores == reference.scores

    def test_mr_equals_serial_under_memory_budget(self, corpus, reference):
        train, target, truth = corpus
        runner = _deployment(train, target, budget_mb=4.0)
        try:
            outcome = run_linkage_attack(
                runner,
                "input/train",
                "input/target",
                truth,
                params=SYNTH_ATTACK_PARAMS,
            )
        finally:
            runner.close()
        assert outcome.signature() == linkage_signature(reference)

    def test_reference_follows_the_attach_radius(self):
        # The serial reference used to hard-wire 200 m, so at any other
        # radius the MR attack "diverged" from its own ground truth.
        train, target, truth = synthetic_linkage_corpus(5, seed=0, pois_per_user=3)
        signatures = {}
        for radius in (3.0, 200.0):
            reference = deanonymization_attack(
                train, target, truth, params=SYNTH_ATTACK_PARAMS, attach_radius_m=radius
            )
            runner = _deployment(train, target)
            try:
                outcome = run_linkage_attack(
                    runner, "input/train", "input/target", truth,
                    params=SYNTH_ATTACK_PARAMS, attach_radius_m=radius,
                )
            finally:
                runner.close()
            assert outcome.signature() == linkage_signature(reference)
            assert outcome.result.scores == reference.scores
            signatures[radius] = outcome.signature()
        assert signatures[3.0] != signatures[200.0]  # the radius matters on this corpus

    @pytest.mark.parametrize("budget_mb", [None, 0.002])
    def test_row_blocks_do_not_show_in_the_output(self, corpus, reference, budget_mb, monkeypatch):
        # 10 users x 30 rows a side over 2 reducers against a 60-row
        # block: every reduce task cuts its partition into several
        # fingerprint_users calls — under the budget its partition comes
        # back from a spilled shuffle — and nothing downstream can tell.
        from repro.attacks import linkage_mr

        train, target, truth = corpus
        calls = count_calls(monkeypatch, linkage_mr, "fingerprint_users")
        outputs = {}
        default_rows = linkage_mr._BLOCK_ROWS
        for block_rows in (default_rows, 60):
            monkeypatch.setattr(linkage_mr, "_BLOCK_ROWS", block_rows)
            del calls[:]
            runner = _deployment(train, target, budget_mb=budget_mb)
            try:
                outcome = run_linkage_attack(
                    runner, "input/train", "input/target", truth,
                    params=SYNTH_ATTACK_PARAMS, num_reducers=2,
                )
                outputs[block_rows] = [
                    list(runner.hdfs.read_records(f"tmp/linkage/fingerprints-{side}"))
                    for side in ("train", "target")
                ]
                spilled = sum(e.kind == "spill_merge" for e in runner.history.events)
            finally:
                runner.close()
            assert outcome.signature() == linkage_signature(reference)
            assert (spilled > 0) == (budget_mb is not None)
            assert sum(len(args[0]) for args in calls) == len(train) + len(target)
            assert len(calls) == (4 if block_rows > 60 else 12)
        assert pickle.dumps(outputs[60]) == pickle.dumps(outputs[default_rows])

    def test_audit_proves_blocking_lossless(self, corpus):
        train, target, truth = corpus
        runner = _deployment(train, target)
        try:
            outcome = run_linkage_attack(
                runner,
                "input/train",
                "input/target",
                truth,
                params=SYNTH_ATTACK_PARAMS,
            )
        finally:
            runner.close()
        assert outcome.pairs_exact is not None
        assert outcome.blocking_exact is True
        assert outcome.pairs_scored == outcome.pairs_exact
        assert outcome.pairs_scored < outcome.cross_product

    def test_attack_result_event_emitted(self, corpus):
        train, target, truth = corpus
        runner = _deployment(train, target)
        try:
            outcome = run_linkage_attack(
                runner,
                "input/train",
                "input/target",
                truth,
                params=SYNTH_ATTACK_PARAMS,
            )
            events = [
                e
                for e in runner.history.events
                if e.kind == "attack_result"
            ]
        finally:
            runner.close()
        assert len(events) == 1
        result = events[0].payload
        assert result.signature == outcome.signature()
        assert result.pairs_scored == outcome.pairs_scored
        assert result.cross_product == outcome.cross_product

    def test_no_evidence_pair_is_never_shuffled(self):
        # Two users half a planet apart share no blocking cell, so the
        # linkage job scores zero pairs and links nothing.
        train, target, truth = synthetic_linkage_corpus(
            2, seed=4, region=((30.0, 31.0), (-100.0, -99.0))
        )
        far_target = TraceArray.from_columns(
            list(target.user_ids()),
            target.latitude - 20.0,
            target.longitude + 90.0,
            target.timestamp.copy(),
        )
        runner = _deployment(train, far_target)
        try:
            outcome = run_linkage_attack(
                runner,
                "input/train",
                "input/target",
                truth,
                params=SYNTH_ATTACK_PARAMS,
            )
        finally:
            runner.close()
        assert outcome.pairs_scored == 0
        assert all(v is None for v in outcome.result.linkage.values())


class TestBlockingShuffle:
    """Stage 2 ships who meets whom: cell keys and fingerprint ordinals."""

    def test_the_score_shuffle_moves_ints_on_the_vectorized_path(self, monkeypatch):
        from repro.attacks.mmc import MobilityMarkovChain
        from repro.mapreduce import shuffle

        calls = []
        fast = shuffle._shuffle_fast

        def recording(map_outputs, partitioner, n_reducers):
            result = fast(map_outputs, partitioner, n_reducers)
            calls.append(([pair for output in map_outputs for pair in output], result))
            return result

        monkeypatch.setattr(shuffle, "_shuffle_fast", recording)
        train, target, truth = synthetic_linkage_corpus(12, seed=3)
        runner = _deployment(train, target)
        try:
            outcome = run_linkage_attack(runner, "input/train", "input/target", truth,
                                         params=SYNTH_ATTACK_PARAMS)
            (finish,) = (e for e in runner.history.events
                         if e.kind == "job_finish" and e.job == "linkage-score")
        finally:
            runner.close()
        assert outcome.pairs_scored == outcome.pairs_exact > 0

        def chains_in(value):
            if isinstance(value, tuple):
                return any(chains_in(v) for v in value)
            return isinstance(value, MobilityMarkovChain)

        assert not any(chains_in(value) for pairs, _ in calls for _, value in pairs)
        ints = [(pairs, result) for pairs, result in calls
                if pairs and all(type(k) is int and type(v) is int for k, v in pairs)]
        (pairs, result), = ints
        assert result is not None  # the vectorized path took it
        task = finish.payload.counters["task"]
        assert len(pairs) == task["map_output_records"]
        assert result.shuffled_bytes == task["shuffle_bytes"] == task["map_output_bytes"]
        assert task["shuffle_bytes"] == 16 * len(pairs)

    def test_seam_pairs_are_the_brute_force(self, monkeypatch):
        # On the golden's seam corpus (covers wrap the antimeridian and
        # reach the polar cell) the reduce tasks consider exactly the
        # pairs sharing a blocking cell of the scalar oracle, each once,
        # and score exactly those with a POI pair within the distance.
        from repro.attacks import linkage_mr
        from tests.goldens.attacks import CASES

        seen, scored, tables = [], [], []
        owned_pairs, pair_score = linkage_mr._owned_pairs, linkage_mr._pair_score

        def owning(table, groups):
            tables.append(table)
            owned = owned_pairs(table, groups)
            seen.extend((table.users[t], table.users[r]) for _, t, r in owned)
            return owned

        def scoring(a, b, matched, penalty):
            ordinal = {id(chain): o for o, chain in enumerate(tables[-1].chains)}
            scored.append((tables[-1].users[ordinal[id(a)]], tables[-1].users[ordinal[id(b)]]))
            return pair_score(a, b, matched, penalty)

        monkeypatch.setattr(linkage_mr, "_owned_pairs", owning)
        monkeypatch.setattr(linkage_mr, "_pair_score", scoring)
        train, target, truth = synthetic_linkage_corpus(**CASES["seam"])
        runner = _deployment(train, target)
        try:
            outcome = run_linkage_attack(runner, "input/train", "input/target", truth,
                                         params=SYNTH_ATTACK_PARAMS)
        finally:
            runner.close()
        table = tables[0]
        prints = list(zip(table.users, table.chains))
        trains, targets = prints[: table.n_train], prints[table.n_train :]
        sharing, near = set(), set()
        for user, fp in targets:
            own = {oracle_cell(lat, lon, D) for lat, lon in fp.states.tolist()}
            for train_user, train_fp in trains:
                covered = set().union(*(oracle_cover(lat, lon, D)
                                        for lat, lon in train_fp.states.tolist()))
                if own & covered:
                    sharing.add((user, train_user))
                dists = haversine_m(fp.states[:, None, 0], fp.states[:, None, 1],
                                    train_fp.states[None, :, 0], train_fp.states[None, :, 1])
                if (dists <= D).any():
                    near.add((user, train_user))
        assert len(seen) == len(set(seen)) and set(seen) == sharing
        assert len(scored) == len(set(scored)) and set(scored) == near
        assert outcome.pairs_scored == outcome.pairs_exact == len(near) > 0


class TestCorpusHelpers:
    def test_split_is_disjoint_and_truthful(self):
        train, _, truth = synthetic_linkage_corpus(5, seed=9)
        tr, tgt, split_truth = split_linkage_corpus(train)
        assert len(tr) + len(tgt) == len(train)
        assert float(tr.timestamp.max()) < float(tgt.timestamp.min()) + 1e-9
        for pseud, user in split_truth.items():
            assert pseud == "anon-" + user

    def test_synthetic_corpus_shapes(self):
        train, target, truth = synthetic_linkage_corpus(7, seed=1)
        assert len(set(train.user_ids().tolist())) == 7
        assert len(truth) == 7
        assert set(truth.values()) == set(train.user_ids().tolist())
        # Target rows are strictly later than training rows.
        assert float(target.timestamp.min()) > float(train.timestamp.max())

    def test_empty_split(self):
        empty = TraceArray.empty()
        tr, tgt, truth = split_linkage_corpus(empty)
        assert len(tr) == 0 and len(tgt) == 0 and truth == {}


class TestSweep:
    def test_frontier_smoke_and_roundtrip(self, tmp_path):
        from repro.attacks.sweep import run_sweep

        train, target, truth = synthetic_linkage_corpus(6, seed=2)
        frontier = run_sweep(
            train,
            target,
            truth,
            ["none", "gaussian:5000"],
            params=SYNTH_ATTACK_PARAMS,
        )
        assert [c.mechanism for c in frontier.cells] == ["none", "gaussian:5000"]
        origin, noisy = frontier.cells
        # The pseudonymize-only origin is fully linkable; drowning the
        # release in 5 km noise must hurt the attack.
        assert origin.success_rate == 1.0
        assert noisy.success_rate < origin.success_rate
        assert noisy.distortion_m is not None and noisy.distortion_m > origin.distortion_m
        assert "tenant" in frontier.service_report
        path = frontier.save(tmp_path / "frontier.json")
        import json

        doc = json.loads(path.read_text())
        assert doc["cells"] == [c.to_doc() for c in frontier.cells]

    def test_colliding_slugs_rejected(self):
        from repro.attacks.sweep import run_sweep

        train, target, truth = synthetic_linkage_corpus(2, seed=2)
        with pytest.raises(ValueError, match="collide"):
            run_sweep(train, target, truth, ["gaussian:100", "gaussian 100"])

    def test_no_mechanism_rejected(self):
        from repro.attacks.sweep import run_sweep

        train, target, truth = synthetic_linkage_corpus(2, seed=2)
        with pytest.raises(ValueError, match="at least one mechanism"):
            run_sweep(train, target, truth, [])

    def test_a_failed_cell_fails_the_sweep_naming_it(self, monkeypatch):
        import repro.attacks.sweep as sweep

        real = sweep.run_linkage_attack

        def attack(client, train_path, *args, **kwargs):
            if "gaussian" in train_path:
                raise ValueError("cell broke")
            return real(client, train_path, *args, **kwargs)

        monkeypatch.setattr(sweep, "run_linkage_attack", attack)
        train, target, truth = synthetic_linkage_corpus(2, seed=2)
        with pytest.raises(RuntimeError, match="sweep cell 'gaussian-100' failed") as info:
            sweep.run_sweep(train, target, truth, ["none", "gaussian:100"],
                            params=SYNTH_ATTACK_PARAMS)
        assert str(info.value.__cause__) == "cell broke"

    @pytest.mark.parametrize("spec", ["aggregate:500", "pseudonymize:7"])
    def test_the_sweep_scores_the_release_repro_sanitize_writes(self, spec):
        """One definition per mechanism: a sweep cell attacks the release
        ``repro sanitize <spec>`` writes for the same rows, on a corpus
        whose users share grid cells."""
        from repro.attacks.sweep import _sanitize
        from repro.cli import parse_mechanism
        from repro.geo.synthetic import SyntheticConfig, generate_dataset
        from repro.geo.trace import TraceArray

        dataset, _ = generate_dataset(SyntheticConfig(n_users=4, days=1, seed=5))
        _, target, _ = split_linkage_corpus(dataset)
        swept = _sanitize(spec, target).by_user()
        written = parse_mechanism(spec).sanitize_dataset(target.by_user())
        assert swept.signature() == written.signature()

    def test_sweep_cell_events_emitted(self, tmp_path):
        from repro.attacks.sweep import run_sweep
        from repro.observability.history import load_history

        train, target, truth = synthetic_linkage_corpus(4, seed=6)
        history_path = tmp_path / "sweep-history.jsonl"
        run_sweep(
            train,
            target,
            truth,
            ["none"],
            params=SYNTH_ATTACK_PARAMS,
            history_path=str(history_path),
        )
        history = load_history(history_path)
        cells = [e for e in history.events if e.kind == "sweep_cell"]
        assert len(cells) == 1
        assert cells[0].payload.mechanism == "none"
        assert cells[0].payload.tenant == "none"


class TestDegenerateInputs:
    """Inputs the attack cannot use are refused with a typed error, and
    inputs with nothing to link link nothing."""

    def test_blocking_grid_refuses_bad_coordinates(self):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            blocking_cells([40.0, 41.0], [116.0], D)
        with pytest.raises(ValueError, match="too small for an int64 blocking grid"):
            blocking_cells([40.0], [116.0], 1e-13)

    def test_fingerprint_job_refuses_a_record_file(self):
        _, target, truth = synthetic_linkage_corpus(2, seed=2)
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=16 * 1024, seed=0)
        hdfs.put_records("input/train", [(0, "not a trace")])
        hdfs.put_trace_array("input/target", target, record_bytes=64)
        with pytest.raises(TypeError, match="fingerprint jobs read trace-array files"):
            run_linkage_attack(JobRunner(hdfs), "input/train", "input/target", truth,
                               params=SYNTH_ATTACK_PARAMS)

    def test_empty_training_links_nothing_and_audits_nothing(self):
        train, target, truth = synthetic_linkage_corpus(2, seed=2)
        runner = _deployment(train[np.arange(0)], target)
        outcome = run_linkage_attack(runner, "input/train", "input/target", truth,
                                     params=SYNTH_ATTACK_PARAMS)
        assert outcome.pairs_exact is None and outcome.blocking_exact is None
        assert set(outcome.result.linkage.values()) == {None}

    def test_a_target_without_fingerprint_is_unlinked(self):
        train, target, truth = synthetic_linkage_corpus(2, seed=2)
        stray = TraceArray.from_columns(["anon-stray"], [40.0], [116.0], [target.timestamp[0]])
        target = TraceArray.concatenate([target, stray])
        outcome = run_linkage_attack(_deployment(train, target, chunk_size=64), "input/train",
                                     "input/target", truth, params=SYNTH_ATTACK_PARAMS)
        assert outcome.result.linkage["anon-stray"] is None
        assert outcome.result.linkage == deanonymization_attack(
            train, target, truth, SYNTH_ATTACK_PARAMS
        ).linkage
