"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_mechanism
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


@pytest.fixture()
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    assert main(["generate", "--out", str(root), "--users", "2", "--days", "1", "--seed", "5"]) == 0
    return root


class TestParseMechanism:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("gaussian:200", GaussianMask),
            ("uniform:100", UniformNoiseMask),
            ("donut:50-150", DonutMask),
            ("laplace:0.01", PlanarLaplaceMask),
            ("rounding:500", RoundingMask),
            ("aggregate:300", SpatialAggregator),
            ("sample:600", TemporalAggregator),
            ("cloak:3", SpatialCloaking),
            ("pseudonymize:7", Pseudonymizer),
            ("pseudonymize", Pseudonymizer),
        ],
    )
    def test_specs(self, spec, cls):
        assert isinstance(parse_mechanism(spec), cls)

    def test_unknown_mechanism(self):
        with pytest.raises(SystemExit, match="unknown mechanism"):
            parse_mechanism("teleport:1")

    def test_bad_parameter(self):
        with pytest.raises(SystemExit, match="bad mechanism parameter"):
            parse_mechanism("gaussian:soft")


class TestCommands:
    def test_generate_writes_geolife_layout(self, corpus_dir):
        plt_files = list(corpus_dir.glob("*/Trajectory/*.plt"))
        assert len(plt_files) == 2

    def test_info(self, corpus_dir, capsys):
        assert main(["info", "--in", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "users:  2" in out
        assert "traces:" in out
        assert "user 000" in out

    def test_info_detailed(self, corpus_dir, capsys):
        assert main(["info", "--in", str(corpus_dir), "--detailed"]) == 0
        out = capsys.readouterr().out
        assert "median r_g" in out
        assert "interval" in out

    def test_visualize(self, corpus_dir, capsys):
        assert main(["visualize", "--in", str(corpus_dir), "--width", "30", "--height", "8"]) == 0
        out = capsys.readouterr().out
        assert "lat [" in out

    def test_sample_roundtrip(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "sampled"
        assert main(
            ["sample", "--in", str(corpus_dir), "--out", str(out_dir), "--window", "300"]
        ) == 0
        msg = capsys.readouterr().out
        assert "->" in msg
        assert list(out_dir.glob("*/Trajectory/*.plt"))

    @pytest.mark.parametrize("window", ["nan", "inf", "-1", "0"])
    def test_sample_rejects_a_window_that_is_not_positive_and_finite(
        self, corpus_dir, tmp_path, window
    ):
        out_dir = tmp_path / "sampled"
        with pytest.raises(SystemExit, match="^sample: window_s must be positive and finite"):
            main(["sample", "--in", str(corpus_dir), "--out", str(out_dir), "--window", window])
        assert not out_dir.exists()

    @pytest.mark.parametrize("tenants", [1, 2])
    def test_stream_report_renders_what_out_wrote(self, tmp_path, capsys, tenants):
        doc = tmp_path / "timeline.json"
        args = ["stream", "--users", "2", "--tenants", str(tenants), "--out", str(doc)]
        assert main(args) == 0
        ran = capsys.readouterr().out
        assert main(["stream", "--report", str(doc)]) == 0
        report = capsys.readouterr().out
        assert report.count("risk timeline:") == tenants
        assert set(report.splitlines()) <= set(ran.splitlines())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-match-dist", "nan", "max_match_dist_m must be positive and finite"),
            ("--max-match-dist", "-5", "max_match_dist_m must be positive and finite"),
            ("--max-match-dist", "0", "max_match_dist_m must be positive and finite"),
            ("--max-match-dist", "inf", "max_match_dist_m must be positive and finite"),
            ("--max-pois", "0", "max_pois must be an integer >= 1"),
        ],
    )
    def test_linkage_rejects_a_bad_parameter_in_one_line(self, corpus_dir, flag, value, message):
        # Each of these used to end in a traceback from inside a job.
        with pytest.raises(SystemExit, match=f"^attack: {message}"):
            main(["attack", "--in", str(corpus_dir), "--linkage", f"{flag}={value}"])

    def test_attack(self, corpus_dir, tmp_path, capsys):
        sampled = tmp_path / "sampled"
        main(["sample", "--in", str(corpus_dir), "--out", str(sampled), "--window", "60"])
        capsys.readouterr()
        assert main(
            ["attack", "--in", str(sampled), "--radius", "80", "--min-pts", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "POIs" in out
        assert "home" in out

    def test_attack_single_user(self, corpus_dir, tmp_path, capsys):
        sampled = tmp_path / "s"
        main(["sample", "--in", str(corpus_dir), "--out", str(sampled), "--window", "60"])
        capsys.readouterr()
        assert main(
            ["attack", "--in", str(sampled), "--user", "000", "--radius", "80", "--min-pts", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "user 000" in out
        assert "user 001" not in out

    def test_attack_semantic_flag(self, corpus_dir, capsys):
        assert main(
            [
                "attack", "--in", str(corpus_dir), "--user", "000",
                "--radius", "80", "--min-pts", "5", "--semantic",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "semantic places" in out
        assert "home" in out

    def test_attack_unknown_user(self, corpus_dir):
        with pytest.raises(SystemExit, match="unknown user"):
            main(["attack", "--in", str(corpus_dir), "--user", "zzz"])

    def test_sanitize(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "masked"
        assert main(
            [
                "sanitize",
                "--in", str(corpus_dir),
                "--out", str(out_dir),
                "--mechanism", "gaussian:150",
            ]
        ) == 0
        msg = capsys.readouterr().out
        assert "GaussianMask" in msg
        assert list(out_dir.glob("*/Trajectory/*.plt"))

    def test_missing_input(self, tmp_path):
        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["info", "--in", str(tmp_path / "absent")])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchCommand:
    _SPILL = ["bench", "--spill", "--sizes", "20000", "--max-iter", "2", "--budget-mb"]
    _ARGS = [*_SPILL, "0.25"]
    # A budget the corpus fits under checks nothing: the spill gates fail.
    _FAILING = [*_SPILL, "512"]

    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([*self._ARGS, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "unbudgeted" in text and "budgeted" in text
        assert out.exists()

    def test_check_against_own_run_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([*self._ARGS, "--out", str(baseline)]) == 0
        assert main([*self._ARGS, "--check", "--baseline", str(baseline)]) == 0
        assert "no drift from baseline" in capsys.readouterr().out

    def test_unknown_backend_exits(self):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["bench", "--shuffle", "--backends", "fibers"])

    @pytest.mark.parametrize(
        ("option", "message"),
        [
            ("--sizes", "--sizes names no corpus size"),
            ("--backends", "--backends names no backend"),
        ],
    )
    def test_an_empty_list_is_a_usage_error(self, option, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"bench: {message}"):
            main(["bench", "--spill", option, " , "])
        assert list(tmp_path.iterdir()) == []

    def test_no_mode_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--spill --multitenant --query --stream --shuffle --attack is required" in err

    def test_check_compares_before_writing(self, tmp_path, capsys):
        """`--check --out X --baseline X` must judge the run against what X
        held *before* the run replaced it, not against itself."""
        import json

        baseline = tmp_path / "baseline.json"
        assert main([*self._ARGS, "--out", str(baseline)]) == 0
        doctored = json.loads(baseline.read_text())
        doctored["schema"] = 0
        baseline.write_text(json.dumps(doctored))
        capsys.readouterr()
        assert main(
            [*self._ARGS, "--check", "--out", str(baseline),
             "--baseline", str(baseline)]
        ) == 1
        assert "schema mismatch: baseline 0 vs current 1" in capsys.readouterr().out
        # ...and only then was the fresh document written over it.
        assert json.loads(baseline.read_text())["schema"] == 1

    def test_plain_run_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """A generation run that fails its own gates leaves the committed
        baseline (the default --out, relative to the cwd) as it was."""
        from repro.mapreduce.bench import SUITES

        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / SUITES["spill"].baseline
        baseline.parent.mkdir(parents=True)
        baseline.write_text("the committed baseline\n")
        assert main(self._FAILING) == 1
        text = capsys.readouterr().out
        assert "never bit" in text and "result written" not in text
        assert baseline.read_text() == "the committed baseline\n"
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [baseline]
        # A passing one replaces it.
        assert main(self._ARGS) == 0
        assert f"result written to {SUITES['spill'].baseline}" in capsys.readouterr().out
        assert baseline.read_text() != "the committed baseline\n"

    def test_out_receives_a_failing_document(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.chdir(tmp_path)
        assert main([*self._FAILING, "--out", "failing.json"]) == 1
        assert "FAILED gates (spill)" in capsys.readouterr().out
        assert json.loads((tmp_path / "failing.json").read_text())["budget_mb"] == 512.0
        assert [p.name for p in tmp_path.iterdir()] == ["failing.json"]

    def test_two_mode_flags_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--attack", "--shuffle"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_spill_check_runs_the_spill_gates(self, tmp_path, capsys):
        args = ["bench", "--spill", "--sizes", "20000", "--max-iter", "2", "--check",
                "--baseline", str(tmp_path / "absent.json")]
        assert main([*args, "--budget-mb", "0.25"]) == 0
        text = capsys.readouterr().out
        assert "intrinsic gates only" in text and "all spill gates passed" in text
        # A budget the corpus fits under checks nothing: that is a failure.
        assert main([*args, "--budget-mb", "512"]) == 1
        assert "never bit" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []  # --check without --out writes nothing

    def test_gated_suite_checks_against_the_committed_baseline(self, tmp_path, capsys):
        import json
        from pathlib import Path

        committed = (
            Path(__file__).resolve().parents[1]
            / "benchmarks" / "results" / "BENCH_multitenant.json"
        )
        before = committed.read_bytes()
        args = ["bench", "--multitenant", "--check", "--baseline"]
        assert main([*args, str(committed)]) == 0
        assert "all multitenant gates passed" in capsys.readouterr().out
        doctored = json.loads(before)
        doctored["simulated"]["serial_s"] *= 1.05
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(doctored))
        out = tmp_path / "fresh.json"
        assert main([*args, str(drifted), "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "FAILED gates (multitenant)" in text
        assert "simulated.serial_s" in text and "rel 0.01" in text
        assert json.loads(out.read_text())["schema"] == 1
        assert committed.read_bytes() == before
