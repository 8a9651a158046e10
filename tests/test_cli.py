"""Tests for the command-line interface."""

import numpy as np
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

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["query", "chaos", "stream", "attack"])
    def test_a_budget_that_is_not_finite_exits_in_one_line(self, corpus_dir, command, budget):
        # nan used to fail inside int(budget * MB), inf with a traceback.
        argv = {
            "query": ["query", "--traces", "2000", "--budget-mb", budget],
            "chaos": ["chaos", "--memory-budget-mb", budget],
            "stream": ["stream", "--memory-budget-mb", budget],
            "attack": ["attack", "--in", str(corpus_dir), "--linkage", "--memory-budget-mb", budget],
        }[command]
        with pytest.raises(SystemExit, match=f"^{command}: .*budget.* must be positive and finite"):
            main(argv)

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


class TestQueryCommand:
    """Bad query arguments are a one-line ``query:`` exit before anything
    is built: the corpus generator must never be reached."""

    class Built(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Built

        monkeypatch.setattr("repro.mapreduce.bench.synthetic_corpus", refuse)

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["--queries", "-3"], "--queries must be positive"),
            (["--queries", "0"], "--queries must be positive"),
            (["--radius-query", "40,116,-5"], "radius must be non-negative"),
            (["--range", "40,117,39,116"], "min_lat <= max_lat and min_lon <= max_lon"),
            (["--knn", "40,116,2.5"], "k must be a positive integer, got 2.5"),
            (["--point", "40"], "--point wants 2 comma-separated values"),
            (["--point", "40,east"], "bad --point: could not convert"),
            (["--point", "40,nan"], "--point values must be finite"),
            (["--traces", "0"], "--traces must be positive"),
        ],
        ids=["queries-negative", "queries-zero", "radius-negative", "range-inverted",
             "knn-fractional", "point-arity", "point-word", "point-nan", "traces-zero"],
    )
    def test_bad_argument_exits_before_any_job(self, args, message):
        with pytest.raises(SystemExit, match=f"^query: .*{message}"):
            main(["query", "--traces", "2000", *args])

    def test_edge_values_are_accepted(self):
        with pytest.raises(self.Built):
            main(["query", "--traces", "2000", "--queries", "1", "--range", "39,116,39,116",
                  "--radius-query", "40,116,0", "--knn", "40,116,3"])


class TestArgumentErrors:
    """A bad argument or an unusable input is a one-line exit naming the
    subcommand, before any job runs."""

    @pytest.fixture()
    def lone_trace_dir(self, tmp_path):
        from repro.geo.geolife import write_geolife_dataset
        from repro.geo.trace import TraceArray

        lone = TraceArray.from_columns(["000"], [40.0], [116.0], [1.3e9])
        write_geolife_dataset(lone, tmp_path / "lone")
        return tmp_path / "lone"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["attack"], "attack: provide --in (or --linkage --selfcheck)"),
            (["attack", "--in", "{lone}", "--linkage"],
             "attack: corpus too small to split into training/target halves"),
            (["sweep", "--mechanisms", " , "], "sweep: provide at least one --mechanisms spec"),
            (["sweep", "--in", "{lone}", "--mechanisms", "none"],
             "sweep: corpus too small to split into training/target halves"),
            (["sweep", "--users", "2", "--mechanisms", "gaussian:100,gaussian 100"],
             "sweep: mechanism specs collide after slugging"),
            (["submit", "--users", "1", "--window", "0"], "submit: --window must be positive"),
            (["submit", "--window", "nan"], "submit: --window must be positive and finite"),
            (["submit", "--users", "0"], "submit: n_users and days must be positive"),
            (["submit", "--users", "1", "--tenant", ""],
             "submit: tenant names must be non-empty strings, got ''"),
            (["service", "--weights", "alice"],
             "service: bad --weights entry 'alice' (want name=weight)"),
            (["service", "--weights", "alice=heavy"], "service: bad weight in 'alice=heavy'"),
            (["service", "--weights", "alice=0"], "service: "),
            (["service", "--weights", "alice=1,alice=2"],
             "service: tenant 'alice' appears twice in --weights"),
            (["stream", "--report", "{missing}"], "stream: no such timeline file: "),
            (["stream", "--report", "{garbled}"], "stream: cannot read "),
            (["stream", "--tenants", "0"], "stream: --tenants must be positive"),
            (["stream", "--window-s", "0"], "stream: --window-s must be positive"),
            (["stream", "--window-s", "nan"], "stream: --window-s must be positive and finite"),
            (["stream", "--late-prob", "2"], "stream: "),
            (["generate", "--out", "{missing}", "--users", "0"],
             "generate: n_users and days must be positive"),
            (["stream", "--users", "0"], "stream: n_users and days must be positive"),
            (["sweep", "--users", "2", "--radius", "nan"],
             "sweep: radius_m must be positive and finite, got nan"),
            (["info", "--in", "{missing}"], "no GeoLife data found under "),
            (["visualize", "--in", "{missing}"], "no GeoLife data found under "),
            (["attack", "--in", "{missing}", "--linkage"], "no GeoLife data found under "),
            (["stream", "--users", "1", "--k", "0"], "stream: k must be an integer >= 1, got 0"),
            (["stream", "--users", "1", "--max-iter", "0"],
             "stream: max_iter must be an integer >= 1, got 0"),
            (["stream", "--users", "1", "--sampling-window", "nan"],
             "stream: sampling_window_s must be positive and finite, got nan"),
            (["generate", "--out", "{missing}", "--users=--"],
             "generate: --users needs a value, got '--'"),
            (["history", "{garbled}", "--job=--"], "history: --job needs a value, got '--'"),
            (["history", "{garbled}", "--width", "0"],
             "history: --width must be an integer >= 1, got 0"),
        ],
        ids=["attack-no-input", "attack-lone-trace", "sweep-no-mechanism", "sweep-lone-trace",
             "sweep-colliding", "submit-window", "submit-window-nan", "submit-no-users",
             "submit-empty-tenant", "service-weight-entry", "service-weight",
             "service-zero-weight", "service-duplicate-tenant", "stream-report-missing",
             "stream-report-garbled", "stream-tenants", "stream-window", "stream-window-nan",
             "stream-probability", "generate-no-users", "stream-no-users", "sweep-radius-nan",
             "info-missing", "visualize-missing", "attack-missing", "stream-k", "stream-max-iter",
             "stream-sampling-window-nan", "generate-empty-users", "history-empty-job",
             "history-zero-width"],
    )
    def test_exits_with_one_line(self, argv, message, lone_trace_dir, tmp_path):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("[1, 2]")
        paths = {"lone": lone_trace_dir, "missing": tmp_path / "absent.json", "garbled": garbled}
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert str(info.value).startswith(message) and "\n" not in str(info.value)

    def test_a_directory_without_geolife_data(self, tmp_path):
        with pytest.raises(SystemExit, match="^no GeoLife data found under "):
            main(["info", "--in", str(tmp_path)])

    def test_a_chaos_campaign_whose_retries_run_out_reports_it_and_exits_1(self, capsys):
        # This used to end in a JobFailedError traceback.
        assert main(["chaos", "--driver", "sampling", "--crash-prob", "1"]) == 1
        out = capsys.readouterr().out
        assert "  clean failure under faults: task map-0000 failed 4 attempts [" in out
        assert out.rstrip().endswith("the run failed cleanly — see above")

    def test_a_stream_that_fails_under_chaos_exits_cleanly(self, monkeypatch):
        from repro.mapreduce.failures import JobFailedError

        def fails(*args, **kwargs):
            raise JobFailedError("map-0000", 4)

        monkeypatch.setattr("repro.streaming.check.run_stream", fails)
        with pytest.raises(SystemExit, match="^stream: run failed cleanly under chaos: task map-0000"):
            main(["stream", "--users", "1"])

    def test_an_unlinked_pseudonym_is_listed(self, tmp_path, capsys):
        from repro.geo.geolife import write_geolife_dataset
        from repro.geo.synthetic import SyntheticConfig, generate_dataset
        from repro.geo.trace import TraceArray

        dataset, _ = generate_dataset(SyntheticConfig(n_users=2, days=1, seed=5))
        ts = dataset.timestamp
        late = ts.max() - np.arange(3.0)
        stray = TraceArray.from_columns(["999"], [10.0] * 3, [10.0] * 3, late)
        write_geolife_dataset(TraceArray.concatenate([dataset, stray]), tmp_path / "c")
        assert main(["attack", "--in", str(tmp_path / "c"), "--linkage"]) == 0
        assert "  anon-999         -> unlinked" in capsys.readouterr().out

    def test_a_rebuilt_index_is_flagged(self, monkeypatch, capsys):
        from repro.index.persistent import IndexCatalog

        ensure = IndexCatalog.ensure

        def always_rebuilt(self, *args, **kwargs):
            index, _ = ensure(self, *args, **kwargs)
            return index, True

        monkeypatch.setattr(IndexCatalog, "ensure", always_rebuilt)
        main(["query", "--traces", "2000", "--queries", "2"])
        assert "WARNING: second ensure rebuilt (0 job(s) ran)" in capsys.readouterr().out
