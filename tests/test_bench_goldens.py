"""The benchmark documents are goldens, checked byte for byte.

A suite's run takes no argument and reads no clock, so its document is a
pure function of the code.  Five suites run here in full (about 7 s in
all) and must write their committed ``BENCH_<suite>.json`` exactly.  The
sixth, ``attack`` (about 50 s), is regenerated by CI and diffed.  See
``make_bench_goldens.py`` for how a golden is re-recorded.
"""

import pytest

from repro.mapreduce.bench import SUITES, Suite, save_result
from tests.make_bench_goldens import REPO, main, regenerate

#: The suites checked in tier-1.  CI regenerates the rest.
TIER1 = ("spill", "multitenant", "query", "stream", "shuffle")


@pytest.mark.parametrize("name", TIER1)
def test_document_is_the_committed_golden(name, tmp_path):
    suite = SUITES[name]
    doc = suite.run()
    assert suite.gates(doc) == []
    written = save_result(doc, tmp_path / f"BENCH_{name}.json").read_text()
    assert written == (REPO / suite.baseline).read_text(), (
        f"BENCH_{name}.json changed: if that is intended, rerun "
        f"tests/make_bench_goldens.py {name} and say why in the change"
    )


def test_tier1_and_ci_cover_every_suite():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    rest = sorted(set(SUITES) - set(TIER1))
    assert rest == ["attack"]
    assert "python tests/make_bench_goldens.py attack" in ci
    assert "git diff --exit-code benchmarks/results/BENCH_attack.json" in ci


def test_a_run_that_fails_its_gates_writes_nothing(tmp_path, monkeypatch):
    """The golden a failing run would replace stays byte for byte as it
    was; the same run with passing gates does replace it."""
    golden = tmp_path / SUITES["spill"].baseline
    golden.parent.mkdir(parents=True)
    committed = (REPO / SUITES["spill"].baseline).read_bytes()
    golden.write_bytes(committed)

    def fresh():
        return {"schema": 1, "fresh": True}

    monkeypatch.setitem(SUITES, "spill", Suite("spill", fresh, lambda doc: ["forced"]))
    assert regenerate(["spill"], root=tmp_path) == ["spill: forced"]
    assert golden.read_bytes() == committed
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [golden]

    monkeypatch.setitem(SUITES, "spill", Suite("spill", fresh, lambda doc: []))
    assert regenerate(["spill"], root=tmp_path) == []
    assert golden.read_text() == '{\n  "fresh": true,\n  "schema": 1\n}\n'


def test_an_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit, match="unknown suite"):
        main(["spill", "fibers"])
