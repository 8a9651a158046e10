"""Every golden is rebuilt and must write its committed file again.

One test per entry of ``tests/goldens/registry.py``: the build passes its
gates and changes no field of the committed file (a failure lists each
changed field as ``path: old → new``).  Each golden is built once per
run, whichever test asks first.  The entries too slow for tier-1 are
regenerated by CI and diffed.  ``tests/make_goldens.py`` re-records.
"""

import json
import re

import numpy as np
import pytest

from tests.goldens import Golden, differences
from tests.goldens.registry import GOLDENS, REPO, built, check
from tests.make_goldens import main, regenerate

TIER1 = [name for name, golden in GOLDENS.items() if golden.tier1]


@pytest.mark.parametrize("name", TIER1)
def test_document_is_the_committed_golden(name):
    assert GOLDENS[name].problems(built(name)) == []
    assert check(name) == [], (
        f"{GOLDENS[name].path} changed: if that is intended, rerun "
        f"tests/make_goldens.py {name} and say why in the change"
    )


def test_every_golden_is_one_entry_checked_in_tier1_or_ci():
    """Every golden file is exactly one entry's path and exists, and an
    entry tier-1 does not rebuild is rebuilt by CI and diffed."""
    on_disk = sorted(
        str(path.relative_to(REPO))
        for path in [*(REPO / "tests").rglob("golden_*"),
                     *(REPO / "benchmarks" / "results").glob("BENCH_*.json")]
    )
    assert sorted(golden.path for golden in GOLDENS.values()) == on_disk
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    rest = [name for name in GOLDENS if name not in TIER1]
    assert f"python tests/make_goldens.py {' '.join(rest)}" in ci
    (diffed,) = re.findall(r"git diff --exit-code -- (.+)", ci)
    for name in rest:
        assert any(GOLDENS[name].path.startswith(p) for p in diffed.split()), name


def test_a_run_that_fails_its_gates_writes_nothing(tmp_path, monkeypatch):
    """The golden a failing run would replace stays byte for byte as it
    was; the same run with passing gates does replace it."""
    spill = GOLDENS["spill"]
    golden = tmp_path / spill.path
    golden.parent.mkdir(parents=True)
    committed = (REPO / spill.path).read_bytes()
    golden.write_bytes(committed)

    def fresh():
        return '{\n  "fresh": true\n}\n'

    monkeypatch.setitem(GOLDENS, "spill", Golden("spill", spill.path, fresh, lambda d: ["forced"]))
    assert regenerate(["spill"], root=tmp_path) == ["spill: forced"]
    assert golden.read_bytes() == committed
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [golden]

    monkeypatch.setitem(GOLDENS, "spill", Golden("spill", spill.path, fresh))
    assert regenerate(["spill"], root=tmp_path) == []
    assert golden.read_text() == fresh()


def test_an_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit, match="unknown golden"):
        main(["spill", "fibers"])


def test_a_numpy_bound_field_is_compared_only_under_its_numpy_major():
    golden = Golden("g", "g.json", str, numpy_fields=("pickle/*",))
    major = np.__version__.split(".")[0]
    old = json.dumps({"numpy": "0.1", "pickle": {"a": 1}, "value": 2})
    assert golden.unchecked(old) == ("numpy", "pickle/*")
    assert golden.unchecked(old.replace("0.1", f"{major}.999")) == ("numpy",)
    new = old.replace('"a": 1', '"a": 3')
    assert differences(golden, old, new) == []
    assert differences(golden, old, new.replace('"value": 2', '"value": 4')) == ["value: 2 → 4"]
