"""CI smoke + documentation health checks.

Two cheap gates that keep the repo's surfaces honest:

* the observability selfcheck (``python -m repro history --selfcheck``)
  runs a miniature traced deployment end to end, so the tracing layer
  cannot silently rot;
* the docs link/schema checks verify that every relative markdown link
  resolves, that every module the prose names exists, and that
  docs/OBSERVABILITY.md documents the full event vocabulary.
"""

import json
import pkgutil
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.observability.events import EventKind, Phase

REPO = Path(__file__).resolve().parent.parent

DOCS = sorted(
    p
    for p in [
        *REPO.glob("*.md"),
        *(REPO / "docs").glob("*.md"),
        REPO / "benchmarks" / "README.md",
    ]
    if p.name not in {"ISSUE.md", "CHANGES.md", "SNIPPETS.md", "PAPERS.md"}
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_history_selfcheck_smoke(capsys):
    """The CI smoke step: `pytest -q` runs the selfcheck too."""
    assert main(["history", "--selfcheck"]) == 0
    assert "history selfcheck: ok" in capsys.readouterr().out


def test_chaos_selfcheck_smoke(capsys):
    """`python -m repro chaos --selfcheck`: all five drivers survive a
    fault-heavy seeded schedule with byte-identical outputs."""
    assert main(["chaos", "--selfcheck"]) == 0
    assert "chaos selfcheck: ok" in capsys.readouterr().out


def test_service_selfcheck_smoke(capsys):
    """`python -m repro service --selfcheck`: two tenants sharing one
    JobService (fault-free and chaotic) match solo runs byte for byte."""
    assert main(["service", "--selfcheck"]) == 0
    assert "service selfcheck OK" in capsys.readouterr().out


def test_stream_selfcheck_smoke(capsys):
    """`python -m repro stream --selfcheck`: the micro-batch pipeline's
    determinism, equivalence, chaos, and warm-start invariants hold on a
    miniature corpus."""
    assert main(["stream", "--selfcheck"]) == 0
    assert "stream selfcheck: ok" in capsys.readouterr().out


def test_attack_selfcheck_smoke(capsys):
    """`python -m repro attack --linkage --selfcheck`: the MapReduce
    linkage attack matches the serial reference byte for byte on every
    backend, including a memory-budgeted deployment."""
    assert main(["attack", "--linkage", "--selfcheck"]) == 0
    assert "attack selfcheck: ok" in capsys.readouterr().out


def test_cli_help_mentions_every_documented_subcommand():
    """Docs and CLI can't drift: every `python -m repro <cmd>` usage in
    the markdown corpus must name a real subcommand."""
    from repro.cli import build_parser

    help_text = build_parser().format_help()
    documented = set()
    for doc in DOCS:
        for match in re.finditer(
            r"python -m repro ([a-z][a-z0-9_-]*)", doc.read_text()
        ):
            documented.add(match.group(1))
    assert {
        "history", "chaos", "bench", "submit", "service", "query", "stream"
    } <= documented
    missing = sorted(
        cmd for cmd in documented if not re.search(rf"\b{cmd}\b", help_text)
    )
    assert not missing, f"docs mention unknown subcommands {missing}"


def test_benchmark_suites_table_matches_the_declarations():
    """Docs and `repro bench` can't drift: the "Benchmark suites" table
    in docs/PERFORMANCE.md has one row per declared suite, naming its
    flag, baseline file, pinned fields and every compared path with its
    rule — and the CLI's mode flags select exactly those suites."""
    from repro.cli import build_parser
    from repro.mapreduce.bench import SUITES

    text = (REPO / "docs" / "PERFORMANCE.md").read_text()
    section = text.split("## Benchmark suites", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 6 and cells[0] not in {"suite", "---"}:
            rows[cells[0]] = cells
    assert list(rows) == list(SUITES)
    for name, suite in SUITES.items():
        _, flag, baseline, pinned, compared, never = rows[name]
        assert flag == f"`--{name}`"
        assert f"(../{suite.baseline.as_posix()})" in baseline
        assert pinned == ", ".join(f"`{field}`" for field in suite.pinned)
        declared = "; ".join(
            f"`{pattern}` {rule}" + (f" {tolerance:g}" if tolerance else "")
            for pattern, rule, tolerance in suite.compared
        )
        assert suite.compared and compared == declared
        assert never
    parser = build_parser()
    for name in SUITES:
        assert parser.parse_args(["bench", f"--{name}"]).suite == name


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(REPO)))
def test_markdown_links_resolve(doc):
    broken = []
    for target in _LINK.findall(doc.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links {broken}"


def _resolves(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)  # longest importable prefix, then attributes
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize(
    "doc",
    [d for d in DOCS if d.parent.name == "docs" or d.name in {"README.md", "DESIGN.md", "EXPERIMENTS.md"}],
    ids=lambda p: str(p.relative_to(REPO)),
)
def test_modules_named_in_prose_exist(doc):
    """A deleted module cannot linger in the docs: every ``repro.a.b``
    dotted path, every ``src/repro/….py`` / ``<pkg>/<module>.py`` file
    path and every entry of DESIGN.md's ``src/repro/`` tree resolves —
    and every module under ``src/repro`` has an entry in that tree."""
    text = doc.read_text()
    src = REPO / "src" / "repro"
    packages = "|".join(sorted(p.name for p in src.iterdir() if (p / "__init__.py").exists()))
    missing = [m for m in set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text)) if not _resolves(m)]
    files = set(re.findall(rf"(?<![\w/.])(?:src/repro/)?((?:{packages})/\w+\.py)", text))
    files |= set(re.findall(r"\bsrc/repro/(\w+\.py)", text))
    if "```\nsrc/repro/\n" in text:
        package, tree = "", set()
        for line in text.split("```\nsrc/repro/\n", 1)[1].split("```", 1)[0].splitlines():
            if match := re.match(r"  (\w+/) ", line):
                package = match.group(1)
            elif match := re.match(r"  (  )?(\w+\.py) ", line):
                tree.add((package if match.group(1) else "") + match.group(2))
        files |= tree
        modules = {
            p.relative_to(src).as_posix() for p in src.rglob("*.py") if p.name != "__init__.py"
        }
        assert sorted(modules - tree) == [], f"{doc.name}'s module tree omits these"
    missing += [f for f in files if not (src / f).exists()]
    assert not missing, f"{doc.name} names modules that do not exist: {sorted(missing)}"


def test_benchmark_files_named_in_prose_exist():
    """A deleted benchmark or result file cannot linger in the docs or in
    CI: every ``BENCH_<name>.json|txt`` and ``benchmarks/….py`` they name
    exists."""
    missing = []
    for doc in [*DOCS, REPO / ".github" / "workflows" / "ci.yml"]:
        text = doc.read_text()
        results = set(re.findall(r"\bBENCH_\w+\.(?:json|txt)\b", text))
        missing += [
            f"{doc.name}: {name}" for name in results
            if not (REPO / "benchmarks" / "results" / name).exists()
        ]
        scripts = set(re.findall(r"\bbenchmarks/[\w/]+\.py\b", text))
        if doc.parent.name == "benchmarks":  # its README names its own files bare
            bare = re.findall(r"(?<![\w/])test_\w+\.py\b", text)
            scripts |= {f"benchmarks/{name}" for name in bare}
        missing += [f"{doc.name}: {path}" for path in scripts if not (REPO / path).exists()]
    assert not missing


def test_observability_doc_covers_every_event_kind():
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    missing = [kind for kind in EventKind.all() if f"`{kind}`" not in text]
    assert not missing, f"docs/OBSERVABILITY.md missing event kinds {missing}"
    for phase in Phase.ORDER:
        assert phase in text


def test_golden_history_in_sync_with_generator():
    """`make_golden.py` and the checked-in golden file must agree."""
    from tests.observability.make_golden import GOLDEN, build_golden

    assert json.loads(GOLDEN.read_text()) == build_golden().to_json_obj()
