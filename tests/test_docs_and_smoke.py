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

from repro.observability.events import EventKind, Phase
from tests.goldens.registry import built

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


def _selfcheck(command: str) -> str:
    """The stdout of ``repro <command> --selfcheck``, asserted to exit 0,
    from the reports golden's build (each run once per process)."""
    run = json.loads(built("reports"))["runs"][f"{command} --selfcheck"]
    assert run["exit"] == 0
    return "\n".join(run["stdout"])


def test_history_selfcheck_smoke():
    """The CI smoke step: `pytest -q` runs the selfcheck too."""
    assert "history selfcheck: ok" in _selfcheck("history")


def test_chaos_selfcheck_smoke():
    """`python -m repro chaos --selfcheck`: all five drivers survive a
    fault-heavy seeded schedule with byte-identical outputs."""
    assert "chaos selfcheck: ok" in _selfcheck("chaos")


def test_service_selfcheck_smoke():
    """`python -m repro service --selfcheck`: two tenants sharing one
    JobService (fault-free and chaotic) match solo runs byte for byte."""
    assert "service selfcheck OK" in _selfcheck("service")


def test_stream_selfcheck_smoke():
    """`python -m repro stream --selfcheck`: the micro-batch pipeline's
    determinism, equivalence, chaos, and warm-start invariants hold on a
    miniature corpus."""
    assert "stream selfcheck: ok" in _selfcheck("stream")


def test_attack_selfcheck_smoke():
    """`python -m repro attack --linkage --selfcheck`: the MapReduce
    linkage attack matches the serial reference byte for byte on every
    backend, including a memory-budgeted deployment."""
    assert "attack selfcheck: ok" in _selfcheck("attack --linkage")


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
        "history", "chaos", "submit", "service", "query", "stream"
    } <= documented
    missing = sorted(
        cmd for cmd in documented if not re.search(rf"\b{cmd}\b", help_text)
    )
    assert not missing, f"docs mention unknown subcommands {missing}"


def test_benchmark_suites_table_matches_the_declarations():
    """Docs and the suites can't drift: the "Benchmark suites" table in
    docs/PERFORMANCE.md has one row per ``BENCH_*.json`` golden, in
    registry order, linking it, saying what its gates assert, and naming
    where it is checked — tier-1 or CI."""
    from tests.goldens.registry import GOLDENS

    text = (REPO / "docs" / "PERFORMANCE.md").read_text()
    section = text.split("## Benchmark suites", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4 and cells[0] not in {"suite", "---"}:
            rows[cells[0]] = cells
    suites = {n: g for n, g in GOLDENS.items() if g.path.startswith("benchmarks/")}
    assert list(rows) == list(suites)
    for name, golden in suites.items():
        _, document, gates, where = rows[name]
        assert document == f"[`{golden.path.rsplit('/', 1)[1]}`](../{golden.path})"
        assert gates
        assert where == ("tier-1" if golden.tier1 else "CI")


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
    """``tests/goldens/histories.py`` and the checked-in golden agree."""
    from tests.goldens.registry import check

    assert check("history") == []
