"""Regenerates the benchmark goldens, ``benchmarks/results/BENCH_<suite>.json``.

Each suite in :data:`repro.mapreduce.bench.SUITES` runs one fixed
workload and returns a document that is a pure function of the code: no
clock, no host.  So the committed document is a golden.  A suite is right
iff its gates pass and a fresh run writes the committed file byte for
byte.  ``test_bench_goldens.py`` checks five suites that way in tier-1.
CI regenerates ``attack`` (about 50 s) and fails on ``git diff``.

Run it from anywhere, naming suites or none for all six::

    PYTHONPATH=src python tests/make_bench_goldens.py [suite ...]

A suite whose gates fail prints its problems, and the script exits 1
without touching that suite's file.  A failing run never overwrites a
golden.  A change that changes a golden's bytes on purpose must say why.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable

from repro.mapreduce.bench import SUITES, save_result

REPO = Path(__file__).resolve().parent.parent


def regenerate(names: Iterable[str], root: Path = REPO) -> list[str]:
    """Run each named suite and write its golden under ``root`` if its
    gates pass; the gate failures, as ``"<suite>: <problem>"``."""
    problems = []
    for name in names:
        suite = SUITES[name]
        doc = suite.run()
        failed = suite.gates(doc)
        if failed:
            problems += [f"{name}: {problem}" for problem in failed]
        else:
            print(f"wrote {save_result(doc, root / suite.baseline)}")
    return problems


def main(argv: list[str]) -> int:
    names = argv or list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise SystemExit(f"unknown suite(s) {unknown}; choose from {list(SUITES)}")
    problems = regenerate(names)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
