"""Rebuilds the goldens of ``tests/goldens/registry.py``.

Run it from anywhere, naming goldens or none for all of them::

    PYTHONPATH=src python tests/make_goldens.py [name ...]

Each golden is rebuilt; every field that changed prints as
``<name>: path: old → new``.  A golden whose gates fail prints its
problems and keeps its file byte for byte, and the script exits 1.  A
change that changes a golden on purpose must say why.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tests.goldens import field_diff  # noqa: E402
from tests.goldens.registry import GOLDENS  # noqa: E402


def regenerate(names: Iterable[str], root: Path = REPO) -> list[str]:
    """Rebuild each named golden and write it under ``root`` if its gates
    pass; the gate failures, as ``"<name>: <problem>"``."""
    problems = []
    for name in names:
        golden = GOLDENS[name]
        text = golden.build()
        failed = golden.problems(text)
        if failed:
            problems += [f"{name}: {problem}" for problem in failed]
            continue
        path = root / golden.path
        old = path.read_text() if path.exists() else ""
        for line in field_diff(old, text) if old else ["new file"]:
            print(f"{name}: {line}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"{name}: {'unchanged' if text == old else 'wrote'} {golden.path}")
    return problems


def main(argv: list[str]) -> int:
    names = argv or list(GOLDENS)
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        raise SystemExit(f"unknown golden(s) {unknown}; choose from {list(GOLDENS)}")
    problems = regenerate(names)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
