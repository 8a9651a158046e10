"""The reports golden: what eight CLI runs print and how they exit.

The five ``--selfcheck`` runs and three report runs (a chaos campaign,
a fault-free multi-tenant check and a two-tenant stream) are the
equivalence harness's user-facing output.  Each run's exit status and
stdout (split at newlines, so ``"\\n".join`` gives the bytes back) are
pinned.  ``repro service`` under chaos is left out: its fair-share
numbers depend on how the tenant threads interleave.
"""

from __future__ import annotations

import contextlib
import io

from repro.cli import main

from tests.goldens import dump

RUNS = (
    "history --selfcheck",
    "chaos --selfcheck",
    "service --selfcheck",
    "stream --selfcheck",
    "attack --linkage --selfcheck",
    "chaos --seed 1 --node-loss",
    "service --no-chaos",
    "stream --tenants 2",
)


def run(command: str) -> dict:
    """``{"exit": status, "stdout": lines}`` of ``repro <command>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = main(command.split())
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return {"exit": status, "stdout": out.getvalue().split("\n")}


def build() -> str:
    return dump({"runs": {command: run(command) for command in RUNS}})
