"""The goldens: committed files that a fresh run of the code must write again.

Each golden is one :class:`Golden` in :data:`tests.goldens.registry.GOLDENS`:
a ``build`` that takes no argument, reads no clock and returns the file's
text, the ``gates`` its document must pass, and the ``path`` it is
committed at.  Most were recorded on the commit *before* a kernel change
that promised to keep every output bit, so they pin that promise.

* ``python tests/make_goldens.py [name ...]`` rebuilds the named goldens
  (all without a name), prints every field that changed as
  ``path: old → new``, and writes a file only when its gates pass.
* ``tests/test_bench_goldens.py`` rebuilds every tier-1 golden once and
  fails on any changed field; CI rebuilds the rest and runs ``git diff``.

A golden changes only with a deliberate change of what it pins, and the
change says so.  This module holds what every golden shares: the entry,
the one digest, the common serialisation and the one field diff.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any, Callable

import numpy as np


def sha256(*parts) -> str:
    """The hex SHA-256 of ``parts`` back to back: bytes as they are,
    anything else as the C-order bytes of ``np.ascontiguousarray(part)``."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def ids_sha(ids) -> str:
    """The short digest of an answer's ids, as little-endian int64."""
    return sha256(np.asarray(ids, dtype="<i8"))[:16]


def dump(doc: Any) -> str:
    """The common golden text: sorted keys, one-space indent, a newline."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _no_gates(doc: Any) -> list[str]:
    return []


@dataclass(frozen=True)
class Golden:
    """One golden file.  ``gates`` receive the parsed document (the text
    for a non-JSON file) and return its problems, ``[]`` when it passes.
    ``numpy_fields`` are field patterns whose bytes depend on the NumPy
    build: such a golden records ``numpy``, and a check compares those
    fields only under the recorded NumPy major version."""

    name: str
    path: str
    build: Callable[[], str]
    gates: Callable[[Any], list[str]] = _no_gates
    tier1: bool = True
    numpy_fields: tuple[str, ...] = ()

    def problems(self, text: str) -> list[str]:
        return self.gates(json.loads(text) if self.path.endswith(".json") else text)

    def unchecked(self, committed: str) -> tuple[str, ...]:
        """The field patterns this NumPy may not reproduce of ``committed``."""
        if not self.numpy_fields:
            return ()
        recorded = json.loads(committed)["numpy"]
        if recorded == np.__version__:
            return ()
        same_major = recorded.split(".")[0] == np.__version__.split(".")[0]
        return ("numpy",) + (() if same_major else self.numpy_fields)


def fields(text: str) -> dict[str, Any]:
    """``{path: leaf}`` of a JSON document (``a/b/0``), else ``{line: text}``."""
    try:
        doc = json.loads(text)
    except ValueError:
        return {f"line {i}": line for i, line in enumerate(text.splitlines(), 1)}
    out: dict[str, Any] = {}

    def walk(node, path):
        if isinstance(node, (dict, list)) and node:
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                walk(child, f"{path}/{key}" if path else str(key))
        else:
            out[path] = node

    walk(doc, "")
    return out


def field_diff(old: str, new: str, ignore: tuple[str, ...] = ()) -> list[str]:
    """``path: old → new`` for every field matching no ``ignore`` pattern
    whose value differs; a missing field shows as ``-``."""
    before, after = fields(old), fields(new)
    lines = []
    for path in sorted(before.keys() | after.keys()):
        if any(fnmatch(path, pattern) for pattern in ignore):
            continue
        a, b = (json.dumps(side[path]) if path in side else "-" for side in (before, after))
        if a != b:
            lines.append(f"{path}: {a} → {b}")
    return lines


def differences(golden: Golden, committed: str, text: str) -> list[str]:
    """What ``text`` changes of the committed file: the field diff, or one
    line when every field agrees and the bytes still differ."""
    ignore = golden.unchecked(committed)
    lines = field_diff(committed, text, ignore)
    if not lines and not ignore and text != committed:
        lines = ["every field agrees but the bytes differ (key order, indent or spelling)"]
    return lines
