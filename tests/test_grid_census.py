"""The slow spelling cannot come back: one distinct-row kernel, one grid.

``np.unique(rows, axis=0)`` comparison-sorts structured records and was
a third of a streaming window's wall time; the band-centre-cosine grid
was spelled out in ten places.  Both live in ``repro.geo.grid`` now, and
an eleventh copy has to show up as a diff to this test.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
BAND_FORMULA = "np.cos(np.radians((lat_band + 0.5)"


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text()


def test_no_row_wise_np_unique_in_src():
    offenders = [
        f"{name}:{node.lineno}"
        for name, text in _sources()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and any(kw.arg == "axis" for kw in node.keywords)
    ]
    assert offenders == [], "use repro.geo.grid.unique_rows"


def test_the_band_formula_is_spelled_once():
    assert [name for name, text in _sources() if BAND_FORMULA in text] == ["geo/grid.py"]
