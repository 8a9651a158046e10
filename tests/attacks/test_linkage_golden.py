"""The linkage attack ships the bytes it shipped when it was recorded
(``tests/goldens/attacks.py`` says what the golden holds)."""

import json

import pytest

from tests.goldens.attacks import BUDGETS, CASES
from tests.goldens.registry import changed, committed


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("label", sorted(BUDGETS))
def test_linkage_jobs_match_golden(case, label):
    assert changed("linkage", f"runs/{case}/{label}/*") == []
    run = json.loads(committed("linkage"))["runs"][f"{case}/{label}"]
    assert run["spilled"] == (label == "spill")


def test_golden_exercises_the_seams():
    # The seam case must wrap the antimeridian and reach the polar cell,
    # or it pins nothing the city case does not.
    from repro.attacks.linkage_mr import _POLAR_BAND, cover_cells, synthetic_linkage_corpus

    train, _target, _truth = synthetic_linkage_corpus(**CASES["seam"])
    _point, band, j = cover_cells(train.latitude, train.longitude, 500.0)
    assert (band == _POLAR_BAND).any() and (band != _POLAR_BAND).any()
    plain = band != _POLAR_BAND
    assert (j[plain] < 0).any() and (j[plain] > 0).any()
