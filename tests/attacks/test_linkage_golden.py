"""The linkage attack ships the bytes it shipped when it was recorded.

``make_linkage_golden.py`` says what the golden holds and how it was
recorded; this module reruns each case and compares.
"""

import json

import numpy as np
import pytest

from .make_linkage_golden import BUDGETS, CASES, GOLDEN, run_case

_DOC = json.loads(GOLDEN.read_text())
_SAME_NUMPY = _DOC["numpy"].split(".")[0] == np.__version__.split(".")[0]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("label", sorted(BUDGETS))
def test_linkage_jobs_match_golden(case, label):
    want = _DOC["runs"][f"{case}/{label}"]
    got = json.loads(json.dumps(run_case(case, BUDGETS[label])))
    assert got["signature"] == want["signature"]
    assert (got["pairs_scored"], got["pairs_exact"]) == (want["pairs_scored"], want["pairs_exact"])
    assert got["jobs"] == want["jobs"]
    assert got["sim_seconds"] == want["sim_seconds"]
    assert got["history_sha256"] == want["history_sha256"]
    assert got["spilled"] == want["spilled"] == (label == "spill")
    if _SAME_NUMPY:
        assert got["outputs_sha256"] == want["outputs_sha256"]


def test_golden_exercises_the_seams():
    # The seam case must wrap the antimeridian and reach the polar cell,
    # or it pins nothing the city case does not.
    from repro.attacks.linkage_mr import _POLAR_BAND, cover_cells, synthetic_linkage_corpus

    train, _target, _truth = synthetic_linkage_corpus(**CASES["seam"])
    _point, band, j = cover_cells(train.latitude, train.longitude, 500.0)
    assert (band == _POLAR_BAND).any() and (band != _POLAR_BAND).any()
    plain = band != _POLAR_BAND
    assert (j[plain] < 0).any() and (j[plain] > 0).any()
