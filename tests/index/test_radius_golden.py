"""Every radius neighbourhood of the index and of DJ-Cluster is pinned,
id for id: batch and single R-tree queries in memory and on budgeted
pages, the self-join with and without groups, and DJ-Cluster both
sequential and MapReduced, on four corpora at six radii.  See ``make_radius_golden.py``
for what the golden holds and when it may be re-recorded.
"""

import json

import pytest

from .make_radius_golden import GOLDEN, RADII, corpora, record

GOLDEN_DOC = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_neighbourhoods_match_recorded_golden(recorded):
    assert recorded.keys() == GOLDEN_DOC.keys()
    for key, want in GOLDEN_DOC.items():
        assert recorded[key] == want, key


def test_golden_is_worth_pinning():
    """The four ways of asking one question agree, and the radii and
    corpora ask different questions; otherwise the record pins one
    answer many times."""
    for name in corpora():
        answers = set()
        for radius in RADII:
            cell = f"{name}/{radius:g}"
            kinds = ("batch/memory", "batch/persisted", "selfjoin")
            same = {GOLDEN_DOC[f"{cell}/{kind}"] for kind in kinds}
            assert len(same) == 1, cell
            assert GOLDEN_DOC[f"{cell}/single/memory"] == GOLDEN_DOC[f"{cell}/single/persisted"]
            answers |= same
        # All duplicates: every radius has one answer.  Elsewhere at most
        # 0 and 1 m agree (no two distinct points of lat85 are 1 m apart).
        assert len(answers) >= (1 if name == "dups" else len(RADII) - 1), name
