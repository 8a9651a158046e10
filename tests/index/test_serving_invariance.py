"""The serving path's page-touch record is pinned, query by query.

Any change that reorders, adds or drops a page-group touch — however much
faster it makes a query — changes some query's ``page_faults`` /
``fault_bytes`` / ``latency_s`` in the serving golden, and any change to
the pages a query asks for, or their order, changes its page-id sequence
in the page-touch golden (``tests/goldens/serving.py``).  The ``query``
benchmark golden gates the same counters only in aggregate.
"""

import json

from tests.goldens.registry import check, committed
from tests.goldens.serving import PER_PHASE


def test_serving_counters_match_recorded_golden():
    assert check("serving") == []


def test_golden_exercises_both_regimes():
    """The record is only worth pinning while the uniform phase overflows
    the budget and the hot phase fits it."""
    queries = json.loads(committed("serving"))["queries"]
    assert len(queries) == 2 * PER_PHASE
    uniform = sum(q[1] for q in queries[:PER_PHASE])
    hot = sum(q[1] for q in queries[PER_PHASE:])
    assert uniform >= PER_PHASE and hot <= PER_PHASE // 10
    assert {q[0] for q in queries} == {"point", "range", "radius", "knn"}


def test_page_touches_match_recorded_golden():
    assert check("page_touches") == []
    # Worth pinning: every query reads pages, the batch walk a few dozen.
    touches = json.loads(committed("page_touches"))["touches"]
    assert len(touches) == 2 * PER_PHASE + 1
    assert all(touches) and len(touches[-1]) > 10
