"""The serving path's page-touch record is pinned, query by query.

``bench --query --check`` gates the same counters, but only in aggregate
and only in CI.  This is the tier-1 version: any change that reorders,
adds or drops a page-group touch — however much faster it makes a query —
changes some query's ``page_faults`` / ``fault_bytes`` / ``latency_s``
here, and any change to the pages a query asks for, or their order,
changes its page-id sequence.  See ``make_serving_golden.py`` and
``make_page_touch_golden.py`` for what the goldens are and when they may
be re-recorded.
"""

import json

from . import make_page_touch_golden as touches
from .make_serving_golden import GOLDEN, PER_PHASE, serve_mix


def test_serving_counters_match_recorded_golden():
    golden = json.loads(GOLDEN.read_text())
    record = serve_mix()
    # Layout first: a different page file explains every later mismatch.
    for key in ("n_pages", "page_bytes", "chunk_starts"):
        assert record[key] == golden[key], key
    for i, (got, want) in enumerate(zip(record["queries"], golden["queries"])):
        assert got == want, f"query {i} ({want[0]}): {got} != {want}"
    assert len(record["queries"]) == len(golden["queries"]) == 2 * PER_PHASE
    assert record["totals"] == golden["totals"]


def test_golden_exercises_both_regimes():
    """The record is only worth pinning while the uniform phase overflows
    the budget and the hot phase fits it."""
    queries = json.loads(GOLDEN.read_text())["queries"]
    uniform = sum(q[1] for q in queries[:PER_PHASE])
    hot = sum(q[1] for q in queries[PER_PHASE:])
    assert uniform >= PER_PHASE and hot <= PER_PHASE // 10
    assert {q[0] for q in queries} == {"point", "range", "radius", "knn"}


def test_page_touches_match_recorded_golden():
    golden = json.loads(touches.GOLDEN.read_text())
    record = touches.record_touches()
    assert record["n_pages"] == golden["n_pages"]
    assert record["kinds"] == golden["kinds"]
    for name in ("persistent", "portable"):
        assert len(record[name]) == len(golden["touches"]) == 2 * PER_PHASE + 1
        for i, (got, want) in enumerate(zip(record[name], golden["touches"])):
            assert got == want, f"{name} query {i} ({golden['kinds'][i]}) asked for other pages"
    # Worth pinning: every query reads pages, the batch walk a few dozen.
    assert all(golden["touches"]) and len(golden["touches"][-1]) > 10
