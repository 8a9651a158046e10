"""What the Figure 6 build produces is pinned, bit for bit, on both curves,
both backends and with and without a memory budget
(``tests/goldens/index.py``): a curve key that moves one point to another
partition, a bound that moves one grid cell or an extra page-in changes a
field.
"""

import json

from tests.goldens.registry import check, committed


def test_build_cells_match_recorded_golden():
    assert check("rtree_build") == []


def test_golden_is_worth_pinning():
    """Both curves ran and partition differently, and the budget bit;
    otherwise the record pins one build eight times."""
    golden = json.loads(committed("rtree_build"))
    hilbert, zorder = golden["hilbert/1MB/serial"], golden["zorder/1MB/serial"]
    assert hilbert["boundaries"] != zorder["boundaries"]
    assert hilbert["pages_sha256"] != zorder["pages_sha256"]
    assert hilbert["pages_in"] > 0 and golden["hilbert/unbudgeted/serial"]["pages_in"] == 0
    assert len(hilbert["boundaries"]) == len(hilbert["partition_sizes"]) - 1
