"""What the Figure 6 build produces is pinned, bit for bit, on both curves,
both backends and with and without a memory budget.

The record was taken from the commit before ``hilbert_key`` became a
table-driven automaton and the driver folded the dataset bounds chunk by
chunk; a curve key that moves one point to another partition, a bound
that moves one grid cell or an extra page-in changes a field here.  See
``make_build_golden.py`` for what the golden holds and when it may be
re-recorded.
"""

import json

import pytest

from .make_build_golden import GOLDEN, record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return json.loads(json.dumps(record()))


def test_build_cells_match_recorded_golden(golden, recorded):
    assert recorded.keys() == golden.keys()
    for name, want in golden.items():
        assert recorded[name] == want, name


def test_golden_is_worth_pinning(golden):
    """Both curves ran and partition differently, and the budget bit;
    otherwise the record pins one build eight times."""
    hilbert, zorder = golden["hilbert/1MB/serial"], golden["zorder/1MB/serial"]
    assert hilbert["boundaries"] != zorder["boundaries"]
    assert hilbert["pages_sha256"] != zorder["pages_sha256"]
    assert hilbert["pages_in"] > 0 and golden["hilbert/unbudgeted/serial"]["pages_in"] == 0
    assert len(hilbert["boundaries"]) == len(hilbert["partition_sizes"]) - 1
