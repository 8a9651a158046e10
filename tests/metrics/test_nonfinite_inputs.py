"""A NaN coordinate or timestamp is an error, never a plausible answer.

``np.floor(nan).astype(int64)`` is ``INT64_MIN``: before the grid had one
validated definition (``repro.geo.grid``), a NaN row was binned into its
own singleton cell and ``window_reidentification_risk`` on
``[(u1, 10, 20), (u2, 10, 20), (u2, NaN, 20)]`` answered ``risk=0.5,
exposed_users=1``.  Every public entry point that bins through the grid
now raises instead.
"""

import numpy as np
import pytest

from repro.attacks.social import contact_events
from repro.geo.trace import TraceArray
from repro.metrics.privacy import (
    anonymity_set_sizes,
    home_work_anonymity,
    mixzone_anonymity_sets,
    window_reidentification_risk,
)
from repro.metrics.utility import coverage_ratio, range_query_error
from repro.sanitization.aggregation import SpatialAggregator
from repro.sanitization.cloaking import SpatialCloaking
from repro.sanitization.mixzones import MixZone
from repro.streaming.manager import _top_cells

BAD = [np.nan, np.inf, -np.inf]


def _array(lat=10.0, lon=20.0, ts=0.0):
    """u1 and u2 share a cell; u2's second row carries the given values."""
    return TraceArray.from_columns(
        ["u1", "u2", "u2"], [10.0, 10.0, lat], [20.0, 20.0, lon], [0.0, 0.0, ts]
    )


CLEAN = _array()

#: name -> call taking the poisoned array.
COORDINATE_ENTRY_POINTS = {
    "window_reidentification_risk": window_reidentification_risk,
    "anonymity_set_sizes": anonymity_set_sizes,
    "top_cells": lambda a: _top_cells(a, 500.0),
    "coverage_ratio/original": lambda a: coverage_ratio(a, CLEAN),
    "coverage_ratio/sanitized": lambda a: coverage_ratio(CLEAN, a),
    "range_query_error/original": lambda a: range_query_error(a, CLEAN),
    "range_query_error/sanitized": lambda a: range_query_error(CLEAN, a),
    "SpatialAggregator": SpatialAggregator(300.0).sanitize_array,
    "SpatialCloaking": SpatialCloaking(k=2).sanitize_array,
    "contact_events": contact_events,
}

TIMESTAMP_ENTRY_POINTS = {
    "window_reidentification_risk": window_reidentification_risk,
    "anonymity_set_sizes": anonymity_set_sizes,
    "mixzone_anonymity_sets": lambda a: mixzone_anonymity_sets(a, [MixZone(10.0, 20.0, 500.0)]),
    "range_query_error": lambda a: range_query_error(a, CLEAN),
    "SpatialCloaking": SpatialCloaking(k=2).sanitize_array,
    "contact_events": contact_events,
}


def test_the_clean_release_has_no_exposed_user():
    risk = window_reidentification_risk(CLEAN)
    assert (risk.n_users, risk.exposed_users, risk.risk) == (2, 0, 0.0)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("axis", ["lat", "lon"])
@pytest.mark.parametrize("name", COORDINATE_ENTRY_POINTS)
def test_non_finite_coordinate_is_rejected(name, axis, bad):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        COORDINATE_ENTRY_POINTS[name](_array(**{axis: bad}))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", TIMESTAMP_ENTRY_POINTS)
def test_non_finite_timestamp_is_rejected(name, bad):
    with pytest.raises(ValueError, match="timestamps must be finite"):
        TIMESTAMP_ENTRY_POINTS[name](_array(ts=bad))


@pytest.mark.parametrize("bad", BAD)
def test_home_work_pairs_must_be_finite(bad):
    pairs = {"a": ((10.0, 20.0), (10.1, 20.1)), "b": ((10.0, bad), (10.1, 20.1))}
    with pytest.raises(ValueError, match="coordinates must be finite"):
        home_work_anonymity(pairs)


@pytest.mark.parametrize("cell_m", [0.0, -5.0, np.nan])
def test_cell_size_must_be_positive(cell_m):
    for call in (
        lambda: window_reidentification_risk(CLEAN, cell_m=cell_m),
        lambda: anonymity_set_sizes(CLEAN, cell_m=cell_m),
        lambda: _top_cells(CLEAN, cell_m),
        lambda: coverage_ratio(CLEAN, CLEAN, cell_m=cell_m),
        lambda: home_work_anonymity({"a": ((1.0, 2.0), (3.0, 4.0))}, cell_m=cell_m),
    ):
        with pytest.raises(ValueError, match="cell_m must be positive"):
            call()
