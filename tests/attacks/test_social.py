"""Unit tests for the co-location / social-relation attack."""

import networkx as nx
import numpy as np
import pytest

from repro.attacks.social import ColocationParams, colocation_graph, contact_events
from repro.geo.trace import TraceArray


def _trail(user, lat, lon, timestamps):
    n = len(timestamps)
    return TraceArray.from_columns(
        [user],
        np.full(n, lat) if np.isscalar(lat) else np.asarray(lat, float),
        np.full(n, lon) if np.isscalar(lon) else np.asarray(lon, float),
        np.asarray(timestamps, float),
    )


PARAMS = ColocationParams(contact_radius_m=50.0, window_s=300.0, min_contact_s=600.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ColocationParams(contact_radius_m=0)
        with pytest.raises(ValueError):
            ColocationParams(window_s=0)
        with pytest.raises(ValueError):
            ColocationParams(min_contact_s=-1)


class TestContactEvents:
    def test_colocated_pair_detected(self):
        ts = np.arange(0, 3600, 60.0)
        ds = TraceArray.concatenate(
            [_trail("a", 39.9, 116.4, ts), _trail("b", 39.90001, 116.40001, ts)]
        ).by_user()
        events = contact_events(ds, PARAMS)
        assert ("a", "b") in events
        # 12 windows x 300 s each.
        assert events[("a", "b")] == pytest.approx(3600.0)

    def test_distant_users_no_contact(self):
        ts = np.arange(0, 3600, 60.0)
        ds = TraceArray.concatenate(
            [_trail("a", 39.9, 116.4, ts), _trail("b", 39.95, 116.45, ts)]
        ).by_user()
        assert contact_events(ds, PARAMS) == {}

    def test_same_place_different_times_no_contact(self):
        ds = TraceArray.concatenate(
            [
                _trail("a", 39.9, 116.4, np.arange(0, 1800, 60.0)),
                _trail("b", 39.9, 116.4, np.arange(7200, 9000, 60.0)),
            ]
        ).by_user()
        assert contact_events(ds, PARAMS) == {}

    def test_cell_boundary_pairs_found(self):
        """Points straddling a grid-cell boundary still count (the 3x3
        neighbourhood join)."""
        # ~45 m apart east-west: within radius, likely different cells.
        ts = np.arange(0, 1800, 60.0)
        ds = TraceArray.concatenate(
            [
                _trail("a", 39.9, 116.40000, ts),
                _trail("b", 39.9, 116.40053, ts),  # ~45 m east
            ]
        ).by_user()
        events = contact_events(ds, PARAMS)
        assert ("a", "b") in events

    def test_pair_key_ordered(self):
        ts = np.arange(0, 1800, 60.0)
        ds = TraceArray.concatenate(
            [_trail("zed", 39.9, 116.4, ts), _trail("amy", 39.9, 116.4, ts)]
        ).by_user()
        events = contact_events(ds, PARAMS)
        assert list(events) == [("amy", "zed")]

    def test_empty_dataset(self):
        assert contact_events(TraceArray.empty(), PARAMS) == {}


class TestColocationGraph:
    def test_threshold_prunes_brief_contacts(self):
        long_ts = np.arange(0, 3600, 60.0)
        brief_ts = np.array([0.0, 60.0])
        ds = TraceArray.concatenate(
            [
                _trail("a", 39.9, 116.4, long_ts),
                _trail("b", 39.9, 116.4, long_ts),
                _trail("c", 39.9, 116.4, brief_ts),
            ]
        ).by_user()
        params = ColocationParams(50.0, 300.0, min_contact_s=1800.0)
        graph = colocation_graph(ds, params)
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")
        assert graph["a"]["b"]["contact_s"] >= 1800.0

    def test_all_users_are_nodes(self):
        ds = TraceArray.concatenate(
            [
                _trail("a", 39.9, 116.4, [0.0]),
                _trail("b", 45.0, 10.0, [0.0]),
            ]
        ).by_user()
        graph = colocation_graph(ds, PARAMS)
        assert set(graph.nodes) == {"a", "b"}
        assert graph.number_of_edges() == 0

    def test_a_user_without_traces_is_no_node(self):
        """A mask keeps the whole user table; the graph is the one of the
        masked array's ``by_user()``."""
        ds = TraceArray.concatenate(
            [_trail("a", 39.9, 116.4, [0.0]), _trail("b", 45.0, 10.0, [0.0])]
        )
        only_b = ds[ds.user_index == 1]
        assert only_b.users == ("a", "b")
        assert list(colocation_graph(only_b, PARAMS).nodes) == ["b"]
        assert list(colocation_graph(only_b.by_user(), PARAMS).nodes) == ["b"]

    def test_triangle_of_cohabitants(self):
        ts = np.arange(0, 7200, 60.0)
        ds = TraceArray.concatenate(
            [_trail(u, 39.9, 116.4, ts) for u in ("a", "b", "c")]
        ).by_user()
        graph = colocation_graph(ds, PARAMS)
        assert graph.number_of_edges() == 3
        assert nx.is_connected(graph)

    def test_synthetic_strangers_mostly_unlinked(self, small_corpus):
        """Independent synthetic users rarely share 30+ minutes within
        50 m — the attack should not hallucinate a dense graph."""
        dataset, _ = small_corpus
        graph = colocation_graph(
            dataset, ColocationParams(50.0, 300.0, min_contact_s=3600.0)
        )
        assert graph.number_of_edges() <= 2
