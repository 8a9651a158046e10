"""Unit tests for job counters."""

from repro.mapreduce.counters import Counters


class TestCounters:
    def test_increment_and_value(self):
        c = Counters()
        c.increment("task", "maps", 3)
        c.increment("task", "maps")
        assert c.value("task", "maps") == 4

    def test_zero_increment_creates_nothing(self):
        c = Counters()
        c.increment("g", "n", 0)
        assert c.to_dict() == {}

    def test_unknown_counter_is_zero(self):
        assert Counters().value("g", "n") == 0

    def test_group_is_copy(self):
        c = Counters()
        c.increment("g", "n", 1)
        g = c.group("g")
        g["n"] = 99
        assert c.value("g", "n") == 1

    def test_merge(self):
        a = Counters()
        a.increment("g", "x", 1)
        a.increment("g", "y", 2)
        b = Counters()
        b.increment("g", "x", 10)
        b.increment("h", "z", 5)
        a.merge(b)
        assert a.value("g", "x") == 11
        assert a.value("g", "y") == 2
        assert a.value("h", "z") == 5
        # merge does not mutate the source
        assert b.value("g", "x") == 10

    def test_iteration_sorted(self):
        c = Counters()
        c.increment("b", "y", 1)
        c.increment("a", "x", 1)
        c.increment("a", "w", 1)
        assert list(c) == [("a", "w", 1), ("a", "x", 1), ("b", "y", 1)]

    def test_negative_amounts_allowed(self):
        c = Counters()
        c.increment("g", "n", 5)
        c.increment("g", "n", -2)
        assert c.value("g", "n") == 3


class TestCountersRoundTrip:
    def _sample(self):
        c = Counters()
        c.increment("task", "map_input_records", 100)
        c.increment("task", "shuffle_bytes", 2048)
        c.increment("scheduler", "data_local_maps", 7)
        return c

    def test_to_dict_is_sorted(self):
        c = Counters()
        c.increment("zeta", "b", 1)
        c.increment("zeta", "a", 2)
        c.increment("alpha", "x", 3)
        d = c.to_dict()
        assert list(d) == ["alpha", "zeta"]
        assert list(d["zeta"]) == ["a", "b"]

    def test_round_trip_survives_json(self):
        import json

        c = self._sample()
        assert json.loads(json.dumps(c.to_dict())) == c.to_dict()

    def test_merge_round_trip(self):
        a = self._sample()
        b = Counters()
        b.increment("task", "map_input_records", 50)
        b.increment("extra", "n", 1)
        merged = Counters()
        merged.merge(a)
        merged.merge(b)
        direct = self._sample()
        direct.merge(b)
        assert merged.to_dict() == direct.to_dict()
        assert merged.value("task", "map_input_records") == 150

    def test_as_dict_alias(self):
        """``to_dict`` is the one spelling, and it hands out a copy."""
        c = self._sample()
        snapshot = c.to_dict()
        snapshot["task"]["shuffle_bytes"] = 0
        assert c.to_dict()["task"]["shuffle_bytes"] == 2048
        assert not hasattr(c, "as_dict")

    def test_equality_ignores_insertion_order(self):
        a = Counters()
        a.increment("g", "x", 1)
        a.increment("g", "y", 2)
        b = Counters()
        b.increment("g", "y", 2)
        b.increment("g", "x", 1)
        assert a == b
        assert a != object()  # NotImplemented falls back to identity
