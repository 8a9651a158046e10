"""Unit tests for the event vocabulary and record format."""

import numpy as np
import pytest

from repro.observability.events import SCHEMA_VERSION, Event, EventKind, Phase
from tests.conftest import count_calls


class TestEventKind:
    def test_vocabulary_is_closed_and_unique(self):
        kinds = EventKind.all()
        assert len(kinds) == len(set(kinds)) == 36
        assert "job_start" in kinds and "driver_annotation" in kinds
        assert "fault_injected" in kinds and "replica_healed" in kinds
        assert "spill_start" in kinds and "spill_merge" in kinds
        assert "job_submit" in kinds and "job_dispatch" in kinds
        assert "result_cache_hit" in kinds and "result_cache_store" in kinds
        assert "index_publish" in kinds and "index_reuse" in kinds
        assert "query_served" in kinds
        assert "window_open" in kinds and "watermark" in kinds
        assert "window_close" in kinds and "window_result" in kinds
        assert "attack_result" in kinds and "sweep_cell" in kinds

    def test_phase_order(self):
        assert Phase.ORDER == (Phase.SETUP, Phase.MAP, Phase.REDUCE)

    def test_schema_version(self):
        assert SCHEMA_VERSION == 1


class TestEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            Event(seq=0, ts=0.0, kind="task_exploded", job="j")

    def test_known_kind_is_validated_without_rebuilding_the_vocabulary(
        self, monkeypatch
    ):
        """``EventKind.all()`` walks ``vars(cls)``; a valid event must not
        pay for that walk (it was most of an event's cost)."""
        calls = count_calls(monkeypatch, EventKind, "all")
        for kind in EventKind.all():
            Event(seq=0, ts=0.0, kind=kind, job="j")
        assert len(calls) == 1  # this test's own call

    def test_kind_added_after_import_is_known(self, monkeypatch):
        monkeypatch.setattr(EventKind, "TASK_EXPLODED", "task_exploded", raising=False)
        assert EventKind.all()[-1] == "task_exploded"
        assert Event(seq=0, ts=0.0, kind="task_exploded", job="j").kind == "task_exploded"

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Event(seq=0, ts=-1.0, kind=EventKind.JOB_START, job="j")

    def test_to_dict_omits_empty_fields(self):
        e = Event(seq=3, ts=1.5, kind=EventKind.PHASE_START, job="j")
        d = e.to_dict()
        assert d == {"seq": 3, "ts": 1.5, "kind": "phase_start", "job": "j"}
        assert "task" not in d and "node" not in d and "data" not in d

    def test_round_trip(self):
        e = Event(
            seq=7, ts=12.25, kind=EventKind.TASK_FINISH, job="j",
            task="map-0001", node="worker02",
            data={"duration_s": 1.5, "attempts": 2},
        )
        assert Event.from_dict(e.to_dict()) == e

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            Event.from_dict({"seq": 0, "ts": 0.0, "kind": "job_start"})

    def test_numpy_payload_coerced_to_json_safe(self):
        e = Event(
            seq=0, ts=0.0, kind=EventKind.SHUFFLE_TRANSFER, job="j",
            data={"bytes": np.int64(4096), "skew": np.float64(1.25)},
        )
        d = e.to_dict()["data"]
        assert type(d["bytes"]) is int and d["bytes"] == 4096
        assert type(d["skew"]) is float and d["skew"] == 1.25

    def test_timestamp_rounded_on_export(self):
        e = Event(seq=0, ts=1.23456789, kind=EventKind.JOB_START, job="j")
        assert e.to_dict()["ts"] == 1.234568
