"""Unit tests for the event vocabulary and record format."""

import dataclasses
import json
import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import events as ev
from repro.observability.events import PAYLOADS, SCHEMA_VERSION, Event, Payload, Phase

CLASSES = [cls for classes in PAYLOADS.values() for cls in classes.values()]


class TestEventKind:
    def test_vocabulary_is_closed_and_unique(self):
        assert len(PAYLOADS) == 35
        assert len(CLASSES) == len(set(CLASSES)) == 37
        assert sorted(PAYLOADS["driver_annotation"]) == ["djcluster", "kmeans", "sampling"]
        assert "job_start" in PAYLOADS and "driver_annotation" in PAYLOADS
        assert "fault_injected" in PAYLOADS and "replica_healed" in PAYLOADS
        assert "spill_start" in PAYLOADS and "spill_merge" in PAYLOADS
        assert "job_submit" in PAYLOADS and "job_dispatch" in PAYLOADS
        assert "result_cache_hit" in PAYLOADS and "result_cache_store" in PAYLOADS
        assert "index_publish" in PAYLOADS and "index_reuse" in PAYLOADS
        assert "query_served" in PAYLOADS
        assert "window_open" in PAYLOADS and "watermark" in PAYLOADS
        assert "window_close" in PAYLOADS and "window_result" in PAYLOADS
        assert "attack_result" in PAYLOADS and "sweep_cell" in PAYLOADS

    def test_phase_order(self):
        assert Phase.ORDER == (Phase.SETUP, Phase.MAP, Phase.REDUCE)

    def test_schema_version(self):
        assert SCHEMA_VERSION == 1

    def test_payloads_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.PhaseStart(phase="map").phase = "reduce"


def _record(kind, data, **extra):
    return {"seq": 0, "ts": 0.0, "kind": kind, "job": "j", "data": data, **extra}


class TestEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind 'task_exploded'"):
            Event.from_dict(_record("task_exploded", {}))

    def test_misspelt_key_names_the_kind_and_the_key(self):
        data = {"phase": "map", "duraton_s": 1.0}
        with pytest.raises(ValueError, match="phase_finish has no field 'duraton_s'"):
            Event.from_dict(_record("phase_finish", data))

    def test_missing_payload_field_rejected(self):
        with pytest.raises(ValueError, match="phase_finish is missing field 'duration_s'"):
            Event.from_dict(_record("phase_finish", {"phase": "map"}))

    def test_unknown_record_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field 'nodes'"):
            Event.from_dict(_record("phase_start", {"phase": "map"}, nodes="w"))

    def test_data_that_is_not_an_object_is_rejected(self):
        with pytest.raises(ValueError, match="driver_annotation data is not an object"):
            Event.from_dict(_record("driver_annotation", [1, 2]))

    def test_driver_picks_the_annotation_class(self):
        data = {"driver": "sampling", "technique": "upper", "window_s": 60.0, "records_kept": 3}
        event = Event.from_dict(_record("driver_annotation", data))
        assert event.payload == ev.SamplingRun(technique="upper", window_s=60.0, records_kept=3)
        assert event.to_dict()["data"] == data
        with pytest.raises(ValueError, match="driver_annotation has no driver 'x'"):
            Event.from_dict(_record("driver_annotation", {**data, "driver": "x"}))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Event(seq=0, ts=-1.0, job="j", payload=ev.PhaseStart(phase="map"))

    def test_to_dict_omits_empty_fields(self):
        e = Event(seq=3, ts=1.5, job="j", payload=ev.PhaseStart(phase="map"))
        d = e.to_dict()
        assert d == {"seq": 3, "ts": 1.5, "kind": "phase_start", "job": "j",
                     "data": {"phase": "map"}}
        assert "task" not in d and "node" not in d

    def test_defaults_are_left_out_in_declared_order(self):
        start = ev.TaskStart(phase="map", locality="remote", speculative=True)
        assert list(start.to_dict()) == ["phase", "locality", "speculative"]
        # A recorded null is not the default: it is written.
        finish = ev.TaskFinish(phase="reduce", duration_s=1.0, locality=None)
        assert finish.to_dict() == {"phase": "reduce", "duration_s": 1.0, "locality": None}

    def test_round_trip(self):
        e = Event(
            seq=7, ts=12.25, job="j", task="map-0001", node="worker02",
            payload=ev.TaskFinish(phase="map", duration_s=1.5, attempts=2),
        )
        assert Event.from_dict(e.to_dict()) == e

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError, match="malformed event record"):
            Event.from_dict({**_record("phase_start", {"phase": "map"}), "seq": None})

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            Event.from_dict({"seq": 0, "ts": 0.0, "kind": "job_start"})

    def test_numpy_payload_coerced_to_json_safe(self):
        transfer = ev.ShuffleTransfer(
            reducer="r", bytes=np.int64(4096), records=1, groups=1,
        )
        finish = ev.PhaseFinish(phase="map", duration_s=np.float64(1.25))
        d = Event(seq=0, ts=0.0, job="j", payload=transfer).to_dict()["data"]
        assert type(d["bytes"]) is int and d["bytes"] == 4096
        d = Event(seq=0, ts=0.0, job="j", payload=finish).to_dict()["data"]
        assert type(d["duration_s"]) is float and d["duration_s"] == 1.25

    def test_value_without_a_scalar_is_exported_as_text(self):
        e = Event(seq=0, ts=0.0, job="j", payload=ev.PhaseStart(phase=np.array([1, 2])))
        assert e.to_dict()["data"] == {"phase": "[1 2]"}

    def test_timestamp_rounded_on_export(self):
        e = Event(seq=0, ts=1.23456789, job="j", payload=ev.PhaseStart(phase="map"))
        assert e.to_dict()["ts"] == 1.234568


# -- every payload class round-trips -------------------------------------------


def _values(tp) -> st.SearchStrategy:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(_values(arg) for arg in args))
    if origin is list:
        return st.lists(_values(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(st.text(max_size=4), _values(args[1]), max_size=3)
    if isinstance(tp, type) and issubclass(tp, Payload):
        return _payloads(tp)
    return {
        type(None): st.none(),
        bool: st.booleans(),
        int: st.integers(-(2**53), 2**53),
        float: st.floats(allow_nan=False, allow_infinity=False),
        str: st.text(max_size=8),
    }[tp]


def _payloads(cls) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        values = _values(hints[f.name])
        # Optional fields are often left at their default, as the engine does.
        fields[f.name] = values if f.default is dataclasses.MISSING else (
            st.just(f.default) | values
        )
    return st.fixed_dictionaries(fields).map(lambda kw: cls(**kw))


@settings(max_examples=300, deadline=None)
@given(
    payload=st.sampled_from(CLASSES).flatmap(_payloads),
    micros=st.integers(0, 10**15),
    task=st.none() | st.text(max_size=6),
)
def test_every_payload_round_trips_in_declared_order(payload, micros, task):
    event = Event(seq=5, ts=micros / 1e6, job="j", payload=payload, task=task)
    record = json.loads(json.dumps(event.to_dict()))
    assert Event.from_dict(record) == event
    written = [
        f.name for f in dataclasses.fields(payload)
        if f.default is dataclasses.MISSING or getattr(payload, f.name) != f.default
    ]
    driver = [] if payload.driver is None else ["driver"]
    assert list(record["data"]) == driver + written
