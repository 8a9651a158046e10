"""Unit tests for the Hadoop-style Configuration."""

import pytest

from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import (
    Configuration,
    MapReduceConfig,
    validate_tenants,
)
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.service import JobService


class TestConfiguration:
    def test_basic_access(self):
        conf = Configuration({"a": 1}, b="x")
        assert conf["a"] == 1
        assert conf["b"] == "x"
        assert conf.as_dict() == {"a": 1, "b": "x"}

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            Configuration()["nope"]

    def test_equality(self):
        assert Configuration({"a": 1}).as_dict() == Configuration(a=1).as_dict()
        assert Configuration({"a": 1}).as_dict() != Configuration(a=2).as_dict()

    def test_as_dict_is_copy(self):
        conf = Configuration(a=1)
        d = conf.as_dict()
        d["a"] = 99
        assert conf["a"] == 1


class TestTypedGetters:
    def test_int_coercion(self):
        conf = Configuration({"k": "11"})
        assert conf.get_int("k") == 11

    def test_int_default(self):
        assert Configuration().get_int("k", 5) == 5

    def test_int_missing_required(self):
        with pytest.raises(KeyError, match="missing required"):
            Configuration().get_int("k")

    def test_int_bad_value(self):
        with pytest.raises(ValueError, match="'k'"):
            Configuration({"k": "eleven"}).get_int("k")

    def test_float(self):
        assert Configuration({"d": "0.5"}).get_float("d") == 0.5

    def test_str(self):
        assert Configuration(x=42).get_str("x") == "42"


class TestValidateTenants:
    """The tenant-roster validation MapReduceConfig runs at construction."""

    def test_bare_weights_normalized(self):
        roster = validate_tenants({"alice": 2, "bob": 1.5})
        assert roster == {
            "alice": {"weight": 2.0, "max_queued": None},
            "bob": {"weight": 1.5, "max_queued": None},
        }

    def test_knob_dict_spelling(self):
        roster = validate_tenants({"a": {"weight": 3, "max_queued": 4}, "b": {}})
        assert roster["a"] == {"weight": 3.0, "max_queued": 4}
        assert roster["b"] == {"weight": 1.0, "max_queued": None}  # defaults

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            validate_tenants({})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            validate_tenants(["alice", "bob"])

    @pytest.mark.parametrize("name", ["", "   ", 7, None])
    def test_blank_or_nonstring_names_rejected(self, name):
        with pytest.raises(ValueError, match="non-empty strings"):
            validate_tenants({name: 1.0})

    @pytest.mark.parametrize(
        "weight", [0, -1, -0.5, float("nan"), float("inf"), True, "2", None]
    )
    def test_bad_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="weight"):
            validate_tenants({"t": weight})

    @pytest.mark.parametrize("quota", [0, -3, 1.5, True, "4"])
    def test_bad_quotas_rejected(self, quota):
        with pytest.raises(ValueError, match="max_queued"):
            validate_tenants({"t": {"weight": 1.0, "max_queued": quota}})

    def test_unknown_knobs_rejected(self):
        with pytest.raises(ValueError, match="unknown knobs.*'priority'"):
            validate_tenants({"t": {"weight": 1.0, "priority": 9}})

    def test_mapreduce_config_validates_at_construction(self):
        MapReduceConfig("serial", tenants={"alice": 2.0})  # fine
        with pytest.raises(ValueError, match="weight"):
            MapReduceConfig("serial", tenants={"alice": -2.0})

    def test_none_means_single_tenant(self):
        assert MapReduceConfig("serial").tenants is None


class TestMemoryBudget:
    """A budget that is not a finite positive number fails at construction
    with an error that names it, not later inside ``int(budget * MB)``."""

    BAD = pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf")])

    @BAD
    def test_config_rejects_it(self, budget):
        with pytest.raises(ValueError, match="memory_budget_mb must be positive and finite"):
            MapReduceConfig("serial", memory_budget_mb=budget)

    @pytest.mark.parametrize("budget", [True, "8"])
    def test_config_rejects_a_non_number(self, budget):
        with pytest.raises(ValueError, match="memory_budget_mb must be a positive number"):
            MapReduceConfig("serial", memory_budget_mb=budget)

    @BAD
    def test_hdfs_rejects_it(self, budget):
        with pytest.raises(ValueError, match="memory_budget_mb must be positive and finite"):
            SimulatedHDFS(paper_cluster(2), memory_budget_mb=budget)

    @BAD
    def test_runner_rejects_it(self, budget):
        hdfs = SimulatedHDFS(paper_cluster(2))
        with pytest.raises(ValueError, match="memory_budget_mb must be positive and finite"):
            JobRunner(hdfs, memory_budget_mb=budget)

    @BAD
    def test_service_rejects_it(self, budget):
        hdfs = SimulatedHDFS(paper_cluster(2))
        with pytest.raises(ValueError, match="memory_budget_mb must be positive and finite"):
            JobService(hdfs, memory_budget_mb=budget)
