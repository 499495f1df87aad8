"""Timing-precise fault plans: validation, selection, serialization.

A :class:`~repro.faults.plan.FaultPlan` is pure data, and a single-fire
``nth`` rule is its timing-precise form; these tests pin the three
contracts the sim layer builds on: rules reject combinations the fault
boundaries cannot execute, a plan hands each boundary the rules of its
own sites, and the JSON form is canonical enough to round-trip
byte-for-byte (the corpus replay contract).
"""

import pytest

from repro.errors import FaultPlanError, ReproError
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.sim.explore import ScheduleExplorer
from repro.sim.harness import SimHarness, SimScenario


def three_family_plan():
    return FaultPlan(
        [
            FaultRule("server_op", "crash", nth=10, times=1),
            FaultRule("worker_rpc", "kill", target=0, nth=3, times=1),
            FaultRule("net", "partition", target=1, nth=4, times=1),
        ],
        name="mixed",
    )


class TestTriggerValidation:
    def test_step_is_one_based(self):
        with pytest.raises(FaultPlanError, match="1-based"):
            FaultRule("server_op", "error", nth=0)

    def test_engine_site_rejects_process_action(self):
        with pytest.raises(FaultPlanError, match="not valid at site"):
            FaultRule("server_op", "kill", nth=1)

    def test_net_site_rejects_engine_action(self):
        with pytest.raises(FaultPlanError, match="not valid at site"):
            FaultRule("net", "crash", target=0, nth=1)

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultPlanError, match="delay_seconds"):
            FaultRule("server_op", "delay", nth=1, delay_seconds=-0.1)

    def test_unknown_site_and_action_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("warp_core", "error", nth=1)
        with pytest.raises(ValueError):
            FaultRule("server_op", "explode", nth=1)

    def test_describe_is_compact_and_stable(self):
        assert (
            FaultRule("server_op", "crash", nth=7, times=1).describe()
            == "crash@server_op [nth=7 times=1]"
        )
        assert (
            FaultRule("worker_rpc", "kill", target=1, nth=3, times=1).describe()
            == "kill@worker_rpc:1 [nth=3 times=1]"
        )


class TestPlanCompilation:
    def test_families_partition_the_triggers(self):
        plan = three_family_plan()
        assert plan.families() == ["engine", "net", "process"]
        selected = [rule for family in plan.families() for rule in plan.select(family).rules]
        assert sorted(selected, key=plan.rules.index) == plan.rules

    def test_each_family_compiles_to_its_own_plan(self):
        plan = three_family_plan()
        engine = plan.select("engine")
        process = plan.select("process")
        net = plan.select("net")
        assert engine is not None and len(engine.rules) == 1
        assert process is not None and len(process.rules) == 1
        assert net is not None and len(net.rules) == 1
        assert engine.rules[0].site is FaultSite.SERVER_OP
        assert process.rules[0].site is FaultSite.WORKER_RPC
        assert net.rules[0].site is FaultSite.NET
        # A boundary's probability draws still come from the plan's seed.
        assert FaultPlan(plan.rules, seed=9).select("net").seed == 9

    def test_absent_family_compiles_to_none(self):
        plan = FaultPlan([FaultRule("server_op", "error", nth=2)])
        assert plan.select("process") is None
        assert plan.select("net") is None

    def test_trigger_compiles_to_single_fire_nth_rule(self):
        # What the explorer draws *is* the rule the boundaries execute:
        # single-fire, pinned to one operation index.
        explorer = ScheduleExplorer(SimHarness(SimScenario(kind="engine")), seed=2)
        for rule in explorer.random_plan().rules:
            assert rule.nth is not None and rule.nth >= 1
            assert rule.times == 1
            assert rule.every is None and rule.probability is None
        rule = FaultRule("queue_put", "drop", target="srv0", nth=5, times=1)
        assert rule.action is FaultAction.DROP
        assert rule.target == "srv0"
        assert rule.replaced(nth=4).nth == 4
        assert rule.replaced(nth=4) != rule == rule.replaced()


class TestSerialization:
    def test_json_round_trip_is_byte_identical(self):
        plan = three_family_plan()
        text = plan.to_json()
        again = FaultPlan.from_json(text)
        assert again == plan
        assert again.name == "mixed"
        assert again.to_json() == text

    def test_save_load_round_trip(self, tmp_path):
        plan = three_family_plan()
        path = tmp_path / "mixed.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        assert path.read_text(encoding="utf-8") == plan.to_json()

    def test_malformed_payloads_raise_schedule_errors(self):
        assert issubclass(FaultPlanError, ReproError)
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="malformed plan"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(FaultPlanError, match="malformed rule"):
            FaultRule.from_dict({"site": "server_op"})  # missing key
        with pytest.raises(FaultPlanError, match="malformed rule"):
            FaultRule.from_dict({"site": "net", "action": "partition", "nth": "3"})
        with pytest.raises(FaultPlanError, match="malformed plan"):
            FaultPlan.from_dict({"rules": 5})
        with pytest.raises(FaultPlanError, match="warp_core"):
            FaultPlan.from_dict({"rules": [{"site": "warp_core", "action": "error", "nth": 1}]})
        with pytest.raises(FaultPlanError, match="explode"):
            FaultPlan.from_dict({"rules": [{"site": "router", "action": "explode", "nth": 1}]})

    def test_equality_ignores_name_but_not_triggers(self):
        one = FaultPlan([FaultRule("server_op", "error", nth=2)], name="a")
        two = FaultPlan([FaultRule("server_op", "error", nth=2)], name="b")
        other = FaultPlan([FaultRule("server_op", "error", nth=3)], name="a")
        assert one == two
        assert one != other
        assert hash(one) == hash(two)
