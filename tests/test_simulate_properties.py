"""Invariant properties of the discrete-event simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.makespan import CostModel, simulate
from repro.core.engine import Engine
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig


def _simulate(engine, processors, op_cost=1.0, routing_cost=0.0):
    return simulate(
        engine.open(8, "whirlpool_m"),
        n_processors=processors,
        cost_model=CostModel(operation_cost=op_cost, routing_cost=routing_cost),
    )


class TestWorkConservation:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 6))
    def test_busy_time_equals_work_done(self, processors):
        engine = _module_engine()
        outcome = _simulate(engine, processors, op_cost=1.0, routing_cost=0.5)
        stats = outcome.result.stats
        expected_busy = (
            stats.server_operations * 1.0 + stats.routing_decisions * 0.5
        )
        assert outcome.busy_time == pytest.approx(expected_busy)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 6))
    def test_makespan_bounds(self, processors):
        engine = _module_engine()
        outcome = _simulate(engine, processors, op_cost=1.0)
        total_work = outcome.busy_time
        # Makespan cannot beat perfect parallelism over `processors`, nor
        # exceed fully serialized execution.
        assert outcome.makespan >= total_work / processors - 1e-9
        assert outcome.makespan <= total_work + 1e-9

    def test_sequential_equals_total_work(self):
        engine = _module_engine()
        outcome = _simulate(engine, processors=1, op_cost=2.5, routing_cost=0.25)
        assert outcome.makespan == pytest.approx(outcome.busy_time)


class TestScalingProperties:
    def test_zero_cost_operations_finish_instantly(self):
        engine = _module_engine()
        outcome = _simulate(engine, processors=2, op_cost=0.0, routing_cost=0.0)
        assert outcome.makespan == 0.0
        assert len(outcome.result.answers) == 8

    def test_cost_scaling_is_linear_at_one_processor(self):
        """At one processor the schedule is serial, so doubling the
        per-operation cost doubles the makespan (identical op counts)."""
        engine = _module_engine()
        base = _simulate(engine, processors=1, op_cost=1.0)
        double = _simulate(engine, processors=1, op_cost=2.0)
        assert double.result.stats.server_operations == (
            base.result.stats.server_operations
        )
        assert double.makespan == pytest.approx(base.makespan * 2.0)

    def test_unbounded_processors_at_least_as_fast_as_six(self):
        engine = _module_engine()
        six = _simulate(engine, processors=6)
        unbounded = _simulate(engine, processors=None)
        assert unbounded.makespan <= six.makespan * 1.10


_ENGINE_CACHE = {}


def _module_engine():
    if "engine" not in _ENGINE_CACHE:
        database = generate_database(XMarkConfig(items=40, seed=13))
        _ENGINE_CACHE["engine"] = Engine(
            database, "//item[./description/parlist and ./name]"
        )
    return _ENGINE_CACHE["engine"]
