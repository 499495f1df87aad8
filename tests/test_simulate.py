"""Tests for the discrete-event Whirlpool-M simulator and cost model."""

import pytest

from repro.core.engine import Engine
from repro.errors import EngineError
from repro.simulate.cost import CostModel
from repro.simulate.scheduler import SimulatedWhirlpoolM
from tests.conftest import assert_exact_or_certified, full_ranking


def _simulator(engine, k=5, n_processors=2, cost_model=None, **kwargs):
    return SimulatedWhirlpoolM(
        pattern=engine.pattern,
        index=engine.index,
        score_model=engine.score_model,
        k=k,
        n_processors=n_processors,
        cost_model=cost_model or CostModel(operation_cost=1.0, routing_cost=0.0),
        **kwargs,
    )


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, "//item[./description/parlist and ./mailbox/mail/text]")


class TestCostModel:
    def test_default_operation_cost_is_paper_value(self):
        assert CostModel().operation_cost == pytest.approx(0.0018)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(operation_cost=-1)
        with pytest.raises(ValueError):
            CostModel(routing_cost=-0.1)

    def test_sequential_time(self):
        model = CostModel(operation_cost=2.0, routing_cost=0.5)
        assert model.sequential_time(10, 4) == pytest.approx(22.0)


class TestSimulator:
    def test_deterministic(self, engine):
        a = _simulator(engine).simulate()
        b = _simulator(engine).simulate()
        assert a.makespan == b.makespan
        assert a.result.stats.server_operations == b.result.stats.server_operations
        assert [ans.score for ans in a.result.answers] == [
            ans.score for ans in b.result.answers
        ]

    def test_same_answers_as_whirlpool_s(self, engine):
        sequential = engine.run(5, algorithm="whirlpool_s")
        sim = _simulator(engine).simulate()
        assert [round(a.score, 9) for a in sim.result.answers] == [
            round(a.score, 9) for a in sequential.answers
        ]

    def test_one_processor_equals_total_work(self, engine):
        """With one processor the makespan is exactly the serialized cost
        of every operation performed (routing is free here)."""
        sim = _simulator(engine, n_processors=1).simulate()
        assert sim.makespan == pytest.approx(
            sim.result.stats.server_operations * 1.0
        )

    def test_makespan_shrinks_with_processors(self, engine):
        """More processors should help overall.  Strict per-step
        monotonicity is NOT guaranteed: a more parallel schedule can do
        speculative operations before the top-k threshold has grown (the
        paper's Section 6.3.5 effect), so we assert the endpoints and a
        small tolerance between steps."""
        makespans = [
            _simulator(engine, n_processors=p).simulate().makespan
            for p in (1, 2, 4, None)
        ]
        assert makespans[-1] < makespans[0]
        assert makespans[1] < makespans[0]
        for slower, faster in zip(makespans, makespans[1:]):
            assert faster <= slower * 1.15

    def test_speedup_bounded_by_thread_count(self, engine):
        """Speedup cannot exceed #servers + 1 (router), the simulated
        thread count doing work."""
        serial = _simulator(engine, n_processors=1).simulate()
        unbounded = _simulator(engine, n_processors=None).simulate()
        thread_count = len(engine.server_node_ids()) + 1
        assert serial.makespan / unbounded.makespan <= thread_count + 1e-9

    def test_utilization(self, engine):
        sim = _simulator(engine, n_processors=2).simulate()
        assert 0.0 < sim.utilization() <= 1.0
        unbounded = _simulator(engine, n_processors=None).simulate()
        assert unbounded.utilization() == 0.0  # undefined -> reported as 0

    def test_routing_cost_extends_makespan(self, engine):
        free = _simulator(engine).simulate()
        costly = _simulator(
            engine, cost_model=CostModel(operation_cost=1.0, routing_cost=0.5)
        ).simulate()
        assert costly.makespan > free.makespan

    def test_invalid_processors_rejected(self, engine):
        with pytest.raises(EngineError):
            _simulator(engine, n_processors=0)

    def test_simulated_time_recorded_in_stats(self, engine):
        sim = _simulator(engine).simulate()
        assert sim.result.stats.simulated_time == pytest.approx(sim.makespan)

    def test_run_interface_returns_result(self, engine):
        result = _simulator(engine).run()
        assert result.algorithm == "whirlpool_m_simulated"
        assert len(result.answers) == 5


class TestParallelPruningEffect:
    def test_threshold_timing_changes_operations(self, engine):
        """Different processor counts schedule top-k growth differently, so
        operation counts may differ — the effect behind the paper's
        Section 6.3.5 observation.  (They must stay in a sane band.)"""
        ops = {
            p: _simulator(engine, n_processors=p).simulate().result.stats.server_operations
            for p in (1, 2, None)
        }
        noprun_ops = engine.run(5, algorithm="lockstep_noprun").stats.server_operations
        for count in ops.values():
            assert 0 < count <= noprun_ops


class TestSupervisedStep:
    """The scheduler is its own control flow over the engines' one step."""

    def test_every_queue_comes_from_the_engine(self, engine):
        from repro.core.trace import EngineObserver

        class Sites(EngineObserver):
            def __init__(self):
                self.seen = set()

            def on_queue_depth(self, site, depth):
                self.seen.add(site)

        sites = Sites()
        outcome = _simulator(engine, observer=sites).simulate()
        assert outcome.makespan == _simulator(engine).simulate().makespan
        # The router queue is the engine's (observed, injector-aware) one.
        assert "router" in sites.seen
        assert any(site.startswith("server:") for site in sites.seen)

    @pytest.mark.parametrize("seed", range(6))
    def test_chaos_is_supervised_not_fatal(self, engine, seed):
        from repro.faults import FaultPlan

        ranking = full_ranking(engine)
        result = _simulator(engine, faults=FaultPlan.chaos(seed)).simulate().result
        assert result.failure is not None
        truth = dict(ranking)
        for answer in result.answers:
            assert answer.score <= truth[answer.root_node.dewey] + 1e-9
        assert_exact_or_certified(ranking, result)
