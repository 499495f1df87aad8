"""Tests for the discrete-event Whirlpool-M simulator and cost model."""

import pytest

from repro.bench.makespan import CostModel, simulate
from repro.core.engine import Engine
from repro.core.trace import ExecutionTrace
from repro.errors import EngineError
from repro.recovery.policy import CheckpointPolicy
from tests.conftest import (
    RunShape,
    assert_exact_or_certified,
    assert_same_topk,
    full_ranking,
)


def _simulate(
    engine, k=5, n_processors=2, cost_model=None, algorithm="whirlpool_m", **options
):
    return simulate(
        engine.open(k, algorithm, **options),
        n_processors=n_processors,
        cost_model=cost_model or CostModel(operation_cost=1.0, routing_cost=0.0),
    )


def landing_chaos_seeds(shape, count):
    """The first ``count`` seeds whose ``FaultPlan.chaos`` rules all fire
    within ``shape``, each at a site of its own (so no rule takes
    another's turn)."""
    from repro.faults import FaultPlan

    seeds, seed = [], 0
    while len(seeds) < count:
        rules = FaultPlan.chaos(seed).rules
        sites = {rule.site for rule in rules}
        if len(sites) == len(rules) and all(shape.lands(rule) for rule in rules):
            seeds.append(seed)
        seed += 1
    return seeds


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
        a = _simulate(engine)
        b = _simulate(engine)
        assert a.makespan == b.makespan
        assert a.result.stats.server_operations == b.result.stats.server_operations
        assert [ans.score for ans in a.result.answers] == [
            ans.score for ans in b.result.answers
        ]

    def test_same_answers_as_whirlpool_s(self, engine):
        sequential = engine.run(5, algorithm="whirlpool_s")
        sim = _simulate(engine)
        assert [round(a.score, 9) for a in sim.result.answers] == [
            round(a.score, 9) for a in sequential.answers
        ]

    def test_one_processor_equals_total_work(self, engine):
        """With one processor the makespan is exactly the serialized cost
        of every operation performed (routing is free here)."""
        sim = _simulate(engine, n_processors=1)
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
            _simulate(engine, n_processors=p).makespan
            for p in (1, 2, 4, None)
        ]
        assert makespans[-1] < makespans[0]
        assert makespans[1] < makespans[0]
        for slower, faster in zip(makespans, makespans[1:]):
            assert faster <= slower * 1.15

    def test_speedup_bounded_by_thread_count(self, engine):
        """The schedule is work-conserving and no better: a run's makespan
        is at least its *own* operation cost spread over the threads doing
        work — #servers + 1 (router), or fewer processors.  It is not a
        bound on the serial run's makespan over the unbounded one: with
        more processors the run meets its matches in another order and can
        do less work (58 operations with unboundedly many processors, 97 on
        one)."""
        thread_count = len(engine.server_node_ids()) + 1
        for processors in (1, 2, None):
            sim = _simulate(engine, n_processors=processors)
            busy = min(thread_count, processors or thread_count)
            work = sim.result.stats.server_operations  # operation_cost 1.0
            assert sim.makespan >= work / busy - 1e-9, processors

    def test_utilization(self, engine):
        sim = _simulate(engine, n_processors=2)
        assert 0.0 < sim.utilization() <= 1.0
        unbounded = _simulate(engine, n_processors=None)
        assert unbounded.utilization() == 0.0  # undefined -> reported as 0

    def test_routing_cost_extends_makespan(self, engine):
        free = _simulate(engine)
        costly = _simulate(
            engine, cost_model=CostModel(operation_cost=1.0, routing_cost=0.5)
        )
        assert costly.makespan > free.makespan

    def test_invalid_processors_rejected(self, engine):
        with pytest.raises(EngineError):
            _simulate(engine, n_processors=0)

    def test_simulated_time_recorded_in_stats(self, engine):
        sim = _simulate(engine)
        assert sim.result.stats.simulated_time == pytest.approx(sim.makespan)

    def test_run_interface_returns_result(self, engine):
        result = _simulate(engine).result
        assert result.algorithm == "whirlpool_m"
        assert len(result.answers) == 5


class TestParallelPruningEffect:
    def test_threshold_timing_changes_operations(self, engine):
        """Different processor counts schedule top-k growth differently, so
        operation counts may differ — the effect behind the paper's
        Section 6.3.5 observation.  (They must stay in a sane band.)"""
        ops = {
            p: _simulate(engine, n_processors=p).result.stats.server_operations
            for p in (1, 2, None)
        }
        noprun_ops = engine.run(5, algorithm="lockstep_noprun").stats.server_operations
        for count in ops.values():
            assert 0 < count <= noprun_ops


class TestRunOptions:
    """A simulation drives a run from ``Engine.open``: what the run
    carries, the schedule honours or refuses."""

    @pytest.mark.parametrize(
        "option, value",
        [
            ("max_operations", 5),
            ("deadline_seconds", 1.0),
            ("checkpoint_policy", CheckpointPolicy(every_operations=8)),
            ("algorithm", "whirlpool_s"),
        ],
    )
    def test_budgets_and_checkpoints_are_refused(self, engine, option, value):
        """A modeled schedule has no wall clock or quiesce point.  A budget
        used to be ignored: ``max_operations=5`` ran all 316 operations
        and reported a result that was not degraded.  Only a Whirlpool-M
        run has server threads to schedule."""
        with pytest.raises(EngineError, match=option):
            _simulate(engine, k=15, **{option: value})

    def test_restored_run_continues_from_the_snapshot(self, engine):
        """A run restored from a Whirlpool-S budget exit finishes that
        run.  It used to seed all 60 roots again on top of it, creating
        1,490 matches where a fresh run creates 1,390.

        The count is compared where the modeled schedule is the run's own,
        on one processor: there the restored run creates what a fresh one
        creates, for every k and snapshot tried.  From two processors on,
        the schedule after a restore interleaves differently and the count
        moves either way of a fresh run's, before per-root bounds as after:
        over k in (5, 10, 15, 20), 2 or 4 processors and snapshots after
        10-60 operations, 25 of 40 cases held ``<=`` bounded by
        database-wide maxima (the worst at 1.97x a fresh run), 26 of 40
        bounded per root.  So the two-processor run is held to what is a
        property there — it seeds only the roots the snapshot had not seeded
        yet (Whirlpool-S seeds a root when it would pop), each once, and
        answers correctly — and the snapshot, resumed into Whirlpool-S, to
        the uninterrupted count."""
        snapshots = []
        engine.run(
            15,
            max_operations=40,
            checkpoint_policy=CheckpointPolicy(every_operations=10**9),
            checkpoint_sink=snapshots.append,
        )
        (snapshot,) = snapshots
        seeded = []

        class SeedTrace(ExecutionTrace):
            def on_seed(self, match, threshold):
                seeded.append(match.root_node.dewey)

        run = engine.open(15, "whirlpool_m", restore_from=snapshot, observer=SeedTrace())
        unseeded = [root[2].dewey for root in run.seed_order()[snapshot["seeded"] :]]
        restored = simulate(run, n_processors=2, cost_model=CostModel(operation_cost=1.0)).result
        assert unseeded and seeded == unseeded
        assert_same_topk(full_ranking(engine), restored)
        restored = _simulate(engine, k=15, n_processors=1, restore_from=snapshot).result
        fresh = _simulate(engine, k=15, n_processors=1).result
        assert restored.stats.partial_matches_created <= fresh.stats.partial_matches_created
        assert_same_topk(full_ranking(engine), restored)
        resumed = engine.run(15, restore_from=snapshot)
        assert (
            resumed.stats.partial_matches_created
            == engine.run(15).stats.partial_matches_created
        )
        assert_same_topk(full_ranking(engine), resumed)


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
        outcome = _simulate(engine, observer=sites)
        assert outcome.makespan == _simulate(engine).makespan
        # The router queue is the engine's (observed, injector-aware) one.
        assert "router" in sites.seen
        assert any(site.startswith("server:") for site in sites.seen)

    @pytest.mark.parametrize("draw", range(6))
    def test_chaos_is_supervised_not_fatal(self, engine, shapes, draw):
        from repro.faults import FaultPlan

        shape = shapes.run(
            (engine, "simulated"), lambda faults: _simulate(engine, faults=faults).result
        )
        plan = FaultPlan.chaos(landing_chaos_seeds(shape, draw + 1)[draw])
        ranking = full_ranking(engine)
        result = _simulate(engine, faults=plan).result
        assert result.failure is not None
        # Every rule fired: its trigger falls inside the faulted run's own
        # counts, and no other rule at its site could have taken its turn.
        counted = RunShape(
            result.stats.server_operations, result.failure.injection["site_counts"]
        )
        assert all(counted.lands(rule) for rule in plan.rules), plan.describe()
        truth = dict(ranking)
        for answer in result.answers:
            assert answer.score <= truth[answer.root_node.dewey] + 1e-9
        assert_exact_or_certified(ranking, result)
