"""Tests for anytime (budgeted) top-k evaluation."""

import pytest

from repro.bench.params import QUERIES
from repro.core.anytime import anytime_topk
from repro.core.engine import Engine
from repro.errors import EngineError
from tests.conftest import assert_same_topk, full_ranking, run_fingerprint


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, "//item[./description/parlist and ./mailbox/mail/text]")


class TestUnbudgeted:
    def test_no_budget_is_exact(self, engine):
        reference = engine.run(10, algorithm="whirlpool_s")
        outcome = anytime_topk(engine, k=10)
        assert outcome.is_final
        assert [round(a.score, 9) for a in outcome.answers] == [
            round(a.score, 9) for a in reference.answers
        ]

    def test_early_stop_saves_operations(self, engine):
        """The certificate fires before the queue drains for small k."""
        full = engine.run(1, algorithm="whirlpool_s")
        outcome = anytime_topk(engine, k=1)
        assert outcome.is_final
        assert outcome.operations_used <= full.stats.server_operations
        assert outcome.answers[0].score == pytest.approx(full.answers[0].score)
        # The certificate is coherent: the reported answer beats the bound.
        assert outcome.answers[0].score >= outcome.guarantee() - 1e-9


class TestBudgeted:
    def test_tiny_budget_reports_not_final(self, engine):
        outcome = anytime_topk(engine, k=10, max_operations=3)
        assert not outcome.is_final
        assert outcome.operations_used <= 3
        assert outcome.guarantee() > 0.0

    def test_budget_zero(self, engine):
        outcome = anytime_topk(engine, k=5, max_operations=0)
        assert not outcome.is_final
        assert outcome.operations_used == 0

    def test_scores_never_overstate(self, engine):
        """Budgeted answers are lower bounds of the true scores."""
        truth = {
            a.root_node.dewey: a.score
            for a in engine.run(len(engine.index["item"])).answers
        }
        outcome = anytime_topk(engine, k=10, max_operations=50)
        for answer in outcome.answers:
            assert answer.score <= truth[answer.root_node.dewey] + 1e-9

    def test_growing_budget_converges(self, engine):
        reference = [
            round(a.score, 9) for a in engine.run(5, algorithm="whirlpool_s").answers
        ]
        last = None
        for budget in (5, 50, 500, None):
            outcome = anytime_topk(engine, k=5, max_operations=budget)
            last = [round(a.score, 9) for a in outcome.answers]
            if outcome.is_final:
                break
        assert last == reference

    def test_guarantee_interpretation(self, engine):
        """Answers scoring >= the guarantee are definitively top-k."""
        truth_top = {
            a.root_node.dewey
            for a in engine.run(10, algorithm="whirlpool_s").answers
        }
        outcome = anytime_topk(engine, k=10, max_operations=200)
        certain = [
            a for a in outcome.answers if a.score >= outcome.guarantee()
        ]
        for answer in certain:
            assert answer.root_node.dewey in truth_top


class TestValidation:
    def test_negative_budget_rejected(self, engine):
        with pytest.raises(EngineError):
            anytime_topk(engine, 1, max_operations=-1)

    def test_repr(self, engine):
        outcome = anytime_topk(engine, k=3, max_operations=10)
        assert "ops" in repr(outcome)


#: ``engine.run(k).stats.server_operations`` for k = 1, 3, 15, 75 on
#: ``XMarkConfig(items=300, seed=7)``.  The Whirlpool-S rows are what
#: ``AnytimeWhirlpool.run_anytime`` counted before its early stop became
#: the top-k set's closing level; a strict (ties kept) Whirlpool-S did
#: 430 / 1,149 / 2,313 whatever the k (3,561 on Q3 at k = 75), a strict
#: LockStep 600 on Q1.
GOLDEN_OPERATIONS = {
    "Q1": [301, 303, 315, 375],
    "Q2": [647, 668, 734, 1091],
    "Q3": [1217, 1277, 1436, 2810],
}
GOLDEN_LOCKSTEP_Q1 = [304, 309, 334, 454]


@pytest.fixture(scope="module")
def golden_db():
    from repro.xmark import XMarkConfig, generate_database

    return generate_database(XMarkConfig(items=300, seed=7))


class TestFold:
    """Anytime is a budgeted Whirlpool-S run: the early stop is every run's."""

    @pytest.mark.parametrize("query", sorted(GOLDEN_OPERATIONS))
    def test_golden_operation_counts(self, golden_db, query):
        engine = Engine(golden_db, QUERIES[query])
        ranking = full_ranking(engine)
        operations = []
        for k in (1, 3, 15, 75):
            result = engine.run(k)
            assert_same_topk(ranking, result)
            outcome = anytime_topk(engine, k)
            assert outcome.is_final
            assert run_fingerprint(outcome.result) == run_fingerprint(result)
            operations.append(outcome.operations_used)
        assert operations == GOLDEN_OPERATIONS[query]
        # Fig. 10's shape: work grows with k.
        assert operations == sorted(set(operations))

    def test_lockstep_closes_ties_too(self, golden_db):
        engine = Engine(golden_db, QUERIES["Q1"])
        ranking = full_ranking(engine)
        operations = []
        for k in (1, 3, 15, 75):
            result = engine.run(k, algorithm="lockstep")
            assert_same_topk(ranking, result)
            operations.append(result.stats.server_operations)
        assert operations == GOLDEN_LOCKSTEP_Q1

    def test_warm_engine_is_not_probed(self, engine):
        before = engine.index.probe_cost()
        outcome = anytime_topk(engine, k=10)
        assert outcome.operations_used > 0
        assert engine.index.probe_cost() == before

    def test_run_options_reach_the_run(self, engine):
        from repro.core.trace import ExecutionTrace
        from repro.faults import FaultPlan

        trace = ExecutionTrace()
        outcome = anytime_topk(engine, k=3, routing="max_score", observer=trace)
        assert outcome.is_final
        assert any(event.kind == "prune" for event in trace.events)
        chaotic = anytime_topk(engine, k=3, faults=FaultPlan.chaos(3))
        assert chaotic.result.failure is not None
        assert chaotic.result.failure.injection is not None

    def test_checkpoint_resumes_to_the_same_answer(self, engine):
        from repro.recovery import CheckpointPolicy

        snapshots = []
        partial = anytime_topk(
            engine,
            k=5,
            max_operations=40,
            checkpoint_policy=CheckpointPolicy(every_operations=25),
            checkpoint_sink=snapshots.append,
        )
        assert not partial.is_final and snapshots
        resumed = anytime_topk(engine, k=5, restore_from=snapshots[-1])
        straight = anytime_topk(engine, k=5)
        assert resumed.is_final
        assert resumed.result.root_deweys() == straight.result.root_deweys()
        assert resumed.operations_used == straight.operations_used
