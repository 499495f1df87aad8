"""Tests for anytime (budgeted) top-k evaluation: a Whirlpool-S run with
``max_operations``, read as answers + ``degraded`` + ``pending_bound``."""

import pytest

from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.errors import EngineError
from tests.conftest import assert_same_topk, full_ranking, run_fingerprint


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, "//item[./description/parlist and ./mailbox/mail/text]")


class TestUnbudgeted:
    def test_no_budget_is_exact(self, engine):
        reference = engine.run(10, algorithm="whirlpool_s")
        outcome = engine.run(10, "whirlpool_s")
        assert not outcome.degraded
        assert [round(a.score, 9) for a in outcome.answers] == [
            round(a.score, 9) for a in reference.answers
        ]

    def test_early_stop_saves_operations(self, engine):
        """The certificate fires before the queue drains for small k."""
        full = engine.run(1, algorithm="whirlpool_s")
        outcome = engine.run(1, "whirlpool_s")
        assert not outcome.degraded
        assert outcome.stats.server_operations <= full.stats.server_operations
        assert outcome.answers[0].score == pytest.approx(full.answers[0].score)
        # The certificate is coherent: the reported answer beats the bound.
        assert outcome.answers[0].score >= outcome.pending_bound - 1e-9


class TestBudgeted:
    def test_tiny_budget_reports_not_final(self, engine):
        outcome = engine.run(10, "whirlpool_s", max_operations=3)
        assert outcome.degraded
        assert outcome.stats.server_operations <= 3
        assert outcome.pending_bound > 0.0

    def test_budget_zero(self, engine):
        outcome = engine.run(5, "whirlpool_s", max_operations=0)
        assert outcome.degraded
        assert outcome.stats.server_operations == 0

    def test_scores_never_overstate(self, engine):
        """Budgeted answers are lower bounds of the true scores."""
        truth = {
            a.root_node.dewey: a.score
            for a in engine.run(len(engine.index["item"])).answers
        }
        outcome = engine.run(10, "whirlpool_s", max_operations=50)
        for answer in outcome.answers:
            assert answer.score <= truth[answer.root_node.dewey] + 1e-9

    def test_growing_budget_converges(self, engine):
        reference = [
            round(a.score, 9) for a in engine.run(5, algorithm="whirlpool_s").answers
        ]
        last = None
        for budget in (5, 50, 500, None):
            outcome = engine.run(5, "whirlpool_s", max_operations=budget)
            last = [round(a.score, 9) for a in outcome.answers]
            if not outcome.degraded:
                break
        assert last == reference

    def test_guarantee_interpretation(self, engine):
        """Answers scoring >= the pending bound are definitively top-k."""
        truth_top = {
            a.root_node.dewey
            for a in engine.run(10, algorithm="whirlpool_s").answers
        }
        outcome = engine.run(10, "whirlpool_s", max_operations=200)
        certain = [
            a for a in outcome.answers if a.score >= outcome.pending_bound
        ]
        for answer in certain:
            assert answer.root_node.dewey in truth_top


class TestValidation:
    def test_negative_budget_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.run(1, "whirlpool_s", max_operations=-1)

    def test_repr(self, engine):
        outcome = engine.run(3, "whirlpool_s", max_operations=10)
        assert "ops=" in repr(outcome) and "degraded" in repr(outcome)


#: ``engine.run(k).stats.server_operations`` for k = 1, 3, 15, 75 on
#: ``XMarkConfig(items=300, seed=7)``, since a tuple that cannot beat the
#: score its own root has already completed at is pruned.  Before that, with
#: matches already bounded per root, Whirlpool-S counted 389 / 406 / 472 /
#: 822 (Q2) and 811 / 871 / 1,030 / 2,896 (Q3), Q1 as now.  Bounded by
#: database-wide maxima, Whirlpool-S counted 301 / 303 / 315 /
#: 375 (Q1), 647 / 668 / 734 / 1,091 (Q2) and 1,217 / 1,277 / 1,436 /
#: 2,810 (Q3), and LockStep 304 / 309 / 334 / 454 on Q1 — the counts the
#: anytime engine's ``run_anytime`` had before its early stop became the
#: top-k set's closing level; a strict (ties kept) Whirlpool-S did 430 /
#: 1,149 / 2,313 whatever the k (3,561 on Q3 at k = 75), a strict LockStep
#: 600 on Q1.
GOLDEN_OPERATIONS = {
    "Q1": [131, 133, 145, 205],
    "Q2": [389, 391, 403, 463],
    "Q3": [811, 813, 825, 1026],
}
GOLDEN_LOCKSTEP_Q1 = [301, 303, 315, 375]


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
            outcome = engine.run(k, "whirlpool_s")
            assert not outcome.degraded
            assert run_fingerprint(outcome) == run_fingerprint(result)
            operations.append(outcome.stats.server_operations)
        assert operations == GOLDEN_OPERATIONS[query]
        # Fig. 10's shape: work grows with k.
        assert operations == sorted(set(operations))

    @pytest.mark.parametrize("query", sorted(GOLDEN_OPERATIONS))
    def test_the_early_stop_changes_time_not_behaviour(self, golden_db, query, monkeypatch):
        """Whirlpool-S drains its queue at the first pop the shared levels
        close.  Popping what is left one by one instead (``closes`` never
        holds) prunes each of those at its own pop, in the same order: the
        answers and every counter are the same, every tuple the stopped
        run took has the same trace events, and only the pops are fewer.
        The stopped run never seeds the roots it closes (Whirlpool-S seeds
        a root when it would pop), so their seed and prune events exist in
        the popping run only."""
        from repro.core.queues import MatchQueue
        from repro.core.topk import TopKSet
        from repro.core.trace import ExecutionTrace

        engine = Engine(golden_db, QUERIES[query])
        get_nowait = MatchQueue.get_nowait

        def observed(k):
            pops = []

            def counted(queue):
                match = get_nowait(queue)
                pops.append(match)
                return match

            monkeypatch.setattr(MatchQueue, "get_nowait", counted)
            trace = ExecutionTrace()
            result = engine.run(k, "whirlpool_s", observer=trace)
            first = trace.events[0].match_id  # match ids count on across runs
            events = [
                (e.kind, e.match_id - first, e.server_id, e.detail, e.threshold)
                for e in trace.events
            ]
            return run_fingerprint(result), events, len(pops)

        for k in (3, 75):
            stopped = observed(k)
            with monkeypatch.context() as popping:
                popping.setattr(TopKSet, "closes", lambda topk, bound: False)
                popped = observed(k)
            assert stopped[0] == popped[0], (query, k)
            taken = {event[1] for event in stopped[1]}
            assert stopped[1] == [event for event in popped[1] if event[1] in taken], (
                query,
                k,
            )
            assert stopped[2] < popped[2], (query, k)

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
        outcome = engine.run(10, "whirlpool_s")
        assert outcome.stats.server_operations > 0
        assert engine.index.probe_cost() == before

    def test_run_options_reach_the_run(self, engine):
        from repro.core.trace import ExecutionTrace
        from repro.faults import FaultPlan

        trace = ExecutionTrace()
        outcome = engine.run(3, "whirlpool_s", routing="max_score", observer=trace)
        assert not outcome.degraded
        assert any(event.kind == "prune" for event in trace.events)
        chaotic = engine.run(3, "whirlpool_s", faults=FaultPlan.chaos(3))
        assert chaotic.failure is not None
        assert chaotic.failure.injection is not None

    def test_checkpoint_resumes_to_the_same_answer(self, engine):
        from repro.recovery import CheckpointPolicy

        snapshots = []
        partial = engine.run(
            5,
            "whirlpool_s",
            max_operations=40,
            checkpoint_policy=CheckpointPolicy(every_operations=25),
            checkpoint_sink=snapshots.append,
        )
        assert partial.degraded and snapshots
        resumed = engine.run(5, "whirlpool_s", restore_from=snapshots[-1])
        straight = engine.run(5, "whirlpool_s")
        assert not resumed.degraded
        assert resumed.root_deweys() == straight.root_deweys()
        assert resumed.stats.server_operations == straight.stats.server_operations
