"""Tests for threshold queries (all answers above a fixed score bound)."""

import pytest

from repro.core.engine import Engine
from repro.core.threshold import FixedThresholdSet, threshold_query
from repro.errors import EngineError

PAPER_QUERY = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"


class TestFixedThresholdSet:
    def test_is_pruned_uses_constant(self):
        from repro.core.match import PartialMatch
        from repro.xmldb.model import Database, XMLNode

        db = Database.from_roots([XMLNode("r")])
        match = PartialMatch.initial(db.documents[0].root)
        match.upper_bound = 0.4
        bucket = FixedThresholdSet(0.5)
        assert bucket.is_pruned(match)
        match.upper_bound = 0.5
        assert not bucket.is_pruned(match)
        assert bucket.threshold() == 0.5

    def test_only_complete_qualifying_matches_recorded(self):
        from repro.core.match import PartialMatch
        from repro.xmldb.model import Database, XMLNode

        db = Database.from_roots([XMLNode("r"), XMLNode("r")])
        good = PartialMatch.initial(db.documents[0].root)
        good.score = 0.9
        partial = PartialMatch.initial(db.documents[1].root)
        partial.score = 0.9
        low = PartialMatch.initial(db.documents[1].root)
        low.score = 0.1
        bucket = FixedThresholdSet(0.5)
        bucket.observe(good, complete=True)
        bucket.observe(partial, complete=False)
        bucket.observe(low, complete=True)
        answers = bucket.answers()
        assert len(answers) == 1
        assert answers[0].score == pytest.approx(0.9)


class TestThresholdQuery:
    def test_zero_threshold_returns_everything(self, books_db):
        engine = Engine(books_db, PAPER_QUERY)
        result = threshold_query(engine, min_score=0.0)
        assert len(result.answers) == 3  # every book qualifies (relaxed)

    def test_threshold_filters(self, books_db):
        engine = Engine(books_db, PAPER_QUERY)
        everything = threshold_query(engine, min_score=0.0)
        scores = sorted((a.score for a in everything.answers), reverse=True)
        cut = (scores[0] + scores[1]) / 2
        result = threshold_query(engine, min_score=cut)
        assert len(result.answers) == 1
        assert result.answers[0].score >= cut

    def test_unreachable_threshold_empty(self, books_db):
        engine = Engine(books_db, PAPER_QUERY)
        ceiling = engine.score_model.max_total()
        result = threshold_query(engine, min_score=ceiling + 1.0)
        assert result.answers == []

    def test_agrees_with_topk_ranking(self, xmark_db):
        """Threshold answers = the prefix of the full ranking above the bound."""
        engine = Engine(xmark_db, "//item[./description/parlist]")
        full = engine.run(len(engine.index["item"]))
        bound = full.answers[4].score  # the 5th best score
        result = threshold_query(engine, min_score=bound)
        expected = [a for a in full.answers if a.score >= bound]
        assert [round(a.score, 9) for a in result.answers] == [
            round(a.score, 9) for a in expected
        ]

    def test_pruning_reduces_work(self, xmark_db):
        engine = Engine(xmark_db, "//item[./description/parlist and ./name]")
        loose = threshold_query(engine, min_score=0.0)
        tight = threshold_query(engine, min_score=engine.score_model.max_total())
        assert tight.stats.server_operations <= loose.stats.server_operations

    def test_exact_mode_threshold(self, books_db):
        engine = Engine(books_db, PAPER_QUERY, relaxed=False)
        result = threshold_query(engine, min_score=0.0)
        assert [a.root_node.dewey for a in result.answers] == [(0, 0)]

    def test_negative_threshold_rejected(self, books_db):
        engine = Engine(books_db, PAPER_QUERY)
        with pytest.raises(EngineError):
            threshold_query(engine, -0.5)

    def test_answers_sorted(self, books_db):
        engine = Engine(books_db, PAPER_QUERY)
        result = threshold_query(engine, min_score=0.0)
        scores = [a.score for a in result.answers]
        assert scores == sorted(scores, reverse=True)


#: (server operations, answers) of ``threshold_query`` at the 15th-best
#: score on ``XMarkConfig(items=300, seed=7)``, as ``ThresholdWhirlpool``
#: counted them before it was folded into Whirlpool-S.
GOLDEN = {"Q1": (430, 130), "Q2": (940, 82), "Q3": (2056, 64)}


@pytest.fixture(scope="module")
def golden_db():
    from repro.xmark import XMarkConfig, generate_database

    return generate_database(XMarkConfig(items=300, seed=7))


@pytest.fixture(scope="module")
def q2(golden_db):
    from repro.bench.params import QUERIES

    engine = Engine(golden_db, QUERIES["Q2"])
    return engine, engine.run(15).answers[14].score


class TestFold:
    """A threshold query is Whirlpool-S over a constant threshold."""

    @pytest.mark.parametrize("query", sorted(GOLDEN))
    def test_golden_counts(self, golden_db, query):
        from repro.bench.params import QUERIES

        engine = Engine(golden_db, QUERIES[query])
        full = engine.run(len(engine.index["item"]), algorithm="lockstep_noprun")
        bound = full.answers[14].score
        result = threshold_query(engine, bound)
        assert (result.stats.server_operations, len(result.answers)) == GOLDEN[query]
        assert not result.degraded
        assert result.scores() == [s for s in full.scores() if s >= bound]

    def test_warm_engine_is_not_probed(self, q2):
        engine, bound = q2
        before = engine.index.probe_cost()
        assert threshold_query(engine, bound).answers
        assert engine.index.probe_cost() == before

    def test_budget_degrades_with_a_sound_bound(self, q2):
        engine, bound = q2
        full = threshold_query(engine, bound)
        result = threshold_query(engine, bound, max_operations=5)
        assert result.degraded
        assert result.stats.server_operations == 5
        reported = set(result.root_deweys())
        missing = [a.score for a in full.answers if a.root_node.dewey not in reported]
        assert missing and max(missing) <= result.pending_bound

    def test_faults_and_observer_reach_the_run(self, q2):
        from repro.core.trace import ExecutionTrace
        from repro.faults import FaultPlan

        engine, bound = q2
        result = threshold_query(
            engine, bound, faults=FaultPlan.chaos(3), routing="max_score"
        )
        assert result.failure is not None and result.failure.injection is not None
        # Out of reach: every seed is pruned at its pop, and the observer hears it.
        trace = ExecutionTrace()
        ceiling = engine.score_model.max_total()
        assert threshold_query(engine, ceiling + 1.0, observer=trace).answers == []
        prunes = [event for event in trace.events if event.kind == "prune"]
        assert len(prunes) == len(engine.index["item"])

    def test_not_resumable(self, q2):
        """Refused up front, not an AttributeError on ``export_state``."""
        from repro.recovery import CheckpointPolicy

        engine, bound = q2
        with pytest.raises(EngineError, match="checkpoint_policy"):
            threshold_query(
                engine,
                bound,
                max_operations=5,
                checkpoint_policy=CheckpointPolicy(every_operations=2),
            )
        with pytest.raises(EngineError, match="restore_from"):
            threshold_query(engine, bound, restore_from={})
