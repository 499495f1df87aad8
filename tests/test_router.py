"""Tests for routing strategies (static, score-based, size-based)."""

import pytest

from repro.core.engine import Engine
from repro.core.match import PartialMatch
from repro.core.router import (
    MaxScoreRouter,
    MinAliveRouter,
    MinScoreRouter,
    StaticRouter,
    make_router,
)
from repro.core.whirlpool_s import WhirlpoolS
from repro.errors import EngineError
from repro.scoring.model import MatchQuality
from repro.xmldb.parser import parse_document

DB = """
<bib>
  <book>
    <title>x</title>
    <a>1</a><a>2</a><a>3</a>
    <b>1</b>
  </book>
</bib>
"""


@pytest.fixture
def engine():
    db = parse_document(DB)
    return Engine(db, "/book[./title and ./a and ./b]")


def _whirlpool(engine, router):
    return WhirlpoolS(
        pattern=engine.pattern,
        index=engine.index,
        score_model=engine.score_model,
        k=1,
        router=router,
    )


def _seed(runner):
    return runner.seed_matches()[0]


class TestStaticRouter:
    def test_follows_order(self, engine):
        runner = _whirlpool(engine, StaticRouter([3, 1, 2]))
        match = _seed(runner)
        assert runner.router.choose(match, runner) == 3
        match = match.extend(3, None, MatchQuality.DELETED, 0.0)
        assert runner.router.choose(match, runner) == 1
        match = match.extend(1, None, MatchQuality.DELETED, 0.0)
        assert runner.router.choose(match, runner) == 2

    def test_unknown_ids_fall_back_to_id_order(self, engine):
        runner = _whirlpool(engine, StaticRouter([99]))
        match = _seed(runner)
        assert runner.router.choose(match, runner) == 1

    def test_complete_match_rejected(self, engine):
        runner = _whirlpool(engine, StaticRouter([1, 2, 3]))
        match = _seed(runner)
        for node_id in (1, 2, 3):
            match = match.extend(node_id, None, MatchQuality.DELETED, 0.0)
        with pytest.raises(EngineError):
            runner.router.choose(match, runner)


class TestScoreRouters:
    def test_max_score_picks_largest_contribution(self, engine):
        runner = _whirlpool(engine, MaxScoreRouter())
        runner.max_contributions = {1: 0.2, 2: 0.9, 3: 0.5}
        match = _seed(runner)
        assert runner.router.choose(match, runner) == 2

    def test_min_score_picks_smallest_contribution(self, engine):
        runner = _whirlpool(engine, MinScoreRouter())
        runner.max_contributions = {1: 0.2, 2: 0.9, 3: 0.5}
        match = _seed(runner)
        assert runner.router.choose(match, runner) == 1

    def test_skips_visited(self, engine):
        runner = _whirlpool(engine, MaxScoreRouter())
        runner.max_contributions = {1: 0.2, 2: 0.9, 3: 0.5}
        match = _seed(runner).extend(2, None, MatchQuality.DELETED, 0.0)
        assert runner.router.choose(match, runner) == 3


class TestMinAliveRouter:
    def test_prefers_low_fanout_server(self, engine):
        """title(1 candidate), a(3 candidates), b(1 candidate): the router
        must not start at 'a'."""
        runner = _whirlpool(engine, MinAliveRouter())
        match = _seed(runner)
        assert runner.router.choose(match, runner) in (1, 3)

    def test_threshold_shifts_choice(self, engine):
        """Once the threshold is unreachable for candidates at a server,
        that server's expected alive count collapses."""
        runner = _whirlpool(engine, MinAliveRouter())
        match = _seed(runner)
        # Force a high threshold via a fake competing entry.
        other_engine_match = _seed(runner)
        other_engine_match.score = 10.0
        runner.topk.observe(other_engine_match, complete=True)
        choice = runner.router.choose(match, runner)
        # With everything pruned the estimates tie at 0; the tie-break picks
        # the highest-contribution server deterministically.
        contributions = runner.max_contributions
        best = max(
            (node_id for node_id in (1, 2, 3)),
            key=lambda node_id: (contributions[node_id], -node_id),
        )
        assert choice == best

    def test_engine_runs_read_counts_from_the_bound_table(self, engine, monkeypatch):
        """A run sizes servers from its root's row of the bound table,
        without the probe memo's lock: the Engine's row, or — in a
        hand-built run — one built from the run's own probes at seeding,
        with the same caps and fan-outs.  Both route alike, and neither
        asks a server for its counts."""
        from repro.core.server import Server

        calls = []
        counts = Server.candidate_counts

        def counted(server, root_dewey):
            calls.append(root_dewey)
            return counts(server, root_dewey)

        monkeypatch.setattr(Server, "candidate_counts", counted)
        warm = engine.open(1)
        warm_choice = warm.router.choose(_seed(warm), warm)
        warm.run()
        assert calls == []
        cold = _whirlpool(engine, MinAliveRouter())
        seed = _seed(cold)
        assert cold.router.choose(seed, cold) == warm_choice
        assert calls == []
        row = engine.root_bounds[seed.root_node.dewey]
        assert seed.root_bounds.caps.caps == row.caps.caps
        assert seed.root_bounds.fanouts == row.fanouts


class TestFactory:
    def test_make_static_requires_order(self):
        with pytest.raises(EngineError):
            make_router("static")
        router = make_router("static", order=[2, 1])
        assert isinstance(router, StaticRouter)

    def test_make_adaptive(self):
        assert isinstance(make_router("max_score"), MaxScoreRouter)
        assert isinstance(make_router("min_score"), MinScoreRouter)
        assert isinstance(make_router("min_alive"), MinAliveRouter)
        assert isinstance(
            make_router("min_alive_partial_matches"), MinAliveRouter
        )

    def test_unknown_rejected(self):
        with pytest.raises(EngineError):
            make_router("chaotic")
