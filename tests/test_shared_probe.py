"""One index sweep per server over every root image, shared three ways.

Building a default :class:`Engine` merges each server's tag index with the
root-tag index once (``related_each``); the sweep's entries are the probe
memo, and their counts are the fan-outs behind ``engine.statistics`` and the
tf*idf score model.  Nothing observable may differ from statistics computed
by one ``related()`` probe per anchor over a fresh index, and the first run
must find every probe already made.
"""

import pytest

from repro.bench.params import QUERIES
from repro.core import engine as engine_module
from repro.core import server as server_module
from repro.core.engine import Engine
from repro.query.pattern import value_test
from repro.query.predicates import component_predicates
from repro.query.xpath import parse_xpath
from repro.scoring.model import RandomScoreModel, TfIdfScoreModel
from repro.scoring.tfidf import idf_table, predicate_statistics
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.index import INDEX_BACKENDS, DatabaseIndex
from repro.xmldb.stats import DatabaseStatistics
from tests.conftest import run_fingerprint

CASES = dict(
    QUERIES,
    eq="//item[./payment = 'cash' and ./mailbox/mail/text]",
    contains="//item[./description/text ~= 'silver' and ./name]",
)
ITEMS = 40


@pytest.fixture(scope="module")
def xmark():
    return generate_database(XMarkConfig(items=ITEMS, seed=7))


@pytest.fixture
def related_calls(monkeypatch):
    """Every ``DatabaseIndex.related`` call made while the test runs."""
    calls = []
    related = DatabaseIndex.related

    def counted(self, tag, anchor, axis):
        calls.append((tag, anchor, axis))
        return related(self, tag, anchor, axis)

    monkeypatch.setattr(DatabaseIndex, "related", counted)
    return calls


@pytest.fixture
def sweeps(monkeypatch):
    """Every ``DatabaseIndex.related_each`` call made while the test runs."""
    calls = []
    related_each = DatabaseIndex.related_each

    def counted(self, tag, anchors, axis):
        calls.append((tag, tuple(anchors), axis))
        return related_each(self, tag, anchors, axis)

    monkeypatch.setattr(DatabaseIndex, "related_each", counted)
    return calls


class PerAnchorStatistics(DatabaseStatistics):
    """The oracle: fan-outs from one ``related()`` probe per anchor node,
    independent of the sweep both an Engine and a fresh
    :class:`DatabaseStatistics` count theirs with."""

    def value_predicate(self, anchor_tag, target_tag, axis, value, value_op="eq"):
        fanouts = [
            sum(
                1
                for node in self.index.related(target_tag, anchor.dewey, axis)
                if value is None or value_test(value_op, value, node.value)
            )
            for anchor in self.index[anchor_tag]
        ]
        return self.record(anchor_tag, target_tag, axis, fanouts, value, value_op)


def fresh_statistics(database, pattern, backend, statistics=DatabaseStatistics):
    return statistics(DatabaseIndex(database, tags=pattern.tags(), backend=backend))


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("relaxed", [True, False], ids=["relaxed", "exact"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_model_and_statistics_equal_their_own_probes(xmark, case, relaxed, backend):
    engine = Engine(xmark, CASES[case], relaxed=relaxed, index_backend=backend)
    fresh = fresh_statistics(xmark, engine.pattern, backend, PerAnchorStatistics)
    # ``==`` on floats: the same integers went through the same arithmetic.
    assert engine.score_model.contributions() == TfIdfScoreModel(engine.pattern, fresh).contributions()
    for predicate in component_predicates(engine.pattern):
        for relaxed_axis in (False, True):
            ours = predicate_statistics(predicate, engine.statistics, relaxed_axis)
            theirs = predicate_statistics(predicate, fresh, relaxed_axis)
            assert ours.fanouts == theirs.fanouts, (predicate, relaxed_axis)
            assert ours.axis == theirs.axis


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_default_engine_probes_once_per_server_and_root(
    xmark, related_calls, sweeps, case, backend
):
    engine = Engine(xmark, CASES[case], index_backend=backend)
    roots = tuple(root.dewey for root in engine.index[engine.pattern.root.tag])
    assert len(roots) == ITEMS <= server_module.PROBE_MEMO_CAP
    servers = engine.pattern.non_root_nodes()
    # The build is one sweep per server over every root, and no probe.
    assert related_calls == []
    assert sorted((tag, anchors) for tag, anchors, _ in sweeps) == sorted(
        (node.tag, roots) for node in servers
    )
    memos = engine._probe_memos["index"]
    assert all(memos[node.node_id].get(root) is not None for node in servers for root in roots)
    del sweeps[:]
    result = engine.run(5)
    idf_table(engine.pattern, engine.statistics)
    assert related_calls == [] and sweeps == []
    assert result.stats.join_comparisons > 0  # the memo charged what a probe would


@pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep", "lockstep_noprun"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_capped_memo_changes_nothing_observable(xmark, monkeypatch, case, algorithm):
    # A parent-style engine: the model from the statistics' own probes, the
    # memo filled by the run.
    pattern = parse_xpath(CASES[case])
    lazy = Engine(
        xmark, pattern, score_model=TfIdfScoreModel(pattern, fresh_statistics(xmark, pattern, None))
    )
    expected = run_fingerprint(lazy.run(5, algorithm=algorithm))

    # An Engine sizes its memos to its root images; hand it smaller ones.
    monkeypatch.setattr(
        engine_module, "ProbeMemo", lambda capacity: server_module.ProbeMemo(ITEMS // 3)
    )
    engine = Engine(xmark, CASES[case])
    memos = engine._probe_memos["index"].values()
    assert all(0 < len(memo) <= ITEMS // 3 for memo in memos)
    for predicate in component_predicates(engine.pattern):  # counts outlive cleared entries
        assert len(predicate_statistics(predicate, engine.statistics).fanouts) == ITEMS
    assert run_fingerprint(engine.run(5, algorithm=algorithm)) == expected
    assert run_fingerprint(engine.run(5, algorithm=algorithm)) == expected


def test_engines_without_a_tfidf_model_to_build_leave_the_index_alone(xmark, related_calls):
    pattern = parse_xpath(QUERIES["Q2"])
    supplied = RandomScoreModel(pattern, seed=3)
    for engine in (
        Engine(xmark, pattern, scoring="random", seed=3),
        Engine(xmark, pattern, score_model=supplied),
    ):
        assert related_calls == []
        assert engine.statistics.cached_predicates() == 0
        assert all(len(memo) == 0 for memo in engine._probe_memos["index"].values())
        assert engine.score_model.contributions() == supplied.contributions()
        engine.run(5)  # ... and probe as they go, at most once per (server, root)
        assert 0 < len(related_calls) <= len(pattern.non_root_nodes()) * ITEMS
        del related_calls[:]
