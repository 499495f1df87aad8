"""Tests for partial matches: extension, bounds, monotonicity."""

import pytest
from hypothesis import given, strategies as st

from repro.core.match import PartialMatch
from repro.core.server import CandidateCounts, CapRow, RootBounds
from repro.scoring.model import MatchQuality
from repro.xmldb.model import Database, XMLNode


@pytest.fixture
def root_node():
    db = Database.from_roots([XMLNode("book")])
    return db.documents[0].root


@pytest.fixture
def data_nodes():
    root = XMLNode("book")
    title = root.child("title", "x")
    price = root.child("price", "9")
    Database.from_roots([root])
    return root, title, price


class TestExtension:
    def test_initial_match(self, root_node):
        match = PartialMatch.initial(root_node)
        assert match.score == 0.0
        assert match.visited == frozenset()
        assert match.instantiations == {}

    def test_extend_is_functional(self, data_nodes):
        root, title, _ = data_nodes
        base = PartialMatch.initial(root)
        extended = base.extend(1, title, MatchQuality.EXACT, 0.7)
        assert base.instantiations == {}
        assert base.score == 0.0
        assert extended.instantiations == {1: title}
        assert extended.qualities[1] is MatchQuality.EXACT
        assert extended.score == pytest.approx(0.7)
        assert extended.visited == frozenset({1})
        assert extended.match_id != base.match_id

    def test_deleted_extension(self, data_nodes):
        root, _, _ = data_nodes
        match = PartialMatch.initial(root).extend(
            1, None, MatchQuality.DELETED, 0.0
        )
        assert match.instantiations == {1: None}
        assert match.deleted_nodes() == [1]
        assert match.instantiated_nodes() == {}

    def test_exact_everywhere(self, data_nodes):
        root, title, price = data_nodes
        match = (
            PartialMatch.initial(root)
            .extend(1, title, MatchQuality.EXACT, 0.5)
            .extend(2, price, MatchQuality.RELAXED, 0.2)
        )
        assert not match.exact_everywhere()
        exact = PartialMatch.initial(root).extend(1, title, MatchQuality.EXACT, 0.5)
        assert exact.exact_everywhere()


class TestBounds:
    def test_root_bounds_count_unvisited_caps(self):
        bounds = CapRow({1: 0.5, 2: 0.3})
        assert bounds.remaining_for((1, 2)) == pytest.approx(0.8)
        assert bounds.remaining_for((2,)) == pytest.approx(0.3)
        assert bounds.remaining_for(()) == 0.0

    def test_bound_shrinks_as_servers_visited(self, data_nodes):
        root, title, _ = data_nodes
        bounds = CapRow({1: 0.5, 2: 0.3})
        base = PartialMatch.initial(root)
        assert base.score + bounds.remaining_for((1, 2)) == pytest.approx(0.8)
        extended = base.extend(1, title, MatchQuality.EXACT, 0.5)
        assert extended.score + bounds.remaining_for((2,)) == pytest.approx(0.8)
        low = base.extend(1, title, MatchQuality.RELAXED, 0.1)
        assert low.score + bounds.remaining_for((2,)) == pytest.approx(0.4)

    def test_extensions_inherit_the_row_of_their_root(self, data_nodes):
        root, title, _ = data_nodes
        base = PartialMatch.initial(root)
        assert base.root_bounds is None
        base.root_bounds = RootBounds(CapRow({1: 0.5}), {1: CandidateCounts(1, 1)})
        assert base.extend(1, title, MatchQuality.EXACT, 0.5).root_bounds is base.root_bounds

    def test_max_next_score(self, root_node):
        match = PartialMatch.initial(root_node)
        assert match.max_next_score(1, {1: 0.5, 2: 0.3}) == pytest.approx(0.5)
        assert match.max_next_score(9, {1: 0.5}) == 0.0

    def test_completion(self, data_nodes):
        root, title, price = data_nodes
        match = PartialMatch.initial(root)
        assert not match.is_complete([1, 2])
        match = match.extend(1, title, MatchQuality.EXACT, 0.5)
        assert not match.is_complete([1, 2])
        assert match.unvisited([1, 2]) == [2]
        match = match.extend(2, price, MatchQuality.EXACT, 0.3)
        assert match.is_complete([1, 2])
        assert match.is_complete([])

    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.booleans()), min_size=1, max_size=6
        )
    )
    def test_score_monotone_along_extension_chain(self, steps):
        db = Database.from_roots([XMLNode("book")])
        match = PartialMatch.initial(db.documents[0].root)
        previous = match.score
        for index, (contribution, deleted) in enumerate(steps, start=1):
            quality = MatchQuality.DELETED if deleted else MatchQuality.EXACT
            match = match.extend(
                index, None if deleted else db.documents[0].root, quality,
                0.0 if deleted else contribution,
            )
            assert match.score >= previous
            previous = match.score


class TestDescribe:
    def test_describe_mentions_parts(self, data_nodes):
        root, title, _ = data_nodes
        match = (
            PartialMatch.initial(root)
            .extend(1, title, MatchQuality.EXACT, 0.5)
            .extend(2, None, MatchQuality.DELETED, 0.0)
        )
        description = match.describe()
        assert "title(exact)" in description
        assert "#2:deleted" in description
        assert "score=0.5" in description
