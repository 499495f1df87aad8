"""Tests for the exhaustive matcher, incl. a brute-force embedding property."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.query.matcher import count_matches, distinct_roots, find_matches
from repro.query.pattern import Axis, PatternNode, TreePattern, pattern_from_spec
from repro.query.xpath import parse_xpath
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.model import Database, XMLNode
from repro.xmldb.parser import parse_document


class TestPaperFigure1:
    """The motivating matches of Figure 1 / Figure 2."""

    def test_query_2a_matches_only_book_a(self, books_db):
        query = parse_xpath(
            "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
        )
        matches = find_matches(query, books_db)
        roots = distinct_roots(matches, query)
        assert [r.dewey for r in roots] == [(0, 0)]

    def test_query_2b_still_matches_only_book_a(self, books_db):
        """Edge generalization on the title edge alone does not reach book
        (b): its publisher is not under info (the paper: queries 2(a) and
        2(b) match the book in Figure 1(a) only)."""
        query = parse_xpath(
            "/book[.//title = 'wodehouse' and ./info/publisher/name = 'psmith']"
        )
        roots = distinct_roots(find_matches(query, books_db), query)
        assert [r.dewey for r in roots] == [(0, 0)]

    def test_query_2c_promoted_publisher(self, books_db):
        query = parse_xpath(
            "/book[.//title = 'wodehouse' and .//publisher/name = 'psmith']"
        )
        roots = distinct_roots(find_matches(query, books_db), query)
        assert [r.dewey for r in roots] == [(0, 0), (0, 1)]

    def test_query_2d_fully_relaxed_matches_all(self, books_db):
        query = parse_xpath("/book[.//title = 'wodehouse']")
        roots = distinct_roots(find_matches(query, books_db), query)
        assert [r.dewey for r in roots] == [(0, 0), (0, 1), (0, 2)]


class TestSemantics:
    def test_value_test_filters(self):
        db = parse_document("<a><b>x</b><b>y</b></a>")
        assert count_matches(parse_xpath("/a[./b = 'x']"), db) == 1
        assert count_matches(parse_xpath("/a[./b = 'z']"), db) == 0

    def test_tf_multiplicity(self):
        """Each combination of instantiations is a distinct match."""
        db = parse_document("<a><b/><b/><c/></a>")
        query = parse_xpath("/a[./b and ./c]")
        assert count_matches(query, db) == 2  # 2 b's x 1 c

    def test_cross_product_of_children(self):
        db = parse_document("<a><b/><b/><c/><c/><c/></a>")
        assert count_matches(parse_xpath("/a[./b and ./c]"), db) == 6

    def test_nested_dependency(self):
        # c must be under the matched b, not anywhere.
        db = parse_document("<a><b><c/></b><b/></a>")
        matches = find_matches(parse_xpath("/a[./b/c]"), db)
        assert len(matches) == 1
        b_image = matches[0][1]
        assert b_image.children != []

    def test_root_anchoring(self):
        db = parse_document("<a><a><b/></a></a>")
        query = parse_xpath("/a[./b]")
        roots = distinct_roots(find_matches(query, db), query)
        assert [r.dewey for r in roots] == [(0, 0)]

    def test_anchored_search(self, books_db):
        query = parse_xpath("/book[.//title = 'wodehouse']")
        index = DatabaseIndex(books_db)
        book_b = books_db.node_by_dewey((0, 1))
        matches = find_matches(query, index, root_node=book_b)
        assert len(matches) == 1
        assert matches[0][0] is book_b

    def test_anchored_search_wrong_tag(self, books_db):
        query = parse_xpath("/book[.//title]")
        index = DatabaseIndex(books_db)
        not_book = books_db.node_by_dewey((0, 0, 0))
        assert find_matches(query, index, root_node=not_book) == []

    def test_embedding_respects_axes(self, books_db):
        query = parse_xpath("/book[./info/publisher]")
        for match in find_matches(query, books_db):
            book, info, publisher = match[0], match[1], match[2]
            # A parsed node's parent is its Dewey prefix.
            assert info.dewey[:-1] == book.dewey
            assert publisher.dewey[:-1] == info.dewey


# -- property: matcher agrees with brute-force embedding enumeration ----------


@st.composite
def _data_tree(draw):
    def build(depth):
        node = XMLNode(draw(st.sampled_from(["p", "q", "r"])))
        if depth > 0:
            for _ in range(draw(st.integers(0, 2))):
                node.add_child(build(depth - 1))
        return node

    return Database.from_roots([build(3)])


@st.composite
def _small_pattern(draw):
    root = PatternNode(draw(st.sampled_from(["p", "q"])))
    for _ in range(draw(st.integers(1, 2))):
        child = PatternNode(draw(st.sampled_from(["p", "q", "r"])))
        axis = draw(st.sampled_from([Axis.PC, Axis.AD]))
        root.add_child(child, axis)
        if draw(st.booleans()):
            leaf = PatternNode(draw(st.sampled_from(["q", "r"])))
            child.add_child(leaf, draw(st.sampled_from([Axis.PC, Axis.AD])))
    return TreePattern(root)


def _brute_force(pattern: TreePattern, db: Database):
    """Enumerate all node tuples and filter by the embedding definition."""
    nodes = list(db.iter_nodes())
    pattern_nodes = pattern.nodes()
    hits = []
    for combo in itertools.product(nodes, repeat=len(pattern_nodes)):
        ok = True
        for p_node, image in zip(pattern_nodes, combo):
            if p_node.tag != image.tag:
                ok = False
                break
            if p_node.value is not None and image.value != p_node.value:
                ok = False
                break
        if not ok:
            continue
        for p_node, image in zip(pattern_nodes, combo):
            for child in p_node.children:
                child_image = combo[child.node_id]
                if not child.axis.depth_range().matches(image.dewey, child_image.dewey):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            hits.append(tuple(image.dewey for image in combo))
    return sorted(hits)


class TestMatcherProperty:
    @settings(max_examples=40, deadline=None)
    @given(_data_tree(), _small_pattern())
    def test_matcher_equals_bruteforce(self, db, pattern):
        if db.node_count() > 12:
            return  # keep the cartesian brute force tractable
        expected = _brute_force(pattern, db)
        got = sorted(
            tuple(match[n.node_id].dewey for n in pattern.nodes())
            for match in find_matches(pattern, db)
        )
        assert got == expected
