"""A parsed document frees itself: no cycle outlives a parse or a cold query.

A parse tree sets no ``parent`` link and the parser's handlers let go of
the expat parser when the parse ends, so a dropped database is freed by
reference counting, not at the collector's next pass.  Each test runs its
body with the collector off, after a ``gc.collect()``, and then asks the
collector what it would have had to free.

Out of scope: a query's :class:`~repro.query.pattern.PatternNode` tree
keeps its ``parent`` links (the pattern API navigates by them), so a cold
query still leaves the pattern's few cycles; only ``XMLNode`` garbage is
counted there.
"""

import gc
from collections import Counter

import pytest

from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.errors import XMLParseError
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.model import XMLNode
from repro.xmldb.parser import parse_document, parse_forest
from repro.xmldb.serializer import serialize


@pytest.fixture(scope="module")
def text():
    return serialize(generate_database(XMarkConfig(items=40, seed=7)), pretty=False)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


def unreachable_by_type():
    """What the next collection finds unreachable, counted by type name."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    counts = Counter(type(garbage).__name__ for garbage in gc.garbage)
    gc.set_debug(0)
    gc.garbage.clear()
    return counts


class TestParsedTreesFreeThemselves:
    def test_dropped_database_leaves_no_cyclic_garbage(self, text, collector_off):
        database = parse_document(text)
        assert database.node_count() > 1000
        del database
        assert gc.collect() == 0

    def test_dropped_forest_leaves_no_cyclic_garbage(self, text, collector_off):
        database = parse_forest([text, "<a><b>x</b></a>", text])
        del database
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "refused",
        ["<a><b></a>", '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>', "<a>&undefined;</a>"],
    )
    def test_refused_document_leaves_no_cyclic_garbage(self, refused, collector_off):
        try:
            parse_document(refused)
        except XMLParseError:
            pass
        else:
            pytest.fail(f"{refused!r} was accepted")
        assert gc.collect() == 0

    @pytest.mark.parametrize("query", ["Q1", "Q2", "Q3"])
    def test_cold_query_leaves_no_unreachable_node(self, text, query, collector_off):
        result = Engine(parse_document(text), QUERIES[query]).run(15)
        assert result.answers
        del result
        assert unreachable_by_type()["XMLNode"] == 0


class TestParentIsTheAttachGuard:
    """``XMLNode.parent`` is set by ``add_child`` alone; a parsed tree
    leaves it ``None`` — a node's parent is its Dewey prefix."""

    def test_parsed_tree_sets_no_parent(self, text):
        root = parse_document(text).documents[0].root
        assert all(node.parent is None for node in root.iter_subtree())

    def test_reattaching_an_attached_node_raises(self):
        node = XMLNode("c")
        XMLNode("a").add_child(node)
        with pytest.raises(ValueError, match="already attached under <a>"):
            XMLNode("b").add_child(node)

    def test_parsed_node_attaches_once(self):
        item = parse_document("<site><item/></site>").documents[0].root.children[0]
        holder = XMLNode("regions")
        holder.add_child(item)
        assert item.parent is holder
        with pytest.raises(ValueError, match="already attached"):
            XMLNode("other").add_child(item)
