"""Tests for Dewey-ordered tag indexes, including a brute-force property."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmldb.dewey import DepthRange
from repro.xmldb.index import (
    DEFAULT_INDEX_BACKEND,
    INDEX_BACKENDS,
    MAX_ARENA_COMPONENT,
    ColumnarTagIndex,
    DatabaseIndex,
    resolve_index_backend,
)
from repro.xmldb.model import Database, XMLNode, build_tree
from repro.xmldb.parser import parse_document


@pytest.fixture
def small_db():
    return parse_document(
        "<a><b><c/><b><c/></b></b><c/><d><c><c/></c></d></a>"
    )


class TestTagIndex:
    def test_document_order(self, small_db):
        index = DatabaseIndex(small_db)
        deweys = [node.dewey for node in index["c"].all()]
        assert deweys == sorted(deweys)
        assert len(deweys) == 5

    def test_in_subtree(self, small_db):
        index = DatabaseIndex(small_db)
        root = small_db.documents[0].root
        b_outer = root.children[0]
        inside = index["c"].in_subtree(b_outer.dewey)
        assert len(inside) == 2
        assert all(node.dewey[: len(b_outer.dewey)] == b_outer.dewey for node in inside)

    def test_in_subtree_excludes_self_by_default(self, small_db):
        index = DatabaseIndex(small_db)
        c_nodes = index["c"].all()
        nested_parent = [n for n in c_nodes if index["c"].in_subtree(n.dewey)]
        assert nested_parent, "fixture should contain a c inside a c"
        target = nested_parent[0]
        assert target not in index["c"].in_subtree(target.dewey)
        assert target in index["c"].in_subtree(target.dewey, include_self=True)

    def test_related_self_axis(self, small_db):
        index = DatabaseIndex(small_db)
        node = index["c"].all()[0]
        hits = index["c"].related(node.dewey, DepthRange.self_axis())
        assert hits == [node]
        assert index["c"].related((9, 9), DepthRange.self_axis()) == []

    def test_related_pc_vs_ad(self, small_db):
        index = DatabaseIndex(small_db)
        root = small_db.documents[0].root
        children = index["c"].related(root.dewey, DepthRange.pc())
        descendants = index["c"].related(root.dewey, DepthRange.ad())
        assert len(children) == 1
        assert len(descendants) == 5
        assert set(n.dewey for n in children) <= set(n.dewey for n in descendants)

    def test_count_in_subtree_excludes_self(self, small_db):
        index = DatabaseIndex(small_db)
        root = small_db.documents[0].root
        assert index["c"].count_in_subtree(root.dewey) == 5
        nested = [n for n in index["c"].all() if index["c"].count_in_subtree(n.dewey)]
        assert nested
        assert index["c"].count_in_subtree(nested[0].dewey) == 1


class TestDatabaseIndex:
    def test_restricted_tags(self, small_db):
        index = DatabaseIndex(small_db, tags=["c", "zzz"])
        assert index.count("c") == 5
        assert index.count("b") == 0  # not indexed
        assert index.count("zzz") == 0
        assert "zzz" in index  # pre-created empty index

    def test_unknown_tag_returns_empty(self, small_db):
        index = DatabaseIndex(small_db)
        assert index.related("nothing", (0,), DepthRange.ad()) == []
        assert len(index["nothing"]) == 0

    def test_tags_listing(self, small_db):
        index = DatabaseIndex(small_db)
        assert set(index.tags()) == {"a", "b", "c", "d"}


class TestBackendSelection:
    def test_explicit_choice_wins(self):
        assert resolve_index_backend("object") == "object"

    def test_default_is_columnar(self):
        assert resolve_index_backend() == DEFAULT_INDEX_BACKEND == "columnar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_index_backend("btree")

    def test_database_index_honours_backend(self, small_db):
        for backend in INDEX_BACKENDS:
            index = DatabaseIndex(small_db, backend=backend)
            assert index.backend == backend
            assert index["c"].backend == backend


class TestColumnarTagIndex:
    def test_probe_equivalence_on_fixture(self, small_db):
        obj = DatabaseIndex(small_db, backend="object")
        col = DatabaseIndex(small_db, backend="columnar")
        anchors = [node.dewey for node in small_db.iter_nodes()]
        axes = [
            DepthRange.self_axis(),
            DepthRange.pc(),
            DepthRange.ad(),
            DepthRange(0, None),
            DepthRange(0, 2),
            DepthRange(2, 2),
            DepthRange(2, None),
            DepthRange(1, 3),
        ]
        for tag in obj.tags():
            for anchor in anchors:
                assert obj[tag].in_subtree(anchor) == col[tag].in_subtree(anchor)
                assert obj[tag].in_subtree(
                    anchor, include_self=True
                ) == col[tag].in_subtree(anchor, include_self=True)
                assert obj[tag].count_in_subtree(anchor) == col[tag].count_in_subtree(
                    anchor
                )
                for axis in axes:
                    assert obj[tag].related(anchor, axis) == col[tag].related(
                        anchor, axis
                    )

    def test_unbounded_deep_axis_filters_shallow_nodes(self):
        # Regression: DepthRange(2, None) must not take the pure-slice
        # shortcut — depth-1 children sit inside the subtree interval but
        # are not grandchildren-or-deeper.
        db = parse_document("<a><c/><b><c/><b><c/></b></b></a>")
        index = ColumnarTagIndex("c", db.nodes_with_tag("c"))
        root = db.documents[0].root
        hits = index.related(root.dewey, DepthRange(2, None))
        assert [len(node.dewey) - len(root.dewey) for node in hits] == [2, 3]

    def test_oversized_component_rejected(self):
        node = XMLNode("b")
        node.dewey = (0, MAX_ARENA_COMPONENT)
        with pytest.raises(ValueError):
            ColumnarTagIndex("b", [node])
        largest = XMLNode("b")
        largest.dewey = (0, MAX_ARENA_COMPONENT - 1)
        index = ColumnarTagIndex("b", [largest])
        assert index.in_subtree((0,)) == [largest]

    @pytest.mark.parametrize("component", [2**32, 2**64])
    def test_component_no_arena_slot_holds_rejected(self, component):
        # array('I') itself overflows here; the build still says ValueError.
        node = XMLNode("b")
        node.dewey = (0, component)
        with pytest.raises(ValueError, match="arena component capacity"):
            ColumnarTagIndex("b", [node])

    def test_all_ones_bytes_across_two_slots_accepted(self):
        # Four 0xff bytes straddle two slots here; no component is too large.
        node = XMLNode("b")
        node.dewey = (0, 0xFFFFFF00, 0xFF, 0xFFFFFF00)  # either byte order
        assert b"\xff" * 4 in array("I", node.dewey).tobytes()
        assert ColumnarTagIndex("b", [node]).in_subtree((0,)) == [node]

    def test_probe_cost_accounting(self, small_db):
        index = DatabaseIndex(small_db, backend="columnar")
        index.reset_probe_cost()
        assert index.probe_cost() == (0, 0)
        root = small_db.documents[0].root
        index["c"].in_subtree(root.dewey)
        index["c"].related(root.dewey, DepthRange.pc())
        units, probes = index.probe_cost()
        assert probes == 2
        assert units > 0
        index.reset_probe_cost()
        assert index.probe_cost() == (0, 0)

    def test_columnar_charges_fewer_units_than_object(self, small_db):
        obj = DatabaseIndex(small_db, backend="object")
        col = DatabaseIndex(small_db, backend="columnar")
        root = small_db.documents[0].root
        for index in (obj, col):
            index.reset_probe_cost()
            for tag in index.tags():
                index[tag].related(root.dewey, DepthRange.ad())
                index[tag].related(root.dewey, DepthRange(1, 2))
        obj_units, obj_probes = obj.probe_cost()
        col_units, col_probes = col.probe_cost()
        assert obj_probes == col_probes
        assert col_units < obj_units


# -- property: related() agrees with the brute-force definition ---------------

_branches = st.integers(min_value=0, max_value=3)


@st.composite
def _random_db(draw):
    """A random small database with tags from {x, y}."""

    def build(depth):
        tag = draw(st.sampled_from(["x", "y"]))
        node = XMLNode(tag)
        if depth > 0:
            for _ in range(draw(_branches)):
                node.add_child(build(depth - 1))
        return node

    return Database.from_roots([build(3)])


@st.composite
def _random_axis(draw):
    lo = draw(st.integers(min_value=0, max_value=3))
    unbounded = draw(st.booleans())
    if unbounded:
        return DepthRange(lo, None)
    return DepthRange(lo, lo + draw(st.integers(min_value=0, max_value=2)))


class TestRelatedProperty:
    @settings(max_examples=60)
    @given(_random_db(), _random_axis())
    def test_related_matches_bruteforce_both_backends(self, db, axis):
        indexes = [DatabaseIndex(db, backend=backend) for backend in INDEX_BACKENDS]
        all_nodes = list(db.iter_nodes())
        for anchor in all_nodes:
            expected = sorted(
                node.dewey
                for node in all_nodes
                if node.tag == "y" and axis.matches(anchor.dewey, node.dewey)
            )
            for index in indexes:
                got = sorted(
                    node.dewey for node in index.related("y", anchor.dewey, axis)
                )
                assert got == expected, index.backend
