"""``related_each``: one forward merge equals one ``related()`` probe per anchor.

The sweep is what fills an Engine's probe memos and the statistics' lazy
fan-outs, so it is checked here against the per-anchor binary-search probe
it replaces — on both backends, over every axis shape the query compiler
emits, with nested anchors, anchors of the target's own tag, absent tags
and empty anchor lists — and its memo entries against :func:`probe_root`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.core.server import probe_root
from repro.query.predicates import compiled_axis_test
from repro.relax.plan import compile_plan
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.dewey import DepthRange
from repro.xmldb.index import INDEX_BACKENDS, DatabaseIndex
from repro.xmldb.model import Database, XMLNode

AXES = {
    "self": DepthRange.self_axis(),
    "pc": DepthRange.pc(),
    "ad": DepthRange.ad(),
    "0-inf": DepthRange(0, None),
    "2-2": DepthRange(2, 2),
    "2-inf": DepthRange(2, None),
    "1-3": DepthRange(1, 3),
}
NESTED = {
    "nested_parlist": "//parlist[./listitem/parlist]",
    "nested_listitem": "//listitem[.//listitem and ./text]",
}


@pytest.fixture(scope="module")
def xmark():
    return generate_database(XMarkConfig(items=40, seed=7))


@pytest.fixture(scope="module", params=INDEX_BACKENDS)
def index(request, xmark):
    return DatabaseIndex(xmark, backend=request.param)


def per_anchor(index, tag, anchors, axis):
    return [index.related(tag, anchor, axis) for anchor in anchors]


@pytest.mark.parametrize("axis", AXES.values(), ids=list(AXES))
@pytest.mark.parametrize(
    "anchor_tag, target_tag",
    [
        ("parlist", "listitem"),  # nested anchors: parlists inside listitems
        ("listitem", "parlist"),
        ("parlist", "parlist"),  # the target's own tag: self-exclusion at lo >= 1
        ("listitem", "listitem"),
        ("item", "text"),
        ("site", "item"),
        ("item", "no-such-tag"),
    ],
)
def test_sweep_equals_one_probe_per_anchor(index, anchor_tag, target_tag, axis):
    anchors = [node.dewey for node in index[anchor_tag]]
    assert anchors
    assert index.related_each(target_tag, anchors, axis) == per_anchor(
        index, target_tag, anchors, axis
    )


def test_xmark_anchors_nest(index):
    # The cases above exercise nesting only if the document has some.
    anchors = [node.dewey for node in index["parlist"]]
    assert any(
        outer != inner and inner[: len(outer)] == outer for outer in anchors for inner in anchors
    )


@pytest.mark.parametrize("axis", AXES.values(), ids=list(AXES))
def test_empty_anchor_list_and_absent_tag(index, axis):
    assert index.related_each("listitem", [], axis) == []
    assert index.related_each("no-such-tag", [], axis) == []
    anchors = [node.dewey for node in index["item"]]
    assert index.related_each("no-such-tag", anchors, axis) == [[] for _ in anchors]


def test_anchors_out_of_document_order_raise(index):
    anchors = [node.dewey for node in index["item"]]
    with pytest.raises(ValueError):
        index.related_each("text", list(reversed(anchors)), DepthRange.ad())
    with pytest.raises(ValueError):
        index.related_each("no-such-tag", list(reversed(anchors)), DepthRange.ad())
    # Repeats keep document order and are answered alike.
    twice = [anchors[0], anchors[0]]
    assert index.related_each("text", twice, DepthRange.ad()) == per_anchor(
        index, "text", twice, DepthRange.ad()
    )


def test_sweep_charges_one_probe_per_anchor(index):
    anchors = [node.dewey for node in index["item"]]
    tag_index = index["text"]
    tag_index.cost.reset()
    index.related_each("text", anchors, DepthRange.ad())
    units, probes = tag_index.cost.snapshot()
    assert probes == len(anchors)
    # One unit per position stepped over: the start pointer's walk up to
    # the last anchor plus every subtree interval scanned, at most the
    # whole index plus the answers.
    answers = sum(len(found) for found in per_anchor(index, "text", anchors, DepthRange.ad()))
    assert answers <= units <= len(tag_index) + answers


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("relaxed", [True, False], ids=["relaxed", "exact"])
@pytest.mark.parametrize("case", sorted({**QUERIES, **NESTED}))
def test_memo_entries_equal_probe_root(xmark, case, relaxed, backend):
    query = {**QUERIES, **NESTED}[case]
    engine = Engine(xmark, query, relaxed=relaxed, index_backend=backend)
    roots = [root.dewey for root in engine.index[engine.pattern.root.tag]]
    assert roots
    for spec in compile_plan(engine.pattern, relaxed).servers.values():
        memo = engine._probe_memos["index"][spec.node_id]
        exact_test = compiled_axis_test(spec.tag, spec.exact_root_axis)
        for root in roots:
            assert memo.get(root) == probe_root(spec, engine.index, "index", exact_test, root)


# -- property: any forest, any axis, any anchor tag ---------------------------


@st.composite
def _forest(draw):
    def build(depth):
        node = XMLNode(draw(st.sampled_from(["x", "y"])))
        if depth > 0:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                node.add_child(build(depth - 1))
        return node

    return Database.from_roots([build(3) for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=60)
@given(
    _forest(),
    st.sampled_from(sorted(AXES.values(), key=repr)),
    st.sampled_from(["x", "y"]),
)
def test_sweep_matches_probes_on_random_forests(database, axis, anchor_tag):
    for backend in INDEX_BACKENDS:
        index = DatabaseIndex(database, backend=backend)
        anchors = [node.dewey for node in index[anchor_tag]]
        assert index.related_each("y", anchors, axis) == per_anchor(index, "y", anchors, axis)
