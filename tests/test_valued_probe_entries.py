"""Probe entries of servers with a value test: the sweep's value branch.

An Engine's sweep builds every (root, server) memo entry in one loop that
runs a server's value test only when it has one.  The bench queries have
none, so this file checks that branch: for ``=`` and ``~=`` value
predicates, relaxed and exact, on both index backends and on random valued
forests, every memo entry — survivors, exact flags, comparison count and
counts — equals :func:`probe_root`'s and a brute-force probe's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.server import probe_root
from repro.query.pattern import value_test
from repro.query.predicates import compiled_axis_test
from repro.relax.plan import compile_plan
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.index import INDEX_BACKENDS
from repro.xmldb.model import Database, XMLNode

VALUED = {
    "eq": "//item[./payment = 'cash' and ./mailbox/mail/text]",
    "contains": "//item[./description/text ~= 'silver' and ./name]",
    "ad_and_eq": "//item[.//keyword ~= 'jade' and ./location = 'tokyo']",
}


def brute_force_entry(engine, spec, root_dewey):
    """The entry by definition: every node with the server's tag that the
    probe axis relates to the root and that passes the value test, in
    document order, flagged by the exact root axis."""
    nodes = engine.index[spec.tag].all()
    survivors = tuple(
        (node, spec.exact_root_axis.matches(root_dewey, node.dewey))
        for node in nodes
        if spec.probe_axis.matches(root_dewey, node.dewey)
        and (spec.value is None or value_test(spec.value_op, spec.value, node.value))
    )
    related = sum(1 for node in nodes if spec.probe_axis.matches(root_dewey, node.dewey))
    exact = sum(1 for _, is_exact in survivors if is_exact)
    return survivors, related, (len(survivors), exact)


def assert_entries_by_definition(engine, relaxed):
    roots = [root.dewey for root in engine.index[engine.pattern.root.tag]]
    specs = list(compile_plan(engine.pattern, relaxed).servers.values())
    for spec in specs:
        memo = engine._probe_memos["index"][spec.node_id]
        exact_test = compiled_axis_test(spec.tag, spec.exact_root_axis)
        for root in roots:
            entry = memo.get(root)
            assert entry == probe_root(spec, engine.index, "index", exact_test, root)
            assert entry == brute_force_entry(engine, spec, root)
            # The scan join finds the same survivors and counts.
            scanned = probe_root(spec, engine.index, "scan", exact_test, root)
            assert (scanned[0], scanned[2]) == (entry[0], entry[2])
    return specs


@pytest.fixture(scope="module")
def xmark():
    return generate_database(XMarkConfig(items=40, seed=7))


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("relaxed", [True, False], ids=["relaxed", "exact"])
@pytest.mark.parametrize("case", sorted(VALUED))
def test_valued_memo_entries_equal_probe_root(xmark, case, relaxed, backend):
    engine = Engine(xmark, VALUED[case], relaxed=relaxed, index_backend=backend)
    specs = assert_entries_by_definition(engine, relaxed)
    valued = [spec for spec in specs if spec.value is not None]
    assert valued
    # The value test filters something and keeps something: the branch ran.
    memos = engine._probe_memos["index"]
    for spec in valued:
        entries = [memos[spec.node_id].get(root.dewey) for root in engine.index["item"]]
        assert any(len(survivors) < related for survivors, related, _ in entries)
        assert any(survivors for survivors, _, _ in entries)


# -- property: random valued forests ------------------------------------------

PATTERNS = [
    "//x[./y = 'a']",
    "//x[.//y ~= 'a' and ./x]",
    "//x[./y/x = 'ab' and .//y]",
]


@st.composite
def _valued_forest(draw):
    def build(depth):
        node = XMLNode(
            draw(st.sampled_from(["x", "y"])), draw(st.sampled_from([None, "a", "ab", "b"]))
        )
        if depth > 0:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                node.add_child(build(depth - 1))
        return node

    return Database.from_roots([build(3) for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=60, deadline=None)
@given(
    _valued_forest(),
    st.sampled_from(PATTERNS),
    st.booleans(),
    st.sampled_from(INDEX_BACKENDS),
)
def test_sweep_entries_equal_probe_root_on_valued_forests(database, query, relaxed, backend):
    engine = Engine(database, query, relaxed=relaxed, index_backend=backend)
    assert_entries_by_definition(engine, relaxed)
