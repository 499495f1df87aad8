"""Tests for the XML parser: structure, entities, attributes, errors,
round-tripping (including a hypothesis round-trip over random trees)."""

import time

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLParseError
from repro.xmldb.model import Database, XMLNode
from repro.xmldb.parser import parse_document, parse_forest, parse_fragment
from repro.xmldb.serializer import serialize


class TestBasicParsing:
    def test_single_element(self):
        db = parse_document("<a/>")
        assert db.documents[0].root.tag == "a"

    def test_nested_elements(self):
        db = parse_document("<a><b><c/></b><d/></a>")
        root = db.documents[0].root
        assert [child.tag for child in root.children] == ["b", "d"]
        assert root.children[0].children[0].tag == "c"

    def test_text_content(self):
        db = parse_document("<title>wodehouse</title>")
        assert db.documents[0].root.value == "wodehouse"

    def test_whitespace_only_text_ignored(self):
        db = parse_document("<a>\n  <b/>\n</a>")
        assert db.documents[0].root.value is None

    def test_mixed_content_keeps_parent_text(self):
        db = parse_document("<p>hello <b>bold</b> world</p>")
        root = db.documents[0].root
        assert "hello" in root.value and "world" in root.value
        assert root.children[0].value == "bold"

    def test_attributes_become_at_children(self):
        db = parse_document('<item id="i3" featured="yes"/>')
        root = db.documents[0].root
        tags = {child.tag: child.value for child in root.children}
        assert tags == {"@id": "i3", "@featured": "yes"}

    def test_single_quoted_attributes(self):
        db = parse_document("<a x='1'/>")
        assert db.documents[0].root.children[0].value == "1"

    def test_xml_declaration_and_comments_skipped(self):
        db = parse_document('<?xml version="1.0"?><!-- hi --><a><!-- there --><b/></a>')
        root = db.documents[0].root
        assert [child.tag for child in root.children] == ["b"]

    def test_doctype_skipped(self):
        db = parse_document("<!DOCTYPE site SYSTEM 'auction.dtd'><site/>")
        assert db.documents[0].root.tag == "site"

    def test_doctype_internal_subset_skipped(self):
        # A subset without entity declarations is read and accepted; one
        # entity declaration refuses the document, and the error names it.
        db = parse_document(
            "<?xml version='1.0'?>\n<!DOCTYPE a [<!ELEMENT a (#PCDATA)>\n<!ELEMENT b ANY>]>\n<a>t</a>"
        )
        assert db.documents[0].root.value == "t"
        with pytest.raises(XMLParseError, match="entity declaration 'e'") as excinfo:
            parse_document("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>\n<!ENTITY e 'x'>]><a>t</a>")
        assert excinfo.value.line == 2

    def test_attribute_list_defaults_apply(self):
        db = parse_document("<!DOCTYPE a [<!ATTLIST a x CDATA 'd'>]><a y='1'/>")
        assert [(child.tag, child.value) for child in db.documents[0].root.children] == [
            ("@y", "1"),
            ("@x", "d"),
        ]

    def test_cdata(self):
        db = parse_document("<a><![CDATA[x < y & z]]></a>")
        assert db.documents[0].root.value == "x < y & z"

    def test_entities(self):
        db = parse_document("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a>")
        assert db.documents[0].root.value == "<tag> & \"q\" 'a'"

    def test_numeric_character_references(self):
        db = parse_document("<a>&#65;&#x42;</a>")
        assert db.documents[0].root.value == "AB"

    def test_entities_in_attributes(self):
        db = parse_document('<a x="&amp;&lt;"/>')
        assert db.documents[0].root.children[0].value == "&<"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            "<a/><b/>",
            "<a>&unknown;</a>",
            "<a>&broken</a>",
            "<a",
            "just text",
        ],
    )
    def test_rejected_inputs(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    @pytest.mark.parametrize("bad", ["<1a/>", "<-a/>", "<.a/>", "<a 1x='v'/>", "<a><b-/><1c/></a>"])
    def test_names_follow_xml_name_rules(self, bad):
        # Each holds a name that the old ``[\w.:-]+`` rule took but that
        # starts with a character XML does not allow first.
        with pytest.raises(XMLParseError, match="not well-formed"):
            parse_document(bad)

    def test_lone_surrogate_refused_where_it_stands(self):
        text = "<a>\n\u00e9 ok \ud800</a>"
        with pytest.raises(XMLParseError, match="not well-formed") as excinfo:
            parse_document(text)
        assert (excinfo.value.position, excinfo.value.line) == (text.index("\ud800"), 2)

    def test_error_carries_line(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_document("<a>\n<b>\n</a>")
        assert excinfo.value.line >= 1


class TestNoDTDProcessing:
    """No entity is ever declared, so none expands and none is fetched: a
    declaration is refused where it stands, before anything references it."""

    def _refused(self, text):
        began = time.monotonic()
        with pytest.raises(XMLParseError, match="entity declaration") as excinfo:
            parse_document(text)
        assert time.monotonic() - began < 1.0
        return excinfo.value

    def test_billion_laughs(self):
        entities = ['<!ENTITY lol0 "lol">'] + [
            f'<!ENTITY lol{level} "{f"&lol{level - 1};" * 10}">' for level in range(1, 10)
        ]
        text = f"<!DOCTYPE lolz [{''.join(entities)}]><lolz>&lol9;</lolz>"
        # Refused inside the first declaration, before the next is read.
        assert text.index("<!ENTITY") < self._refused(text).position < text.index("<!ENTITY lol1")

    @pytest.fixture
    def secret(self, tmp_path):
        path = tmp_path / "secret.txt"
        path.write_text("SECRET")
        return path.as_uri()

    def test_external_entity(self, secret):
        self._refused(f'<!DOCTYPE a [<!ENTITY e SYSTEM "{secret}">]><a>&e;</a>')
        self._refused('<!DOCTYPE a [<!ENTITY e SYSTEM "file:///etc/passwd">]><a>&e;</a>')

    def test_external_parameter_entity(self, secret):
        self._refused(f'<!DOCTYPE a [<!ENTITY % p SYSTEM "{secret}"> %p;]><a/>')

    def test_external_dtd_is_not_read(self, secret):
        # The external subset is never fetched, so what it would declare
        # stays undeclared: a reference to it is refused, not expanded.
        db = parse_document(f'<!DOCTYPE a SYSTEM "{secret}"><a>t</a>')
        assert db.documents[0].root.value == "t"
        with pytest.raises(XMLParseError, match="undefined entity &e;"):
            parse_document(f'<!DOCTYPE a SYSTEM "{secret}"><a>&e;</a>')
        # expat's one exception: in an attribute value the reference is
        # dropped, since the unread DTD might have declared it.
        root = parse_document(f'<!DOCTYPE a SYSTEM "{secret}"><a v="1&e;2"/>').documents[0].root
        assert root.children[0].value == "12"


class TestForestAndFragment:
    def test_parse_forest(self):
        db = parse_forest(["<a/>", "<b><c/></b>"])
        assert len(db) == 2
        assert db.documents[1].root.children[0].dewey == (1, 0)

    def test_parse_forest_rejects_trailing(self):
        with pytest.raises(XMLParseError):
            parse_forest(["<a/><oops/>"])

    def test_parse_fragment_unattached(self):
        node = parse_fragment("<x><y/></x>")
        assert isinstance(node, XMLNode)
        assert node.dewey == ()
        assert node.children[0].tag == "y"


def _fresh_deweys(root: XMLNode, ordinal: int):
    """(node, Dewey) in document order, as a fresh ``_assign_deweys`` stamps."""
    pairs = []
    stack = [(root, (ordinal,))]
    while stack:
        node, dewey = stack.pop()
        pairs.append((node, dewey))
        children = list(enumerate(node.children))
        stack.extend((child, dewey + (position,)) for position, child in reversed(children))
    return pairs


def _assert_freshly_stamped(database):
    for document in database.documents:
        for node, dewey in _fresh_deweys(document.root, document.ordinal):
            assert node.dewey == dewey, (node.tag, node.dewey, dewey)


class TestDeweyStamping:
    """The parser stamps Deweys as it attaches nodes; a forest adopts its
    trees without a second walk, and re-stamps every tree it did not parse."""

    TEXT = (
        '<site><regions><africa><item id="i0"><name>a</name><text>x</text></item></africa>'
        '<asia><item id="i1"><name>b</name></item><item id="i2"/></asia></regions></site>'
    )

    def test_parse_document(self):
        _assert_freshly_stamped(parse_document(self.TEXT))

    def test_parse_forest_stamps_each_document_with_its_ordinal(self):
        texts = [self.TEXT, "<a><b>x</b><c/></a>", self.TEXT]
        database = parse_forest(texts)
        assert [document.root.dewey for document in database.documents] == [(0,), (1,), (2,)]
        _assert_freshly_stamped(database)

    def test_parse_fragment_stays_unstamped(self):
        root = parse_fragment(self.TEXT)
        assert {node.dewey for node in root.iter_subtree()} == {()}

    def test_detached_items_under_a_new_root_are_restamped(self):
        # The perf workloads' forest builder: detach items, re-add them
        # under new roots, attach those roots.
        items = [
            item
            for region in parse_document(self.TEXT).documents[0].root.children[0].children
            for item in region.children
        ]
        roots = []
        for share in (items[2:], items[:2]):
            root = XMLNode("site")
            for item in share:
                item.parent = None
                root.add_child(item)
            roots.append(root)
        _assert_freshly_stamped(Database.from_roots(roots))

    def test_edited_tree_reattached_at_ordinal_zero_is_restamped(self):
        root = parse_document(self.TEXT).documents[0].root
        asia = root.children[0].children[1]
        del asia.children[0]  # shifts the remaining item's sibling ordinal
        asia.child("item")
        _assert_freshly_stamped(Database.from_roots([root]))


def _walked_buckets(database):
    """tag -> nodes, each tag's in document order, by walking the forest."""
    buckets = {}
    for document in database.documents:
        for node, _ in _fresh_deweys(document.root, document.ordinal):
            buckets.setdefault(node.tag, []).append(node)
    return buckets


def _assert_bucketed(database):
    walked = _walked_buckets(database)
    assert list(database.buckets) == list(walked)  # tags in first-seen order
    for tag, nodes in walked.items():
        assert [id(node) for node in database.buckets[tag]] == [id(node) for node in nodes]
        assert [node.dewey for node in nodes] == sorted(node.dewey for node in nodes)


class TestTagBuckets:
    """The parser buckets each node, attributes included, by tag as it
    attaches it; a database adopts those buckets, and buckets every tree it
    re-stamps in its stamping walk — the same lists a walk would build."""

    TEXT = TestDeweyStamping.TEXT

    def test_parse_document(self):
        database = parse_document(self.TEXT)
        _assert_bucketed(database)
        assert [node.value for node in database.buckets["@id"]] == ["i0", "i1", "i2"]

    def test_parse_forest_extends_each_tag_in_document_order(self):
        _assert_bucketed(parse_forest([self.TEXT, "<a><item>x</item><c/></a>", self.TEXT]))

    def test_restamped_trees(self):
        root = parse_document(self.TEXT).documents[0].root
        asia = root.children[0].children[1]
        del asia.children[0]
        asia.child("item").child("name", "c")
        _assert_bucketed(Database.from_roots([XMLNode("lone"), root, parse_fragment(self.TEXT)]))

    def test_tag_reads_come_from_the_buckets(self):
        database = parse_forest([self.TEXT, self.TEXT])
        walked = _walked_buckets(database)
        assert database.node_count() == sum(map(len, walked.values()))
        assert database.tag_histogram() == {tag: len(nodes) for tag, nodes in walked.items()}
        items = database.nodes_with_tag("item")
        assert items == walked["item"] and items is not database.buckets["item"]
        assert database.nodes_with_tag("absent") == []


class TestDepth:
    """Nesting depth is data-controlled; nothing on the path from text to
    tree and back to text may be bounded by the interpreter's recursion limit
    (``parse_forest`` is how cluster workers load what ``partition`` ships)."""

    DEEP = "<a>" * 3000 + "<b>x</b>" + "</a>" * 3000

    def test_every_entry_point_parses_3000_levels(self):
        for root in (
            parse_document(self.DEEP).documents[0].root,
            parse_forest(["<c/>", self.DEEP]).documents[1].root,
            parse_fragment(self.DEEP),
        ):
            leaf = next(node for node in root.iter_subtree() if node.tag == "b")
            assert leaf.value == "x"
            assert len(leaf.dewey) in (0, 3001)

    @pytest.mark.parametrize("pretty", [False, True])
    def test_deep_document_round_trips_through_the_serializer(self, pretty):
        database = parse_document(self.DEEP)
        text = serialize(database, pretty=pretty)
        assert parse_document(text).node_count() == database.node_count() == 3001
        if not pretty:
            assert text == self.DEEP


# -- property-based round-trip ------------------------------------------------

_tags = st.sampled_from(["a", "b", "item", "name", "x1", "with-dash", "u_z"])
_values = st.text(
    alphabet="abcXYZ012 .,:;!?()#\u00e9\u03bb\u4e2d",
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s != "")


def _tree_strategy(depth: int):
    node = st.tuples(_tags, st.none() | _values)
    if depth == 0:
        return node.map(lambda pair: XMLNode(pair[0], pair[1]))

    def build(args):
        (tag, value), children = args
        parent = XMLNode(tag, value)
        for child in children:
            parent.add_child(child)
        return parent

    return st.tuples(
        node, st.lists(_tree_strategy(depth - 1), max_size=3)
    ).map(build)


#: What XML normalises on reading: line ends anywhere, and a tab, newline
#: or carriage return in an attribute value.
_NORMALISED = "ab \t\n\r<&\"'"


@st.composite
def _normalised_tree(draw, depth=2):
    node = XMLNode(draw(_tags), draw(st.none() | _values | st.text(_NORMALISED, min_size=1)))
    if node.value is not None and node.value.strip() != node.value:
        node.value = node.value.strip() or None  # the parser strips text
    for name in draw(st.lists(_tags, max_size=2, unique=True)):
        node.child("@" + name, draw(st.text(_NORMALISED, max_size=6)))
    if depth:
        for child in draw(st.lists(_normalised_tree(depth - 1), max_size=2)):
            node.add_child(child)
    return node


def _shape(node: XMLNode):
    return (node.tag, node.value, tuple(_shape(child) for child in node.children))


class TestRoundTrip:
    @given(_tree_strategy(3))
    def test_serialize_parse_roundtrip(self, tree):
        from repro.xmldb.model import Database

        db = Database.from_roots([tree])
        text = serialize(db)
        reparsed = parse_document(text)
        assert _shape(reparsed.documents[0].root) == _shape(db.documents[0].root)

    @given(_tree_strategy(2))
    def test_compact_serialization_roundtrip(self, tree):
        from repro.xmldb.model import Database

        db = Database.from_roots([tree])
        text = serialize(db, pretty=False)
        reparsed = parse_document(text)
        assert _shape(reparsed.documents[0].root) == _shape(db.documents[0].root)

    @pytest.mark.parametrize("pretty", [False, True])
    @given(tree=_normalised_tree())
    def test_normalised_characters_roundtrip(self, pretty, tree):
        """Tabs, newlines and carriage returns survive ``parse(serialize(tree))``
        — as a shard worker re-parses what the coordinator serializes."""
        database = Database.from_roots([tree])
        reparsed = parse_document(serialize(database, pretty=pretty))
        assert _shape(reparsed.documents[0].root) == _shape(tree)
