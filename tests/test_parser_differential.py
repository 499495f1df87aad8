"""The parser's tree against ElementTree's, and its error table.

Well-formed input: generated XML text (attributes, mixed content, CDATA,
comments, PIs, entities, numeric references, ``\r\n`` line ends, tabs and
newlines in attribute values, compact and pretty) and serialized XMark
documents must parse to the tree that ``xml.etree.ElementTree`` builds,
read through :func:`etree_shape`: both run expat, so this judges what the
parser adds — attribute children, text joining and Dewey stamping.
Malformed input: every entry of :data:`MALFORMED` must raise
:class:`XMLParseError` naming the line the table gives.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.parser import parse_document, parse_forest, parse_fragment
from repro.xmldb.serializer import serialize


def etree_shape(element):
    """An ElementTree element in this repo's model: attributes become
    ``@`` children, direct text parts are joined and stripped."""
    text = (element.text or "") + "".join(child.tail or "" for child in element)
    children = [("@" + name, value, ()) for name, value in element.attrib.items()]
    children += [etree_shape(child) for child in element]
    return (element.tag, text.strip() or None, tuple(children))


def shape(node):
    return (node.tag, node.value, tuple(shape(child) for child in node.children))


# -- generated well-formed text ---------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "item", "x1", "with-dash", "u_z", "dotted.name", "élan"])
_CODEPOINTS = st.one_of(
    st.sampled_from([9, 10]),
    st.integers(0x20, 0x7E),
    st.integers(0xA0, 0x2FF),
    st.integers(0x4E00, 0x4E10),
    st.integers(0x1F600, 0x1F60F),
)
_REFERENCES = st.one_of(
    st.sampled_from(["&lt;", "&gt;", "&amp;", "&apos;", "&quot;"]),
    _CODEPOINTS.map(lambda code: f"&#{code};"),
    _CODEPOINTS.map(lambda code: f"&#x{code:X};"),
    _CODEPOINTS.map(lambda code: f"&#x{code:04x};"),
)


def _run(alphabet):
    """Character data: literal runs over ``alphabet`` mixed with references."""
    pieces = st.one_of(st.text(alphabet=alphabet, min_size=1, max_size=6), _REFERENCES)
    return st.lists(pieces, min_size=1, max_size=4).map("".join)


_TEXT = _run("abcXYZ019 .,;:!?()#%*+-=/|>\"'\n\r\téλ中")
_SPACE = st.sampled_from(["", " ", "\n  ", "\r\n\t"])


@st.composite
def _attribute(draw, name):
    quote = draw(st.sampled_from("\"'"))
    other = "'" if quote == '"' else '"'
    value = draw(st.one_of(st.just(""), _run("abc XYZ019.,;:!?>/\t\n\r" + other)))
    return f"{draw(_SPACE) or ' '}{name}{draw(_SPACE)}={draw(_SPACE)}{quote}{value}{quote}"


_ASIDES = st.one_of(
    st.text(alphabet="abc <>&'\" \n", max_size=8).map(lambda body: f"<!--{body}-->"),
    st.text(alphabet="abc <>&=\"' ", max_size=8).map(lambda body: f"<?target {body}?>"),
    st.just("<?pi?>"),
)
_CDATA = (
    st.text(alphabet="abc <>&]\n", max_size=8)
    .filter(lambda body: "]]>" not in body)
    .map(lambda body: f"<![CDATA[{body}]]>")
)


@st.composite
def _element(draw, depth, pretty, level=0):
    name = draw(_NAMES)
    attribute_names = draw(st.lists(_NAMES, max_size=3, unique=True))
    head = name + "".join(draw(_attribute(attribute)) for attribute in attribute_names)
    items = [_TEXT, _CDATA, _ASIDES] + ([_element(depth - 1, pretty, level + 1)] if depth else [])
    content = draw(st.lists(st.one_of(*items), max_size=4))
    if not content and draw(st.booleans()):
        return f"<{head}{draw(_SPACE)}/>"
    if pretty:
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        content = [f"{newline}{'  ' * (level + 1)}{item}" for item in content]
        content.append(newline + "  " * level)
    return f"<{head}{draw(_SPACE)}>{''.join(content)}</{name}{draw(_SPACE)}>"


@st.composite
def _document(draw):
    prolog = draw(st.sampled_from(["", '<?xml version="1.0"?>', "<?xml version='1.0'?>\n"]))
    doctype = draw(
        st.sampled_from(
            [
                "",
                "<!DOCTYPE a>",
                "<!DOCTYPE a [<!ELEMENT a ANY>\n<!ELEMENT b (#PCDATA)>]>\n",
                "<!DOCTYPE a [<!ATTLIST a x1 CDATA 'd' b NMTOKENS #IMPLIED>]>",
            ]
        )
    )
    before = "".join(draw(st.lists(st.one_of(_ASIDES, st.just("\n")), max_size=2)))
    after = "".join(draw(st.lists(st.one_of(_ASIDES, st.just("\n")), max_size=2)))
    root = draw(_element(3, draw(st.booleans())))
    return prolog + doctype + before + root + after


@settings(max_examples=300, deadline=None)
@given(_document())
def test_generated_documents_parse_like_elementtree(text):
    expected = etree_shape(ET.fromstring(text))
    assert shape(parse_document(text).documents[0].root) == expected
    assert shape(parse_forest([text, text]).documents[1].root) == expected


@settings(max_examples=100, deadline=None)
@given(_element(2, False))
def test_generated_fragments_parse_like_elementtree(text):
    assert shape(parse_fragment(text)) == etree_shape(ET.fromstring(text))


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("seed", [7, 23])
def test_xmark_documents_parse_like_elementtree(seed, pretty):
    text = serialize(generate_database(XMarkConfig(items=60, seed=seed)), pretty=pretty)
    database = parse_document(text)
    assert shape(database.documents[0].root) == etree_shape(ET.fromstring(text))
    # Deweys are the sibling ordinals along the path from the document root.
    for node in database.iter_nodes():
        for ordinal, child in enumerate(node.children):
            assert child.dewey == node.dewey + (ordinal,)


# -- malformed text ---------------------------------------------------------------

#: (input, line the error must name).  The first eleven are the inputs
#: ``tests/test_parser.py::TestErrors`` rejects; the rest pin the reported
#: line with the problem placed away from line 1.
MALFORMED = [
    ("", 1),
    ("   ", 1),
    ("<a>", 1),
    ("<a></b>", 1),
    ("<a><b></a></b>", 1),
    ("<a x=1/>", 1),
    ("<a/><b/>", 1),
    ("<a>&unknown;</a>", 1),
    ("<a>&broken</a>", 1),
    ("<a", 1),
    ("just text", 1),
    # Bad references: the line of the '&', not of the tag after the text run.
    ("<a>\n&#xZZ;\n\n</a>", 2),
    ("<a>\n\n&#;\n</a>", 3),
    ("<a>\n&#99999999999;\n\n<b/></a>", 2),
    ('<a\n\n x="&#x110000;"\n/>', 3),
    ("<a>\nfine &amp; good\n&#-5;\n</a>", 3),
    ("<a>&#" + "9" * 5000 + ";</a>", 1),
    ("<a>\n<b>ok</b>\n&nbsp;</a>", 3),
    # After multi-byte text: a byte offset would name a later line.
    ("<a>\n\u4e2d\u6587\u00e9\U0001f600 &nbsp;\n\n\n\n\n\n\n\n\n</a>", 2),
    # Unterminated constructs: where they open.
    ("<a>\n<!-- never closed\n</a>", 2),
    # expat names the line where the input ends, not where the section opened.
    ("<a>\n\n<![CDATA[ never closed ]]\n</a>", 4),
    ("<a>\n<?pi never closed\n</a>", 2),
    ("\n<!-- prolog comment never closed", 2),
    # Close tags.
    ("<a>\n<b>\n</a>", 3),
    ("<a>\n<b></b>\n</c>\n</a>", 3),
    ("\n</a>", 2),
    ("<a/>\n</a>", 2),
    ("<a>\n</a x='1'>", 2),
    # Tags that never finish.
    ('<a>\n<b x="never closed></b>\n</a>', 2),
    ("<a>\n<b x='1' y></b></a>", 2),
    ("<a>\n< b/></a>", 2),
    ("<a>\n<b", 2),
    ("<a>\n<b>text", 2),
    # Content outside the document element.
    ("<a/>\n\ntrailing", 3),
    ("<a/>\n<!-- fine -->\n<b/>", 3),
    ("\n<![CDATA[no element]]>", 2),
]


@pytest.mark.parametrize("text,line", MALFORMED)
def test_malformed_input_raises_with_the_line(text, line):
    for parse in (parse_document, parse_fragment, lambda text: parse_forest(["<ok/>", text])):
        with pytest.raises(XMLParseError) as excinfo:
            parse(text)
        error = excinfo.value
        assert error.line == line, error
        assert 0 <= error.position <= len(text)
        assert error.line == text.count("\n", 0, error.position) + 1
