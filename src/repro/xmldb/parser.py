"""XML text to :class:`XMLNode` trees, through the standard library's expat.

:mod:`xml.parsers.expat` (the parser under :mod:`xml.etree.ElementTree`)
tokenizes; three handlers build the tree in one pass.  The start handler
attaches each element to the innermost open one, stamps its Dewey id
as it does (its parent's plus its sibling ordinal) and appends it to its
tag's bucket, so a parsed forest needs no second walk: the database keeps
the buckets, and an index takes its tags' nodes from them in document
order.  Attributes become children whose tag is the attribute name
prefixed with ``@`` (``<item id="i3">`` yields a child ``@id`` with value
``"i3"``), which keeps the node-labeled-tree model uniform: tree patterns
may mention ``@id`` like any other tag.  Character data is appended to
one shared buffer; the end handler joins its element's slice of it,
strips it into ``value`` (``None`` when only whitespace is left) and
truncates the buffer.  Nothing recurses, so nesting depth is bounded by
memory only.

A parsed tree holds no cycle: the parser sets no ``parent`` link (a
node's parent is its Dewey prefix), and the handlers lose their hold on
the expat parser when the parse ends, on success and on a refused
document alike.  A dead tree is therefore freed by reference counting
as soon as its last reference goes, not at the collector's next pass.

Accepted is what expat accepts as a well-formed XML 1.0 document: one
document element, character data, CDATA sections, comments, processing
instructions, the five predefined entities, character references, an XML
declaration (its ``encoding`` is ignored: the input is already text) and
a DOCTYPE.  Names follow XML's name rules (``<1a/>`` is refused).  A
DOCTYPE's internal subset is read: element and attribute-list
declarations are accepted, and declared attribute defaults apply, as in
ElementTree.  Any entity declaration is refused — internal, external or
parameter — so no entity expands and no external DTD or entity is ever
resolved.  A reference to an undeclared entity is refused too, with one
exception that is expat's (and ElementTree's): in an attribute value of
a document whose DOCTYPE names an external DTD, which might declare it,
the reference is dropped (``v="1&e;2"`` reads ``"12"``).
Namespaces are not processed: ``a:b`` is a plain tag.

XML normalises what it reads: a ``\\r\\n`` or lone ``\\r`` line end becomes
``\\n``, and a literal tab, newline or carriage return in an attribute
value becomes a space (:mod:`repro.xmldb.serializer` writes those as
character references, so a tree survives a round trip).  Every rejected
input raises :class:`~repro.errors.XMLParseError` with expat's message,
its ``line`` and the character offset ``position`` of the problem.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Iterable, List, NoReturn, Tuple

from repro.errors import XMLParseError
from repro.xmldb.model import Database, XMLNode


def _error(message: str, data: bytes, index: int, line: int) -> XMLParseError:
    """``message`` located at byte ``index`` of ``data``, as a character offset."""
    position = len(data[:index].decode("utf-8", "ignore"))
    return XMLParseError(message, position=position, line=line)


def _parse_tree(text: str, ordinal: int = 0) -> Tuple[XMLNode, DefaultDict[str, List[XMLNode]]]:
    """The one element in ``text``, as a tree stamped with the Dewey ids of
    document ``ordinal``, so a forest adopts it at ``ordinal`` as is, and
    its nodes by tag, each tag's in document order."""
    # Imported here, so that a process that never parses (engines over
    # generated trees) does not map the C module and its library.
    from xml.parsers.expat import ErrorString, ExpatError, ParserCreate

    # Lone surrogates pass as bytes expat refuses, with a position.
    data = text.encode("utf-8", "surrogatepass")
    parser = ParserCreate("utf-8")
    parser.buffer_text = True
    parser.ordered_attributes = True
    # ``top`` stands in as the parent of the document element, so attaching
    # a node is the same statement at every depth.
    top = XMLNode("#top")
    root_dewey = (ordinal,)
    stack = [top]  # the open elements
    marks: List[int] = []  # where each open element's text starts in ``texts``
    texts: List[str] = []
    buckets: DefaultDict[str, List[XMLNode]] = defaultdict(list)

    def start(tag: str, attributes: List[str]) -> None:
        parent = stack[-1]
        siblings = parent.children
        node = XMLNode(tag)
        node.dewey = dewey = root_dewey if parent is top else parent.dewey + (len(siblings),)
        siblings.append(node)
        buckets[tag].append(node)
        if attributes:
            children = node.children
            for position in range(0, len(attributes), 2):
                name = "@" + attributes[position]
                attribute = XMLNode(name, attributes[position + 1])
                attribute.dewey = dewey + (position >> 1,)
                children.append(attribute)
                buckets[name].append(attribute)
        stack.append(node)
        marks.append(len(texts))

    def end(tag: str) -> None:
        node = stack.pop()
        mark = marks.pop()
        if len(texts) > mark:
            node.value = "".join(texts[mark:]).strip() or None
            del texts[mark:]

    def refuse(message: str) -> NoReturn:
        raise _error(message, data, parser.CurrentByteIndex, parser.CurrentLineNumber)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = texts.append
    parser.EntityDeclHandler = lambda name, *_: refuse(f"entity declaration {name!r} refused")
    parser.SkippedEntityHandler = lambda name, _: refuse(f"undefined entity &{name};")
    try:
        parser.Parse(data, True)
    except ExpatError as error:
        raise _error(
            ErrorString(error.code), data, parser.ErrorByteIndex, parser.ErrorLineNumber
        ) from None
    finally:
        # The parser holds the handlers and ``refuse`` holds the parser:
        # emptying the cell they share breaks that cycle, so the parser, the
        # handlers and what they close over (``data``, ``top``) go now.
        del parser
    return top.children.pop(), buckets


def parse_document(text: str) -> Database:
    """Parse one XML document into a single-document :class:`Database`."""
    return parse_forest([text])


def parse_forest(texts: Iterable[str]) -> Database:
    """Parse several XML documents into one forest :class:`Database`.

    ``texts`` is an iterable of document strings; documents join the forest
    in iteration order, which fixes their Dewey document ordinals.  Each
    tree is parsed stamped for its ordinal and bucketed by tag, so the
    forest adopts it, and its buckets, as is.
    """
    database = Database()
    for text in texts:
        root, buckets = _parse_tree(text, len(database.documents))
        database.add_document(root, buckets=buckets)
    return database


def parse_fragment(text: str) -> XMLNode:
    """Parse a standalone element into a bare (unattached) node tree."""
    root, _ = _parse_tree(text)
    for node in root.iter_subtree():
        node.dewey = ()
    return root
