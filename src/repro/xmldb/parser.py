"""A small, dependency-free XML parser producing :class:`XMLNode` trees.

The parser is one scanning loop: at every ``<`` a single compiled
alternation (:data:`_TOKEN`) recognises a whole token — a leaf element
``<n>text</n>`` in one piece, an open tag with its attribute run, a close
tag, a comment, a CDATA section or a processing instruction — together
with the character data that follows it, and the loop keeps the open
elements on an explicit stack.  Nothing recurses, so nesting depth is
bounded by memory only.  Each node is stamped with its Dewey id as it is
attached (its parent's plus its sibling ordinal), so a parsed forest needs
no second walk.  Only when no token matches does
:func:`_diagnose` look at the input again to say why.

Accepted: elements, attributes (single- or double-quoted), character data,
CDATA sections, comments, processing instructions, the five predefined
entities, decimal and hexadecimal character references up to U+10FFFF, an
XML declaration and a DOCTYPE declaration around the document element.
Names are runs of alphanumerics and ``_ - . :``.  Not implemented:
namespaces, and any DTD processing — a DOCTYPE, with or without an
internal subset (skipped up to its first ``]``), is stepped over unread,
so entities it declares are unknown.  Every rejected input raises
:class:`~repro.errors.XMLParseError` carrying ``position`` and ``line``.

Attributes are modeled as child nodes whose tag is the attribute name
prefixed with ``@`` (so ``<item id="i3">`` yields a child ``@id`` with value
``"i3"``).  That keeps the node-labeled-tree model uniform: tree patterns
may mention ``@id`` like any other tag.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Tuple

from repro.errors import XMLParseError
from repro.xmldb.model import Database, XMLNode

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME = r"[\w.:-]+"
_WS = r"[ \t\r\n]*"
_QUOTED = r"(?:\"[^\"]*\"|'[^']*')"
_ATTRIBUTES = rf"(?:{_WS}{_NAME}{_WS}={_WS}{_QUOTED})*"

#: One token and the character data after it.  Every alternative ends in its
#: own ``([^<]*)`` group, so ``match.lastindex`` names the alternative and
#: ``match.group(match.lastindex)`` is the trailing text whichever matched.
_TOKEN = re.compile(
    rf"<(?:({_NAME})>([^<]*)</\1>([^<]*)"  # 1 name, 2 text, 3: leaf element
    rf"|({_NAME})({_ATTRIBUTES}){_WS}(/?)>([^<]*)"  # 4 name, 5 attributes, 6 '/', 7: open tag
    rf"|/({_NAME}){_WS}>([^<]*)"  # 8 name, 9: close tag
    r"|!\[CDATA\[(.*?)\]\]>([^<]*)"  # 10 data, 11: CDATA section
    r"|(?:!--.*?--|\?.*?\?)>([^<]*))",  # 12: comment or processing instruction
    re.DOTALL,
)
_LEAF, _OPEN, _CLOSE, _CDATA = 3, 7, 9, 11
_ATTRIBUTE = re.compile(rf"({_NAME}){_WS}={_WS}({_QUOTED})")
#: Whitespace, comments, PIs and DOCTYPE declarations around the document element.
_MISC = re.compile(
    r"(?:[ \t\r\n]+|<!--.*?-->|<\?.*?\?>"
    rf"|<!(?:DOCTYPE|doctype)(?:[^\[>]*\[[^\]]*\]{_WS}>|[^>]*>))*",
    re.DOTALL,
)
#: The well-formed prefix of a tag that :data:`_TOKEN` refused.
_TAG_HEAD = re.compile(rf"<(?:(/)(?:{_NAME}{_WS})?|(?:{_NAME}{_ATTRIBUTES}{_WS})?)")
_CHARACTER_REFERENCE = re.compile(r"#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")
_UNTERMINATED = (("<!--", "-->"), ("<![CDATA[", "]]>"), ("<?", "?>"))


def _error(text: str, position: int, message: str) -> XMLParseError:
    line = text.count("\n", 0, position) + 1
    return XMLParseError(message, position=position, line=line)


def _decode(raw: str, text: str, offset: int) -> str:
    """``raw`` (found at ``text[offset:]``) with its references replaced."""
    head, *pieces = raw.split("&")
    out = [head]
    offset += len(head)
    for piece in pieces:
        name, semicolon, rest = piece.partition(";")
        if not semicolon:
            raise _error(text, offset, "unterminated entity reference")
        char = _PREDEFINED_ENTITIES.get(name)
        if char is None:
            reference = _CHARACTER_REFERENCE.fullmatch(name)
            if reference is None:
                problem = "malformed character reference" if name[:1] == "#" else "unknown entity"
                raise _error(text, offset, f"{problem} &{name};")
            hexadecimal, decimal = reference.groups()
            try:
                char = chr(int(hexadecimal, 16) if hexadecimal else int(decimal))
            except (ValueError, OverflowError):
                raise _error(
                    text, offset, f"character reference &{name}; is out of range"
                ) from None
        out += (char, rest)
        offset += 1 + len(piece)
    return "".join(out)


def _diagnose(text: str, position: int, inside: str) -> XMLParseError:
    """Why no token matches at ``position`` (``inside``: innermost open tag)."""
    if position >= len(text):
        return _error(text, position, f"unexpected end of input inside <{inside}>")
    if text[position] != "<":
        return _error(text, position, "expected '<'")
    for opener, closer in _UNTERMINATED:
        if text.startswith(opener, position):
            return _error(text, position, f"unterminated construct, expected {closer!r}")
    head = _TAG_HEAD.match(text, position)
    assert head is not None  # text[position] is "<"
    if text[head.end() - 1] in "</":
        return _error(text, head.end(), "expected an XML name")
    expected = "'>'" if head.group(1) else "name=\"value\", '/>' or '>'"
    return _error(text, head.end(), f"malformed tag, expected {expected}")


def _skip_misc(text: str, position: int) -> int:
    misc = _MISC.match(text, position)
    assert misc is not None  # the pattern matches the empty string
    return misc.end()


def _parse_tree(text: str, what: str, ordinal: int = 0) -> XMLNode:
    """The one element in ``text``, as a tree stamped with the Dewey ids of
    document ``ordinal`` (the shared loop).  Every node is stamped as it is
    attached — its parent's Dewey plus its sibling ordinal — so the tree
    needs no second walk to join a forest at ``ordinal``."""
    scan = _TOKEN.match
    position = _skip_misc(text, 0)
    if position == len(text):
        raise _error(text, position, f"empty {what}")
    # ``top`` stands in as the parent of the document element, so attaching
    # a child is the same statement at every depth.
    top = node = XMLNode("#top")
    root_dewey = (ordinal,)
    parts: List[str] = []  # direct text of ``node``, in source order
    stack: List[Tuple[XMLNode, List[str]]] = []  # enclosing (node, parts)
    while True:
        token = scan(text, position)
        if token is None:
            raise _diagnose(text, position, node.tag)
        kind: int = token.lastindex  # type: ignore[assignment]  # a match closes a group
        if kind == _LEAF:
            tag, value = token.group(1, 2)
            if "&" in value:
                value = _decode(value, text, token.start(2))
            child = XMLNode(tag, value.strip() or None)
            child.dewey = root_dewey if node is top else node.dewey + (len(node.children),)
            child.parent = node
            node.children.append(child)
        elif kind == _OPEN:
            child = XMLNode(token.group(4))
            child.dewey = root_dewey if node is top else node.dewey + (len(node.children),)
            child.parent = node
            node.children.append(child)
            if token.group(5):
                for attribute in _ATTRIBUTE.finditer(text, token.start(5), token.end(5)):
                    value = attribute.group(2)[1:-1]
                    if "&" in value:
                        value = _decode(value, text, attribute.start(2) + 1)
                    child.child("@" + attribute.group(1), value)
            if not token.group(6):
                stack.append((node, parts))
                node, parts = child, []
        elif kind == _CLOSE:
            if token.group(8) != node.tag:
                expected = f"expected </{node.tag}>" if stack else "no element is open"
                raise _error(
                    text, token.start(), f"mismatched closing tag </{token.group(8)}>, {expected}"
                )
            if parts:
                node.value = "".join(parts).strip() or None
            node, parts = stack.pop()
        elif kind == _CDATA:
            parts.append(token.group(10))
        if node is top:
            break
        tail = token.group(kind)
        if tail:
            parts.append(_decode(tail, text, token.start(kind)) if "&" in tail else tail)
        position = token.end()
    if not top.children:  # a CDATA section where the element should start
        raise _error(text, position, f"expected the {what} element")
    end = _skip_misc(text, token.start(kind))
    if end != len(text):
        raise _error(text, end, f"trailing content after {what} element")
    root = top.children[0]
    root.parent = None
    return root


def parse_document(text: str) -> Database:
    """Parse one XML document into a single-document :class:`Database`."""
    return parse_forest([text])


def parse_forest(texts: Iterable[str]) -> Database:
    """Parse several XML documents into one forest :class:`Database`.

    ``texts`` is an iterable of document strings; documents join the forest
    in iteration order, which fixes their Dewey document ordinals.  Each
    tree is parsed stamped for its ordinal, so the forest adopts it as is.
    """
    database = Database()
    for text in texts:
        database.add_document(
            _parse_tree(text, "document", len(database.documents)), stamped=True
        )
    return database


def parse_fragment(text: str) -> XMLNode:
    """Parse a standalone element into a bare (unattached) node tree."""
    root = _parse_tree(text, "fragment")
    for node in root.iter_subtree():
        node.dewey = ()
    return root
