"""Serialization of the node-labeled tree model back to XML text.

The serializer is the inverse of :mod:`repro.xmldb.parser` for the model's
canonical form: attribute children (``@name``) become XML attributes, node
values become character data, and ``&``, ``<``, ``>`` and (in attributes)
``"`` are escaped.  So are the characters XML normalises on reading: a
carriage return anywhere, and a tab or newline in an attribute value, are
written as character references, which a parser reads back unchanged.
It also provides :func:`document_size_bytes`, which the benchmark harness
uses to calibrate generator scales against the paper's 1/10/50 Mb document
sizes.
"""

from __future__ import annotations

from typing import List, Union

from repro.xmldb.model import Database, XMLDocument, XMLNode


def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attribute(text: str) -> str:
    return (
        _escape_text(text)
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
    )


def _serialize_node(root: XMLNode, out: List[str], pretty: bool) -> None:
    """Append ``root``'s subtree to ``out``; an explicit stack, because
    document depth is data-controlled (as in ``XMLNode._assign_deweys``)."""
    newline = "\n" if pretty else ""
    # Nodes still to open, and rendered close tags of the elements opened
    # above them; ``depth`` counts the close tags on the stack.
    stack: List[Union[str, XMLNode]] = [root]
    depth = 0
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            depth -= 1
            continue
        pad = "  " * depth if pretty else ""
        attributes = [child for child in node.children if child.tag[0] == "@"]
        elements = [child for child in node.children if child.tag[0] != "@"]

        out.append(f"{pad}<{node.tag}")
        for attribute in attributes:
            out.append(f' {attribute.tag[1:]}="{_escape_attribute(attribute.value or "")}"')

        if not elements and node.value is None:
            out.append(f"/>{newline}")
            continue

        out.append(">")
        if node.value is not None:
            out.append(_escape_text(node.value))
        if elements:
            out.append(newline)
            stack.append(f"{pad}</{node.tag}>{newline}")
            stack.extend(reversed(elements))
            depth += 1
        else:
            out.append(f"</{node.tag}>{newline}")


def serialize(source: Union[Database, XMLDocument, XMLNode], pretty: bool = True) -> str:
    """Serialize a database, document or node subtree to XML text.

    A multi-document database serializes to the concatenation of its
    documents, which :func:`repro.xmldb.parser.parse_forest` accepts back
    only document-by-document; single documents round-trip through
    :func:`repro.xmldb.parser.parse_document`.
    """
    if isinstance(source, Database):
        return "".join(serialize(document, pretty) for document in source.documents)
    if isinstance(source, XMLDocument):
        source = source.root
    out: List[str] = []
    _serialize_node(source, out, pretty)
    return "".join(out)


def document_size_bytes(source: Union[Database, XMLDocument, XMLNode]) -> int:
    """UTF-8 size of the serialized form — the paper's 'document size' axis."""
    return len(serialize(source, pretty=True).encode("utf-8"))
