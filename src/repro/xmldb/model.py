"""Node-labeled tree data model for XML forests.

The paper's data model (Section 2) is "a forest of node labeled trees".
:class:`XMLNode` is one labeled node carrying an optional text value;
:class:`XMLDocument` is one rooted tree; :class:`Database` is the queryable
forest, the unit the scoring function's ``idf`` statistics range over.

Nodes are assigned Dewey identifiers at construction/attachment time and the
model deliberately keeps them immutable once a node is attached — the engine
relies on Dewey ids as stable primary keys.  A node's parent is its Dewey
prefix: ``XMLNode.parent`` is only :meth:`XMLNode.add_child`'s attach guard,
set by ``add_child`` alone, and a parsed tree leaves it ``None``, so it holds
no cycle and is freed by reference counting once dropped.

A :class:`Database` buckets its nodes by tag when it adds a tree — the
parser hands its buckets over, any other tree is bucketed by the stamping
walk — so an index or a tag count reads them instead of walking the
forest.  A node attached to a tree after the tree joined a database is in
no bucket; add the tree to a new database to see it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.xmldb import dewey as dw
from repro.xmldb.dewey import Dewey


class XMLNode:
    """One node of an XML tree: a tag, an optional text value, children.

    Parameters
    ----------
    tag:
        Element name, e.g. ``"book"``.
    value:
        Optional flattened text content for leaf-ish nodes, e.g.
        ``"wodehouse"`` for ``<title>wodehouse</title>``.  Mixed-content
        parents keep their own direct text here too.

    ``parent`` is :meth:`add_child`'s attach guard — a node attached once
    is refused a second time — and only ``add_child`` sets it.  Nothing
    navigates by it: a node's parent is its Dewey prefix, and parsed
    trees leave it ``None``.
    """

    __slots__ = ("tag", "value", "children", "dewey", "parent")

    def __init__(self, tag: str, value: Optional[str] = None) -> None:
        if not tag:
            raise ValueError("XMLNode tag must be a non-empty string")
        self.tag = tag
        self.value = value
        self.children: List[XMLNode] = []
        self.dewey: Dewey = ()
        self.parent: Optional[XMLNode] = None

    # -- construction ------------------------------------------------------

    def add_child(self, child: "XMLNode") -> "XMLNode":
        """Append ``child`` and return it (enables fluent tree building)."""
        if child.parent is not None:
            raise ValueError(
                f"node <{child.tag}> is already attached under <{child.parent.tag}>"
            )
        child.parent = self
        self.children.append(child)
        if self.dewey:
            child._assign_deweys(self.dewey + (len(self.children) - 1,))
        return child

    def child(self, tag: str, value: Optional[str] = None) -> "XMLNode":
        """Create, attach and return a new child node."""
        return self.add_child(XMLNode(tag, value))

    def _assign_deweys(
        self, dewey: Dewey, buckets: Optional[DefaultDict[str, List["XMLNode"]]] = None
    ) -> None:
        """Stamp this subtree with Dewey ids rooted at ``dewey``, in document
        order, appending each node to its tag's list in ``buckets`` if given.

        Iterative on an explicit stack: document depth is data-controlled
        (the columnar index arena has no depth limit), so stamping must not
        be bounded by the interpreter recursion limit.
        """
        stack = [(self, dewey)]
        push = stack.append
        while stack:
            node, node_dewey = stack.pop()
            node.dewey = node_dewey
            if buckets is not None:
                buckets[node.tag].append(node)
            children = node.children
            if children:
                ordinal = len(children)
                for child in reversed(children):  # pushed last, popped first
                    ordinal -= 1
                    push((child, node_dewey + (ordinal,)))

    # -- navigation --------------------------------------------------------

    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Yield this node and all descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["XMLNode"]:
        """Yield strict descendants in document order."""
        subtree = self.iter_subtree()
        next(subtree)  # drop self
        return subtree

    def find_all(self, tag: str) -> List["XMLNode"]:
        """All descendant-or-self nodes with the given tag, document order."""
        return [node for node in self.iter_subtree() if node.tag == tag]

    def depth(self) -> int:
        """Depth of this node within its tree (roots are at depth 0)."""
        return dw.depth(self.dewey)

    def text(self) -> str:
        """Concatenated text of this subtree (own value then descendants)."""
        parts = []
        for node in self.iter_subtree():
            if node.value:
                parts.append(node.value)
        return " ".join(parts)

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:
        suffix = f"={self.value!r}" if self.value is not None else ""
        return f"<{self.tag}{suffix} @{dw.dewey_str(self.dewey)}>"

    def __eq__(self, other: object) -> bool:
        """Identity by Dewey id — valid once attached to a database."""
        return isinstance(other, XMLNode) and self.dewey == other.dewey and self.tag == other.tag

    def __hash__(self) -> int:
        return hash((self.tag, self.dewey))


class XMLDocument:
    """One rooted XML tree inside a database forest."""

    __slots__ = ("root", "ordinal")

    def __init__(self, root: XMLNode, ordinal: int = 0, *, stamped: bool = False) -> None:
        """Adopt ``root`` as document ``ordinal``, stamping its subtree —
        unless ``stamped``: its builder (the parser, or a database's
        bucketing walk) stamped every node for ``ordinal`` already."""
        self.root = root
        self.ordinal = ordinal
        if not stamped:
            root._assign_deweys((ordinal,))

    def iter_nodes(self) -> Iterator[XMLNode]:
        """All nodes of this document in document order."""
        return self.root.iter_subtree()

    def node_count(self) -> int:
        """Number of nodes in the document."""
        return sum(1 for _ in self.iter_nodes())

    def node_by_dewey(self, dewey: Dewey) -> Optional[XMLNode]:
        """Resolve a Dewey id to a node, or ``None`` if out of range."""
        if not dewey or dewey[0] != self.ordinal:
            return None
        node = self.root
        for ordinal in dewey[1:]:
            if ordinal >= len(node.children):
                return None
            node = node.children[ordinal]
        return node

    def __repr__(self) -> str:
        return f"XMLDocument(root=<{self.root.tag}>, ordinal={self.ordinal})"


class Database:
    """A forest of XML documents — the query target and the idf universe.

    A database owns its documents' Dewey space: document ``i`` roots at
    Dewey ``(i,)``, so node ids are unique across the forest and document
    order extends across documents.  ``buckets`` maps each tag to its
    nodes across the forest, in document order, as of when each tree was
    added.
    """

    def __init__(self, documents: Optional[Sequence[XMLDocument]] = None) -> None:
        self.documents: List[XMLDocument] = []
        self.buckets: Dict[str, List[XMLNode]] = {}
        if documents:
            for document in documents:
                self.add_document(document.root)

    @staticmethod
    def from_roots(roots: Iterable[XMLNode]) -> "Database":
        """Build a database from bare root nodes."""
        database = Database()
        for root in roots:
            database.add_document(root)
        return database

    def add_document(
        self, root: XMLNode, *, buckets: Optional[Dict[str, List[XMLNode]]] = None
    ) -> XMLDocument:
        """Attach a tree to the forest, re-stamping its Dewey ids, and add
        its nodes to :attr:`buckets`.

        ``buckets`` is for a tree that was just built stamped for the next
        ordinal, with its nodes by tag in document order (what
        :func:`~repro.xmldb.parser.parse_forest` produces); the database
        takes those lists over.  Any other tree — one detached and
        re-attached included — is re-stamped and bucketed in one walk.
        """
        ordinal = len(self.documents)
        if buckets is None:
            walked: DefaultDict[str, List[XMLNode]] = defaultdict(list)
            root._assign_deweys((ordinal,), walked)
            buckets = walked
        document = XMLDocument(root, ordinal=ordinal, stamped=True)
        self.documents.append(document)
        held = self.buckets
        for tag, nodes in buckets.items():
            bucket = held.get(tag)
            if bucket is None:
                held[tag] = nodes
            else:
                bucket.extend(nodes)
        return document

    # -- access ------------------------------------------------------------

    def iter_nodes(self) -> Iterator[XMLNode]:
        """All nodes of the forest in document order."""
        for document in self.documents:
            yield from document.iter_nodes()

    def node_count(self) -> int:
        """Total number of nodes across all documents."""
        return sum(map(len, self.buckets.values()))

    def node_by_dewey(self, dewey: Dewey) -> Optional[XMLNode]:
        """Resolve a Dewey id anywhere in the forest."""
        if not dewey or dewey[0] >= len(self.documents):
            return None
        return self.documents[dewey[0]].node_by_dewey(dewey)

    def nodes_with_tag(self, tag: str) -> List[XMLNode]:
        """All nodes with a given tag in document order (a copy of its bucket)."""
        return list(self.buckets.get(tag, ()))

    def tag_histogram(self) -> Dict[str, int]:
        """Count of nodes per tag across the forest."""
        return {tag: len(nodes) for tag, nodes in self.buckets.items()}

    def __len__(self) -> int:
        return len(self.documents)

    def __repr__(self) -> str:
        return f"Database({len(self.documents)} documents)"


def build_tree(spec) -> XMLNode:
    """Build a tree from a nested tuple spec — a test/fixture convenience.

    The spec grammar::

        spec  := (tag,) | (tag, value) | (tag, [child_spec, ...])
               | (tag, value, [child_spec, ...])

    Example::

        build_tree(("book", [("title", "wodehouse"), ("price", "48.95")]))
    """
    if isinstance(spec, str):
        return XMLNode(spec)
    tag = spec[0]
    value = None
    children: Sequence = ()
    rest = spec[1:]
    for part in rest:
        if isinstance(part, (list, tuple)) and not isinstance(part, str):
            children = part
        else:
            value = part
    node = XMLNode(tag, value)
    for child_spec in children:
        node.add_child(build_tree(child_spec))
    return node
