"""Dewey identifiers and the depth-range axis algebra.

Every node in a parsed document carries a *Dewey identifier*: the tuple of
sibling ordinals along the path from the root to the node.  The root of the
``i``-th tree in a forest has Dewey ``(i,)``; its third child has Dewey
``(i, 2)`` and so on.  Dewey ids make the XPath structural axes cheap,
index-friendly predicates:

- ``b`` is a *child* of ``a``      iff ``b.dewey[:-1] == a.dewey``;
- ``b`` is a *descendant* of ``a`` iff ``a.dewey`` is a proper prefix of
  ``b.dewey``;
- ``b`` is a *following sibling* of ``a`` iff they share a parent prefix and
  ``b``'s last ordinal is larger.

The paper composes axes along query paths (Definition 4.1: component
predicates are root-to-node axis compositions).  We represent a composed
axis as a :class:`DepthRange` — the admissible difference in depth between
the two nodes on one ancestor chain:

- ``pc``  = depth difference exactly 1  → ``DepthRange(1, 1)``
- ``ad``  = depth difference ≥ 1        → ``DepthRange(1, None)``
- ``self``= depth difference exactly 0  → ``DepthRange(0, 0)``
- ``pc∘pc`` = exactly 2                 → ``DepthRange(2, 2)``
- ``pc∘ad`` = ≥ 2                       → ``DepthRange(2, None)``

Composition is interval addition, and the paper's relaxation of a composed
predicate (used by ``getComposition`` in Algorithm 1) drops the depth bounds
down to plain descendant: :meth:`DepthRange.relaxed`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

Dewey = Tuple[int, ...]
"""A Dewey identifier: tuple of sibling ordinals from the root."""


def dewey_str(dewey: Dewey) -> str:
    """Render a Dewey id in the conventional dotted form, e.g. ``0.2.1``."""
    return ".".join(str(component) for component in dewey)


def parse_dewey(text: str) -> Dewey:
    """Parse a dotted Dewey string (``"0.2.1"``) back into a tuple."""
    if not text:
        return ()
    return tuple(int(part) for part in text.split("."))


def is_self(a: Dewey, b: Dewey) -> bool:
    """True iff the two ids denote the same node."""
    return a == b


def is_child(parent: Dewey, child: Dewey) -> bool:
    """True iff ``child`` is a direct child of ``parent``."""
    return len(child) == len(parent) + 1 and child[:-1] == parent


def is_parent(child: Dewey, parent: Dewey) -> bool:
    """True iff ``parent`` is the direct parent of ``child``."""
    return is_child(parent, child)

def is_descendant(ancestor: Dewey, descendant: Dewey) -> bool:
    """True iff ``descendant`` lies strictly below ``ancestor``."""
    return (
        len(descendant) > len(ancestor)
        and descendant[: len(ancestor)] == ancestor
    )


def is_descendant_or_self(ancestor: Dewey, node: Dewey) -> bool:
    """True iff ``node`` equals ``ancestor`` or lies below it."""
    return node[: len(ancestor)] == ancestor


def is_following_sibling(a: Dewey, b: Dewey) -> bool:
    """True iff ``b`` is a later sibling of ``a`` (same parent, larger ordinal)."""
    return (
        len(a) == len(b)
        and len(a) >= 2  # forest roots have no parent, hence no siblings
        and a[:-1] == b[:-1]
        and b[-1] > a[-1]
    )


def is_sibling(a: Dewey, b: Dewey) -> bool:
    """True iff ``a`` and ``b`` are distinct nodes sharing a parent."""
    return len(a) == len(b) and len(a) >= 2 and a[:-1] == b[:-1] and a != b


def common_prefix(a: Dewey, b: Dewey) -> Dewey:
    """Dewey id of the lowest common ancestor-or-self of two nodes."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return a[:i]


def depth(dewey: Dewey) -> int:
    """Depth of a node: the root of each tree has depth 0."""
    return len(dewey) - 1


def subtree_interval(dewey: Dewey) -> Tuple[Dewey, Dewey]:
    """Half-open Dewey interval ``[lo, hi)`` covering the subtree of a node.

    Any node ``n`` satisfies ``lo <= n.dewey < hi`` iff ``n`` is the node
    itself or one of its descendants; the bound works because Dewey tuples
    compare lexicographically.  Used for index range scans.

    The empty Dewey ``()`` names no node (every attached node carries at
    least its document ordinal), so it has no subtree and is rejected with
    :class:`ValueError` instead of the ``IndexError`` the tuple arithmetic
    used to raise.
    """
    if not dewey:
        raise ValueError("the empty Dewey names no node and has no subtree interval")
    return dewey, dewey[:-1] + (dewey[-1] + 1,)


class DepthRange:
    """An admissible depth-difference interval along one ancestor chain.

    ``DepthRange(lo, hi)`` relates node ``a`` to node ``b`` iff ``a``'s Dewey
    is a prefix of ``b``'s and ``lo <= len(b) - len(a) <= hi``.  ``hi=None``
    means unbounded (descendant at any depth ≥ ``lo``).

    Instances are immutable and hashable, so they can key caches of compiled
    predicates.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: Optional[int]) -> None:
        if lo < 0:
            raise ValueError(f"DepthRange lower bound must be >= 0, got {lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"DepthRange upper bound {hi} below lower bound {lo}")
        self.lo = lo
        self.hi = hi

    # -- canonical axes ----------------------------------------------------

    @staticmethod
    def self_axis() -> "DepthRange":
        """The ``self`` axis: same node."""
        return DepthRange(0, 0)

    @staticmethod
    def pc() -> "DepthRange":
        """The ``pc`` (parent-child) axis: depth difference exactly 1."""
        return DepthRange(1, 1)

    @staticmethod
    def ad() -> "DepthRange":
        """The ``ad`` (ancestor-descendant) axis: depth difference ≥ 1."""
        return DepthRange(1, None)

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "DepthRange") -> "DepthRange":
        """Sequential composition: ``a —self→ x —other→ b``.

        Interval addition: lower bounds add; upper bounds add unless either
        is unbounded.
        """
        lo = self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return DepthRange(lo, hi)

    def relaxed(self) -> "DepthRange":
        """Edge-generalized version: keep only "somewhere below" (or self).

        ``pc`` relaxes to ``ad``; any composed bounded range relaxes to
        descendant-at-any-depth.  ``self`` stays ``self``.

        Relaxation may only *widen* the predicate (Algorithm 1's
        ``getComposition`` substitutes the relaxed axis wherever the exact
        one fails): the result always :meth:`subsumes` the original.  In
        particular a self-inclusive range (``lo == 0``) keeps the self
        case and relaxes to descendant-or-self — dropping it would evict
        valid matches from relaxed answers.
        """
        if self.hi == 0:
            return self
        if self.lo == 0:
            return DepthRange(0, None)
        return DepthRange(1, None)

    def subsumes(self, other: "DepthRange") -> bool:
        """True iff every pair related by ``other`` is related by ``self``."""
        if other.lo < self.lo:
            return False
        if self.hi is None:
            return True
        if other.hi is None:
            return False
        return other.hi <= self.hi

    # -- evaluation --------------------------------------------------------

    def matches(self, ancestor: Dewey, node: Dewey) -> bool:
        """Evaluate the range against two Dewey ids (ancestor chain check)."""
        diff = len(node) - len(ancestor)
        if diff < self.lo:
            return False
        if self.hi is not None and diff > self.hi:
            return False
        return node[: len(ancestor)] == ancestor

    def is_exact_pc(self) -> bool:
        """True iff this is the plain parent-child axis."""
        return self.lo == 1 and self.hi == 1

    def is_ad(self) -> bool:
        """True iff this is the unbounded ancestor-descendant axis."""
        return self.lo == 1 and self.hi is None

    def is_self(self) -> bool:
        """True iff this is the self axis."""
        return self.lo == 0 and self.hi == 0

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DepthRange)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_exact_pc():
            return "DepthRange(pc)"
        if self.is_ad():
            return "DepthRange(ad)"
        if self.is_self():
            return "DepthRange(self)"
        hi = "inf" if self.hi is None else str(self.hi)
        return f"DepthRange({self.lo}, {hi})"


def sort_deweys(deweys: Iterable[Dewey]) -> list:
    """Sort Dewey ids in document order (lexicographic tuple order)."""
    return sorted(deweys)
