"""Per-tag Dewey-ordered indexes — object and columnar backends.

Section 6.2.1 of the paper: *"When a query is executed on an XML document,
the document is parsed and nodes involved in the query are stored in indexes
along with their Dewey encoding."*  :class:`TagIndex` is that structure —
all nodes of one tag in document (= Dewey lexicographic) order — and
:class:`DatabaseIndex` bundles one per tag.  The parse is the one pass: the
parser buckets each node by tag as it attaches it, the
:class:`~repro.xmldb.model.Database` keeps the buckets, and an index takes
its tags' buckets as they are — already in document order, so nothing
walks the forest or sorts again.

The key operation is the *range probe*: all nodes with a given tag inside
the subtree of an ancestor, found by binary search over the Dewey order,
optionally filtered by a :class:`~repro.xmldb.dewey.DepthRange` (so the same
probe serves ``pc``, ``ad`` and composed depth-bounded axes).

Its bulk form, :meth:`TagIndex.related_each`, answers a whole document-
ordered anchor list in one forward merge with the tag's node list — the
structural-join idea, used to fill an Engine's probe memos and the
statistics' fan-outs in one pass per (tag, axis).  It reads ``node.dewey``, so both backends share it;
:meth:`TagIndex.related` stays the on-demand single probe (memo misses,
``scan`` joins, the matcher).

Two interchangeable backends implement the single probe:

- :class:`TagIndex` (``"object"``) — the reference implementation: a sorted
  list of per-node Dewey *tuples*, C-level ``bisect`` for the range, then a
  Python loop re-testing the depth range per candidate with tuple slices;
- :class:`ColumnarTagIndex` (``"columnar"``, the default) — all Dewey
  components of the tag's nodes concatenated into one flat ``array('I')``
  arena plus an offset table (lexicographic order preserved), the range
  located by binary search over arena slices, and the depth-range filter
  reduced to O(1) slicing (descendant axes) or integer length reads
  (bounded axes) — no per-candidate tuple materialization or prefix
  re-checks, because membership in the subtree interval already implies
  the prefix.

Both backends return bit-identical candidates in the same order; they
differ only in the work performed, which each one accounts honestly into a
:class:`ProbeCost` (modeled elementary Dewey-component comparisons — the
deterministic unit the bench trajectory's backend-speedup records gate).
"""

from __future__ import annotations

import bisect
import threading
from array import array
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.xmldb.dewey import DepthRange, Dewey, subtree_interval
from repro.xmldb.model import Database, XMLNode

#: Selectable index backends, preferred first.
INDEX_BACKENDS: Tuple[str, ...] = ("columnar", "object")

#: Backend used when the caller does not choose.
DEFAULT_INDEX_BACKEND = "columnar"

#: Largest Dewey component (sibling ordinal / document ordinal) the
#: columnar arena can store — the capacity of one ``array('I')`` slot.
MAX_ARENA_COMPONENT = 0xFFFFFFFF


def resolve_index_backend(backend: Optional[str] = None) -> str:
    """Resolve an index-backend choice: explicit >
    :data:`DEFAULT_INDEX_BACKEND`.  Raises ``ValueError`` on unknown
    names so misconfiguration fails at index-build time, loudly."""
    chosen = backend or DEFAULT_INDEX_BACKEND
    if chosen not in INDEX_BACKENDS:
        raise ValueError(
            f"unknown index backend {chosen!r}; expected one of {INDEX_BACKENDS}"
        )
    return chosen


def _search_steps(n: int) -> int:
    """Modeled binary-search depth over ``n`` sorted keys: ``ceil(log2(n+1))``."""
    return n.bit_length()


class ProbeCost:
    """Deterministic accounting of the work one index's probes perform.

    ``units`` counts *modeled boxed component comparisons* — the unit the
    structural-join literature's region/array encodings exist to remove.
    On the object backend every lexicographic step compares Dewey *tuples*
    of boxed Python ints, so a binary-search step charges the probe-key
    length (``len(anchor) + 1`` components a tuple comparison may walk)
    and every per-candidate depth-range re-test charges ``len(anchor) + 2``
    (prefix slice + two bound checks).  On the columnar backend a search
    step is one vectorized ``array('I')`` comparison over unboxed machine
    ints — charged 1 — and candidates inside the subtree interval need no
    prefix re-check at all: unbounded descendant axes charge nothing per
    candidate, bounded axes charge 1 (an offset-difference length test).
    The counts depend only on index contents and probe sequence — never on
    the machine — so the bench trajectory can gate them as deterministic
    units.  Mutation is lock-guarded: Whirlpool-M probes from every server
    thread.
    """

    __slots__ = ("_lock", "units", "probes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.units = 0
        self.probes = 0

    def charge(self, units: int, probes: int = 1) -> None:
        """Account ``probes`` probes costing ``units`` modeled comparisons."""
        with self._lock:
            self.units += units
            self.probes += probes

    def snapshot(self) -> Tuple[int, int]:
        """(units, probes) read atomically."""
        with self._lock:
            return self.units, self.probes

    def reset(self) -> None:
        with self._lock:
            self.units = 0
            self.probes = 0

    def __repr__(self) -> str:
        units, probes = self.snapshot()
        return f"ProbeCost(units={units}, probes={probes})"


class TagIndex:
    """All nodes carrying one tag, in document order (object backend).

    ``nodes`` must come in document order, as a database's bucket does;
    the index copies the list and does not sort it.
    """

    backend = "object"

    __slots__ = ("tag", "nodes", "_deweys", "cost")

    def __init__(self, tag: str, nodes: Iterable[XMLNode] = ()) -> None:
        self.tag = tag
        self.nodes: List[XMLNode] = list(nodes)
        self._deweys: List[Dewey] = [node.dewey for node in self.nodes]
        self.cost = ProbeCost()

    def insert(self, node: XMLNode) -> None:
        """Insert one node, keeping document order."""
        if node.tag != self.tag:
            raise ValueError(f"node tag {node.tag!r} does not match index tag {self.tag!r}")
        position = bisect.bisect_left(self._deweys, node.dewey)
        self.nodes.insert(position, node)
        self._deweys.insert(position, node.dewey)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[XMLNode]:
        return iter(self.nodes)

    def all(self) -> List[XMLNode]:
        """All indexed nodes in document order."""
        return list(self.nodes)

    def _range(self, ancestor: Dewey) -> Tuple[int, int]:
        """Half-open index interval of ``ancestor``'s subtree (incl. self)."""
        lo, hi = subtree_interval(ancestor)
        start = bisect.bisect_left(self._deweys, lo)
        end = bisect.bisect_left(self._deweys, hi, start)
        return start, end

    def _range_units(self, anchor: Dewey) -> int:
        """Modeled cost of locating the subtree interval: two binary
        searches whose lexicographic comparisons each examine up to the
        probe-key length components, plus the O(1) self-boundary check."""
        return 2 * _search_steps(len(self.nodes)) * (len(anchor) + 1) + 1

    def in_subtree(self, ancestor: Dewey, include_self: bool = False) -> List[XMLNode]:
        """Indexed nodes inside the subtree rooted at ``ancestor``.

        Binary search over the Dewey order: the subtree of ``ancestor`` is
        a contiguous Dewey interval.  The ancestor itself, when indexed,
        can only sit at the interval start (it is the interval's lower
        bound), so excluding it is an O(1) boundary check — not a filter
        pass over the slice.
        """
        start, end = self._range(ancestor)
        if not include_self and start < end and self._deweys[start] == ancestor:
            start += 1
        self.cost.charge(self._range_units(ancestor))
        return self.nodes[start:end]

    def related(self, anchor: Dewey, axis: DepthRange) -> List[XMLNode]:
        """Indexed nodes ``n`` such that ``axis.matches(anchor, n.dewey)``.

        ``axis`` relates ``anchor`` (above) to the returned nodes (below);
        the probe narrows to the subtree interval first, then applies the
        depth-range filter.  A ``self`` axis degenerates to an exact lookup.
        """
        if axis.is_self():
            position = bisect.bisect_left(self._deweys, anchor)
            self.cost.charge((_search_steps(len(self.nodes)) + 1) * (len(anchor) + 1))
            if position < len(self._deweys) and self._deweys[position] == anchor:
                return [self.nodes[position]]
            return []
        start, end = self._range(anchor)
        if axis.lo != 0 and start < end and self._deweys[start] == anchor:
            start += 1
        candidates = self.nodes[start:end]
        # Reference semantics: re-test the composed axis per candidate
        # (prefix slice + depth bounds) — the tuple-compare loop the
        # columnar backend exists to eliminate.
        self.cost.charge(
            self._range_units(anchor) + (end - start) * (len(anchor) + 2)
        )
        return [node for node in candidates if axis.matches(anchor, node.dewey)]

    def related_each(self, anchors: Sequence[Dewey], axis: DepthRange) -> List[List[XMLNode]]:
        """``[self.related(anchor, axis) for anchor in anchors]``, in one merge.

        Anchors and indexed nodes are both in document order, so one
        forward pass serves every anchor: a start pointer only moves
        forward, to each anchor's subtree interval, and the interval's end
        is scanned forward from it — no binary search.  Reads ``node.dewey``,
        so both backends share it.  Charges one probe per anchor and one
        unit per index position stepped over; raises ``ValueError`` when an
        anchor precedes the one before it.
        """
        nodes = self.nodes
        count = len(nodes)
        lo, hi = axis.lo, axis.hi
        results: List[List[XMLNode]] = []
        start = 0
        scanned = 0
        previous: Optional[Dewey] = None
        for anchor in anchors:
            if previous is not None and anchor < previous:
                raise ValueError(
                    f"anchor {anchor} follows {previous}: anchors must be in document order"
                )
            previous = anchor
            while start < count and nodes[start].dewey < anchor:
                start += 1
            at_anchor = start < count and nodes[start].dewey == anchor
            if hi == 0:  # the self axis: the anchor itself, or nothing
                results.append([nodes[start]] if at_anchor else [])
                continue
            # The subtree interval's end (:func:`subtree_interval`), inline.
            successor = anchor[:-1] + (anchor[-1] + 1,)
            end = start
            while end < count and nodes[end].dewey < successor:
                end += 1
            scanned += end - start
            first = start + 1 if lo and at_anchor else start
            if hi is None and lo <= 1:
                results.append(nodes[first:end])
                continue
            low = len(anchor) + lo
            high = None if hi is None else len(anchor) + hi
            results.append(
                [
                    node
                    for node in nodes[first:end]
                    if low <= len(node.dewey) and (high is None or len(node.dewey) <= high)
                ]
            )
        self.cost.charge(start + scanned, len(results))
        return results

    def count_in_subtree(self, ancestor: Dewey) -> int:
        """Number of indexed nodes strictly inside ``ancestor``'s subtree."""
        start, end = self._range(ancestor)
        count = end - start
        if start < len(self._deweys) and self._deweys[start] == ancestor:
            count -= 1
        self.cost.charge(self._range_units(ancestor))
        return count


def _build_columns(nodes: List[XMLNode]) -> Tuple[array, array]:
    """(arena, offsets) for a document-ordered node list.

    The arena concatenates every node's Dewey components; ``offsets[i]``
    is node ``i``'s first component, ``offsets[i + 1]`` one past its last
    (so lengths are offset differences and no separate length table is
    needed).  Rejects components at or beyond the ``array('I')`` capacity
    (strictly *at* too: the subtree-interval successor key adds one to the
    last component and must still fit an arena slot), checked once over
    the built arena.
    """
    deweys = [node.dewey for node in nodes]
    try:
        arena = array("I", chain.from_iterable(deweys))
        # Of the values a slot holds only MAX_ARENA_COMPONENT (all ones) is
        # too large: one byte search rules it out, comparing no component.
        fits = b"\xff" * 4 not in arena.tobytes() or MAX_ARENA_COMPONENT not in arena
    except OverflowError:  # 2**32 or more: no array('I') slot holds it
        fits = False
    if not fits:
        dewey = max(deweys, key=lambda components: max(components, default=0))
        raise ValueError(
            f"Dewey {dewey} exceeds the columnar arena component capacity "
            f"({MAX_ARENA_COMPONENT}); use the object index backend"
        )
    offsets = array("I", accumulate(map(len, deweys), initial=0))
    return arena, offsets


class ColumnarTagIndex(TagIndex):
    """Array-backed tag index: Deweys in one flat ``array('I')`` arena.

    Storage is three parallel structures in document order — the node
    list, the component arena, and the ``n + 1`` offset table.  Probes
    binary-search the arena (slice comparisons are lexicographic, exactly
    the Dewey document order) and resolve depth ranges from offset
    differences; candidates inside a subtree interval need no prefix
    re-check, so descendant probes are pure slices.

    Shared across Whirlpool-M server threads and service workers like
    every index: reads are lock-free over immutable-once-built arrays,
    and :meth:`insert` (rare — bulk construction goes through
    ``__init__``, from a document-ordered node list as
    :class:`TagIndex`'s) swaps freshly built columns under ``_lock``.
    """

    backend = "columnar"

    __slots__ = ("_arena", "_offsets", "_lock")

    def __init__(self, tag: str, nodes: Iterable[XMLNode] = ()) -> None:
        self.tag = tag
        self.nodes = list(nodes)
        self._arena, self._offsets = _build_columns(self.nodes)
        self._lock = threading.Lock()
        self.cost = ProbeCost()

    def insert(self, node: XMLNode) -> None:
        """Insert one node, keeping document order (rebuilds the columns)."""
        if node.tag != self.tag:
            raise ValueError(f"node tag {node.tag!r} does not match index tag {self.tag!r}")
        with self._lock:
            position = self._bisect(array("I", node.dewey))
            nodes = list(self.nodes)
            nodes.insert(position, node)
            arena, offsets = _build_columns(nodes)
            self.nodes = nodes
            self._arena = arena
            self._offsets = offsets

    # -- arena search ------------------------------------------------------

    def _bisect(self, key: array, lo: int = 0) -> int:
        """``bisect_left`` over the arena: first index whose Dewey is
        ``>= key`` in lexicographic (= document) order."""
        arena, offsets = self._arena, self._offsets
        hi = len(self.nodes)
        while lo < hi:
            mid = (lo + hi) // 2
            if arena[offsets[mid] : offsets[mid + 1]] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _range(self, ancestor: Dewey) -> Tuple[int, int]:
        lo, hi = subtree_interval(ancestor)
        start = self._bisect(array("I", lo))
        end = self._bisect(array("I", hi), start)
        return start, end

    def _range_units(self, anchor: Dewey) -> int:
        """Modeled cost of locating the subtree interval: two binary
        searches at one *vectorized* arena comparison per step (unboxed
        machine ints, not per-component boxed compares), plus the O(1)
        self-boundary check."""
        return 2 * _search_steps(len(self.nodes)) + 1

    def _length(self, position: int) -> int:
        """Number of Dewey components of node ``position`` (offset diff)."""
        return self._offsets[position + 1] - self._offsets[position]

    # -- probes ------------------------------------------------------------

    def in_subtree(self, ancestor: Dewey, include_self: bool = False) -> List[XMLNode]:
        """Indexed nodes inside the subtree rooted at ``ancestor`` —
        binary search over the arena, then one slice."""
        start, end = self._range(ancestor)
        if not include_self and start < end and self._length(start) == len(ancestor):
            # Same length inside [ancestor, successor) ⇒ equal to the
            # ancestor, and it can only sit at the interval start.
            start += 1
        self.cost.charge(self._range_units(ancestor))
        return self.nodes[start:end]

    def related(self, anchor: Dewey, axis: DepthRange) -> List[XMLNode]:
        """Depth-range probe resolved from the offset table.

        Everything inside the subtree interval already has ``anchor`` as
        a Dewey prefix, so the axis reduces to a length condition:
        unbounded descendant(-or-self) axes are pure slices, bounded axes
        filter on offset differences — no tuple comparisons at all.
        """
        nodes = self.nodes
        if axis.is_self():
            key = array("I", anchor)
            position = self._bisect(key)
            self.cost.charge(_search_steps(len(nodes)) + 1)
            if position < len(nodes) and self._arena[
                self._offsets[position] : self._offsets[position + 1]
            ] == key:
                return [nodes[position]]
            return []
        start, end = self._range(anchor)
        anchor_length = len(anchor)
        if axis.lo != 0 and start < end and self._length(start) == anchor_length:
            start += 1
        if axis.hi is None and axis.lo <= 1:
            # Descendant / descendant-or-self: the slice is the answer
            # (the only interval member at the anchor's own length is the
            # anchor, excluded above when the axis demands strict descent).
            self.cost.charge(self._range_units(anchor))
            return nodes[start:end]
        low = anchor_length + axis.lo
        high = None if axis.hi is None else anchor_length + axis.hi
        offsets = self._offsets
        self.cost.charge(self._range_units(anchor) + (end - start))
        return [
            nodes[position]
            for position in range(start, end)
            if low <= offsets[position + 1] - offsets[position]
            and (high is None or offsets[position + 1] - offsets[position] <= high)
        ]

    def count_in_subtree(self, ancestor: Dewey) -> int:
        """Number of indexed nodes strictly inside ``ancestor``'s subtree."""
        start, end = self._range(ancestor)
        count = end - start
        if start < end and self._length(start) == len(ancestor):
            count -= 1
        self.cost.charge(self._range_units(ancestor))
        return count


class _EmptyTagIndex(TagIndex):
    """Shared immutable placeholder returned for lookups of absent tags.

    One instance serves every missing tag of every database: the read
    path of :meth:`DatabaseIndex.__getitem__` must never mutate shared
    state (the service layer shares one index across worker threads), so
    a miss cannot allocate-and-cache per tag.  ``insert`` is refused —
    anything that wants a mutable per-tag index must go through
    ``DatabaseIndex.indexes`` explicitly.
    """

    __slots__ = ()

    def insert(self, node: XMLNode) -> None:
        raise TypeError(
            "the shared empty TagIndex is immutable; register the tag on "
            "the DatabaseIndex before inserting nodes"
        )


#: The one shared miss result (empty node list, placeholder tag).
_EMPTY_TAG_INDEX = _EmptyTagIndex("")

_BACKEND_CLASSES: Dict[str, type] = {
    "object": TagIndex,
    "columnar": ColumnarTagIndex,
}


class DatabaseIndex:
    """Tag → :class:`TagIndex` map over a whole database forest."""

    def __init__(
        self,
        database: Database,
        tags: Optional[Iterable[str]] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Index ``database``; restrict to ``tags`` when given.

        The paper indexes only "nodes involved in the query"; passing the
        query's tag set reproduces that, while ``tags=None`` indexes
        everything (convenient for statistics and tests).  ``backend``
        picks the per-tag index implementation (``"columnar"`` or
        ``"object"``); ``None`` takes the columnar default.
        """
        self.database = database
        self.backend = resolve_index_backend(backend)
        index_cls = _BACKEND_CLASSES[self.backend]
        # The database's buckets are the indexes' inputs, in document order;
        # a wanted tag the forest lacks indexes empty.
        buckets = database.buckets
        self.indexes: Dict[str, TagIndex] = {
            tag: index_cls(tag, buckets.get(tag, ()))
            for tag in (buckets if tags is None else tags)
        }

    def __getitem__(self, tag: str) -> TagIndex:
        """The tag's index, or the shared empty index when absent.

        Deliberately non-mutating: worker threads of the query service
        share one index per cached engine, so a missing-tag *read* must
        not write ``self.indexes`` (a plain dict, check-then-insert on it
        is a data race).  Absent tags resolve to one immutable shared
        empty :class:`TagIndex`.
        """
        index = self.indexes.get(tag)
        if index is None:
            return _EMPTY_TAG_INDEX
        return index

    def __contains__(self, tag: str) -> bool:
        return tag in self.indexes

    def tags(self) -> List[str]:
        """All indexed tags."""
        return sorted(self.indexes)

    def count(self, tag: str) -> int:
        """Number of nodes with ``tag`` (0 when the tag is absent)."""
        index = self.indexes.get(tag)
        return len(index) if index is not None else 0

    def related(self, tag: str, anchor: Dewey, axis: DepthRange) -> List[XMLNode]:
        """Convenience probe: nodes with ``tag`` related to ``anchor`` by ``axis``."""
        index = self.indexes.get(tag)
        if index is None:
            return []
        return index.related(anchor, axis)

    def related_each(
        self, tag: str, anchors: Sequence[Dewey], axis: DepthRange
    ) -> List[List[XMLNode]]:
        """:meth:`TagIndex.related_each` on ``tag``'s index; an absent tag
        answers (and checks the anchor order) as an empty index would."""
        index = self.indexes.get(tag)
        if index is None:
            index = TagIndex(tag)  # private: the shared empty index stays unwritten
        return index.related_each(anchors, axis)

    # -- probe accounting --------------------------------------------------

    def probe_cost(self) -> Tuple[int, int]:
        """Aggregate (units, probes) across every tag index."""
        units = 0
        probes = 0
        for index in self.indexes.values():
            tag_units, tag_probes = index.cost.snapshot()
            units += tag_units
            probes += tag_probes
        return units, probes

    def reset_probe_cost(self) -> None:
        """Zero every tag index's probe accounting (bench isolation)."""
        for index in self.indexes.values():
            index.cost.reset()
