"""Partial matches — the tuples that flow through Whirlpool.

A partial match instantiates the query root (always) plus a subset of the
other query nodes, each either with a data node or with the *deleted*
marker (leaf-deletion semantics).  It carries:

- its **current score** — the sum of the contributions granted so far;
- its **visited set** — which servers have processed it (the paper's bit
  vector; here a frozenset of node ids);
- its **upper bound** — current score plus the most every unvisited
  server can still add for its root: the *maximum possible final score*
  that drives both pruning and the adaptive priority queues;
- its root's **row of the bound table** (``root_bounds``), which the seed
  is given and every extension inherits.

Matches are immutable once created; servers spawn new extended matches.
Scores are monotone along any extension chain, which is what makes pruning
against the current top-k threshold safe.

What a match stores.  An extension keeps its root, its row, score, bound,
visited set and the one step that made it — ``(parent, node id, candidate,
quality)`` — so :meth:`PartialMatch.extend` is O(1) in the query size.
``instantiations`` and ``qualities`` remain public dicts with the contents
and key order an eager copy per ``extend`` would give, but exist only from
their first read on (then they are kept, like ``encoded``): exact mode's
conditional predicates, the snapshot codec, ``explain`` / ``describe`` and
user code read them; a fault-free relaxed run without a trace never does.
The sibling extensions of one server operation share one ``visited``
frozenset *object*: it is immutable and no match rebinds its own, so
sharing is invisible — and it is how
:meth:`~repro.core.base.EngineBase.absorb_extensions` recognises a batch
whose bound and completeness it may compute once.
"""

from __future__ import annotations

import collections
import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sized, Tuple

from repro.scoring.model import MatchQuality
from repro.xmldb.model import XMLNode

if TYPE_CHECKING:
    from repro.core.server import RootBounds

_match_counter = itertools.count()


def reserve_arrivals(count: int) -> int:
    """Take ``count`` arrival numbers, ``first`` to ``first + count - 1``,
    and return ``first``: every match created after this call arrives
    later than all of them.  A run that creates a match only when it is
    needed gives it one of these, so a queue breaks its key ties exactly
    as it would have had the match been created here."""
    first = next(_match_counter)
    if count > 1:
        # Consumed at C speed: the values are spent, not materialized.
        collections.deque(itertools.islice(_match_counter, count - 1), maxlen=0)
    return first

DELETED = None
"""Instantiation marker for a deleted (optional, unmatched) query node."""

#: One :meth:`PartialMatch.extend`: (parent, node id, candidate, quality).
_Step = Tuple["PartialMatch", int, Optional[XMLNode], MatchQuality]


class PartialMatch:
    """One tuple: root image + per-node instantiations, score, bound."""

    __slots__ = (
        "match_id",
        "root_node",
        "root_bounds",
        "visited",
        "score",
        "upper_bound",
        "arrival",
        "encoded",
        "_instantiations",
        "_qualities",
        "_step",
    )

    def __init__(
        self,
        root_node: XMLNode,
        instantiations: Optional[Dict[int, Optional[XMLNode]]],
        qualities: Optional[Dict[int, MatchQuality]],
        visited: FrozenSet[int],
        score: float,
        step: Optional[_Step] = None,
        root_bounds: Optional["RootBounds"] = None,
    ) -> None:
        self.match_id = next(_match_counter)
        self.root_node = root_node
        #: The root's :class:`~repro.core.server.RootBounds`, set by the
        #: engine that seeds or decodes the match; extensions inherit it.
        self.root_bounds = root_bounds
        self._instantiations = instantiations
        self._qualities = qualities
        #: ``(parent, node_id, candidate, quality)`` for a match made by
        #: :meth:`extend`, whose dict views are built on first read.
        self._step = step
        self.visited = visited
        self.score = score
        #: Set by the engine (``EngineBase.bind`` for a seed or a decoded
        #: match, ``EngineBase.absorb_extensions`` for an extension).
        self.upper_bound = score
        self.arrival = self.match_id  # FIFO tiebreaker / arrival order
        #: The snapshot codec's payload for this match — ``[root Dewey,
        #: score, [[node id, Dewey or None, quality], ...]]`` in visit
        #: order — kept by :func:`~repro.recovery.codec.encode_match` once
        #: it has built it; an extension's payload reuses its parent's.
        self.encoded: Optional[List[Any]] = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def initial(root_node: XMLNode, root_score: float = 0.0) -> "PartialMatch":
        """The match the root server emits: only the root is instantiated."""
        return PartialMatch(
            root_node=root_node,
            instantiations={},
            qualities={},
            visited=frozenset(),
            score=root_score,
        )

    def extend(
        self,
        node_id: int,
        candidate: Optional[XMLNode],
        quality: MatchQuality,
        contribution: float,
        visited: Optional[FrozenSet[int]] = None,
    ) -> "PartialMatch":
        """Spawn the extension where ``node_id`` is instantiated by
        ``candidate`` (or deleted when ``candidate is None``).

        O(1): the extension records this one step and shares everything
        else with ``self``.  ``visited`` is ``self.visited | {node_id}``
        when the caller has built it already — a server operation builds
        it once and hands the same frozenset to every sibling.
        """
        return PartialMatch(
            self.root_node,
            None,
            None,
            self.visited | {node_id} if visited is None else visited,
            self.score + contribution,
            (self, node_id, candidate, quality),
            self.root_bounds,
        )

    # -- the dict views --------------------------------------------------------

    @property
    def instantiations(self) -> Dict[int, Optional[XMLNode]]:
        """Query node id → data node (``None``: deleted), in visit order."""
        instantiations = self._instantiations
        if instantiations is None:
            instantiations = self._materialize()[0]
        return instantiations

    @property
    def qualities(self) -> Dict[int, MatchQuality]:
        """Query node id → match quality, in visit order."""
        qualities = self._qualities
        if qualities is None:
            qualities = self._materialize()[1]
        return qualities

    def trail(
        self, stop: Callable[["PartialMatch"], bool]
    ) -> Tuple["PartialMatch", List[_Step]]:
        """Walk back the :meth:`extend` chain: the nearest match — ``self``
        or an ancestor — that ``stop`` accepts or that was built outside
        :meth:`extend`, and the steps from it to ``self``, newest first."""
        steps: List[_Step] = []
        match = self
        while not stop(match):
            step = match._step
            if step is None:
                break
            steps.append(step)
            match = step[0]
        return match, steps

    def _materialize(
        self,
    ) -> Tuple[Dict[int, Optional[XMLNode]], Dict[int, MatchQuality]]:
        """Build and keep both dict views: the nearest ancestor that has
        them, copied, with the steps since replayed oldest first — the
        contents and key order an eager copy per :meth:`extend` produced.
        Two threads racing here build equal dicts; either pair may stay."""
        base, steps = self.trail(_has_dicts)
        inherited, inherited_qualities = base._instantiations, base._qualities
        if inherited is None or inherited_qualities is None:
            raise ValueError("a match built outside extend() needs its dicts")
        instantiations = dict(inherited)
        qualities = dict(inherited_qualities)
        for _, node_id, candidate, quality in reversed(steps):
            instantiations[node_id] = candidate
            qualities[node_id] = quality
        self._instantiations = instantiations
        self._qualities = qualities
        return instantiations, qualities

    # -- bound management ------------------------------------------------------

    def max_next_score(
        self, node_id: int, max_contributions: Dict[int, float]
    ) -> float:
        """Section 6.1.3's 'maximum possible next score' at one server."""
        return self.score + max_contributions.get(node_id, 0.0)

    # -- inspection --------------------------------------------------------------

    def unvisited(self, server_ids: Iterable[int]) -> List[int]:
        """Server node ids this match has not gone through yet."""
        return [node_id for node_id in server_ids if node_id not in self.visited]

    def is_complete(self, server_ids: Sized) -> bool:
        """True iff every server has processed this match (``visited``
        only ever holds server ids, so counting them is enough)."""
        return len(self.visited) >= len(server_ids)

    def instantiated_nodes(self) -> Dict[int, XMLNode]:
        """Node id → data node for the non-deleted instantiations."""
        return {
            node_id: node
            for node_id, node in self.instantiations.items()
            if node is not None
        }

    def deleted_nodes(self) -> List[int]:
        """Node ids left uninstantiated via leaf deletion."""
        return [
            node_id for node_id, node in self.instantiations.items() if node is None
        ]

    def exact_everywhere(self) -> bool:
        """True iff every instantiated node matched its exact predicate."""
        return all(
            quality is MatchQuality.EXACT for quality in self.qualities.values()
        )

    def explain(self, pattern) -> str:
        """Human-readable relaxation provenance against ``pattern``.

        One line per query node: matched exactly, matched through
        relaxation (edge generalization / subtree promotion — the node
        satisfies only the relaxed root-anchored predicate), or deleted
        (leaf deletion).  Nodes no server has visited yet are reported as
        pending.
        """
        lines = [f"answer root: {self.root_node!r} (score {self.score:.4f})"]
        for node in pattern.non_root_nodes():
            instantiated = self.instantiations.get(node.node_id)
            quality = self.qualities.get(node.node_id)
            if node.node_id not in self.visited:
                lines.append(f"  {node.label()}: pending (not yet processed)")
            elif instantiated is None:
                lines.append(
                    f"  {node.label()}: DELETED (leaf deletion — no "
                    f"qualifying {node.tag} under this root)"
                )
            elif quality is MatchQuality.EXACT:
                lines.append(
                    f"  {node.label()}: exact match at {instantiated!r}"
                )
            else:
                lines.append(
                    f"  {node.label()}: RELAXED match at {instantiated!r} "
                    f"(edge generalization / subtree promotion — found at "
                    f"depth {len(instantiated.dewey) - len(self.root_node.dewey)}, "
                    f"outside the exact axis)"
                )
        return "\n".join(lines)

    def describe(self) -> str:
        """Readable one-liner for logs and examples."""
        parts = [f"root={self.root_node!r}", f"score={self.score:.4f}"]
        for node_id in sorted(self.instantiations):
            node = self.instantiations[node_id]
            quality = self.qualities[node_id].value
            if node is None:
                parts.append(f"#{node_id}:deleted")
            else:
                parts.append(f"#{node_id}:{node.tag}({quality})")
        return " ".join(parts)

    def __repr__(self) -> str:
        return (
            f"PartialMatch(id={self.match_id}, root={self.root_node.dewey}, "
            f"score={self.score:.4f}, bound={self.upper_bound:.4f}, "
            f"visited={sorted(self.visited)})"
        )


def _has_dicts(match: PartialMatch) -> bool:
    """:meth:`PartialMatch.trail`'s stop for the dict views."""
    return match._instantiations is not None and match._qualities is not None
