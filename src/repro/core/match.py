"""Partial matches — the tuples that flow through Whirlpool.

A partial match instantiates the query root (always) plus a subset of the
other query nodes, each either with a data node or with the *deleted*
marker (leaf-deletion semantics).  It carries:

- its **current score** — the sum of the contributions granted so far;
- its **visited set** — which servers have processed it (the paper's bit
  vector; here a frozenset of node ids);
- its **upper bound** — current score plus the maximum contribution of
  every unvisited server: the *maximum possible final score* that drives
  both pruning and the adaptive priority queues.

Matches are immutable once created; servers spawn new extended matches.
Scores are monotone along any extension chain, which is what makes pruning
against the current top-k threshold safe.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sized

from repro.scoring.model import MatchQuality
from repro.xmldb.model import XMLNode

_match_counter = itertools.count()

DELETED = None
"""Instantiation marker for a deleted (optional, unmatched) query node."""


class PartialMatch:
    """One tuple: root image + per-node instantiations, score, bound."""

    __slots__ = (
        "match_id",
        "root_node",
        "instantiations",
        "qualities",
        "visited",
        "score",
        "upper_bound",
        "arrival",
        "encoded",
    )

    def __init__(
        self,
        root_node: XMLNode,
        instantiations: Dict[int, Optional[XMLNode]],
        qualities: Dict[int, MatchQuality],
        visited: FrozenSet[int],
        score: float,
    ) -> None:
        self.match_id = next(_match_counter)
        self.root_node = root_node
        self.instantiations = instantiations
        self.qualities = qualities
        self.visited = visited
        self.score = score
        self.upper_bound = score  # refreshed via refresh_bound()
        self.arrival = self.match_id  # FIFO tiebreaker / arrival order
        #: The snapshot codec's payload for this match, kept by
        #: :func:`~repro.recovery.codec.encode_match` once it has built it.
        self.encoded: Optional[Dict[str, Any]] = None

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
    ) -> "PartialMatch":
        """Spawn the extension where ``node_id`` is instantiated by
        ``candidate`` (or deleted when ``candidate is None``)."""
        instantiations = dict(self.instantiations)
        instantiations[node_id] = candidate
        qualities = dict(self.qualities)
        qualities[node_id] = quality
        return PartialMatch(
            root_node=self.root_node,
            instantiations=instantiations,
            qualities=qualities,
            visited=self.visited | {node_id},
            score=self.score + contribution,
        )

    # -- bound management ------------------------------------------------------

    def refresh_bound(self, max_contributions: Dict[int, float]) -> float:
        """Recompute the maximum possible final score.

        ``max_contributions`` maps every server node id to the largest
        contribution that server can grant.  The bound is admissible because
        contributions are non-negative and bounded by their per-server max.
        """
        remaining = 0.0
        for node_id, max_contribution in max_contributions.items():
            if node_id not in self.visited:
                remaining += max_contribution
        self.upper_bound = self.score + remaining
        return self.upper_bound

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
