"""Outer-join plan encoding of a query and all its relaxations (Algorithm 1).

Plan-relaxation (Amer-Yahia et al., EDBT'02) encodes the whole relaxation
closure in one plan instead of enumerating rewritten queries.  The encoding
relies on (i) outer-join semantics — a query node may stay uninstantiated
(leaf deletion); and (ii) *ordered predicate lists* per join — "if not
child, then descendant" (edge generalization), plus relaxed root-anchored
predicates (subtree promotion).

:func:`compile_plan` runs the paper's Algorithm 1 for every non-root query
node and produces a :class:`ServerPredicates` per node:

- the **structural predicate** — the (relaxed) composition of the axes from
  the server node up to the query root; the server's index probe uses it to
  locate candidate nodes anchored at the partial match's root image;
- the **conditional predicate sequence** — for every other query node above
  or below the server node, the exact and relaxed compositions relating the
  two; the server evaluates each against the nodes already instantiated in
  an incoming partial match to grade the extension (exact / relaxed) and,
  in exact mode, to filter it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.query.pattern import PatternNode, TreePattern
from repro.query.predicates import composed_axis
from repro.xmldb.dewey import DepthRange


class ConditionalPredicate:
    """One entry of a server's conditional predicate sequence.

    Relates the server's query node ``n`` to another query node ``n'``.
    ``direction`` says which one is the ancestor in the query tree:

    - ``"down"`` — ``n'`` is a query descendant of ``n``; the axis runs
      from the server node's image down to ``n'``'s image;
    - ``"up"`` — ``n`` is a query descendant of ``n'``; the axis runs from
      ``n'``'s image down to the server node's image.
    """

    __slots__ = ("other_id", "other_tag", "direction", "exact", "relaxed")

    def __init__(
        self,
        other_id: int,
        other_tag: str,
        direction: str,
        exact: DepthRange,
    ) -> None:
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        self.other_id = other_id
        self.other_tag = other_tag
        self.direction = direction
        self.exact = exact
        self.relaxed = exact.relaxed()

    def holds_exactly(self, server_dewey, other_dewey) -> bool:
        """Exact axis between the two images (direction-aware)."""
        if self.direction == "down":
            return self.exact.matches(server_dewey, other_dewey)
        return self.exact.matches(other_dewey, server_dewey)

    def holds_relaxed(self, server_dewey, other_dewey) -> bool:
        """Relaxed ("if not child, then descendant") axis between the images."""
        if self.direction == "down":
            return self.relaxed.matches(server_dewey, other_dewey)
        return self.relaxed.matches(other_dewey, server_dewey)

    def __repr__(self) -> str:
        arrow = "->" if self.direction == "down" else "<-"
        return f"ConditionalPredicate(n {arrow} {self.other_tag}#{self.other_id}, {self.exact})"


class ServerPredicates:
    """Everything one Whirlpool server checks — Algorithm 1's output.

    Attributes
    ----------
    node_id / tag / value:
        The query node the server instantiates and its value test.
    exact_root_axis:
        Composition of the original axes from the query root to the node.
    probe_axis:
        What the index probe actually uses: the relaxed composition when
        relaxation is on, the exact composition otherwise.
    conditionals:
        The conditional predicate sequence over all related query nodes.
    """

    __slots__ = (
        "node_id",
        "tag",
        "value",
        "value_op",
        "exact_root_axis",
        "probe_axis",
        "conditionals",
    )

    def __init__(
        self,
        node_id: int,
        tag: str,
        value: Optional[str],
        exact_root_axis: DepthRange,
        probe_axis: DepthRange,
        conditionals: List[ConditionalPredicate],
        value_op: str = "eq",
    ) -> None:
        self.node_id = node_id
        self.tag = tag
        self.value = value
        self.value_op = value_op
        self.exact_root_axis = exact_root_axis
        self.probe_axis = probe_axis
        self.conditionals = conditionals

    def __repr__(self) -> str:
        return (
            f"ServerPredicates(node={self.tag}#{self.node_id}, probe={self.probe_axis}, "
            f"{len(self.conditionals)} conditionals)"
        )


class RelaxedPlan:
    """Compiled plan: one :class:`ServerPredicates` per non-root query node."""

    def __init__(self, pattern: TreePattern, relaxed: bool) -> None:
        self.pattern = pattern
        self.relaxed = relaxed
        self.root_tag = pattern.root.tag
        self.root_value = pattern.root.value
        self.servers: Dict[int, ServerPredicates] = {}

    def server_ids(self) -> List[int]:
        """Preorder ids of all server (non-root) query nodes."""
        return sorted(self.servers)

    def server(self, node_id: int) -> ServerPredicates:
        """Predicates for one server node."""
        return self.servers[node_id]

    def __repr__(self) -> str:
        mode = "relaxed" if self.relaxed else "exact"
        return f"RelaxedPlan({self.pattern.to_xpath()}, {mode}, {len(self.servers)} servers)"


def _is_pattern_descendant(node: PatternNode, ancestor: PatternNode) -> bool:
    current = node.parent
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False


def compile_plan(pattern: TreePattern, relaxed: bool = True) -> RelaxedPlan:
    """Run Algorithm 1 for every non-root node of ``pattern``.

    With ``relaxed=False`` the probe axes stay exact and the engine will
    enforce the conditional predicates exactly — the plan then computes
    exact top-k matches; with ``relaxed=True`` it admits every relaxation.
    """
    plan = RelaxedPlan(pattern, relaxed)
    root = pattern.root
    for node in pattern.non_root_nodes():
        exact_root_axis = composed_axis(root, node)
        probe_axis = exact_root_axis.relaxed() if relaxed else exact_root_axis

        conditionals: List[ConditionalPredicate] = []
        for other in pattern.nodes():
            if other is node or other is root:
                continue
            if _is_pattern_descendant(other, node):
                conditionals.append(
                    ConditionalPredicate(
                        other.node_id, other.tag, "down", composed_axis(node, other)
                    )
                )
            elif _is_pattern_descendant(node, other):
                conditionals.append(
                    ConditionalPredicate(
                        other.node_id, other.tag, "up", composed_axis(other, node)
                    )
                )

        plan.servers[node.node_id] = ServerPredicates(
            node_id=node.node_id,
            tag=node.tag,
            value=node.value,
            value_op=node.value_op,
            exact_root_axis=exact_root_axis,
            probe_axis=probe_axis,
            conditionals=conditionals,
        )
    return plan
