"""Database statistics backing idf scores and the size-based router.

Two consumers:

- :mod:`repro.scoring.tfidf` needs, per component predicate ``p(q0, qi)``,
  the number of ``q0`` nodes and the number of them with at least one ``qi``
  node related by ``p`` (Definition 4.2 — idf).
- the ``min_alive_partial_matches`` router (Section 6.1.4) needs fan-out
  estimates ("number of extensions computed by the server for a partial
  match") and enough of the score distribution to estimate pruning odds.

Both reduce to :class:`PredicateStatistics`, one per (root tag, target tag,
axis) triple, cached on the :class:`DatabaseStatistics` object.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.xmldb.dewey import DepthRange
from repro.xmldb.index import DatabaseIndex


class PredicateStatistics:
    """Counts describing one structural predicate ``p(anchor_tag, target_tag)``.

    Attributes
    ----------
    anchor_count:
        Number of nodes with the anchor tag in the database.
    satisfying_count:
        Number of anchor nodes with ≥ 1 related target node.
    fanouts:
        Per-anchor-node counts of related target nodes (same order as the
        anchor index) — the raw material for fan-out and tf estimates.
    """

    __slots__ = (
        "anchor_tag",
        "target_tag",
        "axis",
        "anchor_count",
        "satisfying_count",
        "fanouts",
    )

    def __init__(
        self,
        anchor_tag: str,
        target_tag: str,
        axis: DepthRange,
        fanouts: List[int],
    ) -> None:
        self.anchor_tag = anchor_tag
        self.target_tag = target_tag
        self.axis = axis
        self.fanouts = fanouts
        self.anchor_count = len(fanouts)
        # Fan-outs are counts, so every non-zero one is positive.
        self.satisfying_count = len(fanouts) - fanouts.count(0)

    # -- derived quantities --------------------------------------------------

    def selectivity(self) -> float:
        """Fraction of anchor nodes satisfying the predicate (0 when empty)."""
        if self.anchor_count == 0:
            return 0.0
        return self.satisfying_count / self.anchor_count

    def idf(self) -> float:
        """Definition 4.2: ``log(anchor_count / satisfying_count)``.

        Predicates no anchor node satisfies get the maximal idf over the
        database (``log(anchor_count + 1)``) rather than infinity, so relaxed
        plans can still rank answers; an empty database scores 0.
        """
        if self.anchor_count == 0:
            return 0.0
        if self.satisfying_count == 0:
            return math.log(self.anchor_count + 1)
        return math.log(self.anchor_count / self.satisfying_count)

    def mean_fanout(self) -> float:
        """Average number of related target nodes per anchor node."""
        if self.anchor_count == 0:
            return 0.0
        return sum(self.fanouts) / self.anchor_count

    def mean_fanout_when_present(self) -> float:
        """Average fan-out restricted to anchor nodes with ≥ 1 related node."""
        if self.satisfying_count == 0:
            return 0.0
        return sum(self.fanouts) / self.satisfying_count

    def max_fanout(self) -> int:
        """Largest observed fan-out (tf upper bound for this predicate)."""
        return max(self.fanouts) if self.fanouts else 0

    def fanout_histogram(self) -> Dict[int, int]:
        """Histogram {fan-out value: number of anchor nodes}."""
        histogram: Dict[int, int] = {}
        for fanout in self.fanouts:
            histogram[fanout] = histogram.get(fanout, 0) + 1
        return histogram

    def __repr__(self) -> str:
        return (
            f"PredicateStatistics({self.anchor_tag}->{self.target_tag} {self.axis}, "
            f"sel={self.selectivity():.3f}, mean_fanout={self.mean_fanout():.2f})"
        )


class DatabaseStatistics:
    """Cached per-predicate statistics over one indexed database.

    A predicate's fan-outs come from one of two places: :meth:`record`, when
    the caller already holds them (an :class:`~repro.core.engine.Engine`
    counts them in the sweep that fills its probe memos), or one index sweep
    over every anchor node (:meth:`~repro.xmldb.index.DatabaseIndex.related_each`)
    the first time the predicate is asked for.
    """

    def __init__(self, index: DatabaseIndex) -> None:
        self.index = index
        self._cache: Dict[Tuple[str, str, DepthRange], PredicateStatistics] = {}

    @staticmethod
    def _key(
        anchor_tag: str, target_tag: str, axis: DepthRange, value: Optional[str], value_op: str
    ) -> Tuple[str, str, DepthRange]:
        target = target_tag if value is None else f"{target_tag}{value_op}{value}"
        return (anchor_tag, target, axis)

    def record(
        self,
        anchor_tag: str,
        target_tag: str,
        axis: DepthRange,
        fanouts: List[int],
        value: Optional[str] = None,
        value_op: str = "eq",
    ) -> PredicateStatistics:
        """Cache the statistics of a predicate whose per-anchor ``fanouts``
        (in anchor-index order) the caller has already counted."""
        stats = PredicateStatistics(anchor_tag, target_tag, axis, fanouts)
        self._cache[self._key(anchor_tag, target_tag, axis, value, value_op)] = stats
        return stats

    def predicate(
        self, anchor_tag: str, target_tag: str, axis: DepthRange
    ) -> PredicateStatistics:
        """Statistics for ``axis(anchor_tag, target_tag)``, computed lazily."""
        return self.value_predicate(anchor_tag, target_tag, axis, None)

    def value_predicate(
        self,
        anchor_tag: str,
        target_tag: str,
        axis: DepthRange,
        value: Optional[str],
        value_op: str = "eq",
    ) -> PredicateStatistics:
        """Statistics for a predicate with a value condition on the target.

        Used when a query leaf carries a value test, e.g.
        ``title = 'wodehouse'`` (equality) or ``title ~= 'wode'``
        (containment): the fan-out only counts related target nodes whose
        value passes the test (every related node when ``value`` is None).
        """
        cached = self._cache.get(self._key(anchor_tag, target_tag, axis, value, value_op))
        if cached is not None:
            return cached
        from repro.query.pattern import value_test

        anchors = [anchor.dewey for anchor in self.index[anchor_tag]]
        fanouts = [
            len(related)
            if value is None
            else sum(1 for node in related if value_test(value_op, value, node.value))
            for related in self.index.related_each(target_tag, anchors, axis)
        ]
        return self.record(anchor_tag, target_tag, axis, fanouts, value, value_op)

    def tag_count(self, tag: str) -> int:
        """Number of nodes with ``tag`` in the database."""
        return self.index.count(tag)

    def cached_predicates(self) -> int:
        """Number of predicate statistics computed so far (for tests)."""
        return len(self._cache)
