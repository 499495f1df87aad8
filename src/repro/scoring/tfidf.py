"""The XML tf*idf scoring function — Definitions 4.2, 4.3, 4.4 verbatim.

For an XPath query ``Q`` with answer node ``q0`` and component predicates
``P_Q = {p(q0, qi)}`` (Definition 4.1):

- ``idf(p, D) = log(|{n: tag(n)=q0}| / |{n: tag(n)=q0 ∧ ∃n': p(n,n')}|)``
  — the fewer ``q0`` nodes satisfying ``p``, the larger its idf;
- ``tf(p, n) = |{n': tag(n')=qi ∧ p(n, n')}|`` — the number of distinct
  ways candidate ``n`` satisfies ``p``;
- ``score(n) = Σ_{p ∈ P_Q} idf(p, D) · tf(p, n)`` — the vector-space-model
  combination under predicate independence.

This module computes those quantities directly from the indexes.  It is the
*whole-answer* view; the engines use the incremental per-tuple view of
:mod:`repro.scoring.model`, and the test suite checks the two agree where
they must (tuple scores of exact matches sum to the tf*idf totals).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.query.pattern import TreePattern
from repro.query.predicates import ComponentPredicate, component_predicates
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.model import XMLNode
from repro.xmldb.stats import DatabaseStatistics, PredicateStatistics


def _matching_targets(
    predicate: ComponentPredicate, anchor: XMLNode, index: DatabaseIndex
) -> List[XMLNode]:
    """Targets related to ``anchor`` by the predicate (value-test aware)."""
    related = index.related(predicate.target_tag, anchor.dewey, predicate.axis)
    if predicate.value is None:
        return related
    return [node for node in related if predicate.target.matches_value(node.value)]


def predicate_tf(
    predicate: ComponentPredicate, anchor: XMLNode, index: DatabaseIndex
) -> int:
    """Definition 4.3: number of distinct ways ``anchor`` satisfies ``p``."""
    return len(_matching_targets(predicate, anchor, index))


def predicate_statistics(
    predicate: ComponentPredicate, stats: DatabaseStatistics, relaxed: bool = False
) -> PredicateStatistics:
    """Statistics of ``predicate`` (value test included), or with
    ``relaxed`` of its edge-generalized version."""
    return stats.value_predicate(
        predicate.anchor_tag,
        predicate.target_tag,
        predicate.relaxed_axis if relaxed else predicate.axis,
        predicate.value,
        predicate.value_op,
    )


def predicate_idf(
    predicate: ComponentPredicate, stats: DatabaseStatistics
) -> float:
    """Definition 4.2 over the database behind ``stats``."""
    return predicate_statistics(predicate, stats).idf()


def score_answer(
    pattern: TreePattern,
    anchor: XMLNode,
    index: DatabaseIndex,
    stats: DatabaseStatistics,
) -> float:
    """Definition 4.4: the tf*idf score of candidate answer ``anchor``."""
    total = 0.0
    for predicate in component_predicates(pattern):
        idf = predicate_idf(predicate, stats)
        if idf == 0.0:
            continue
        total += idf * predicate_tf(predicate, anchor, index)
    return total


def score_all_answers(
    pattern: TreePattern,
    index: DatabaseIndex,
    stats: DatabaseStatistics,
) -> List[Tuple[XMLNode, float]]:
    """Score every root-tag node, best first (ties in document order).

    This is the brute-force ranking the top-k engines must agree with when
    run in whole-answer (``sum``) aggregation — the oracle for ranking
    tests.
    """
    root_tag = pattern.root.tag
    scored = []
    for anchor in index[root_tag].all():
        if not pattern.root.matches_value(anchor.value):
            continue
        scored.append((anchor, score_answer(pattern, anchor, index, stats)))
    scored.sort(key=lambda pair: (-pair[1], pair[0].dewey))
    return scored


def idf_table(
    pattern: TreePattern, stats: DatabaseStatistics
) -> Dict[int, float]:
    """idf of each component predicate, keyed by target node id."""
    return {
        predicate.target.node_id: predicate_idf(predicate, stats)
        for predicate in component_predicates(pattern)
    }


def max_tf_table(
    pattern: TreePattern, stats: DatabaseStatistics
) -> Dict[int, int]:
    """Largest observed tf per component predicate (bound material)."""
    return {
        predicate.target.node_id: predicate_statistics(predicate, stats).max_fanout()
        for predicate in component_predicates(pattern)
    }
