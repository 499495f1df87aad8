"""The rewriting-based baseline: evaluate every relaxed query separately.

Section 3 of the paper contrasts two ways to compute approximate matches:
rewriting strategies "enumerate possible queries derived by transformation
of the initial query" and evaluate each one, while plan-relaxation encodes
the whole closure in one outer-join plan — and "outer-join plans were shown
to be more efficient than rewriting-based ones ... due to the exponential
number of relaxed queries".

:class:`RewritingEngine` implements the baseline faithfully so that claim
is measurable here too:

1. enumerate the relaxation closure (optionally capped);
2. find the *exact* matches of every relaxed query with the exhaustive
   matcher;
3. score each embedding with the same score model the Whirlpool engines
   use — per instantiated node, EXACT quality if the original query's
   composed root axis holds, RELAXED otherwise; uninstantiated (deleted)
   nodes contribute nothing;
4. keep the best tuple per root and return the top k.

Because the closure covers every combination of relaxations, the best
tuple score per root coincides with what Whirlpool computes — the test
suite uses this as a strong cross-validation oracle — but the work grows
with the closure size instead of staying linear in one plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import TopKResult
from repro.core.match import PartialMatch
from repro.core.stats import ExecutionStats
from repro.core.topk import TopKSet
from repro.errors import EngineError
from repro.query.matcher import find_matches
from repro.query.pattern import TreePattern
from repro.query.predicates import composed_axis
from repro.relax.enumeration import enumerate_relaxations
from repro.scoring.model import MatchQuality, ScoreModel
from repro.xmldb.index import DatabaseIndex


class RewritingEngine:
    """Top-k via relaxed-query enumeration (the paper's strawman)."""

    algorithm = "rewriting"

    def __init__(
        self,
        pattern: TreePattern,
        index: DatabaseIndex,
        score_model: ScoreModel,
        k: int,
        max_queries: Optional[int] = None,
    ) -> None:
        if k <= 0:
            raise EngineError(f"k must be positive, got {k}")
        self.pattern = pattern
        self.index = index
        self.score_model = score_model
        self.k = k
        self.max_queries = max_queries
        # Exact root-anchored axes of the ORIGINAL query, per node tag path.
        self._exact_axes = {
            node.node_id: composed_axis(pattern.root, node)
            for node in pattern.non_root_nodes()
        }
        self.stats = ExecutionStats()
        #: Number of relaxed queries evaluated (the baseline's cost driver).
        self.queries_evaluated = 0

    # -- node correspondence -------------------------------------------------

    @staticmethod
    def _correspondence(
        original: TreePattern, relaxed: TreePattern
    ) -> Optional[Dict[int, int]]:
        """Map relaxed-pattern node ids to original-pattern node ids.

        Relaxations never rename or duplicate nodes, so matching (tag,
        value) multisets positionally per tag is sound: relaxed patterns
        contain a sub-multiset of the original's nodes.  Returns ``None``
        when the correspondence is ambiguous (duplicate tag+value pairs) —
        the scorer then falls back to best-effort greedy assignment, which
        is still sound for scoring because equal (tag, value) nodes have
        interchangeable contributions only if their axes agree; when they
        do not, the greedy choice may under-score, never over-score.
        """
        pools: Dict[Tuple[str, Optional[str], str], List[int]] = {}
        for node in original.non_root_nodes():
            pools.setdefault((node.tag, node.value, node.value_op), []).append(
                node.node_id
            )
        mapping: Dict[int, int] = {}
        for node in relaxed.non_root_nodes():
            pool = pools.get((node.tag, node.value, node.value_op))
            if not pool:
                return None
            mapping[node.node_id] = pool.pop(0)
        return mapping

    # -- evaluation ---------------------------------------------------------------

    def run(self) -> TopKResult:
        """Evaluate the closure and return the top-k answers."""
        self.stats.start_clock()
        topk = TopKSet(self.k, threshold_source="all")
        closure = enumerate_relaxations(self.pattern, limit=self.max_queries)

        for relaxed in closure:
            self.queries_evaluated += 1
            mapping = self._correspondence(self.pattern, relaxed)
            if mapping is None:
                continue
            embeddings = find_matches(relaxed, self.index)
            # Each embedding is a complete tuple of the relaxed query; the
            # matcher did one "server operation" worth of work per node of
            # the relaxed query for accounting purposes.
            self.stats.record_server_operation(
                -1,
                comparisons=max(len(embeddings), 1) * relaxed.size(),
                created=len(embeddings),
            )
            for embedding in embeddings:
                match = self._score_embedding(relaxed, embedding, mapping)
                topk.observe(match, complete=True)
                self.stats.record_completed()

        self.stats.stop_clock()
        return TopKResult(
            answers=topk.answers(),
            stats=self.stats,
            algorithm=self.algorithm,
            k=self.k,
            pattern=self.pattern,
        )

    def _score_embedding(
        self,
        relaxed: TreePattern,
        embedding: Dict[int, "object"],
        mapping: Dict[int, int],
    ) -> PartialMatch:
        root_image = embedding[relaxed.root.node_id]
        match = PartialMatch.initial(root_image)
        root_dewey = root_image.dewey
        for relaxed_id, original_id in mapping.items():
            image = embedding.get(relaxed_id)
            if image is None:
                continue
            exact_axis = self._exact_axes[original_id]
            quality = (
                MatchQuality.EXACT
                if exact_axis.matches(root_dewey, image.dewey)
                else MatchQuality.RELAXED
            )
            contribution = self.score_model.contribution(
                original_id, quality, image
            )
            match = match.extend(original_id, image, quality, contribution)
        # Original-query nodes absent from the relaxed query are deletions.
        for node in self.pattern.non_root_nodes():
            if node.node_id not in match.instantiations:
                match = match.extend(
                    node.node_id, None, MatchQuality.DELETED, 0.0
                )
        return match
