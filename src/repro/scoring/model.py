"""Engine-facing score models: incremental per-tuple contributions.

The engines score a partial match incrementally: whenever a server
instantiates query node ``qi`` with a data node, the match's score grows by
that node's *contribution*.  A contribution depends on the match quality:

- :attr:`MatchQuality.EXACT` — the node satisfies the original (exact)
  component predicate ``p(q0, qi)``;
- :attr:`MatchQuality.RELAXED` — it only satisfies the relaxed predicate
  (reached through edge generalization / subtree promotion);
- :attr:`MatchQuality.DELETED` — the node is uninstantiated (leaf
  deletion); contribution 0.

:class:`TfIdfScoreModel` derives contributions from the paper's idf
(exact predicates are rarer, hence score higher than their relaxations);
the *sparse* and *dense* normalizations of Section 6.2.2 rescale them.
:class:`RandomScoreModel` and :class:`TableScoreModel` support the paper's
synthetic experiments (randomized scoring functions; the Figure 3
motivating example with per-candidate scores).
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ScoringError
from repro.query.pattern import TreePattern
from repro.query.predicates import component_predicates
from repro.scoring.tfidf import predicate_idf, predicate_statistics
from repro.xmldb.model import XMLNode
from repro.xmldb.stats import DatabaseStatistics


class MatchQuality(enum.Enum):
    """How well an instantiated node satisfies its component predicate."""

    EXACT = "exact"
    RELAXED = "relaxed"
    DELETED = "deleted"


class ScoreModel:
    """Base score model: per-node contributions keyed by match quality.

    Subclasses populate ``_exact`` / ``_relaxed`` (node id → contribution)
    or override :meth:`contribution` for per-candidate scores.
    """

    def __init__(self, exact: Dict[int, float], relaxed: Dict[int, float]) -> None:
        for node_id, value in relaxed.items():
            if value < 0 or exact.get(node_id, 0.0) < 0:
                raise ScoringError("score contributions must be non-negative")
        self._exact = dict(exact)
        self._relaxed = dict(relaxed)

    # -- interface the engines consume ---------------------------------------

    def contribution(
        self,
        node_id: int,
        quality: MatchQuality,
        candidate: Optional[XMLNode] = None,
    ) -> float:
        """Score added when ``node_id`` is instantiated at ``quality``."""
        if quality is MatchQuality.DELETED:
            return 0.0
        if quality is MatchQuality.EXACT:
            return self._exact.get(node_id, 0.0)
        return self._relaxed.get(node_id, 0.0)

    def max_contribution(self, node_id: int) -> float:
        """Largest contribution ``node_id`` can ever add (bound material)."""
        return max(self._exact.get(node_id, 0.0), self._relaxed.get(node_id, 0.0))

    def node_ids(self) -> List[int]:
        """All node ids the model has contributions for."""
        return sorted(set(self._exact) | set(self._relaxed))

    def max_total(self) -> float:
        """Upper bound on any complete match's score."""
        return sum(self.max_contribution(node_id) for node_id in self.node_ids())

    def contributions(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly per-node contribution tables for wire shipping.

        The cluster coordinator builds the score model once over the
        *global* forest and ships these tables to shard workers, so
        per-partition idf statistics never skew shard-local scores.
        Per-candidate overrides (:class:`TableScoreModel`) are not
        portable this way — only per-node models round-trip exactly.
        """
        return {
            "exact": {str(nid): value for nid, value in self._exact.items()},
            "relaxed": {str(nid): value for nid, value in self._relaxed.items()},
        }

    @classmethod
    def from_contributions(cls, payload: Dict[str, Dict[str, float]]) -> "ScoreModel":
        """Rebuild a plain :class:`ScoreModel` from :meth:`contributions`."""
        return cls(
            {int(nid): float(v) for nid, v in payload.get("exact", {}).items()},
            {int(nid): float(v) for nid, v in payload.get("relaxed", {}).items()},
        )

    def describe(self) -> str:
        """One line per node: exact / relaxed contribution."""
        lines = []
        for node_id in self.node_ids():
            lines.append(
                f"node {node_id}: exact={self._exact.get(node_id, 0.0):.4f} "
                f"relaxed={self._relaxed.get(node_id, 0.0):.4f}"
            )
        return "\n".join(lines)


def _normalize(
    exact: Dict[int, float],
    relaxed: Dict[int, float],
    normalization: str,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Apply the paper's sparse/dense normalizations (Section 6.2.2).

    - ``"sparse"`` — each predicate's scores normalized to [0, 1] on its
      own (per-predicate max becomes 1): simulates uniform predicate
      importance; a few matches reach very high totals, enabling pruning.
    - ``"dense"`` — one normalization constant across all predicates (the
      global max becomes 1): preserves skew, compresses most totals into a
      narrow band, hurting pruning.
    - ``"raw"`` — no rescaling.
    """
    if normalization == "raw":
        return exact, relaxed
    if normalization == "sparse":
        out_exact, out_relaxed = {}, {}
        for node_id in set(exact) | set(relaxed):
            peak = max(exact.get(node_id, 0.0), relaxed.get(node_id, 0.0))
            scale = 1.0 / peak if peak > 0 else 0.0
            out_exact[node_id] = exact.get(node_id, 0.0) * scale
            out_relaxed[node_id] = relaxed.get(node_id, 0.0) * scale
        return out_exact, out_relaxed
    if normalization == "dense":
        peak = max(
            [*exact.values(), *relaxed.values(), 0.0]
        )
        scale = 1.0 / peak if peak > 0 else 0.0
        return (
            {node_id: value * scale for node_id, value in exact.items()},
            {node_id: value * scale for node_id, value in relaxed.items()},
        )
    raise ScoringError(
        f"unknown normalization {normalization!r}; expected 'sparse', 'dense' or 'raw'"
    )


class TfIdfScoreModel(ScoreModel):
    """Contributions derived from the paper's idf (Definition 4.2).

    The exact contribution of node ``qi`` is the idf of the exact component
    predicate ``p(q0, qi)``; the relaxed contribution is the idf of its
    relaxation — never larger, since the relaxed predicate is satisfied by
    at least as many anchors.
    """

    def __init__(
        self,
        pattern: TreePattern,
        stats: DatabaseStatistics,
        normalization: str = "sparse",
    ) -> None:
        exact: Dict[int, float] = {}
        relaxed: Dict[int, float] = {}
        for predicate in component_predicates(pattern):
            node_id = predicate.target.node_id
            exact[node_id] = predicate_idf(predicate, stats)
            # A predicate that relaxation does not weaken is its own relaxation.
            relaxed[node_id] = min(
                predicate_statistics(predicate, stats, relaxed=True).idf(), exact[node_id]
            )
        exact, relaxed = _normalize(exact, relaxed, normalization)
        super().__init__(exact, relaxed)
        self.normalization = normalization


class RandomScoreModel(ScoreModel):
    """Seeded random contributions — the paper's randomly generated
    sparse/dense scoring functions (Section 6.3.5)."""

    def __init__(
        self,
        pattern: TreePattern,
        seed: int,
        normalization: str = "sparse",
        skew: float = 2.0,
    ) -> None:
        """``skew`` > 1 spreads raw magnitudes across predicates (some
        predicates matter much more), which the dense normalization then
        preserves."""
        rng = random.Random(seed)
        exact: Dict[int, float] = {}
        relaxed: Dict[int, float] = {}
        for node in pattern.non_root_nodes():
            magnitude = rng.random() ** skew + 0.01
            exact[node.node_id] = magnitude
            relaxed[node.node_id] = magnitude * rng.uniform(0.1, 0.9)
        exact, relaxed = _normalize(exact, relaxed, normalization)
        super().__init__(exact, relaxed)
        self.normalization = normalization
        self.seed = seed


class TableScoreModel(ScoreModel):
    """Explicit per-candidate scores, keyed by the candidate's Dewey id.

    Used by the Figure 3 motivating example, where individual title /
    location / price matches carry hand-assigned scores (0.3, 0.2, ...).
    Candidates missing from the table fall back to the per-node defaults.
    """

    def __init__(
        self,
        exact: Dict[int, float],
        relaxed: Optional[Dict[int, float]] = None,
        candidate_scores: Optional[Dict[Tuple[int, Tuple[int, ...]], float]] = None,
    ) -> None:
        super().__init__(exact, relaxed if relaxed is not None else dict(exact))
        self._candidate_scores = dict(candidate_scores or {})
        self._per_node_max: Dict[int, float] = {}
        for (node_id, _dewey), value in self._candidate_scores.items():
            current = self._per_node_max.get(node_id, 0.0)
            self._per_node_max[node_id] = max(current, value)

    def contribution(
        self,
        node_id: int,
        quality: MatchQuality,
        candidate: Optional[XMLNode] = None,
    ) -> float:
        if quality is MatchQuality.DELETED:
            return 0.0
        if candidate is not None:
            key = (node_id, candidate.dewey)
            if key in self._candidate_scores:
                return self._candidate_scores[key]
        return super().contribution(node_id, quality, candidate)

    def max_contribution(self, node_id: int) -> float:
        table_max = self._per_node_max.get(node_id, 0.0)
        return max(table_max, super().max_contribution(node_id))


def build_score_model(
    pattern: TreePattern,
    stats: Union[DatabaseStatistics, Callable[[], DatabaseStatistics], None] = None,
    kind: str = "tfidf",
    normalization: str = "sparse",
    seed: int = 0,
) -> ScoreModel:
    """Factory covering the paper's scoring-function axis (Table 1).

    ``kind`` is ``"tfidf"`` (needs ``stats``) or ``"random"``;
    ``normalization`` is ``"sparse"``, ``"dense"`` or ``"raw"``.  ``stats``
    may be a zero-argument callable returning the statistics: it is called
    only when a tf*idf model is built, so a caller whose statistics cost
    index probes pays them for no other kind.
    """
    if kind == "tfidf":
        if stats is None:
            raise ScoringError("tfidf score model requires database statistics")
        if not isinstance(stats, DatabaseStatistics):
            stats = stats()
        return TfIdfScoreModel(pattern, stats, normalization)
    if kind == "random":
        return RandomScoreModel(pattern, seed, normalization)
    raise ScoringError(f"unknown score model kind {kind!r}")
