"""Threshold queries: all answers whose score exceeds a fixed bound.

The paper's precursor (Amer-Yahia/Cho/Srivastava, EDBT'02 — cited as the
origin of the LockStep/OptThres baseline) solves a different problem
shape: "identify all answers whose score exceeds a certain threshold
(instead of top-k answers)", with branch-and-bound pruning.  Whirlpool's
machinery covers it with one substitution — the adaptive ``currentTopK``
threshold becomes a constant — so this module provides that mode as a
first-class API:

    engine = Engine(database, query)
    answers = threshold_query(engine, min_score=1.5)

Pruning is exact branch-and-bound: a partial match dies as soon as its
maximum possible final score falls below ``min_score``; every surviving
root with a completed tuple at or above the threshold is returned, best
first.
"""

from __future__ import annotations

from typing import Any, List

from repro.core.base import TopKResult
from repro.core.match import PartialMatch
from repro.core.topk import TopKAnswer
from repro.errors import EngineError


class FixedThresholdSet:
    """Drop-in for :class:`~repro.core.topk.TopKSet` with a constant bound.

    ``observe``/``is_pruned``/``answers`` match the TopKSet interface the
    engines consume; the threshold never moves, and *every* root whose
    best complete tuple reaches it is an answer (no k cut-off).
    """

    def __init__(self, min_score: float) -> None:
        self.min_score = min_score
        self._best = {}

    def observe(self, match: PartialMatch, complete: bool) -> float:
        """Track the best complete tuple per root; returns the bound."""
        if complete and match.score >= self.min_score:
            key = match.root_node.dewey
            current = self._best.get(key)
            if current is None or match.score > current.score:
                self._best[key] = match
        return self.min_score

    def threshold(self) -> float:
        """The constant bound (branch-and-bound pruning level)."""
        return self.min_score

    def closing_level(self) -> float:
        """No k, hence no k-th completed answer to tie: ties are kept."""
        return float("-inf")

    def is_pruned(self, match: PartialMatch) -> bool:
        """True iff the tuple can no longer reach the bound."""
        return match.upper_bound < self.min_score

    def answers(self) -> List[TopKAnswer]:
        """All qualifying roots, best score first (ties in document order)."""
        matches = sorted(
            self._best.values(),
            key=lambda match: (-match.score, match.root_node.dewey),
        )
        return [
            TopKAnswer(match.root_node, match.score, match) for match in matches
        ]


def threshold_query(engine, min_score: float, **run_options: Any) -> TopKResult:
    """All answers of ``engine``'s query scoring at least ``min_score``.

    A Whirlpool-S run (:meth:`repro.core.engine.Engine.open`, whose run
    options — ``routing``, ``deadline_seconds``, ``max_operations``,
    ``faults``, ``observer``, … — pass through) over a
    :class:`FixedThresholdSet`: it shares the Engine's probe memos and
    degrades like any other run.  Returns a :class:`TopKResult` whose
    ``answers`` hold *every* qualifying root, best first.

    A threshold run is not resumable — a snapshot has no field for
    ``min_score``, so a restore could not tell which bound it continues —
    and ``checkpoint_policy`` / ``restore_from`` are refused.
    """
    if min_score < 0:
        raise EngineError(f"min_score must be >= 0, got {min_score}")
    for option in ("checkpoint_policy", "restore_from"):
        if run_options.get(option) is not None:
            raise EngineError(f"a threshold run takes no {option}: it is not resumable")
    # k is unused by the fixed-threshold set; EngineBase requires >= 1.
    run = engine.open(1, "whirlpool_s", **run_options)
    run.topk = FixedThresholdSet(min_score)
    return run.run()
