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

from typing import List, Optional

from repro.core.base import EngineBase, TopKResult
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue, QueuePolicy
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


class ThresholdWhirlpool(EngineBase):
    """Whirlpool-S control flow with a fixed pruning threshold."""

    algorithm = "threshold_whirlpool"

    def __init__(self, *args, min_score: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if min_score < 0:
            raise EngineError(f"min_score must be >= 0, got {min_score}")
        self.min_score = min_score
        self.topk = FixedThresholdSet(min_score)

    def run(self) -> TopKResult:
        self.stats.start_clock()
        queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
        for seed in self.seed_matches():
            if not self.server_ids:
                self.stats.record_completed()
            elif self.topk.is_pruned(seed):
                self.stats.record_pruned()
            else:
                queue.put(seed)

        while True:
            match = queue.get_nowait()
            if match is None:
                break
            self.stats.record_routing_decision()
            server_id = self.router.choose(match, self)
            self.notify_route(match, server_id)
            for extension in self.servers[server_id].process(match, self.stats):
                survivor = self.absorb_extension(extension, parent=match)
                if survivor is not None:
                    queue.put(survivor)

        self.stats.stop_clock()
        return TopKResult(
            answers=self.topk.answers(),
            stats=self.stats,
            algorithm=self.algorithm,
            k=self.k,
            pattern=self.pattern,
        )


def threshold_query(engine, min_score: float, relaxed: Optional[bool] = None):
    """All answers of ``engine``'s query scoring at least ``min_score``.

    ``engine`` is a :class:`repro.core.engine.Engine`; evaluation reuses
    its pattern, index and score model.  Returns a :class:`TopKResult`
    whose ``answers`` hold *every* qualifying root, best first.
    """
    runner = ThresholdWhirlpool(
        pattern=engine.pattern,
        index=engine.index,
        score_model=engine.score_model,
        k=1,  # unused by the fixed-threshold set; EngineBase requires >= 1
        relaxed=engine.relaxed if relaxed is None else relaxed,
        min_score=min_score,
    )
    return runner.run()
