"""Anytime top-k: stop after a budget, return the best-so-far with a bound.

Adaptive, priority-driven evaluation has a property the lock-step
baselines lack: at any instant the system's state is a *usable* partial
answer — the current top-k set plus a certificate of how wrong it can
still be (the largest upper bound among unprocessed partial matches).
This module exposes that as an API:

    outcome = anytime_topk(engine, k=10, max_operations=500)
    outcome.answers         # best known top-k
    outcome.is_final        # True iff the budget sufficed for exactness
    outcome.guarantee()     # max score any unseen answer could still reach

Because Whirlpool-S always advances the partial match with the highest
maximum possible final score, the first k *completed* answers it produces
are provably final early — often long before the queue drains — and the
anytime wrapper detects that, too (the classic Upper-style early stop).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sized

from repro.core.base import TopKResult
from repro.core.match import PartialMatch
from repro.core.topk import TopKAnswer, TopKSet


class AnytimeOutcome:
    """A budgeted run's :class:`TopKResult`, read as answers + exactness
    certificate."""

    __slots__ = ("result", "is_final", "pending_bound", "operations_used")

    def __init__(self, result: TopKResult) -> None:
        self.result = result
        self.is_final = not result.degraded
        self.pending_bound = result.pending_bound
        self.operations_used = result.stats.server_operations

    @property
    def answers(self) -> List[TopKAnswer]:
        """Best-known top-k answers (final iff :attr:`is_final`)."""
        return self.result.answers

    def guarantee(self) -> float:
        """Largest final score any *unfinished* candidate could still reach.

        Every reported answer whose score is ≥ this bound is definitively
        in the top-k; when the bound is below the k-th reported score, the
        whole answer set is final.
        """
        return self.pending_bound

    def __repr__(self) -> str:
        status = "final" if self.is_final else f"bound={self.pending_bound:.4f}"
        return (
            f"AnytimeOutcome({len(self.answers)} answers, "
            f"{self.operations_used} ops, {status})"
        )


class EarlyStopTopKSet(TopKSet):
    """A top-k set that also closes *ties* once its k answers are final.

    Whirlpool-S pops matches in upper-bound order, so a popped match
    bounds everything still queued.  When it only ties the k-th score and
    the k best answers are all complete, no queued match can change the
    top-k: it is pruned, and so is every match behind it, without another
    server operation (the Upper-style early stop).  Plain
    :class:`TopKSet` keeps ties, which Whirlpool-S then processes.
    """

    def __init__(self, k: int, threshold_source: str, server_ids: Sized) -> None:
        super().__init__(k, threshold_source)
        self._server_ids = server_ids
        #: Whether the k best answers are all complete; ``None`` = stale.
        #: Draining the queue asks once, not once per tied match.
        self._final: Optional[bool] = None

    def observe(self, match: PartialMatch, complete: bool) -> float:
        self._final = None
        return super().observe(match, complete)

    def is_pruned(self, match: PartialMatch) -> bool:
        threshold = self.threshold()
        if match.upper_bound != threshold:
            return match.upper_bound < threshold
        if self._final is None:
            answers = self.answers()
            self._final = len(answers) == self.k and all(
                answer.match.is_complete(self._server_ids) for answer in answers
            )
        return self._final


def anytime_topk(engine, k: int, **run_options: Any) -> AnytimeOutcome:
    """Budgeted top-k over an :class:`repro.core.engine.Engine`'s state.

    A Whirlpool-S run (:meth:`repro.core.engine.Engine.open`, whose run
    options — ``max_operations``, ``deadline_seconds``, ``routing``,
    ``faults``, … — pass through) over an :class:`EarlyStopTopKSet`.
    """
    # The set must be in place before a snapshot's entries are replayed.
    restore_from = run_options.pop("restore_from", None)
    run = engine.open(k, "whirlpool_s", **run_options)
    run.topk = EarlyStopTopKSet(k, run.topk.threshold_source, run.server_ids)
    if restore_from is not None:
        run.restore(restore_from)
    return AnytimeOutcome(run.run())
