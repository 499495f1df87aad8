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
top-k set closes the run there (the classic Upper-style early stop:
:mod:`repro.core.topk`, "closing ties").
"""

from __future__ import annotations

from typing import Any, List

from repro.core.base import TopKResult
from repro.core.topk import TopKAnswer


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


def anytime_topk(engine, k: int, **run_options: Any) -> AnytimeOutcome:
    """Budgeted top-k over an :class:`repro.core.engine.Engine`'s state.

    A Whirlpool-S run (:meth:`repro.core.engine.Engine.run`, whose run
    options — ``max_operations``, ``deadline_seconds``, ``routing``,
    ``faults``, ``restore_from``, … — pass through), read as an
    :class:`AnytimeOutcome`.
    """
    return AnytimeOutcome(engine.run(k, "whirlpool_s", **run_options))
