"""Supervision policy: retry, backoff, requeue-with-exclusion, escalation.

Every engine owns one :class:`Supervisor`.  When a server operation (or a
queue transfer) raises, the engine asks the supervisor what to do with
the match in hand; the escalation ladder is

1. **RETRY** — the same server, after an exponential backoff with seeded
   jitter (bounded per (match, server) by
   :attr:`RetryPolicy.max_attempts`);
2. **REQUEUE** — back through the router with the failing server
   *excluded* while the match still has alternative servers to visit
   (bounded per match by :attr:`RetryPolicy.requeue_limit`);
3. **ABANDON** — the match is recorded as a :class:`FailedMatch` with
   its upper bound, so the run degrades gracefully: the bound feeds the
   result's ``pending_bound`` certificate instead of the answer set
   silently shrinking.

The supervisor is engine-agnostic and has no lock of its own: a run that
one thread drives calls it directly, and Whirlpool-M's threads call it
only while they hold their run's engine lock — and release that lock
around :meth:`Supervisor.pause`, the retry backoff's sleep.  Backoff
sleeping lives here (not in ``core/``) so engine control flow stays
wall-clock free per lint rule WPL004.
"""

from __future__ import annotations

import enum
import threading
from random import Random
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.faults.report import FailedMatch
import repro.sim.clock as simclock

if TYPE_CHECKING:
    from repro.core.match import PartialMatch


class FailureAction(enum.Enum):
    """What the engine should do with a match whose operation failed."""

    RETRY = "retry"
    REQUEUE = "requeue"
    ABANDON = "abandon"


class RetryPolicy:
    """Bounds and pacing for failure recovery.

    Parameters
    ----------
    max_attempts:
        Operations attempted per (match, server) before escalating past
        RETRY — i.e. ``max_attempts - 1`` retries follow the first try.
    requeue_limit:
        REQUEUE escalations allowed per match before ABANDON.
    base_delay / max_delay:
        Exponential backoff: attempt ``n`` sleeps
        ``min(base_delay * 2**(n-1), max_delay)`` plus jitter.
    jitter:
        Fraction of the computed delay added uniformly at random
        (seeded), decorrelating Whirlpool-M workers that fail together.
    seed:
        Seed for the jitter RNG (kept separate from fault-plan seeds).
    """

    __slots__ = ("max_attempts", "requeue_limit", "base_delay", "max_delay", "jitter", "seed")

    def __init__(
        self,
        max_attempts: int = 3,
        requeue_limit: int = 1,
        base_delay: float = 0.001,
        max_delay: float = 0.05,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if requeue_limit < 0:
            raise ValueError(f"requeue_limit must be >= 0, got {requeue_limit}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.requeue_limit = requeue_limit
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed

    def backoff_delay(self, attempt: int, rng: Random) -> float:
        """Sleep length before retry number ``attempt`` (1-based)."""
        delay = min(self.base_delay * (2.0 ** max(attempt - 1, 0)), self.max_delay)
        return delay * (1.0 + self.jitter * rng.random())

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (shipped to cluster workers over the wire)."""
        return {
            "max_attempts": self.max_attempts,
            "requeue_limit": self.requeue_limit,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RetryPolicy":
        """Inverse of :meth:`as_dict` (validates via ``__init__``)."""
        return cls(
            max_attempts=int(payload.get("max_attempts", 3)),
            requeue_limit=int(payload.get("requeue_limit", 1)),
            base_delay=float(payload.get("base_delay", 0.001)),
            max_delay=float(payload.get("max_delay", 0.05)),
            jitter=float(payload.get("jitter", 0.5)),
            seed=int(payload.get("seed", 0)),
        )


_NO_EXCLUSIONS: FrozenSet[int] = frozenset()


class Supervisor:
    """Failure book-keeping for one engine run."""

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self._wakeup = threading.Event()
        self._rng = Random(self.policy.seed)
        self._attempts: Dict[Tuple[int, int], int] = {}
        self._requeues: Dict[int, int] = {}
        #: match id -> the servers a requeue sent it away from; empty for
        #: the whole of a fault-free run, which the router tests in place
        #: before it asks :meth:`excluded_for`.
        self.excluded: Dict[int, Set[int]] = {}
        self._error_counts: Dict[str, int] = {}
        self._retries = 0
        self._requeue_count = 0
        self._abandoned: List[FailedMatch] = []
        self._last_checkpoint: Optional[Dict[str, Any]] = None

    # -- the escalation ladder ---------------------------------------------------

    def on_error(
        self,
        match: "PartialMatch",
        server_id: int,
        error: BaseException,
        alternatives: bool,
    ) -> FailureAction:
        """Classify one failed server operation and pick the next action.

        ``alternatives`` says whether the match still has unvisited
        servers besides ``server_id`` (a REQUEUE must have somewhere else
        to go).
        """
        policy = self.policy
        label = f"server:{server_id}"
        self._error_counts[label] = self._error_counts.get(label, 0) + 1
        key = (match.match_id, server_id)
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        if attempts < policy.max_attempts:
            self._retries += 1
            return FailureAction.RETRY
        requeues = self._requeues.get(match.match_id, 0)
        if alternatives and requeues < policy.requeue_limit:
            self._requeues[match.match_id] = requeues + 1
            self.excluded.setdefault(match.match_id, set()).add(server_id)
            self._requeue_count += 1
            return FailureAction.REQUEUE
        self._abandoned.append(_snapshot(match, label, attempts, error))
        return FailureAction.ABANDON

    def retry_delay(
        self, match_id: int, server_id: int, max_seconds: Optional[float] = None
    ) -> float:
        """How long to wait before retrying ``match_id`` at ``server_id``:
        the policy's backoff for the attempts made so far (jitter is
        seeded), capped at ``max_seconds`` when given, so retry backoff can
        never overshoot the remaining engine deadline: engines pass their
        remaining ``deadline_seconds`` budget here."""
        delay = self.policy.backoff_delay(
            self._attempts.get((match_id, server_id), 1), self._rng
        )
        if max_seconds is not None:
            delay = min(delay, max(max_seconds, 0.0))
        return delay

    def pause(self, seconds: float) -> None:
        """Sleep a :meth:`retry_delay`.  The wait is interruptible —
        :meth:`interrupt` wakes it immediately (the shutdown/drain path)."""
        if seconds > 0:
            # Pacing wait through the clock seam: interruptible via
            # interrupt(), warped away entirely under a VirtualClock.
            simclock.wait(self._wakeup, seconds)

    def interrupt(self) -> None:
        """Cancel the current and all future backoff waits.

        One-way: after an interrupt every :meth:`pause` returns
        immediately, which is exactly the drain/shutdown semantics — a
        stopping engine must not sit in retry sleeps.
        """
        self._wakeup.set()

    def excluded_for(self, match_id: int) -> AbstractSet[int]:
        """Servers this match should avoid while alternatives exist.

        Until some match has been requeued — for the whole of a fault-free
        run — every answer is the one shared, immutable empty set.
        """
        excluded = self.excluded
        if not excluded:
            return _NO_EXCLUSIONS
        return frozenset(excluded.get(match_id, ()))

    # -- direct escalations (no retry path) -------------------------------------

    def record_abandoned(
        self, match: "PartialMatch", where: str, error: BaseException
    ) -> None:
        """A match was lost with no recovery possible (e.g. a put failed)."""
        self.record_component_error(where, error)
        self._abandoned.append(_snapshot(match, where, 1, error))

    def record_component_error(self, where: str, error: BaseException) -> None:
        """An error that cost no match (router fallback, queue-get error)."""
        self._error_counts[where] = self._error_counts.get(where, 0) + 1

    # -- checkpoint awareness ----------------------------------------------------

    def note_checkpoint(self, snapshot: Dict[str, Any]) -> None:
        """Remember the engine's latest recovery snapshot.

        The abandon path attaches it to the
        :class:`~repro.faults.report.FailureReport`, so callers can tell
        a *resumable* failure (work is recoverable from the snapshot)
        from a total loss.
        """
        self._last_checkpoint = snapshot

    def last_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The latest snapshot seen, or ``None`` when never checkpointed."""
        return self._last_checkpoint

    # -- reporting ---------------------------------------------------------------

    def abandoned(self) -> List[FailedMatch]:
        """Matches given up on, with their certificate-feeding bounds."""
        return list(self._abandoned)

    def abandoned_count(self) -> int:
        """Number of abandoned matches."""
        return len(self._abandoned)

    def max_abandoned_bound(self) -> float:
        """Largest upper bound among abandoned matches (0.0 when none)."""
        return max((failed.upper_bound for failed in self._abandoned), default=0.0)

    def counters(self) -> Tuple[Dict[str, int], int, int]:
        """(error counts by component, retries, requeues) — one snapshot."""
        return dict(self._error_counts), self._retries, self._requeue_count

    def __repr__(self) -> str:
        counts, retries, requeues = self.counters()
        return (
            f"Supervisor(errors={sum(counts.values())}, retries={retries}, "
            f"requeues={requeues}, abandoned={self.abandoned_count()})"
        )


def _snapshot(
    match: "PartialMatch", where: str, attempts: int, error: BaseException
) -> FailedMatch:
    return FailedMatch(
        match_id=match.match_id,
        root=repr(match.root_node),
        score=match.score,
        upper_bound=match.upper_bound,
        where=where,
        attempts=attempts,
        error=f"{type(error).__name__}: {error}",
    )
