"""The shared top-k set (Section 5.1) with safe score-based pruning.

The set keeps, per distinct query-root data node, the best score any tuple
for that root has reached so far ("only one match with a given root node is
present in the top-k set") plus the representative match that achieved it.
The pruning threshold — the paper's ``currentTopK`` — is the k-th largest
per-root score currently in the set (0 while fewer than k roots are known).
Entry scores only ever rise, so ``observe`` keeps the k best of them sorted
as it goes and ``threshold()`` / ``is_pruned()`` read a stored float; the
sort-everything definition lives on as the oracle of
``tests/test_topk_threshold_property.py``.

Safety argument (why pruning on ``upper_bound < threshold`` never loses a
top-k answer): scores are monotone along extension chains, so a tuple whose
maximum possible final score is below the current threshold can only finish
below it; and every entry score is achieved by some tuple whose own bound
is at least that score, hence is itself never pruned while it remains among
the top k — the threshold never overstates what completed tuples will
reach.  In *exact* mode, tuples can die without completing (a mandatory
predicate fails), so entry scores of unfinished tuples are not guaranteed
achievable; the set therefore supports ``threshold_source="complete"``,
where only completed matches raise the threshold.

Thread-safety: all mutating operations take an internal lock so
Whirlpool-M's server threads can share one instance.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.match import PartialMatch

if TYPE_CHECKING:
    from repro.query.pattern import TreePattern
from repro.xmldb.dewey import Dewey
from repro.xmldb.model import XMLNode


_NEG_INF = float("-inf")


class TopKAnswer:
    """One final answer: a root node, its score, its representative match."""

    __slots__ = ("root_node", "score", "match")

    def __init__(self, root_node: XMLNode, score: float, match: PartialMatch) -> None:
        self.root_node = root_node
        self.score = score
        self.match = match

    def explain(self, pattern: "TreePattern") -> str:
        """Relaxation provenance of this answer's representative match."""
        return self.match.explain(pattern)

    def __repr__(self) -> str:
        return f"TopKAnswer({self.root_node!r}, score={self.score:.4f})"


class _Entry:
    __slots__ = ("root_node", "score", "match", "complete_score", "complete_match")

    def __init__(self, root_node: XMLNode) -> None:
        self.root_node = root_node
        self.score = _NEG_INF
        self.match: Optional[PartialMatch] = None
        self.complete_score = _NEG_INF
        self.complete_match: Optional[PartialMatch] = None


class TopKSet:
    """Candidate top-k answers plus the pruning threshold they induce."""

    def __init__(self, k: int, threshold_source: str = "all") -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if threshold_source not in ("all", "complete"):
            raise ValueError(
                f"threshold_source must be 'all' or 'complete', got {threshold_source!r}"
            )
        self.k = k
        self.threshold_source = threshold_source
        self._complete_only = threshold_source == "complete"
        self._entries: Dict[Dewey, _Entry] = {}
        self._lock = threading.Lock()
        # The (at most) k best threshold-relevant scores, ascending, as bare
        # values: the threshold depends on the multiset only, so roots tied
        # at the k-th score are interchangeable and need no identity here.
        self._best: List[float] = []
        self._threshold = 0.0

    # -- updates ---------------------------------------------------------------

    def observe(self, match: PartialMatch, complete: bool) -> float:
        """Record a tuple's current score against its root's entry and
        return the threshold that results.

        Rule (i)/(ii) of Section 5.1: the new tuple updates or replaces the
        entry for its root when it improves on it; otherwise the entry is
        untouched (the tuple itself may still survive — survival is decided
        against the threshold, not here).  The threshold is returned from
        under the lock this call already holds, so the caller's prune test
        of a fresh extension needs no second locked read; under
        Whirlpool-M a returned value can only be older, hence lower, than
        a fresh :meth:`threshold` — it never prunes more.
        """
        key = match.root_node.dewey
        score = match.score
        complete_only = self._complete_only
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(match.root_node)
                self._entries[key] = entry
            # What this root counted for towards the threshold before the
            # update (-inf: nothing yet) and what it counts for after.
            old = entry.complete_score if complete_only else entry.score
            if complete and score > entry.complete_score:
                entry.complete_score = score
                entry.complete_match = match
            better = score > entry.score
            # On ties prefer the more-instantiated tuple: it is the more
            # informative representative for the user.
            tie_more_complete = (
                entry.match is not None
                and score == entry.score
                and len(match.visited) > len(entry.match.visited)
            )
            if better or tie_more_complete or entry.match is None:
                entry.score = score
                entry.match = match
            new = entry.complete_score if complete_only else entry.score
            if new > old:
                # Entry scores only rise, so the k best move only here.
                best = self._best
                if len(best) == self.k and old < best[0]:
                    # The root sat outside the k best: it (re-)enters only
                    # by beating the k-th, which it then evicts.
                    if new > best[0]:
                        del best[0]
                        insort(best, new)
                else:
                    if old != _NEG_INF:
                        del best[bisect_left(best, old)]
                    insort(best, new)
                if len(best) == self.k:
                    self._threshold = best[0]
            return self._threshold

    # -- threshold / pruning -------------------------------------------------------

    def threshold(self) -> float:
        """The paper's ``currentTopK``: the k-th best entry score (or 0).

        Maintained by :meth:`observe`; reading it is one locked load.
        """
        with self._lock:
            return self._threshold

    def is_pruned(self, match: PartialMatch) -> bool:
        """True iff the tuple's maximum possible final score cannot reach
        the current threshold (strict comparison keeps potential ties)."""
        return match.upper_bound < self.threshold()

    # -- results -----------------------------------------------------------------

    def answers(self) -> List[TopKAnswer]:
        """The k best entries, best first; ties break by document order.

        With ``threshold_source="complete"`` (exact mode) only roots with a
        completed match qualify — a partial exact match may yet die, so its
        score is not an answer.
        """
        if self.threshold_source == "complete":
            with self._lock:
                candidates = [
                    (entry.root_node, entry.complete_score, entry.complete_match)
                    for entry in self._entries.values()
                    if entry.complete_match is not None
                ]
        else:
            with self._lock:
                candidates = [
                    (entry.root_node, entry.score, entry.match)
                    for entry in self._entries.values()
                    if entry.match is not None
                ]
        candidates.sort(key=lambda item: (-item[1], item[0].dewey))
        return [
            TopKAnswer(root_node, score, match)
            for root_node, score, match in candidates[: self.k]
        ]

    def entry_count(self) -> int:
        """Number of distinct roots seen so far."""
        with self._lock:
            return len(self._entries)

    def export_state(
        self,
    ) -> List[Tuple[PartialMatch, Optional[PartialMatch]]]:
        """(match, complete_match) per entry — the checkpoint codec's view.

        Restoring replays :meth:`observe` on decoded copies of these
        matches, which reconstructs every entry score (and the threshold)
        exactly: an entry's score *is* its representative match's score.
        """
        with self._lock:
            return [
                (entry.match, entry.complete_match)
                for entry in self._entries.values()
                if entry.match is not None
            ]

    def snapshot(self) -> List[Tuple[Dewey, float]]:
        """(root dewey, score) pairs, best first — for tests/diagnostics."""
        with self._lock:
            pairs = [
                (key, entry.score)
                for key, entry in self._entries.items()
                if entry.match is not None
            ]
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
        return pairs

    def __repr__(self) -> str:
        return (
            f"TopKSet(k={self.k}, entries={self.entry_count()}, "
            f"threshold={self.threshold():.4f})"
        )
