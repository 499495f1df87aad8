"""The shared top-k set (Section 5.1) with safe score-based pruning.

The set keeps, per distinct query-root data node, the best score any tuple
for that root has reached so far ("only one match with a given root node is
present in the top-k set") plus the representative match that achieved it.
Two shared levels decide pruning, both kept by ``observe`` as it goes so
that ``is_pruned()`` reads two stored floats and the tuple's own root's
entry (the sort-everything definitions live on as the oracles of
``tests/test_topk_threshold_property.py``):

- the **threshold** — the paper's ``currentTopK`` — is the k-th largest
  per-root score currently in the set (0 while fewer than k roots are
  known);
- the **closing level** is the k-th largest per-root *completed* score
  (-inf while fewer than k roots have a completed match).  It never
  exceeds the threshold; with ``threshold_source="complete"`` the two are
  the same list.

A tuple is pruned when its maximum possible final score is *below* the
threshold, *at or below* the closing level, or *at or below* the score its
own root has already completed at (all up to float rounding, below).  The
first two are the shared-level test, :meth:`TopKSet.closes`.

Why ``upper_bound < threshold`` never loses a top-k answer: scores are
monotone along extension chains, so a tuple whose maximum possible final
score is below the current threshold can only finish below it; and every
entry score is achieved by some tuple whose own bound is at least that
score, hence is itself never pruned while it remains among the top k — the
threshold never overstates what completed tuples will reach.  In *exact*
mode, tuples can die without completing (a mandatory predicate fails), so
entry scores of unfinished tuples are not guaranteed achievable; the set
therefore supports ``threshold_source="complete"``, where only completed
matches raise the threshold.

What a bound is.  A tuple's upper bound is its score plus, for each server
it has not visited, that server's *cap* for the tuple's root — the best
contribution among the root's probe survivors (exact ones only, in exact
mode), 0 when there are none — summed in ``server_ids`` order
(:class:`~repro.core.server.RootBounds`).  Every contribution a server can
grant the root is at most its cap, so in real arithmetic the bound is never
below any final score the tuple can reach.  At a relaxed-mode seed it *is*
the root's best final score: quality is root-anchored, so the best
completion takes every cap, and the float equals the decomposed oracle's
(``tests/test_differential.py``) bit for bit — the same terms in the same
order.  A run without the Engine's table (private probe memos) builds the
same rows from its own probes as it seeds each root.

What rounding leaves, and the factor that covers it.  A final score is
summed in *visit* order, the bound in server order, so the float a root
completes at can exceed a bound of its chain by a few ulps (Q2 on the
``fig10_single`` benchmark document: 0 + 0.9999999999999999 × 3 + 1.0 is
3.9999999999999996 in server order and 4.0 when the 1.0 comes first).
Every comparison therefore takes the bound times ``f =``
:func:`bound_factor` ``(servers) = 1 + 2(m)eps``, m = servers + 1 terms:
a sum of m non-negative floats in any order is within ``(m-1)u`` (u =
eps/2) of the real sum, the real final is at most the real bound, so the
visit-order final is at most ``bound × (1 + (m-1)u) / (1 - (m-1)u)``, and
the multiplication's own rounding is one u more — all below ``2m eps``.
So ``bound × f`` dominates every float a tuple can finish at, in every
visit order, and the threshold test ``bound × f < threshold`` drops only
tuples that finish below the threshold, as floats.  The closing test
compares ``bound <= closing × f``: it drops a tuple that can at best tie
the closing level *up to that rounding* — the tie group whose roots
completed at 3.9999999999999996 closes its cousins bounded at 4.0, which
a bound stepped above the float its group completed at would never do.
Such a tuple finishes at most ``c f^2``: equal to the k-th score to nine
digits, the precision :func:`topk_mismatch` and :func:`certificate_breach`
compare at, so it is one of the k-th level's interchangeable ties —
unless the two floats, ~1e-15 apart relative, straddle a nine-digit
rounding boundary, which only scores summed canonically (ROADMAP item 1)
remove.  Those make every tie group exact, and the maximum-final-score
queues, which break key ties by arrival, then work a group off
breadth-first (on the same document Q2 at k = 3 went from 66 to 554
Whirlpool-S operations): item 1 needs a tie-break with it.

Why ``upper_bound <= closing level`` loses none either (closing ties).  Let
c be the closing level when a tuple bounded by c is dropped.  k distinct
roots already hold *completed* scores >= c, and entry scores only rise, so
the final k-th score is >= c: the dropped tuple and everything it could
have become finish at most *level* with the k-th answer.  The contract —
:func:`topk_mismatch`, the rule ``perf/oracle.answers_match`` and the
differential tests apply — accepts any root among those tied at the k-th
score, so dropping a possible tie is allowed.  Nothing above the k-th is
touched: a root whose true score exceeds the final k-th score reaches it
along a chain of tuples whose bounds are all at least that score, hence
above every c the run ever held (c never exceeds the final k-th score), so
no tuple of that chain is dropped and the returned score multiset is exact.
The argument never mentions the order tuples are met in, so it holds for
every engine, and every way a run can hold a *lower* c than the true one
only prunes less:

- *Whirlpool-S* pops in bound order, so the first tuple the levels close
  (:meth:`TopKSet.closes`) closes every tuple queued behind it: the loop
  drains its queue, counts each drained tuple as pruned (and shows it to
  an observer's ``on_prune``) and ends — Upper/MPro's early stop.  Both
  levels only rise, so each drained tuple would have failed its own pop's
  test: the early stop changes how long a run takes, not what it does;
- *LockStep* and *Whirlpool-M* pop per server in whatever order the sweep
  or the threads produce — the argument needs no order; a Whirlpool-M
  thread holding a level read before another thread raised it holds a
  stale, lower c;
- a *shard* bounds its tuples by its own Engine's caps — a root's caps
  depend only on its own document and the coordinator's score model, so
  they are the forest's — and closes against its local c, the k-th
  completed score among its own roots, which is <= the forest's; the
  coordinator's merge (``cluster/merge.dominated``) stays strict because it
  is shown scores, not whether the matches behind them are complete, and
  this argument needs k *completed* incumbents;
- a *restored* run's c is rebuilt by replaying ``observe`` on the
  snapshot's entries (``export_state``): completed matches are replayed as
  completed, so c comes back exactly — and a snapshot that lost some would
  bring back a lower one;
- a *degraded* exit reports the certificate :func:`certificate_ceiling`
  states: tuples left unprocessed are bounded by ``pending_bound``, tuples
  dropped as ties by the c of their time, and c <= the k-th reported score.

Why ``upper_bound <= own root's completed score`` loses none either (a
root closes its own tuples).  Let o be the completed score the tuple's root
r holds when the tuple is dropped.  The set keeps one match per root, and
r's entry already holds a completed match at o; completed scores only
rise.  The dropped tuple and everything it could become finish at most o
(up to the rounding below): at best they tie the match r has, so r's score
and the completeness of its representative stay what they would have been,
and which of r's equal matches represents it is all that can change.  The
test reads r's entry only, so no other root loses anything, and neither
level can fall below what it would have reached: each depends on per-root
best scores, and r's are already >= anything the tuple could add.  The
threshold stays achieved: an entry score s of r whose tuple is dropped has
s <= bound <= o, and r's entry score is >= o, so s = o, held by r's
completed match.  It is compared in the closing test's form, ``bound <= o
× f``: r's tie group completes at the very float its cousins are bounded
by, so the strict form ``bound × f <= o`` would never fire.  A tuple dropped
this way could finish at most ``o f^2`` — equal to r's score to nine
digits, with the closing test's straddle caveat, which canonical sums
(ROADMAP item 1) remove for both tests.  No order and no other level is
involved, so it holds alike in every engine: a root lives in one shard and
one entry, a Whirlpool-M thread reads r's entry under the lock, a restored
run replays r's completed match, and at a degraded exit a root outside
the answers has o <= its entry score <= the k-th reported score, which the
certificate already covers.  It closes r's tuples only, so a Whirlpool-S
pop it prunes closes nothing queued behind it.

Closed ties leave one thing to ``answers()``: a root may keep a partial
tuple as its representative when the tuple that would have completed it at
the same score was closed (possible only where the servers still unvisited
can add nothing — a zero ``max_contribution``).  "The same score" is up to
the rounding both tolerant tests allow, so the partial score can sit an ulp
*above* the float it ties.  ``answers()`` therefore (i) represents a root
whose partial score is at most its own completed score × f by that
completed match and score, and (ii) ranks a root still partial at a score
at most the closing level × f as if it scored the closing level, after the
roots that completed there.  k roots have completed at or above the
closing level once it is finite, so a finished relaxed run returns
complete matches only.

Sharing: a set has no lock of its own, and one body serves every engine.
A run that one thread drives — Whirlpool-S, LockStep, LockStep-NoPrun, the
makespan model — calls it directly.  Whirlpool-M's threads call it only
while they hold their run's engine lock (:mod:`repro.core.whirlpool_m`),
so both levels are written and read under that one lock.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Sized,
    Tuple,
)

from repro.core.match import PartialMatch

if TYPE_CHECKING:
    from repro.query.pattern import TreePattern
from repro.xmldb.dewey import Dewey, dewey_str
from repro.xmldb.model import XMLNode


_NEG_INF = float("-inf")


def bound_factor(servers: int) -> float:
    """What a bound summed over ``servers`` servers is multiplied by to
    dominate every float a tuple it bounds can finish at (module
    docstring, "What rounding leaves"): ``1 + 2 (servers + 1) eps``."""
    return 1.0 + 2 * (servers + 1) * sys.float_info.epsilon


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


def _kth_after_rise(best: List[float], k: int, old: float, new: float) -> float:
    """One root's score rose from ``old`` (-inf: it had none) to ``new``:
    update ``best``, the (at most) k best such scores in ascending order,
    and return the k-th best — -inf while fewer than k roots have one."""
    if len(best) == k and old < best[0]:
        # The root sat outside the k best: it (re-)enters only by beating
        # the k-th, which it then evicts.
        if new > best[0]:
            del best[0]
            insort(best, new)
    else:
        if old != _NEG_INF:
            del best[bisect_left(best, old)]
        insort(best, new)
    return best[0] if len(best) == k else _NEG_INF


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

    def __init__(
        self,
        k: int,
        threshold_source: str = "all",
        bound_factor: float = 1.0,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if threshold_source not in ("all", "complete"):
            raise ValueError(
                f"threshold_source must be 'all' or 'complete', got {threshold_source!r}"
            )
        self.k = k
        self.threshold_source = threshold_source
        #: What a float bound is multiplied by before it is compared
        #: (:func:`bound_factor`; 1.0 treats bounds as exact).
        self.bound_factor = bound_factor
        self._complete_only = threshold_source == "complete"
        self._entries: Dict[Dewey, _Entry] = {}
        # The (at most) k best per-root scores and per-root completed
        # scores, ascending, as bare values: a level depends on the multiset
        # only, so roots tied at the k-th score are interchangeable and need
        # no identity here.  ``"complete"`` mode keeps the second list only.
        self._best: List[float] = []
        self._best_complete: List[float] = []
        self._threshold = 0.0
        self._closing = _NEG_INF

    # -- updates ---------------------------------------------------------------

    def observe(self, match: PartialMatch, complete: bool) -> float:
        """Record a tuple's current score against its root's entry and
        return the threshold that results.

        Rule (i)/(ii) of Section 5.1: the new tuple updates or replaces the
        entry for its root when it improves on it; otherwise the entry is
        untouched (the tuple itself may still survive — survival is decided
        against the two levels, not here).  The caller's prune test of a
        fresh extension reads the returned threshold, not a second
        :meth:`threshold` call.
        """
        key = match.root_node.dewey
        score = match.score
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(match.root_node)
            self._entries[key] = entry
        if complete and score > entry.complete_score:
            # Completed scores only rise, so the closing level moves only
            # here.
            closing = _kth_after_rise(
                self._best_complete, self.k, entry.complete_score, score
            )
            entry.complete_score = score
            entry.complete_match = match
            if closing != _NEG_INF:
                self._closing = closing
                if self._complete_only:
                    self._threshold = closing
        old = entry.score
        # On ties prefer the more-instantiated tuple: it is the more
        # informative representative for the user.
        tie_more_complete = (
            entry.match is not None
            and score == old
            and len(match.visited) > len(entry.match.visited)
        )
        if score > old or tie_more_complete or entry.match is None:
            entry.score = score
            entry.match = match
            if score > old and not self._complete_only:
                # Entry scores only rise, so the threshold moves only here.
                threshold = _kth_after_rise(self._best, self.k, old, score)
                if threshold != _NEG_INF:
                    self._threshold = threshold
        return self._threshold

    # -- threshold / pruning -------------------------------------------------------

    def threshold(self) -> float:
        """The paper's ``currentTopK``: the k-th best entry score (or 0).

        Maintained by :meth:`observe`; reading it is one load.
        """
        return self._threshold

    def closing_level(self) -> float:
        """The k-th best per-root *completed* score (-inf below k of them):
        a tuple that cannot finish above it can at best tie k finished
        answers.  Never above :meth:`threshold`; one load."""
        return self._closing

    def closes(self, bound: float) -> bool:
        """True iff a tuple bounded by ``bound`` cannot reach the
        threshold, or can at best tie k completed answers: the test on the
        two shared levels, which only rise — so it holds for every tuple
        whose bound is no higher, too."""
        factor = self.bound_factor
        return bound * factor < self._threshold or bound <= self._closing * factor

    def is_pruned(self, match: PartialMatch) -> bool:
        """True iff the tuple can add nothing to the answer: the shared
        levels close it (:meth:`closes`), or it cannot beat the score its
        own root has already completed at (module docstring, "a root
        closes its own tuples")."""
        entry = self._entries.get(match.root_node.dewey)
        own = _NEG_INF if entry is None else entry.complete_score
        bound = match.upper_bound
        factor = self.bound_factor
        return (
            bound * factor < self._threshold
            or bound <= self._closing * factor
            or bound <= own * factor
        )

    # -- results -----------------------------------------------------------------

    def answers(self) -> List[TopKAnswer]:
        """The k best entries, best first; among equal scores, roots whose
        representative match is complete come first (closed ties can leave
        a partial one, up to rounding — module docstring), then document
        order.

        With ``threshold_source="complete"`` (exact mode) only roots with a
        completed match qualify — a partial exact match may yet die, so its
        score is not an answer.
        """
        candidates = self._candidates()
        candidates.sort(key=lambda item: (-item[3], item[4], item[0].dewey))
        return [
            TopKAnswer(root_node, score, match)
            for root_node, score, match, _, _ in candidates[: self.k]
        ]

    def _candidates(
        self,
    ) -> List[Tuple[XMLNode, float, Optional[PartialMatch], float, bool]]:
        """(root, score, representative, rank score, partial) per root that
        qualifies as an answer, unsorted (:meth:`answers`)."""
        if self.threshold_source == "complete":
            return [
                (
                    entry.root_node,
                    entry.complete_score,
                    entry.complete_match,
                    entry.complete_score,
                    False,
                )
                for entry in self._entries.values()
                if entry.complete_match is not None
            ]
        factor = self.bound_factor
        closed = self._closing * factor
        candidates = []
        for entry in self._entries.values():
            if entry.match is None:
                continue
            score, match = entry.score, entry.match
            partial = entry.complete_score < score
            if partial and score <= entry.complete_score * factor:
                # Its own completed match ties it: (i).
                score, match = entry.complete_score, entry.complete_match
                partial = False
            rank = self._closing if partial and score <= closed else score
            candidates.append((entry.root_node, score, match, rank, partial))
        return candidates

    def entry_count(self) -> int:
        """Number of distinct roots seen so far."""
        return len(self._entries)

    def export_state(
        self,
    ) -> List[Tuple[PartialMatch, Optional[PartialMatch]]]:
        """(match, complete_match) per entry — the checkpoint codec's view;
        :meth:`restore_state` is its inverse."""
        return [
            (entry.match, entry.complete_match)
            for entry in self._entries.values()
            if entry.match is not None
        ]

    def restore_state(
        self,
        state: Iterable[Tuple[PartialMatch, Optional[PartialMatch]]],
        server_ids: Sized,
    ) -> None:
        """Replay (decoded copies of) :meth:`export_state`'s pairs through
        :meth:`observe`, which reconstructs every entry score and both
        levels exactly: an entry's score *is* its representative match's
        score, and its completed score its complete match's."""
        for match, complete_match in state:
            self.observe(match, complete=match.is_complete(server_ids))
            if complete_match is not None:
                self.observe(complete_match, complete=True)

    def snapshot(self) -> List[Tuple[Dewey, float]]:
        """(root dewey, score) pairs, best first — for tests/diagnostics."""
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


# -- the contract, as checks ---------------------------------------------------------

#: (root Dewey, score) per answer, best first — what the checks below read,
#: so a wire reply's answers can be held to them as well as a result's.
Ranked = Sequence[Tuple[Dewey, float]]

#: Scores are sums of the same contributions in visit order, which differs
#: between engines: equal to nine decimals is equal.
_SCORE_DIGITS = 9
_SCORE_EPSILON = 10**-_SCORE_DIGITS


def ranked(answers: Sequence[TopKAnswer]) -> List[Tuple[Dewey, float]]:
    """``answers`` as :data:`Ranked` pairs, in the order given."""
    return [(answer.root_node.dewey, answer.score) for answer in answers]


def topk_mismatch(ranking: Ranked, answers: Ranked, k: int) -> Optional[str]:
    """Why ``answers`` is not a top-k of ``ranking`` — ``None`` when it is.

    ``ranking`` is every root with its final score, best first: a
    ``lockstep_noprun`` run with k = all roots, which never reads either
    pruning level.  The one definition of "the same top-k": equal scores
    position by position; every returned root holds the score it is
    returned at, so each score level above the k-th returns exactly its
    roots, in any order, and the k-th level any of its roots (closed
    ties); no root twice.  Order within a level is not compared: a
    match's score is summed in the order its servers were visited, so two
    tied roots can differ by an ulp and rank either way.
    """
    expected = ranking[:k]
    want = [round(score, _SCORE_DIGITS) for _, score in expected]
    got = [round(score, _SCORE_DIGITS) for _, score in answers]
    if got != want:
        return f"scores {got!r}, expected {want!r}"
    if not expected:
        return None
    kth = want[-1]
    levels: Dict[float, Set[Dewey]] = {}
    for dewey, score in ranking:
        levels.setdefault(round(score, _SCORE_DIGITS), set()).add(dewey)
    seen = set()
    for (dewey, _), score in zip(answers, want):
        if dewey in seen:
            return f"root {dewey_str(dewey)} returned twice"
        seen.add(dewey)
        if dewey not in levels[score]:
            if score == kth:
                return f"root {dewey_str(dewey)} does not hold the k-th score {kth!r}"
            return f"root {dewey_str(dewey)} does not score {score!r}, above the k-th"
    return None


def certificate_ceiling(answers: Ranked, k: int, pending_bound: float) -> float:
    """What a (degraded) result certifies: no root outside ``answers``
    finishes above ``max(pending_bound, k-th reported score)``.

    ``pending_bound`` covers the work the run left undone; the k-th
    reported score covers the roots whose work is over — they failed to
    beat it, or were closed as ties with it.  Fewer than k answers means
    every root met so far was reported, and nothing was pruned.
    """
    if len(answers) < k:
        return pending_bound
    return max(pending_bound, answers[k - 1][1])


def certificate_breach(
    ranking: Ranked, answers: Ranked, k: int, pending_bound: float
) -> Optional[str]:
    """The best root of ``ranking`` that ``answers`` leaves out although
    it scores above :func:`certificate_ceiling` — ``None`` when the
    certificate holds."""
    ceiling = certificate_ceiling(answers, k, pending_bound)
    reported = {dewey for dewey, _ in answers}
    for dewey, score in ranking:  # best first
        if score <= ceiling + _SCORE_EPSILON:
            return None
        if dewey not in reported:
            return (
                f"unreported root {dewey_str(dewey)} scores {score!r} above the "
                f"certified {ceiling!r}"
            )
    return None
