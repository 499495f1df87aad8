"""Shared engine machinery: setup, seeding, extension handling, results.

All four algorithms (Whirlpool-S, Whirlpool-M, LockStep, LockStep-NoPrun)
share everything except their control flow: the compiled plan, one
:class:`~repro.core.server.Server` per non-root query node, the bound
material, the shared top-k set, and the statistics bundle.  :class:`EngineBase`
holds that and implements the two steps every engine performs identically:

- **seeding** — the root server generates one initial partial match per
  candidate root node (Section 5.1: "the book server ... initializes the
  set of partial matches").  The candidates are one list per (database,
  query), :class:`CandidateRoots`: each root with its row of the bound
  table, in document order.  LockStep and Whirlpool-M seed every root up
  front (:meth:`EngineBase.seed_matches`).  Whirlpool-S pops in
  bound order, so it seeds a root only when the root would pop next
  (:meth:`EngineBase.open_roots`, :meth:`EngineBase.seed`): the roots
  sorted by seed bound, a cursor into them (:attr:`EngineBase.seeded`),
  and arrival numbers reserved at the start so a late seed still wins
  every key tie it would have won.  Either way every root counts as
  created when the run starts;
- **absorbing extensions** — bound, report to the top-k set, detect
  completion, prune.

Bound material is per root: a match's upper bound is its score plus what
its unvisited servers can still add *for its root* — their caps in the
root's row of the bound table (:class:`~repro.core.server.RootBounds`),
which the seed hands to every match it spawns.  At the seed of a relaxed
run that bound is the root's best final score.  An Engine fills the table
from its probe sweep; a run built without one (private probe memos) builds
each root's row from its own servers' probes as it lists the candidate
roots, when it starts — the same row, so the same bound and the same
operation counts.

The adaptive engines' step is built from it too: pop
(:meth:`EngineBase.pop_or_lose`) → :meth:`EngineBase.admit` →
:meth:`EngineBase.choose_server` / :meth:`EngineBase.serve` → put
(:meth:`EngineBase.put_or_abandon`).  Whirlpool-S runs it in one loop,
Whirlpool-M in real threads or under the makespan model's scheduler
(:func:`repro.bench.makespan.simulate`).  Every engine calls the same
bodies, and none of the state they touch has a lock of its own:
Whirlpool-M's threads hold their run's engine lock through a step and let
go of it only where the step waits — :meth:`EngineBase.unlocked`.

Those bodies fire every fault hook (``SERVER_OP`` in :meth:`EngineBase.serve`
and :meth:`EngineBase.escalate`, ``QUEUE_PUT`` / ``QUEUE_GET`` in the put
and the pop, ``ROUTER`` in :meth:`EngineBase.choose_server`), each through
:meth:`EngineBase.unlocked`, since an injected DELAY sleeps there; a run
without a plan tests one ``None`` per site and pops its queues directly.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.match import PartialMatch, reserve_arrivals
from repro.core.queues import MatchQueue, QueuePolicy
from repro.core.router import MinAliveRouter, RoutingStrategy, SizingEntry
from repro.core.server import Operation, ProbeMemo, RootBounds, Server, bound_rows
from repro.core.stats import ExecutionStats
from repro.core.topk import TopKAnswer, TopKSet, bound_factor
from repro.core.trace import EngineObserver
from repro.errors import (
    EngineCrashError,
    EngineError,
    InjectedFaultError,
    RecoveryError,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import FailureReport
from repro.faults.supervisor import FailureAction, RetryPolicy, Supervisor
from repro.query.pattern import TreePattern
from repro.recovery.codec import encode_engine_state, restore_engine_state
from repro.relax.plan import compile_plan
from repro.scoring.model import ScoreModel
from repro.xmldb.dewey import Dewey
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.model import XMLNode

if TYPE_CHECKING:
    from repro.recovery.policy import CheckpointPolicy


#: The closing level of a run that keeps every sibling (LockStep-NoPrun).
_NEVER_CLOSES = float("-inf")

#: :meth:`EngineBase.escalate`'s answer when the supervisor requeues the
#: match (compared by identity).
_REQUEUED: Operation = ([], 0, 0)

_T = TypeVar("_T")

_NOT_SIBLINGS = (
    "absorb_extensions takes the extensions of one server operation: "
    "they must share one visited set"
)


class TopKResult:
    """Outcome of one engine run: the answers plus the execution metrics.

    ``degraded`` flags runs that finished without full processing — a
    deadline or operation budget expired, matches were abandoned after
    exhausted recovery, or injected faults dropped work.  Degraded
    results still carry the anytime certificate
    (:func:`~repro.core.topk.certificate_ceiling`): no unreported root
    can score above ``max(pending_bound, k-th reported score)`` —
    ``pending_bound`` covers the work left undone, the k-th reported
    score the roots that were finished or closed as ties below it — and
    ``failure`` explains what was lost.
    """

    __slots__ = (
        "answers",
        "stats",
        "algorithm",
        "k",
        "pattern",
        "degraded",
        "pending_bound",
        "failure",
    )

    def __init__(
        self,
        answers: List[TopKAnswer],
        stats: ExecutionStats,
        algorithm: str,
        k: int,
        pattern: TreePattern,
        degraded: bool = False,
        pending_bound: float = 0.0,
        failure: Optional[FailureReport] = None,
    ) -> None:
        self.answers = answers
        self.stats = stats
        self.algorithm = algorithm
        self.k = k
        self.pattern = pattern
        self.degraded = degraded
        self.pending_bound = pending_bound
        self.failure = failure

    def scores(self) -> List[float]:
        """Answer scores, best first."""
        return [answer.score for answer in self.answers]

    def root_deweys(self) -> List[Dewey]:
        """Dewey ids of the answer roots, best first."""
        return [answer.root_node.dewey for answer in self.answers]

    def table(self) -> str:
        """Render the answers as a small text table."""
        lines = [f"top-{self.k} answers ({self.algorithm}):"]
        for rank, answer in enumerate(self.answers, start=1):
            lines.append(
                f"  {rank:2d}. score={answer.score:8.4f}  root={answer.root_node!r}"
            )
        if not self.answers:
            lines.append("  (no answers)")
        if self.degraded:
            lines.append(
                f"  [degraded: unreported answers score <= {self.pending_bound:.4f}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        degraded = ", degraded" if self.degraded else ""
        return (
            f"TopKResult({self.algorithm}, k={self.k}, "
            f"answers={len(self.answers)}, ops={self.stats.server_operations}"
            f"{degraded})"
        )


#: One root of Whirlpool-S's seeding order: (-seed bound, document
#: position, root node, its row of the bound table).
SeedEntry = Tuple[float, int, XMLNode, RootBounds]


class CandidateRoots:
    """The query root's candidate nodes, in document order, each with its
    row of the bound table: what a run of one (database, query) seeds.

    An Engine builds it once, next to its bound table, and hands it to
    every run it opens; a run built by hand lists its own through
    :meth:`EngineBase.root_row`.  ``by_bound`` is Whirlpool-S's seeding
    order, built on first use from ``roots``: one :data:`SeedEntry` per
    root, ascending — the order a max-final-score queue pops the seeds in,
    key ties in document order.  Two runs may both build it; the lists are
    equal and either is kept.
    """

    __slots__ = ("roots", "by_bound")

    def __init__(self, roots: List[Tuple[XMLNode, RootBounds]]) -> None:
        self.roots = roots
        self.by_bound: Optional[List[SeedEntry]] = None


class EngineBase:
    """Common state and helpers for the four evaluation algorithms."""

    algorithm = "abstract"
    #: Whether the run prunes against the top-k set: every engine but
    #: LockStep-NoPrun, which keeps every extension and shows none of them
    #: to an observer.
    prune = True

    def __init__(
        self,
        pattern: TreePattern,
        index: DatabaseIndex,
        score_model: ScoreModel,
        k: int,
        relaxed: bool = True,
        router: Optional[RoutingStrategy] = None,
        queue_policy: QueuePolicy = QueuePolicy.MAX_FINAL_SCORE,
        observer: Optional[EngineObserver] = None,
        join_algorithm: str = "index",
        faults: Optional[FaultPlan] = None,
        deadline_seconds: Optional[float] = None,
        max_operations: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        probe_memos: Optional[Mapping[int, ProbeMemo]] = None,
        root_bounds: Optional[Dict[Dewey, RootBounds]] = None,
        candidate_roots: Optional[CandidateRoots] = None,
    ) -> None:
        if k <= 0:
            raise EngineError(f"k must be positive, got {k}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise EngineError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        if max_operations is not None and max_operations < 0:
            raise EngineError(
                f"max_operations must be >= 0, got {max_operations}"
            )
        self.pattern = pattern
        self.index = index
        self.score_model = score_model
        self.k = k
        self.relaxed = relaxed
        self.queue_policy = queue_policy
        self.deadline_seconds = deadline_seconds
        self.max_operations = max_operations
        #: Active fault injector (``None`` when no plan — the common case,
        #: costing a single attribute test at each hook site).
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None else None
        )
        #: Failure book-keeping for all workers of this run.
        self.supervisor = Supervisor(retry_policy)

        self.plan = compile_plan(pattern, relaxed)
        # ``probe_memos`` (server node id -> memo, for this join algorithm)
        # come from the Engine facade and outlive the run; without them
        # every server memoizes privately for the run.
        self.servers: Dict[int, Server] = {}
        for node_id in self.plan.server_ids():
            server = Server(
                self.plan.server(node_id),
                index,
                score_model,
                relaxed,
                join_algorithm=join_algorithm,
                probe_memo=probe_memos[node_id] if probe_memos is not None else None,
            )
            self.servers[node_id] = server

        self.server_ids: List[int] = sorted(self.servers)
        self.max_contributions: Dict[int, float] = {
            node_id: score_model.max_contribution(node_id)
            for node_id in self.server_ids
        }
        #: root Dewey -> that root's row of the bound table: the Engine's,
        #: which has every root, or this run's own, filled by
        #: :meth:`root_row` as the run meets roots.
        self.root_bounds: Dict[Dewey, RootBounds] = (
            root_bounds if root_bounds is not None else {}
        )
        #: The Engine's candidate roots, or this run's own, listed by
        #: :meth:`candidate_roots` when the run starts.
        self._candidate_roots = candidate_roots
        #: Whirlpool-S's cursor: how many roots of :meth:`seed_order` this
        #: run has seeded (``None``: every root was seeded up front).  A
        #: budget exit parks it with the queue, a checkpoint carries it.
        self.seeded: Optional[int] = None
        #: The first of the arrival numbers :meth:`open_roots` reserved:
        #: the root at document position p arrives ``seed_arrival + p``.
        self.seed_arrival = 0
        #: visited -> the unvisited servers' ids in ``server_ids`` order,
        #: filled as the run meets new visited sets (at most 2^servers).
        self.bound_table: Dict[FrozenSet[int], Tuple[int, ...]] = {}
        #: visited -> the size-based router's entries for it, filled by
        #: :meth:`~repro.core.router.MinAliveRouter.choose` and kept for the
        #: run.
        self.sizing_table: Dict[FrozenSet[int], Tuple[SizingEntry, ...]] = {}
        threshold_source = "all" if relaxed else "complete"
        self.topk = TopKSet(
            k,
            threshold_source=threshold_source,
            bound_factor=bound_factor(len(self.server_ids)),
        )
        self.router: RoutingStrategy = router if router is not None else MinAliveRouter()
        self.stats = ExecutionStats()
        #: Optional :class:`~repro.core.trace.EngineObserver` receiving
        #: seed / route / extension / prune events.
        self.observer: Optional[EngineObserver] = observer
        #: When set, engines serialize recovery snapshots at their
        #: quiesce points (:meth:`maybe_checkpoint`).  ``None`` (the
        #: default) costs a single attribute test per loop pass.
        self.checkpoint_policy: Optional[CheckpointPolicy] = checkpoint_policy
        #: Operation count of this run's last checkpoint or restored
        #: snapshot: the next periodic checkpoint is an interval past it.
        self.checkpointed_at = 0
        #: Optional callback receiving every snapshot taken — the query
        #: service points this at a :class:`~repro.recovery.store.RecoveryStore`.
        #: A failing sink is recorded as a component error, never fatal.
        self.checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = (
            checkpoint_sink
        )
        #: Most recent snapshot taken during this run (also attached to
        #: the :class:`~repro.faults.report.FailureReport` so callers can
        #: tell a resumable failure from a total loss).
        self.last_checkpoint: Optional[Dict[str, Any]] = None
        #: Matches the next :meth:`run` starts from instead of seeding:
        #: decoded by :meth:`restore`, or parked live by a budget exit
        #: (with :attr:`seeded`, when the run seeds as it goes).
        self._restored: Optional[List[PartialMatch]] = None
        #: Loss inherited from a restored snapshot (work the *crashed*
        #: run dropped or abandoned before its last checkpoint).  The
        #: resumed run can be locally fault-free and still be missing
        #: that work, so :meth:`make_result` folds it into the
        #: degradation flag and the ``pending_bound`` certificate.
        self.carried_loss: Optional[Dict[str, Any]] = None

    # -- checkpoint / restore ------------------------------------------------------

    def checkpoint(
        self,
        queues: Dict[str, MatchQueue],
        loose: Sequence[PartialMatch] = (),
    ) -> Dict[str, Any]:
        """Serialize this run's live state into a versioned snapshot.

        ``queues`` maps labels to the engine's live queues (read
        non-destructively); ``loose`` covers matches held outside any
        queue (LockStep's survivors).  The snapshot is remembered on
        :attr:`last_checkpoint`, counted in the stats, shown to the
        supervisor (for the failure report), and pushed to the
        :attr:`checkpoint_sink` when one is attached.  Engines call this
        only from a quiesced vantage point: a single-threaded loop pass,
        or between two of Whirlpool-M's thread segments.
        """
        snapshot = encode_engine_state(self, queues, loose)
        self.stats.record_checkpoint()
        self.checkpointed_at = self.stats.server_operations
        self.last_checkpoint = snapshot
        self.supervisor.note_checkpoint(snapshot)
        sink = self.checkpoint_sink
        if sink is not None:
            try:
                sink(snapshot)
            except Exception as exc:
                # Persistence trouble must not kill a healthy run; the
                # report will show the sink failed.
                self.supervisor.record_component_error("checkpoint_sink", exc)
        return snapshot

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Adopt a snapshot's progress; must be called before :meth:`run`.

        Replays the snapshot's top-k entries (so the pruning threshold is
        live immediately), folds its operation counters into this run's
        stats, and stages its queued matches and its cursor over the roots
        not seeded yet — the engine's :meth:`run` starts from those instead
        of re-seeding from the root server.
        Raises :class:`~repro.errors.RecoveryError` for snapshots taken
        under a different version, ``k``, or pattern.
        """
        if self._restored is not None or self.stats.server_operations > 0:
            raise RecoveryError("restore() must be called once, before run()")
        self._restored = restore_engine_state(snapshot, self)
        # The snapshot is the checkpoint at this operation count; the
        # next one is due a full interval later.
        self.checkpointed_at = self.stats.server_operations

    def park(self, leftovers: List[PartialMatch]) -> float:
        """Budget exit: keep the unprocessed live matches for the next
        :meth:`run`, which continues from them (same ``match_id`` /
        ``arrival``, so queue order is the uninterrupted run's) once the
        budget is raised.  Engines park at every budget exit, an empty
        list included — staged, it makes the next run finish this one
        instead of seeding again.  The cursor (:attr:`seeded`) stays
        where it is, with the arrivals reserved for the roots after it.
        Returns the best upper bound among the leftovers and the roots
        not seeded yet — the ``pending_bound`` of this exit."""
        self._restored = leftovers
        return max(
            max((match.upper_bound for match in leftovers), default=0.0),
            self.unseeded_bound(),
        )

    def unseeded_bound(self) -> float:
        """The seed bound of the next root the cursor would seed — the
        best of every root not seeded yet — or 0.0 when none is left."""
        seeded = self.seeded
        if seeded is None:
            return 0.0
        order = self.seed_order()
        return -order[seeded][0] if seeded < len(order) else 0.0

    def take_restored(self) -> Optional[List[PartialMatch]]:
        """The staged matches (once), or ``None`` for a fresh run."""
        restored = self._restored
        self._restored = None
        return restored

    def arm_faults(self, faults: Optional[FaultPlan]) -> None:
        """Start ``faults`` (or none) from its first operation — what a
        re-entered run does per budget step, since a fault plan counts
        operations from where it was armed.  What the outgoing injector
        dropped stays in the ``pending_bound`` certificate."""
        outgoing = self.fault_injector
        if outgoing is not None and outgoing.dropped_count() > 0:
            carried: Dict[str, Any] = dict(self.carried_loss or {})
            carried["bound"] = max(
                float(carried.get("bound", 0.0)), outgoing.max_dropped_bound()
            )
            self.carried_loss = carried
        self.fault_injector = FaultInjector(faults) if faults is not None else None

    def checkpoint_due(self) -> bool:
        """True once the policy's interval has passed since
        :attr:`checkpointed_at`."""
        policy = self.checkpoint_policy
        return (
            policy is not None
            and self.stats.server_operations - self.checkpointed_at
            >= policy.every_operations
        )

    def maybe_checkpoint(
        self,
        queues: Dict[str, MatchQueue],
        loose: Sequence[PartialMatch] = (),
        budget_exit: bool = False,
    ) -> None:
        """The checkpoint rule, applied at a quiesce point: with a policy,
        snapshot at a budget exit or once the interval has passed.  An
        engine calls this at each quiesce point of a run that
        :meth:`watches_budget`; with no policy it costs one attribute
        test."""
        if self.checkpoint_policy is not None and (budget_exit or self.checkpoint_due()):
            self.checkpoint(queues, loose)

    # -- shared steps --------------------------------------------------------------

    def unvisited(self, visited: FrozenSet[int]) -> Tuple[int, ...]:
        """The servers a match that has been through ``visited`` has still
        to visit, in ``server_ids`` order (none: the match is complete)."""
        unvisited = self.bound_table.get(visited)
        if unvisited is None:
            unvisited = self.bound_table[visited] = tuple(
                node_id for node_id in self.server_ids if node_id not in visited
            )
        return unvisited

    def root_row(self, root_dewey: Dewey) -> RootBounds:
        """The root's row of the bound table.  A run without the Engine's
        table builds it from its servers' probes (which fill their memos)
        the first time it meets the root — before its threads start: at
        seeding, or when a snapshot is decoded."""
        row = self.root_bounds.get(root_dewey)
        if row is None:
            probes = {
                node_id: [server._probe_shared(root_dewey)]
                for node_id, server in self.servers.items()
            }
            (row,) = bound_rows(1, probes, self.score_model, self.relaxed)
            self.root_bounds[root_dewey] = row
        return row

    def bounds_for(self, match: PartialMatch) -> RootBounds:
        """``match``'s row of the bound table, handed down from its seed —
        looked up (and kept) for a match made any other way."""
        bounds = match.root_bounds
        if bounds is None:
            bounds = match.root_bounds = self.root_row(match.root_node.dewey)
        return bounds

    def bound_entry(
        self, visited: FrozenSet[int], bounds: RootBounds
    ) -> Tuple[float, Tuple[int, ...]]:
        """``(remaining, unvisited)`` for a match of the root whose row is
        ``bounds`` that has been through the servers in ``visited``: the
        most the other servers can still add for its root, and which they
        are (none: the match is complete).

        The pair is kept per visited set in the row's ``remaining`` (shared
        by every root with the same caps), so a batch of siblings reads it
        with one lookup keyed by ``visited`` and sums nothing.  It is a pure
        function of the caps and ``visited``: two runs of one Engine may each
        build a missing one, and whichever is stored is the same.
        """
        entry = bounds.remaining.get(visited)
        if entry is None:
            unvisited = self.unvisited(visited)
            remaining = bounds.caps.remaining_for(unvisited)
            entry = bounds.remaining[visited] = (remaining, unvisited)
        return entry

    def bind(self, match: PartialMatch) -> None:
        """Give a match with no parent — a seed, or one decoded from a
        snapshot — its root's row and its upper bound."""
        remaining = self.bound_entry(match.visited, self.bounds_for(match))[0]
        match.upper_bound = match.score + remaining

    def start_matches(self) -> List[PartialMatch]:
        """What a run that seeds up front puts in its queues first: the
        staged matches of a restored snapshot or a parked budget exit —
        with the roots a restored Whirlpool-S snapshot had not seeded yet —
        else fresh seeds.  A pattern without servers completes its seeds
        here and starts with nothing."""
        restored = self.take_restored()
        if restored is not None:
            seeded = self.seeded
            if seeded is not None:
                restored.extend(self.seed(root) for root in self.seed_order()[seeded:])
                self.seeded = None
            return restored
        seeds = self.seed_matches()
        if self.server_ids:
            return seeds
        self.stats.record_completed(len(seeds))
        return []

    def candidate_roots(self) -> CandidateRoots:
        """The Engine's :class:`CandidateRoots`, or this run's own, listed
        here the first time — which builds each root's row of the bound
        table from this run's probes (:meth:`root_row`)."""
        candidates = self._candidate_roots
        if candidates is None:
            root = self.pattern.root
            rows = self.root_bounds
            nodes = self.index[root.tag].all()
            if root.value is not None:
                nodes = [node for node in nodes if root.matches_value(node.value)]
            listed: List[Tuple[XMLNode, RootBounds]] = []
            for node in nodes:
                row = rows.get(node.dewey)
                listed.append((node, row if row is not None else self.root_row(node.dewey)))
            candidates = self._candidate_roots = CandidateRoots(listed)
        return candidates

    def seed_matches(self) -> List[PartialMatch]:
        """Root-server output: one initial match per candidate root node,
        in document order, each counted as created and shown to the top-k
        set (and the observer)."""
        unseen: FrozenSet[int] = frozenset()
        seeds: List[PartialMatch] = []
        for node, bounds in self.candidate_roots().roots:
            match = PartialMatch.initial(node)
            # What :meth:`bind` does, without two calls per root.
            match.root_bounds = bounds
            entry = bounds.remaining.get(unseen)
            if entry is None:
                entry = self.bound_entry(unseen, bounds)
            match.upper_bound = match.score + entry[0]
            seeds.append(match)
        self.stats.record_created(len(seeds))
        complete = not self.server_ids
        for match in seeds:
            threshold = self.topk.observe(match, complete=complete)
            if self.observer is not None:
                self.observer.on_seed(match, threshold)
        return seeds

    def seed_order(self) -> List[SeedEntry]:
        """The candidate roots in the order a max-final-score queue pops
        their seeds: by seed bound, best first, then document order
        (:attr:`CandidateRoots.by_bound`)."""
        candidates = self.candidate_roots()
        order = candidates.by_bound
        if order is None:
            unseen: FrozenSet[int] = frozenset()
            # A seed's bound is its score, 0.0, plus what every server can
            # add (as :meth:`seed_matches` sums it); the position is
            # unique, so no two entries compare further.
            order = sorted(
                (-(0.0 + self.bound_entry(unseen, row)[0]), position, node, row)
                for position, (node, row) in enumerate(candidates.roots)
            )
            candidates.by_bound = order
        return order

    def open_roots(self) -> None:
        """Start a fresh run that seeds each root only when it would pop
        next (Whirlpool-S): every root counts as created now, as an
        up-front seed would; the arrivals of all of them are reserved below
        every match the run will make; the cursor is at the first root."""
        total = len(self.seed_order())
        self.stats.record_created(total)
        self.seed_arrival = reserve_arrivals(total)
        self.seeded = 0

    def seed(self, root: SeedEntry) -> PartialMatch:
        """The seed of one :meth:`seed_order` root, at its reserved
        arrival, shown to the top-k set and the observer as an up-front
        seed is."""
        key, position, node, row = root
        match = PartialMatch.initial(node)
        match.root_bounds = row
        match.upper_bound = -key
        match.arrival = self.seed_arrival + position
        threshold = self.topk.observe(match, False)
        if self.observer is not None:
            self.observer.on_seed(match, threshold)
        return match

    def root_cursor(self) -> Optional[Tuple[int, Optional[List[int]]]]:
        """What a snapshot keeps of the roots not seeded yet: the cursor
        and the Dewey id (a list) of the root it points at (``None`` when
        none is left) — or ``None`` when every root was seeded up front."""
        seeded = self.seeded
        if seeded is None:
            return None
        return seeded, self._root_at(seeded)

    def resume_roots(self, seeded: int, next_root: Optional[List[int]]) -> None:
        """Take a snapshot's :meth:`root_cursor`, checking ``next_root``: a
        different document, score model or order would silently skip or
        repeat roots.  Reserves the roots' arrivals, so call it before
        decoding the queued matches: what is left to seed then arrives
        before all of them, as it did."""
        order = self.seed_order()
        if not 0 <= seeded <= len(order):
            raise RecoveryError(
                f"snapshot seeded {seeded} roots of a query with {len(order)}"
            )
        expected = self._root_at(seeded)
        if next_root != expected:
            raise RecoveryError(
                f"snapshot's next root {next_root!r} is not this run's {expected!r}"
            )
        self.seeded = seeded
        self.seed_arrival = reserve_arrivals(len(order))

    def _root_at(self, seeded: int) -> Optional[List[int]]:
        order = self.seed_order()
        return list(order[seeded][2].dewey) if seeded < len(order) else None

    def absorb_extensions(
        self,
        extensions: Sequence[PartialMatch],
        parent: Optional[PartialMatch] = None,
        prune: bool = True,
    ) -> List[PartialMatch]:
        """Bound + report + completion + pruning for the sibling
        extensions of one server operation, in order; returns the ones
        that must continue through more servers.

        One queue pop produces every sibling at once, and siblings differ
        only in candidate and score: they share the popped match's root
        (hence its row of the bound table) and one ``visited`` object
        (checked here — it is what makes the rest valid), hence one
        :meth:`bound_entry` and one completeness, read once for the batch.
        Each unfinished sibling is reported to the top-k set and tested as
        ``is_pruned`` would test it next: against the threshold that report
        returns, and against the closing level read once for the batch (by
        a run that prunes) — reports of unfinished siblings cannot move it.

        A last-hop batch meets the top-k set once, through its *first
        best* sibling.  Reporting each in turn would leave exactly that:
        all siblings are complete and share the root's entry, a report
        replaces the entry's match / complete match only on a strictly
        higher score (an equal score replaces only a *less* instantiated
        match, which no sibling is of another), so the first sibling to
        reach the batch's top score holds both slots at the end; and the
        k best scores depend only on each entry's final score — the
        batch's maximum or what the entry already held.  Intermediate
        states are seen by nobody: the engine absorbs a batch within one
        step, which a Whirlpool-M thread takes under its engine lock.

        ``parent`` is only used to notify the observer: one
        ``on_extension`` per sibling, with the threshold its report
        returned — for completed siblings, the one after their batch.
        ``prune=False`` keeps every unfinished sibling (LockStep-NoPrun).
        """
        if not extensions:
            return []
        best = extensions[0]
        visited = best.visited
        bounds = best.root_bounds
        if bounds is None:
            bounds = self.bounds_for(best)
        # :meth:`bound_entry`, read in place: one lookup, no call.
        entry = bounds.remaining.get(visited)
        if entry is None:
            entry = self.bound_entry(visited, bounds)
        remaining, unvisited = entry
        observe = self.topk.observe
        observer = self.observer
        if not unvisited:
            for extension in extensions:
                if extension.visited is not visited:
                    raise EngineError(_NOT_SIBLINGS)
                score = extension.upper_bound = extension.score
                if score > best.score:
                    best = extension
            threshold = observe(best, True)
            self.stats.record_completed(len(extensions))
            if observer is not None and parent is not None:
                for extension in extensions:
                    observer.on_extension(parent, extension, "completed", threshold)
            return []
        survivors: List[PartialMatch] = []
        # Compared times the factor that makes them dominate every float
        # their tuples can finish at (``core/topk.py``).
        factor = self.topk.bound_factor
        closing = self.topk.closing_level() * factor if prune else _NEVER_CLOSES
        for extension in extensions:
            if extension.visited is not visited:
                raise EngineError(_NOT_SIBLINGS)
            bound = extension.upper_bound = extension.score + remaining
            threshold = observe(extension, False)
            if prune and (bound * factor < threshold or bound <= closing):
                outcome = "pruned"
            else:
                outcome = "alive"
                survivors.append(extension)
            if observer is not None and parent is not None:
                observer.on_extension(parent, extension, outcome, threshold)
        if len(survivors) < len(extensions):
            self.stats.record_pruned(len(extensions) - len(survivors))
        return survivors

    def admit(self, match: PartialMatch) -> bool:
        """The pruning check a popped match passes before any work is
        spent on it; a pruned match is counted and shown to the observer."""
        if self.topk.is_pruned(match):
            self.stats.record_pruned()
            if self.observer is not None:
                self.notify_prune(match)
            return False
        return True

    def serve(
        self, server_id: int, match: PartialMatch, can_requeue: bool = True
    ) -> List[PartialMatch]:
        """One supervised server operation on an admitted match; returns
        what goes back to the router: the match itself when recovery
        requeues it, nothing when it is abandoned (the supervisor holds
        its bound) or dropped, else the absorbed extensions that must
        continue.  An armed run fires the ``SERVER_OP`` hook first; the
        hook and the operation run :meth:`unlocked`; the statistics are
        recorded here.  Only a failure enters :meth:`escalate`;
        ``can_requeue=False`` (a fixed server order: LockStep) leaves it
        retry-or-abandon."""
        server = self.servers[server_id]
        injector = self.fault_injector
        try:
            if injector is not None and not self.unlocked(
                injector.on_server_op, server_id, match
            ):
                # Injected DROP: the operation loses the match, its bound
                # recorded by the injector for the result certificate.
                return []
            operation = self.unlocked(server.process, match)
        except EngineCrashError:
            # A crash is not a supervisable failure: the run is dead and
            # only a checkpoint restore brings the work back.
            raise
        except Exception as exc:  # noqa: B902 — supervision boundary
            # An injected ERROR raises before any index work, so a retry
            # is idempotent.
            retried = self.escalate(server, match, exc, can_requeue)
            if retried is _REQUEUED:  # with this server excluded
                return [match]
            if retried is None:  # dropped, or recovery exhausted
                return []
            operation = retried
        extensions, comparisons, deleted = operation
        self.stats.record_server_operation(server_id, comparisons, len(extensions), deleted)
        prune = self.prune
        return self.absorb_extensions(
            extensions, parent=match if prune else None, prune=prune
        )

    def unlocked(self, call: Callable[..., _T], *args: Any) -> _T:
        """``call(*args)``, a part of a step that waits: a server
        operation, which probes the index, a retry's backoff sleep, or a
        fault hook, which may sleep.  A run that one thread drives just
        calls it;
        :class:`~repro.core.whirlpool_m.WhirlpoolM` releases its engine
        lock around it, so its other threads work meanwhile."""
        return call(*args)

    def notify_route(self, match: PartialMatch, server_id: int) -> None:
        """Observer hook for a routing decision."""
        if self.observer is not None:
            self.observer.on_route(match, server_id, self.topk.threshold())

    def notify_prune(self, match: PartialMatch) -> None:
        """Observer hook for a discarded match."""
        if self.observer is not None:
            self.observer.on_prune(match, self.topk.threshold())

    def make_result(
        self,
        degraded: bool = False,
        pending_bound: float = 0.0,
        queue_snapshots: Optional[Dict[str, int]] = None,
    ) -> TopKResult:
        """Package the top-k set into a :class:`TopKResult`.

        Engines pass ``degraded=True`` with the largest upper bound among
        *their* unprocessed matches (deadline leftovers); abandoned and
        injector-dropped matches — and loss carried in from a restored
        snapshot — are folded in here so the certificate is
        complete regardless of which engine ran.  A
        :class:`~repro.faults.report.FailureReport` is attached whenever
        anything went wrong — errors, degradation, or fired faults.
        """
        supervisor = self.supervisor
        injector = self.fault_injector
        abandoned = supervisor.abandoned()
        if abandoned:
            degraded = True
            pending_bound = max(pending_bound, supervisor.max_abandoned_bound())
        if injector is not None and injector.dropped_count() > 0:
            degraded = True
            pending_bound = max(pending_bound, injector.max_dropped_bound())
        if self.carried_loss is not None:
            degraded = True
            pending_bound = max(pending_bound, float(self.carried_loss["bound"]))
        error_counts, retries, requeues = supervisor.counters()
        fired = injector.fired_count() if injector is not None else 0
        failure: Optional[FailureReport] = None
        if degraded or error_counts or fired:
            failure = FailureReport(
                failed_matches=abandoned,
                error_counts=error_counts,
                retries=retries,
                requeues=requeues,
                dropped=[
                    drop.as_dict()
                    for drop in (injector.dropped() if injector is not None else [])
                ],
                queue_snapshots=queue_snapshots,
                trace_tail=self._trace_tail(),
                injection=injector.summary() if injector is not None else None,
                checkpoint=supervisor.last_checkpoint(),
            )
        return TopKResult(
            answers=self.topk.answers(),
            stats=self.stats,
            algorithm=self.algorithm,
            k=self.k,
            pattern=self.pattern,
            degraded=degraded,
            pending_bound=pending_bound,
            failure=failure,
        )

    def _trace_tail(self, limit: int = 10) -> List[str]:
        """Last few trace events when an ExecutionTrace observer is attached."""
        events = getattr(self.observer, "events", None)
        if not events:
            return []
        return [repr(event) for event in list(events)[-limit:]]

    def make_server_queue(self, node_id: int) -> MatchQueue:
        """A server queue under this engine's queue policy; its site is
        ``server:<node_id>``."""
        return MatchQueue(self.queue_policy, node_id, self.max_contributions)

    def make_router_queue(self) -> MatchQueue:
        """The router's inbox queue (always prioritized by upper bound);
        its site is ``router``."""
        return MatchQueue(QueuePolicy.MAX_FINAL_SCORE)

    # -- supervised building blocks ------------------------------------------------

    def choose_server(self, match: PartialMatch) -> Optional[int]:
        """One supervised routing decision.

        Wraps the router with the fault hook and the supervisor's
        per-match server exclusions.  Returns ``None`` when an injected
        fault dropped the match in routing (its bound is already
        recorded); on an injected router *error* the decision falls back
        to the first allowed unvisited server — deterministic, and never
        loses the match.  Consolidates the stats/observer notifications
        every engine previously did inline.
        """
        injector = self.fault_injector
        fallback = False
        if injector is not None:
            try:
                # A hook that may sleep (an injected DELAY) waits unlocked.
                if not self.unlocked(injector.on_route, match):
                    return None
            except InjectedFaultError as exc:
                self.supervisor.record_component_error("router", exc)
                fallback = True
        unvisited: Optional[Sequence[int]] = self.bound_table.get(match.visited)
        if unvisited is None:  # :meth:`unvisited`, read in place
            unvisited = self.unvisited(match.visited)
        if not unvisited:
            raise EngineError(
                f"match {match.match_id} is complete; it should not be routed"
            )
        allowed = unvisited
        supervisor = self.supervisor
        if supervisor.excluded:  # some match was requeued away from a server
            excluded = supervisor.excluded_for(match.match_id)
            allowed = [nid for nid in unvisited if nid not in excluded] or unvisited
        if fallback:
            choice = allowed[0]
        else:
            choice = self.router.choose(match, self)
            if choice not in allowed:
                choice = allowed[0]
        self.stats.record_routing_decision()
        if self.observer is not None:
            self.notify_route(match, choice)
        return choice

    def escalate(
        self,
        server: Server,
        match: PartialMatch,
        error: Exception,
        can_requeue: bool,
    ) -> Optional[Operation]:
        """The supervisor's escalation ladder for a server operation that
        failed with ``error``: retry (after the backoff) while it allows,
        then requeue or abandon.  Returns a successful retry's operation
        (``None`` when it dropped the match), :data:`_REQUEUED` to requeue
        the match, or ``None`` when recovery is exhausted (the supervisor
        recorded the loss, feeding the result certificate).  Each retry
        is an operation: it fires the ``SERVER_OP`` hook again, as
        :meth:`serve` does.  The backoff, the hooks and the retries run
        :meth:`unlocked`."""
        server_id = server.node_id
        supervisor = self.supervisor
        injector = self.fault_injector
        while True:
            alternatives = can_requeue and len(self.unvisited(match.visited)) > 1
            action = supervisor.on_error(match, server_id, error, alternatives)
            if action is FailureAction.REQUEUE:
                return _REQUEUED
            if action is not FailureAction.RETRY:
                return None
            delay = supervisor.retry_delay(
                match.match_id, server_id, max_seconds=self.remaining_deadline()
            )
            self.unlocked(supervisor.pause, delay)
            try:
                if injector is not None and not self.unlocked(
                    injector.on_server_op, server_id, match
                ):
                    return None
                return self.unlocked(server.process, match)
            except EngineCrashError:
                raise
            except Exception as exc:  # noqa: B902 — supervision boundary
                error = exc

    def put_or_abandon(
        self, queue: MatchQueue, site: str, matches: Sequence[PartialMatch]
    ) -> int:
        """Enqueue each of ``matches``, in order, into ``queue`` — the one
        at ``site`` (``router``, ``server:<id>``) — and return how many
        entered it.

        An armed run fires the ``QUEUE_PUT`` hook before each put
        (:meth:`unlocked`): a DROP loses the match in transit (the injector
        records its bound), an injected ERROR abandons it (the supervisor
        records it as ``queue:<site>``'s loss), a DELAY stalls the
        producer.  An observer receives the depth after each put.  A run
        with neither tests both once per batch."""
        injector = self.fault_injector
        observer = self.observer
        put = queue.put
        if injector is None and observer is None:
            for match in matches:
                put(match)
            return len(matches)
        entered = 0
        for match in matches:
            if injector is not None:
                try:
                    if not self.unlocked(injector.on_put, site, match):
                        continue
                except InjectedFaultError as exc:
                    self.supervisor.record_abandoned(match, f"queue:{site}", exc)
                    continue
            put(match)
            entered += 1
            if observer is not None:
                observer.on_queue_depth(site, len(queue))
        return entered

    def pop_or_lose(
        self, queue: MatchQueue, site: str
    ) -> Tuple[Optional[PartialMatch], int]:
        """Pop ``queue`` — the one at ``site`` — through the ``QUEUE_GET``
        hook of an armed run (:meth:`unlocked`); a run without a plan pops
        the queue directly instead.  Returns the match popped (``None``:
        nothing left, or an injected error) and how many matches the hook
        lost on the way, which the injector recorded with their bounds: a
        DROP loses the popped match and pops the next; an injected ERROR
        loses it too (it left the queue), is recorded as ``queue:<site>``'s
        component error and ends the pop."""
        injector = self.fault_injector
        lost = 0
        while True:
            match = queue.get_nowait()
            if match is None or injector is None:
                return match, lost
            try:
                if self.unlocked(injector.on_get, site, match):
                    return match, lost
            except InjectedFaultError as exc:
                self.supervisor.record_component_error(f"queue:{site}", exc)
                return None, lost + 1
            lost += 1

    def remaining_deadline(self) -> Optional[float]:
        """Seconds left on this run's wall-clock budget (``None`` = unbounded).

        Caps the supervisor's retry backoff so a recovery sleep can never
        outlive the deadline the caller propagated into the run.
        """
        if self.deadline_seconds is None:
            return None
        return max(self.deadline_seconds - self.stats.elapsed_seconds(), 0.0)

    def watches_budget(self) -> bool:
        """Whether the quiesce points have anything to check: an operation
        budget, a deadline or a checkpoint policy.  Nothing sets one during
        a run (a cluster worker sets its step's between runs)."""
        return (
            self.max_operations is not None
            or self.deadline_seconds is not None
            or self.checkpoint_policy is not None
        )

    def budget_exhausted(self) -> bool:
        """True once the operation budget or the deadline has expired."""
        if (
            self.max_operations is not None
            and self.stats.server_operations >= self.max_operations
        ):
            return True
        if (
            self.deadline_seconds is not None
            and self.stats.elapsed_seconds() >= self.deadline_seconds
        ):
            return True
        return False

    # -- interface --------------------------------------------------------------------

    def run(self) -> TopKResult:
        """Execute the algorithm and return the top-k answers + stats."""
        raise NotImplementedError
