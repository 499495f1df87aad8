"""The one-call facade: build indexes, score model and engine, then run.

Typical use::

    from repro import Engine

    engine = Engine(database, "//item[./description/parlist]")
    result = engine.run(k=15, algorithm="whirlpool_s")
    for answer in result.answers:
        print(answer.score, answer.root_node)

The facade owns everything derived from (database, query): the restricted
tag index, the database statistics, the score model, the servers' probe
memos and the bound table.  Building an Engine merges each server's tag
index with the root images once
(:meth:`~repro.xmldb.index.DatabaseIndex.related_each`): the sweep fills
the memos, its counts are the statistics a tf*idf model is built from, and
with the model it gives every root its row of the bound table
(:class:`~repro.core.server.RootBounds`) — per server, the root's candidate
counts and the most that server can add for it.  A match is bounded by its
score plus what its root's row leaves to its unvisited servers, not by
database-wide maxima.  Each :meth:`Engine.run` opens a fresh algorithm
instance around them, so one Engine can be reused across k values,
algorithms and routing strategies — which is precisely what the benchmark
harness does — and answers without going back to the index.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.base import CandidateRoots, EngineBase, TopKResult
from repro.core.lockstep import LockStep, LockStepNoPrun
from repro.core.queues import QueuePolicy
from repro.core.router import make_router
from repro.core.server import (
    PROBE_MEMO_CAP,
    ProbeEntry,
    ProbeMemo,
    RootBounds,
    Server,
    bound_rows,
    probe_every_root,
)
from repro.core.trace import EngineObserver
from repro.core.whirlpool_m import WhirlpoolM
from repro.core.whirlpool_s import WhirlpoolS
from repro.errors import EngineError
from repro.query.pattern import TreePattern
from repro.query.xpath import parse_xpath
from repro.relax.plan import compile_plan
from repro.scoring.model import ScoreModel, build_score_model
from repro.scoring.tfidf import score_all_answers
from repro.xmldb.dewey import Dewey
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.model import Database, XMLNode
from repro.xmldb.stats import DatabaseStatistics

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.supervisor import RetryPolicy
    from repro.recovery.policy import CheckpointPolicy
    from repro.xmldb.summary import PathSummary

ALGORITHMS: Dict[str, Type[EngineBase]] = {
    "whirlpool_s": WhirlpoolS,
    "whirlpool_m": WhirlpoolM,
    "lockstep": LockStep,
    "lockstep_noprun": LockStepNoPrun,
}

#: Failure-isolation fallback order, most capable first: when an
#: algorithm's circuit breaker is open the query service walks this chain
#: and serves the request with the first healthy alternative.  Every chain
#: ends in plain LockStep — static routing, no per-server queues — the
#: fewest moving parts of the four engines.
FALLBACK_CHAIN: Dict[str, Tuple[str, ...]] = {
    "whirlpool_m": ("whirlpool_s", "lockstep"),
    "whirlpool_s": ("lockstep",),
    "lockstep": (),
    "lockstep_noprun": ("lockstep",),
}


def fallback_chain(algorithm: str) -> Tuple[str, ...]:
    """Ordered fallback algorithms for ``algorithm`` (possibly empty).

    Raises :class:`~repro.errors.EngineError` for unknown algorithm names
    so misconfigured services fail at wiring time, not at first fallback.
    """
    try:
        return FALLBACK_CHAIN[algorithm]
    except KeyError:
        raise EngineError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{', '.join(sorted(ALGORITHMS))}"
        ) from None


class Engine:
    """Bound (database, query) pair ready to answer top-k requests.

    The Engine owns the probe memos: one
    :class:`~repro.core.server.ProbeMemo` per (server node id, join
    algorithm), shared by every run — concurrent ones included — and
    bounded by the document's root images (or
    :data:`~repro.core.server.PROBE_MEMO_CAP`, when there are fewer) each.
    Building an Engine fills every ``"index"`` memo with every root image
    in one index sweep per server, so its first run probes nothing, and
    builds :attr:`root_bounds` from the same sweep: one plain loop per
    server over roots and candidates, then one locked memo
    :meth:`~repro.core.server.ProbeMemo.fill`.  Memoized probes are
    pure functions of (database, query), and ``ExecutionStats`` charge hits
    and misses alike.  A run built without the Engine (private memos, no
    table) builds each root's row from its own servers' probes as it seeds
    it — the same rows, so the same counts and answers.
    """

    def __init__(
        self,
        database: Database,
        query: Union[str, TreePattern],
        relaxed: bool = True,
        scoring: str = "tfidf",
        normalization: str = "sparse",
        seed: int = 0,
        score_model: Optional[ScoreModel] = None,
        index_backend: Optional[str] = None,
    ) -> None:
        self.database = database
        self.pattern = parse_xpath(query) if isinstance(query, str) else query
        self.relaxed = relaxed
        # index_backend: "columnar" (flat array('I') Dewey arenas, the
        # default) or "object" (per-node tuple lists).  Both produce
        # bit-identical answers.
        self.index = DatabaseIndex(
            database, tags=self.pattern.tags(), backend=index_backend
        )
        self.statistics = DatabaseStatistics(self.index)
        # A memo holds one entry per root image: sized below the root
        # count it would clear itself during every run.
        memo_capacity = max(PROBE_MEMO_CAP, len(self.index[self.pattern.root.tag]))
        self._probe_memos: Dict[str, Dict[int, ProbeMemo]] = {
            join_algorithm: {
                node.node_id: ProbeMemo(memo_capacity)
                for node in self.pattern.non_root_nodes()
            }
            for join_algorithm in Server.JOIN_ALGORITHMS
        }
        root_tag = self.pattern.root.tag
        roots = self.index[root_tag].all()
        anchors = [root.dewey for root in roots]
        specs = list(compile_plan(self.pattern, relaxed).servers.values())
        memos = self._probe_memos["index"]
        probes: Dict[int, List[ProbeEntry]] = {
            spec.node_id: probe_every_root(spec, self.index, anchors, memos[spec.node_id])
            for spec in specs
        }

        def probed_statistics() -> DatabaseStatistics:
            # The sweep's counts *are* the fan-outs a tf*idf model asks the
            # statistics for: ``total`` under the server's probe axis,
            # ``exact`` under its exact root axis, keyed by axis — where the
            # two coincide (exact mode, or an axis relaxation does not
            # weaken) the lists are equal and one is kept.  In exact mode
            # the model's relaxed-axis statistics come from the statistics'
            # own lazy sweep — the same merge, once per predicate.
            for spec in specs:
                entries = probes[spec.node_id]
                totals = [counts.total for _, _, counts in entries]
                exacts = [counts.exact for _, _, counts in entries]
                for axis, fanouts in {
                    spec.probe_axis: totals,
                    spec.exact_root_axis: exacts,
                }.items():
                    self.statistics.record(
                        root_tag, spec.tag, axis, fanouts, spec.value, spec.value_op
                    )
            return self.statistics

        if score_model is not None:
            self.score_model = score_model
        else:
            self.score_model = build_score_model(
                self.pattern,
                stats=probed_statistics,
                kind=scoring,
                normalization=normalization,
                seed=seed,
            )
        #: The bound table: root Dewey -> :class:`~repro.core.server.RootBounds`,
        #: every run's bound material (:meth:`EngineBase.bound_entry`).
        rows = bound_rows(len(roots), probes, self.score_model, relaxed)
        self.root_bounds: Dict[Dewey, RootBounds] = dict(zip(anchors, rows))
        #: The candidate roots (:class:`~repro.core.base.CandidateRoots`):
        #: each root the query's root predicate admits, with its row, in
        #: document order — what every run seeds, and Whirlpool-S's seeding
        #: order once its first run has sorted it.
        root_test = self.pattern.root
        listed = list(zip(roots, rows))
        if root_test.value is not None:
            listed = [(root, row) for root, row in listed if root_test.matches_value(root.value)]
        self.candidate_roots = CandidateRoots(listed)
        self._path_summary: Optional["PathSummary"] = None
        # Engines are shared across service worker threads; the lazy
        # path-summary build must publish exactly one instance.
        self._summary_lock = threading.Lock()

    # -- running -------------------------------------------------------------------

    def path_summary(self) -> "PathSummary":
        """The database's :class:`~repro.xmldb.summary.PathSummary`
        (built lazily; backs the ``min_alive_estimated`` router).

        Double-checked under ``_summary_lock``: concurrent service
        workers racing the first call would otherwise build duplicate
        summaries and publish through a plain check-then-set.
        """
        summary = self._path_summary
        if summary is None:
            with self._summary_lock:
                summary = self._path_summary
                if summary is None:
                    from repro.xmldb.summary import PathSummary

                    summary = PathSummary(self.database)
                    self._path_summary = summary
        return summary

    def run(self, k: int, algorithm: str = "whirlpool_s", **options: Any) -> TopKResult:
        """Evaluate the top-k query: :meth:`open` a run (same parameters)
        and drive it to completion or to its budget."""
        return self.open(k, algorithm, **options).run()

    def open(
        self,
        k: int,
        algorithm: str = "whirlpool_s",
        routing: str = "min_alive",
        static_order: Optional[Sequence[int]] = None,
        queue_policy: QueuePolicy = QueuePolicy.MAX_FINAL_SCORE,
        routing_batch: Optional[int] = None,
        observer: Optional[EngineObserver] = None,
        join_algorithm: str = "index",
        deadline_seconds: Optional[float] = None,
        max_operations: Optional[int] = None,
        faults: Optional["FaultPlan"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        checkpoint_policy: Optional["CheckpointPolicy"] = None,
        checkpoint_sink: Optional[Any] = None,
        restore_from: Optional[Dict[str, Any]] = None,
    ) -> EngineBase:
        """A run of one algorithm/policy combination, ready to ``run()``.

        ``run()`` returns the :class:`TopKResult`.  After a budget exit
        the instance can be run again: raise its ``max_operations`` (and
        set what else is per step — ``checkpoint_sink``,
        :meth:`~repro.core.base.EngineBase.arm_faults`) and ``run()``
        continues from the parked matches, as the uninterrupted run would.

        Parameters
        ----------
        k:
            Number of distinct root answers to return.
        algorithm:
            ``whirlpool_s`` / ``whirlpool_m`` / ``lockstep`` /
            ``lockstep_noprun``.
        routing:
            ``min_alive`` (default), ``max_score``, ``min_score``,
            ``min_alive_estimated`` (path-summary estimates instead of
            exact probes) or ``static`` (requires ``static_order``).
            Ignored by the lock-step algorithms, which are static by
            nature and instead honour ``static_order`` as their order.
        static_order:
            Permutation of server node ids for static routing / lock-step.
        queue_policy:
            Server-queue prioritization (Section 6.1.3).
        routing_batch:
            When set, wrap the router in a
            :class:`~repro.core.router.BatchingRouter` with that many
            score buckets — the paper's "adaptivity in bulk" future-work
            idea, trading routing precision for decision reuse.
        observer:
            Optional :class:`~repro.core.trace.EngineObserver` (e.g. an
            :class:`~repro.core.trace.ExecutionTrace`) receiving seed /
            route / extension / prune events.
        join_algorithm:
            ``"index"`` (Dewey-interval binary search, default) or
            ``"scan"`` (the paper's nested-loop baseline) — identical
            answers, different comparison counts.
        deadline_seconds / max_operations:
            Optional wall-clock / server-operation budgets.  When a budget
            expires the run returns its best-known top-k with
            ``degraded=True`` and the ``pending_bound`` certificate
            instead of running to completion.
        faults:
            Optional :class:`~repro.faults.plan.FaultPlan` — a seeded,
            deterministic fault schedule injected into servers, queues
            and the router (testing / chaos harness).
        retry_policy:
            Optional :class:`~repro.faults.supervisor.RetryPolicy`
            overriding the default retry / requeue / abandon bounds.
        checkpoint_policy:
            Optional :class:`~repro.recovery.CheckpointPolicy` — when set,
            the engine snapshots its resumable state (queues, top-k set,
            counters) every ``every_operations`` operations and at every
            budget exit.
        checkpoint_sink:
            Optional callable receiving each snapshot dict as it is taken
            (e.g. ``store.save``); sink errors are recorded, not raised.
        restore_from:
            Optional snapshot (from :attr:`EngineBase.last_checkpoint` or
            a :class:`~repro.recovery.RecoveryStore`) to resume instead of
            seeding from scratch.  The snapshot's (pattern, k, relaxed)
            must match this run's; the algorithm may differ.
        """
        engine_cls = ALGORITHMS.get(algorithm)
        if engine_cls is None:
            raise EngineError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{', '.join(sorted(ALGORITHMS))}"
            )

        kwargs: Dict[str, Any] = dict(
            pattern=self.pattern,
            index=self.index,
            score_model=self.score_model,
            k=k,
            relaxed=self.relaxed,
            queue_policy=queue_policy,
            observer=observer,
            join_algorithm=join_algorithm,
            deadline_seconds=deadline_seconds,
            max_operations=max_operations,
            faults=faults,
            retry_policy=retry_policy,
            checkpoint_policy=checkpoint_policy,
            checkpoint_sink=checkpoint_sink,
            # An unknown join algorithm is rejected by Server below.
            probe_memos=self._probe_memos.get(join_algorithm),
            root_bounds=self.root_bounds,
            candidate_roots=self.candidate_roots,
        )
        if engine_cls in (LockStep, LockStepNoPrun):
            instance: EngineBase = engine_cls(order=static_order, **kwargs)
        else:
            if routing == "min_alive_estimated":
                from repro.core.router import EstimatedMinAliveRouter

                router = EstimatedMinAliveRouter(self.path_summary())
            else:
                router = make_router(routing, order=static_order)
            if routing_batch is not None:
                from repro.core.router import BatchingRouter

                router = BatchingRouter(router, score_buckets=routing_batch)
            kwargs["router"] = router
            instance = engine_cls(**kwargs)
        if restore_from is not None:
            instance.restore(restore_from)
        return instance

    # -- oracles ----------------------------------------------------------------------

    def tfidf_ranking(self) -> List[Tuple[XMLNode, float]]:
        """Brute-force Definition 4.4 ranking of every candidate root."""
        return score_all_answers(self.pattern, self.index, self.statistics)

    def server_node_ids(self) -> List[int]:
        """Preorder ids of the query's server nodes (for static orders)."""
        return [node.node_id for node in self.pattern.non_root_nodes()]


def topk(
    database: Database,
    query: Union[str, TreePattern],
    k: int,
    algorithm: str = "whirlpool_s",
    **kwargs: Any,
) -> TopKResult:
    """One-shot convenience: build an :class:`Engine` and run it once.

    Engine-construction keyword arguments (``relaxed``, ``scoring``,
    ``normalization``, ``seed``, ``score_model``, ``index_backend``) and
    run arguments (``routing``, ``static_order``, ``queue_policy``) are
    both accepted.
    """
    engine_kwargs = {
        key: kwargs.pop(key)
        for key in (
            "relaxed",
            "scoring",
            "normalization",
            "seed",
            "score_model",
            "index_backend",
        )
        if key in kwargs
    }
    engine = Engine(database, query, **engine_kwargs)
    return engine.run(k, algorithm=algorithm, **kwargs)
