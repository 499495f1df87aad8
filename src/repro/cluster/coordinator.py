"""The scatter-gather coordinator: shard processes, failover, certified merge.

The coordinator owns N :class:`ShardHandle`\\ s, each wrapping a worker
subprocess (:mod:`repro.cluster.worker`) behind a
:class:`~repro.cluster.net.SocketTransport` (a token-authenticated
loopback TCP link) and bound to one partition of the forest
(:mod:`repro.cluster.partition`).  A query proceeds in rounds:

1. **scatter** — send every live, undominated, unfinished shard a
   ``step`` RPC (a fixed operation budget);
2. **gather** — collect each reply under the retry/timeout ladder,
   storing the returned checkpoint — JSON text plus CRC-32, verified but
   never parsed here — in the coordinator's
   :class:`~repro.recovery.store.RecoveryStore`;
3. **merge** — fold the per-shard local top-k's and ``pending_bound``
   certificates through :mod:`repro.cluster.merge`; a shard whose bound
   is strictly below the merged k-th score is *dominated* and stops
   being stepped (TA-style early termination).

A worker lives as long as its coordinator: spawning it, shipping its
partition and parsing it happen once per worker *process* (first query,
failover replacement, rebalance replacement).  One boot serves all three
(:meth:`Coordinator._boot`): every query still opens with ``init`` →
``begin`` on every shard — so seeded per-RPC fault schedules count the
same RPCs whether the process is fresh or resident — but ``init``
carries documents only to a process that does not hold them yet, and
``begin`` finds the worker's engine for the query warm.

Failure handling is the point of the design:

- every RPC read runs a timeout ladder with backoff windows (the
  :class:`~repro.faults.supervisor.RetryPolicy` shape); each expired
  window is a *heartbeat miss*, and a worker silent past its liveness
  deadline is killed and failed over;
- a *lost connection* is distinguished from a lost worker: while the
  worker process is still alive, the handle re-accepts its redial and
  **replays** the in-flight request — the worker's idempotent reply
  cache answers without re-executing — so a network partition costs a
  pause, not a failover;
- failover respawns the worker, re-ships its cached partition, and
  restores the newest CRC-validated checkpoint *generation*
  (:class:`~repro.recovery.generations.CheckpointGenerations`; a
  corrupted newest checkpoint falls back to an older one, which
  deterministic replay makes equivalent) — so the failed-over shard
  resumes exactly where its last ``step`` left off, and the final
  answer is bit-identical to the fault-free run (the chaos matrix in
  ``tests/test_cluster_chaos.py`` proves this per seed × engine);
- a query's fault plan is handed to each boundary by its rules' sites:
  the ``WORKER_RPC`` rules live for one query on the worker that
  received them at query start — every ``init`` replaces the worker's
  plan (with none, when the query ships none), and a replacement worker
  is never sent one (mirroring the service's "recovered runs re-execute
  fault-free" contract), so one injected kill cannot permanently wedge
  a shard; the ``NET`` rules stay armed on the shard's link across
  failovers (the network does not heal because a process was replaced);
- the same ship-a-checkpoint machinery drives live **rebalancing**: a
  shard whose step latency stays far above the fleet median for
  consecutive rounds is retired and its checkpoint shipped to a fresh
  worker;
- when failover is disabled or exhausted, the shard is *lost*: the
  query still returns, degraded, with the missing shards named and a
  sound global ``pending_bound`` from
  :func:`repro.cluster.merge.lost_shard_bound`.

Each shard's link carries an explicit connection state machine —
``connected → degraded`` (heartbeat misses) ``→ partitioned`` (link
down, reconnect in flight) ``→ failed`` (shard lost) — surfaced through
``cluster_connection_state`` gauges, span events, and
:meth:`Coordinator.health`.

Locking discipline: the coordinator and handles guard their mutable
counters with short ``self._lock`` sections (they are watched by WPL001
and the runtime race detector) and *never* hold a lock across socket
I/O — the graph analyzer's WPLG02 blocking-under-lock rule
applies to this package with no baseline entries.
"""

from __future__ import annotations

import random
import statistics
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.merge import (
    MergedAnswer,
    dominated,
    global_pending_bound,
    kth_score,
    lost_shard_bound,
    merge_answers,
)
from repro.cluster.net import SocketTransport
from repro.cluster.partition import (
    ShardSpec,
    build_shard_specs,
    remap_dewey,
    remap_match_payload,
)
from repro.cluster.protocol import FrameTimeout
from repro.core.engine import ALGORITHMS, Engine
from repro.core.base import TopKResult
from repro.core.stats import COUNTERS, ExecutionStats, monotonic_seconds
from repro.core.topk import TopKAnswer
from repro.errors import (
    ClusterError,
    ConnectionLostError,
    CoordinatorBusyError,
    EngineError,
    ProtocolError,
    RecoveryError,
    WorkerLostError,
)
from repro.faults.inject import FaultArm
from repro.faults.plan import FaultPlan
from repro.faults.supervisor import RetryPolicy
from repro.obs import Observability
from repro.obs.spans import NULL_SPAN, Span
from repro.query.pattern import TreePattern
from repro.recovery.codec import decode_match
from repro.recovery.generations import CheckpointGenerations
from repro.recovery.store import MemoryRecoveryStore, RecoveryStore
import repro.sim.clock as simclock
from repro.xmldb.dewey import Dewey
from repro.xmldb.model import Database

#: A shard that finished early is pinged once its last reply is this old,
#: so ``health()`` keeps reporting it honestly.
HEARTBEAT_INTERVAL_SECONDS = 1.0

#: Checkpoint generations kept per shard: a corrupted newest one falls
#: back to an older one.
CHECKPOINT_GENERATIONS = 3

#: The rebalancing trigger (:meth:`Coordinator._maybe_rebalance`): a step
#: latency of at least ``REBALANCE_LATENCY_FACTOR`` × the median of the
#: other active shards', and of at least ``REBALANCE_MIN_LATENCY_SECONDS``,
#: for ``REBALANCE_SLOW_ROUNDS`` consecutive rounds migrates the shard.
REBALANCE_LATENCY_FACTOR = 4.0
REBALANCE_MIN_LATENCY_SECONDS = 0.25
REBALANCE_SLOW_ROUNDS = 2


class ClusterResult(TopKResult):
    """A :class:`~repro.core.base.TopKResult` plus cluster provenance.

    Everything the single-process result carries keeps its meaning —
    ``degraded`` / ``pending_bound`` are now *global* (they cover lost
    shards' stranded work) — and the extra fields say how the cluster
    got there.
    """

    __slots__ = (
        "shards",
        "missing_shards",
        "failovers",
        "heartbeat_misses",
        "rounds",
        "dominated_shards",
        "shard_reports",
        "reconnects",
        "rebalances",
    )

    def __init__(
        self,
        *args: Any,
        shards: int = 0,
        missing_shards: Sequence[int] = (),
        failovers: int = 0,
        heartbeat_misses: int = 0,
        rounds: int = 0,
        dominated_shards: Sequence[int] = (),
        shard_reports: Optional[Dict[int, Dict[str, Any]]] = None,
        reconnects: int = 0,
        rebalances: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.shards = shards
        self.missing_shards = list(missing_shards)
        self.failovers = failovers
        self.heartbeat_misses = heartbeat_misses
        self.rounds = rounds
        self.dominated_shards = list(dominated_shards)
        self.shard_reports = dict(shard_reports or {})
        self.reconnects = reconnects
        self.rebalances = rebalances


class _ClusterMetrics:
    """Coordinator metric families (no-op instruments when disabled)."""

    def __init__(self, obs: Observability) -> None:
        registry = obs.registry
        self.rpc_latency = registry.histogram(
            "cluster_rpc_latency_seconds",
            "Coordinator-observed RPC round trip per shard and op.",
            labels=("shard", "op"),
        )
        self.heartbeat_misses = registry.counter(
            "cluster_heartbeat_misses_total",
            "Expired RPC wait windows (retry-ladder rungs) per shard.",
            labels=("shard",),
        )
        self.failovers = registry.counter(
            "cluster_failovers_total",
            "Worker respawn-and-restore events per shard.",
            labels=("shard",),
        )
        self.lost_shards = registry.counter(
            "cluster_lost_shards_total",
            "Shards abandoned after failover was exhausted or disabled.",
            labels=("shard",),
        )
        self.merge_threshold = registry.gauge(
            "cluster_merge_threshold",
            "Merged global k-th score after each gather round.",
        )
        self.live_shards = registry.gauge(
            "cluster_live_shards",
            "Shard workers currently believed alive.",
        )
        self.queries = registry.counter(
            "cluster_queries_total",
            "Cluster queries by terminal state.",
            labels=("state",),
        )
        self.reconnects = registry.counter(
            "cluster_reconnects_total",
            "Transport reconnects (same worker session resumed) per shard.",
            labels=("shard",),
        )
        self.rebalances = registry.counter(
            "cluster_rebalances_total",
            "Checkpoint-shipping shard migrations off degraded workers.",
            labels=("shard",),
        )
        self.checkpoint_rejects = registry.counter(
            "cluster_checkpoint_rejects_total",
            "Step checkpoints refused because the text did not match its CRC.",
            labels=("shard",),
        )
        self.connection_state = registry.gauge(
            "cluster_connection_state",
            "Per-shard link state: 0=connected 1=degraded 2=partitioned 3=failed.",
            labels=("shard",),
        )
        self.merge_threshold_child = self.merge_threshold.labels()
        self.live_shards_child = self.live_shards.labels()


#: Gauge encoding of the per-shard connection state machine.
CONNECTION_STATES = ("connected", "degraded", "partitioned", "failed")
_CONNECTION_CODES = {name: float(code) for code, name in enumerate(CONNECTION_STATES)}


class ShardHandle:
    """One shard's worker process (behind a transport) and liveness
    bookkeeping.

    RPC traffic is single-owner (the coordinator thread running the
    current query); the lock protects the counters that ``health()``
    reads from other threads.  I/O never happens under the lock.
    ``failovers`` / ``heartbeat_misses`` / ``reconnects`` /
    ``rebalances`` count the current (or last) query only —
    :meth:`begin_query` zeroes them — so the failover and rebalance
    budgets are spent per query; lifetime totals live on the
    coordinator.

    The handle runs the per-shard connection state machine::

        connected ──heartbeat miss──▶ degraded
        connected/degraded ──link lost──▶ partitioned
        partitioned ──redial accepted──▶ connected  (reconnect + replay)
        partitioned ──ladder exhausted──▶ failed    (failover or lost)
    """

    def __init__(
        self,
        spec: ShardSpec,
        transport: SocketTransport,
        rpc_timeout_seconds: float,
        liveness_deadline_seconds: float,
        retry_policy: RetryPolicy,
        metrics: _ClusterMetrics,
    ) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self.transport = transport
        self.rpc_timeout_seconds = rpc_timeout_seconds
        self.liveness_deadline_seconds = liveness_deadline_seconds
        self.retry_policy = retry_policy
        self.metrics = metrics
        self._lock = threading.Lock()
        self._rng = random.Random(retry_policy.seed ^ (spec.shard_id + 1))
        self.rpc_seq = 0
        self.state = "new"  # new | live | dead | lost
        self.connection = "partitioned"  # no link yet
        self.loaded = False  # this worker process holds the shard's documents
        self.last_reply_at: Optional[float] = None
        self._inflight: Optional[Tuple[Dict[str, Any], float]] = None
        self.begin_query()

    # -- connection state machine ------------------------------------------------

    def _set_connection(self, state: str) -> None:
        with self._lock:
            if self.connection == state:
                return
            self.connection = state
        self.metrics.connection_state.labels(str(self.shard_id)).set(
            _CONNECTION_CODES[state]
        )

    def _note_degraded(self) -> None:
        """A heartbeat miss: connected links degrade; a partitioned or
        failed link stays where it is (degraded is the *mild* state)."""
        with self._lock:
            if self.connection != "connected":
                return
            self.connection = "degraded"
        self.metrics.connection_state.labels(str(self.shard_id)).set(
            _CONNECTION_CODES["degraded"]
        )

    # -- process lifecycle -------------------------------------------------------

    def spawn(self) -> None:
        """Start (or restart) the worker via the transport."""
        self.transport.spawn()
        with self._lock:
            self.state = "live"
            self.loaded = False
            self._inflight = None
        self._set_connection("connected")

    def begin_query(self) -> None:
        """Zero the per-query counters and progress fields."""
        with self._lock:
            self.failovers = 0
            self.heartbeat_misses = 0
            self.reconnects = 0
            self.rebalances = 0
            self.operations = 0
            self.done = False
            self.last_step_seconds: Optional[float] = None

    def resident(self) -> bool:
        """A live worker that holds its documents and owes no reply —
        the next query reuses it instead of respawning."""
        with self._lock:
            settled = self.loaded and self._inflight is None
        return settled and self.alive()

    def kill(self) -> None:
        """Tear the worker down (idempotent; used before respawn)."""
        self.transport.kill()
        with self._lock:
            self._inflight = None
            if self.state == "live":
                self.state = "dead"

    def close(self) -> None:
        self.kill()
        self.transport.close()

    def alive(self) -> bool:
        return self.transport.alive() and self.state == "live"

    # -- RPC with the retry/timeout + reconnect ladder ----------------------------

    def post(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        deadline_at: Optional[float] = None,
    ) -> None:
        """Send one request without waiting for the reply (the scatter
        half); :meth:`finish` collects it.  Raises
        :class:`WorkerLostError` when delivery is impossible even after
        the reconnect ladder."""
        with self._lock:
            self.rpc_seq += 1
            rpc_id = self.rpc_seq
        frame = {"op": op, "id": rpc_id, **(payload or {})}
        started = monotonic_seconds()
        with self._lock:
            self._inflight = (frame, started)
        give_up = self._give_up(started, deadline_at)
        self._deliver(frame, give_up)

    def finish(self, deadline_at: Optional[float] = None) -> Dict[str, Any]:
        """Collect the reply to the posted request (the gather half)."""
        with self._lock:
            inflight = self._inflight
        if inflight is None:
            raise ClusterError(f"shard {self.shard_id}: finish() without post()")
        frame, _ = inflight
        # The liveness clock restarts at gather time: scatter pipelines
        # frames to the whole fleet, so a shard must not be charged for
        # time spent gathering its siblings' replies.
        started = monotonic_seconds()
        reply = self._await(frame, started, deadline_at)
        self.metrics.rpc_latency.labels(str(self.shard_id), str(frame["op"])).observe(
            monotonic_seconds() - started
        )
        return reply

    def rpc(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        deadline_at: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request/reply exchange; raises :class:`WorkerLostError`
        on EOF or a worker silent past the liveness deadline."""
        self.post(op, payload, deadline_at=deadline_at)
        return self.finish(deadline_at=deadline_at)

    def _give_up(self, started: float, deadline_at: Optional[float]) -> float:
        give_up = started + self.liveness_deadline_seconds
        if deadline_at is not None:
            give_up = min(give_up, deadline_at)
        return give_up

    def _deliver(self, frame: Dict[str, Any], give_up: float) -> None:
        """Send one frame, riding out partitions via the reconnect
        ladder; raises :class:`WorkerLostError` when the link cannot be
        restored in time."""
        try:
            self.transport.send(frame)
        except ConnectionLostError as exc:
            self._set_connection("partitioned")
            if not self._reconnect_and_replay(frame, give_up):
                raise WorkerLostError(self.shard_id, "eof") from exc

    def _reconnect_and_replay(self, frame: Dict[str, Any], give_up: float) -> bool:
        """Restore the link to the *same* worker session and replay the
        in-flight frame.  Replay is safe because the worker's reply
        cache answers an already-executed RPC id without re-executing.
        ``False`` when the worker process is dead or does not redial
        before ``give_up``."""
        while monotonic_seconds() < give_up:
            if not self.transport.alive():
                return False
            if not self.transport.reconnect(give_up):
                return False
            with self._lock:
                self.reconnects += 1
            self.metrics.reconnects.labels(str(self.shard_id)).inc()
            self._set_connection("connected")
            try:
                self.transport.send(frame)
                return True
            except ConnectionLostError:
                # Severed again mid-replay (reconnect storm): climb the
                # ladder once more until give_up.
                self._set_connection("partitioned")
                continue
        return False

    def _await(
        self,
        frame: Dict[str, Any],
        started: float,
        deadline_at: Optional[float],
    ) -> Dict[str, Any]:
        """The ladder: bounded wait windows with backoff, each expiry a
        heartbeat miss, the total capped by the liveness deadline; a
        dropped connection reconnects-and-replays."""
        rpc_id = frame["id"]
        give_up = self._give_up(started, deadline_at)
        attempt = 0
        window = self.rpc_timeout_seconds
        while True:
            slice_end = min(monotonic_seconds() + window, give_up)
            try:
                reply = self.transport.recv(slice_end)
            except FrameTimeout:
                self._note_degraded()
                with self._lock:
                    self.heartbeat_misses += 1
                self.metrics.heartbeat_misses.labels(str(self.shard_id)).inc()
                if monotonic_seconds() >= give_up:
                    raise WorkerLostError(self.shard_id, "timeout") from None
                attempt += 1
                window = self.rpc_timeout_seconds + self.retry_policy.backoff_delay(
                    attempt, self._rng
                )
                continue
            except (ConnectionLostError, ProtocolError) as exc:
                self._set_connection("partitioned")
                if monotonic_seconds() >= give_up or not self._reconnect_and_replay(
                    frame, give_up
                ):
                    raise WorkerLostError(self.shard_id, "eof") from exc
                continue
            if reply.get("id") != rpc_id:
                # A stale reply from before a timeout we already charged;
                # drain and keep waiting for ours.
                continue
            now = monotonic_seconds()
            with self._lock:
                self.last_reply_at = now
                self._inflight = None
            self._set_connection("connected")
            return reply

    def ping(self, deadline_at: Optional[float] = None) -> bool:
        """Liveness probe; ``False`` (never an exception) on a miss."""
        try:
            reply = self.rpc("ping", deadline_at=deadline_at)
        except WorkerLostError:
            return False
        return bool(reply.get("ok"))

    def last_heartbeat_age(self) -> Optional[float]:
        with self._lock:
            last = self.last_reply_at
        return None if last is None else monotonic_seconds() - last

    def snapshot_counters(self) -> Dict[str, Any]:
        """One atomic health row for this shard."""
        with self._lock:
            return {
                "state": self.state,
                "connection": self.connection,
                "failovers": self.failovers,
                "heartbeat_misses": self.heartbeat_misses,
                "reconnects": self.reconnects,
                "rebalances": self.rebalances,
                "operations": self.operations,
                "done": self.done,
                "last_heartbeat_age_seconds": (
                    None
                    if self.last_reply_at is None
                    else monotonic_seconds() - self.last_reply_at
                ),
                "documents": len(self.spec.global_ordinals),
            }


class _ShardQueryState:
    """Per-query, per-shard merge inputs (single-owner, no locking)."""

    __slots__ = (
        "answers",
        "match_payloads",
        "ordinals",
        "bound",
        "done",
        "lost",
        "is_dominated",
        "degraded",
        "stats",
        "reported",
    )

    def __init__(self) -> None:
        self.answers: List[Tuple[Dewey, float]] = []
        #: Global root Dewey -> the answer's match payload as the shard
        #: sent it (shard-local Deweys, remapped by ``ordinals`` when the
        #: answer wins the merge).
        self.match_payloads: Dict[Dewey, List[Any]] = {}
        self.ordinals: Sequence[int] = ()
        self.bound = 0.0
        self.done = False
        self.lost = False
        self.is_dominated = False
        self.degraded = False
        self.stats: Dict[str, float] = {}
        self.reported = False

    @property
    def settled(self) -> bool:
        """Nothing more will be asked of this shard in this query."""
        return self.done or self.lost or self.is_dominated


class Coordinator:
    """Fault-tolerant scatter-gather over N shard workers."""

    def __init__(
        self,
        database: Database,
        shards: int = 2,
        skew: float = 0.0,
        partition_seed: int = 0,
        step_operations: int = 200,
        rpc_timeout_seconds: float = 1.0,
        liveness_deadline_seconds: float = 4.0,
        max_failovers: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        recovery_store: Optional[RecoveryStore] = None,
        observability: Optional[Observability] = None,
        python_executable: Optional[str] = None,
        rebalance: bool = True,
    ) -> None:
        if shards < 1:
            raise ClusterError(f"shards must be >= 1, got {shards}")
        if step_operations < 1:
            raise ClusterError(f"step_operations must be >= 1, got {step_operations}")
        if rpc_timeout_seconds <= 0 or liveness_deadline_seconds <= 0:
            raise ClusterError("rpc timeout and liveness deadline must be positive")
        self.database = database
        self.shards = shards
        self.step_operations = step_operations
        self.max_failovers = max_failovers
        self.rebalance_enabled = rebalance
        self.store = recovery_store if recovery_store is not None else MemoryRecoveryStore()
        self.checkpoints = CheckpointGenerations(self.store, keep=CHECKPOINT_GENERATIONS)
        self.obs = observability if observability is not None else Observability.disabled()
        self.metrics = _ClusterMetrics(self.obs)
        policy = retry_policy if retry_policy is not None else RetryPolicy(
            base_delay=rpc_timeout_seconds / 2, max_delay=liveness_deadline_seconds
        )
        self.specs = build_shard_specs(database, shards, skew=skew, seed=partition_seed)
        self.handles = [
            ShardHandle(
                spec,
                SocketTransport(spec.shard_id, python_executable=python_executable),
                rpc_timeout_seconds,
                liveness_deadline_seconds,
                policy,
                self.metrics,
            )
            for spec in self.specs
        ]
        self._lock = threading.Lock()
        # Slot condition: waiters block here (clock-seam progress wait)
        # until the single query slot frees, instead of spin-polling.
        self._idle_cond = threading.Condition(self._lock)
        self._active = False
        self._closed = False
        self._queries = 0
        self._degraded_queries = 0
        self._failovers_total = 0
        self._reconnects_total = 0
        self._rebalances_total = 0
        self._engines: Dict[Tuple[str, bool], Engine] = {}
        self.last_span: Optional[Span] = None

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down (best-effort ``shutdown``, then kill)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Closing also frees slot waiters: their next submit attempt
            # raises "coordinator is closed" instead of blocking forever.
            self._idle_cond.notify_all()
        for handle in self.handles:
            if handle.alive():
                try:
                    handle.rpc("shutdown")
                except (ClusterError, WorkerLostError):
                    pass
            handle.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Per-shard liveness + coordinator totals (the satellite-6 view)."""
        with self._lock:
            totals = {
                "queries": self._queries,
                "degraded_queries": self._degraded_queries,
                "failovers": self._failovers_total,
                "reconnects": self._reconnects_total,
                "rebalances": self._rebalances_total,
                "active": self._active,
                "closed": self._closed,
            }
        shard_rows = {
            handle.shard_id: handle.snapshot_counters() for handle in self.handles
        }
        live = sum(1 for row in shard_rows.values() if row["state"] == "live")
        self.metrics.live_shards_child.set(float(live))
        return {
            "shards": self.shards,
            "live_shards": live,
            "per_shard": shard_rows,
            **totals,
        }

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the single query slot is free (or the coordinator
        closes); True when the slot was observed free within ``timeout``.

        This is a *progress* wait on the clock seam
        (:meth:`repro.sim.clock.Clock.wait_for`): the predicate turns
        true when another thread's query completes, so it is never
        warped away — even a :class:`~repro.sim.clock.VirtualClock`
        blocks here for the real hand-off.
        """
        return simclock.wait_for(
            self._idle_cond, lambda: self._closed or not self._active, timeout
        )

    # -- the query ---------------------------------------------------------------

    def run_query(
        self,
        query: Union[str, TreePattern],
        k: int,
        algorithm: str = "whirlpool_s",
        relaxed: bool = True,
        routing: str = "min_alive",
        deadline_seconds: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        engine_retry_policy: Optional[RetryPolicy] = None,
        fail_over: bool = True,
    ) -> ClusterResult:
        """Evaluate one top-k query across the shard fleet.

        ``faults`` is one plan for all three fault boundaries; each gets
        the rules of its own sites (:meth:`FaultPlan.select`).  Engine-site
        rules ship to every worker and run in-engine (pair them with
        ``engine_retry_policy`` so workers recover injected faults
        in-engine, as the single-process chaos tests do); ``WORKER_RPC``
        rules (KILL/HANG/SLOW_PIPE, :meth:`FaultPlan.worker_chaos`) arm
        the worker's RPC boundary; ``NET`` rules (PARTITION/
        CORRUPT_FRAME/DUP_FRAME/RECONNECT_STORM,
        :meth:`FaultPlan.net_chaos`) arm each shard's link on the
        coordinator side and — unlike the worker's — stay armed across
        failovers.  ``fail_over=False`` turns every worker loss into a
        lost shard — the degraded-answer path the soundness tests
        exercise.
        """
        if algorithm not in ALGORITHMS:
            raise EngineError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{', '.join(sorted(ALGORITHMS))}"
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ClusterError(f"deadline_seconds must be positive, got {deadline_seconds}")
        with self._lock:
            if self._closed:
                raise ClusterError("coordinator is closed")
            if self._active:
                raise CoordinatorBusyError("coordinator runs one query at a time")
            self._active = True
            self._queries += 1
        span = self.obs.span(
            "cluster_query",
            lambda: {
                "xpath": str(query),
                "k": k,
                "algorithm": algorithm,
                "shards": self.shards,
            },
        )
        # Each fault boundary gets the rules of its own sites.
        engine_faults, process_faults, net_faults = (
            faults.select(family) if faults is not None else None
            for family in ("engine", "process", "net")
        )
        for handle in self.handles:
            # Seeded per shard: each link draws its own probability stream.
            handle.transport.arm_net_faults(
                FaultArm(net_faults.rules, net_faults.seed ^ (handle.shard_id + 1))
                if net_faults is not None
                else None
            )
        try:
            result = self._run(
                query,
                k,
                algorithm,
                relaxed,
                routing,
                deadline_seconds,
                engine_faults,
                engine_retry_policy,
                process_faults,
                fail_over,
                span,
            )
        finally:
            for handle in self.handles:
                handle.transport.arm_net_faults(None)
            span.finish()
            with self._lock:
                if span is not NULL_SPAN:
                    self.last_span = span
                self._active = False
                # Wake every submit blocked on the slot (wait_idle).
                self._idle_cond.notify_all()
        with self._lock:
            if result.degraded:
                self._degraded_queries += 1
            self._failovers_total += result.failovers
            self._reconnects_total += result.reconnects
            self._rebalances_total += result.rebalances
        self.metrics.queries.labels("degraded" if result.degraded else "ok").inc()
        return result

    # The worker boot ([spawn →] init → begin), a worker's replacement, and
    # one step under the failover ladder.

    def _store_key(self, shard_id: int) -> str:
        return f"cluster-shard-{shard_id}"

    def _boot(
        self,
        handles: Sequence[ShardHandle],
        begin_payload: Dict[str, Any],
        process_faults: Optional[FaultPlan],
        restore: Optional[Dict[str, Any]],
        deadline_at: Optional[float],
    ) -> List[ShardHandle]:
        """Open the query on ``handles``: ``init``, then ``begin``, each
        scattered to all of them before it is gathered, so workers that
        must spawn and parse do it concurrently.  A worker that is not
        resident is respawned first; documents ship only to a process
        that does not hold them yet; ``process_faults`` is (re)set on
        every ``init`` — to ``None`` unless given — so a plan never
        outlives its query; ``restore`` rides ``begin``.

        Returns the handles whose boot was lost (a refusal counts), each
        killed: a resident worker that missed ``init`` or ``begin`` is
        still bound to the previous query and must not be stepped.  That
        leaves it to the step ladder — its first step cannot be
        delivered, and failover replaces it."""
        lost: List[ShardHandle] = []

        def gather(posted: List[ShardHandle]) -> List[ShardHandle]:
            """The handles whose reply came back ``ok``; the rest are lost."""
            replied = []
            for handle in posted:
                try:
                    ok = bool(handle.finish(deadline_at=deadline_at).get("ok"))
                except WorkerLostError:
                    ok = False
                (replied if ok else lost).append(handle)
            return replied

        faults = process_faults.as_dict() if process_faults is not None else None
        posted: List[ShardHandle] = []
        for handle in handles:
            try:
                if not handle.resident():
                    handle.kill()
                    handle.spawn()
                init: Dict[str, Any] = {"process_faults": faults}
                if not handle.loaded:
                    init["documents"] = list(handle.spec.xml_texts)
                handle.post("init", init, deadline_at=deadline_at)
                posted.append(handle)
            except WorkerLostError:
                lost.append(handle)
        begin = dict(begin_payload)
        if restore is not None:
            begin["restore"] = restore
        loaded = gather(posted)
        posted = []
        for handle in loaded:
            with handle._lock:
                handle.loaded = True
            try:
                handle.post("begin", begin, deadline_at=deadline_at)
                posted.append(handle)
            except WorkerLostError:
                lost.append(handle)
        gather(posted)
        for handle in lost:
            handle.kill()
        return lost

    def _replace(
        self,
        handle: ShardHandle,
        reason: str,
        begin_payload: Dict[str, Any],
        deadline_at: Optional[float],
        span: Span,
    ) -> None:
        """Boot a fresh worker for the shard from its newest validated
        checkpoint generation — a ``"failover"`` (the worker was lost) or
        a ``"rebalance"`` (it was slow), each charged to its own per-query
        budget.  The replacement is never sent a process-fault plan: it
        must not re-arm the fault that killed (or throttled) its
        predecessor, which is exactly what migrates off a SLOW_PIPE'd
        worker.  One that fails to come up is killed, so the next step's
        failover ladder owns its recovery."""
        counter = reason + "s"  # failovers | rebalances
        with handle._lock:
            setattr(handle, counter, getattr(handle, counter) + 1)
        getattr(self.metrics, counter).labels(str(handle.shard_id)).inc()
        span.event(reason, shard=handle.shard_id)
        restore = self.checkpoints.load(self._store_key(handle.shard_id))
        handle.kill()
        self._boot([handle], begin_payload, None, restore, deadline_at)

    def _lose_shard(self, handle: ShardHandle) -> None:
        """The shard is lost for this query: stop its worker, say so."""
        handle.kill()
        with handle._lock:
            handle.state = "lost"
        handle._set_connection("failed")
        self.metrics.lost_shards.labels(str(handle.shard_id)).inc()

    def _step_with_failover(
        self,
        handle: ShardHandle,
        begin_payload: Dict[str, Any],
        deadline_at: Optional[float],
        fail_over: bool,
        span: Span,
        sent: bool,
    ) -> Optional[Dict[str, Any]]:
        """Gather one step reply, failing over as needed.

        ``sent=True`` means the scatter phase already wrote the step
        frame and only the reply is outstanding.  Returns ``None`` when
        the shard was lost (failover disabled/exhausted or deadline
        passed); the caller marks it missing.  A ``resumable`` worker
        error (an injected in-engine crash — the resident snapshot did
        not advance) is retried once fault-free, mirroring the service's
        recovery contract; any other worker-reported error propagates to
        the caller unretried.
        """
        fault_free = False
        started_at = monotonic_seconds()
        while True:
            try:
                if not sent:
                    handle.post(
                        "step",
                        {"operations": self.step_operations, "fault_free": fault_free},
                        deadline_at=deadline_at,
                    )
                sent = False
                reply = handle.finish(deadline_at=deadline_at)
                if reply.get("ok") or fault_free or not reply.get("resumable"):
                    # Step latency feeds the rebalancing trigger; measured
                    # from gather entry so a SLOW_PIPE'd shard shows its
                    # real stall, not its siblings' gather time.
                    with handle._lock:
                        handle.last_step_seconds = monotonic_seconds() - started_at
                    return reply
                span.event(
                    "step_crash_retry",
                    shard=handle.shard_id,
                    error=reply.get("error"),
                )
                fault_free = True
            except WorkerLostError as exc:
                span.event("worker_lost", shard=handle.shard_id, reason=exc.reason)
                over_deadline = (
                    deadline_at is not None and monotonic_seconds() >= deadline_at
                )
                with handle._lock:
                    exhausted = handle.failovers >= self.max_failovers
                if not fail_over or exhausted or over_deadline:
                    self._lose_shard(handle)
                    return None
                self._replace(handle, "failover", begin_payload, deadline_at, span)
                # Re-issue the step ourselves; the engine-level fault that
                # crashed a step (vs. killed the process) retries clean.  A
                # replacement that did not come up is dead, so that step
                # charges another failover (or exhausts) next loop.
                fault_free = True

    def _run(
        self,
        query: Union[str, TreePattern],
        k: int,
        algorithm: str,
        relaxed: bool,
        routing: str,
        deadline_seconds: Optional[float],
        engine_faults: Optional[FaultPlan],
        engine_retry_policy: Optional[RetryPolicy],
        process_faults: Optional[FaultPlan],
        fail_over: bool,
        span: Span,
    ) -> ClusterResult:
        started = monotonic_seconds()
        deadline_at = started + deadline_seconds if deadline_seconds is not None else None
        engine = self._engine_for(query, relaxed)
        contributions = engine.score_model.contributions()
        max_total = engine.score_model.max_total()
        begin_payload: Dict[str, Any] = {
            "query": engine.pattern.to_xpath(),
            "k": k,
            "algorithm": algorithm,
            "routing": routing,
            "relaxed": relaxed,
            "contributions": contributions,
            "step_operations": self.step_operations,
        }
        if engine_faults is not None:
            begin_payload["engine_faults"] = engine_faults.as_dict()
        if engine_retry_policy is not None:
            begin_payload["engine_retry"] = engine_retry_policy.as_dict()

        states: Dict[int, _ShardQueryState] = {
            handle.shard_id: _ShardQueryState() for handle in self.handles
        }
        for handle in self.handles:
            handle.begin_query()
            self.checkpoints.delete(self._store_key(handle.shard_id))
        self._boot(self.handles, begin_payload, process_faults, None, deadline_at)

        rounds = 0
        merged: List[MergedAnswer] = []
        slow_rounds: Dict[int, int] = {handle.shard_id: 0 for handle in self.handles}
        while True:
            if deadline_at is not None and monotonic_seconds() >= deadline_at:
                break
            active = [
                handle for handle in self.handles if not states[handle.shard_id].settled
            ]
            if not active:
                break
            rounds += 1
            # Scatter: pipeline the step frames so shards work in parallel.
            pending: List[Tuple[ShardHandle, bool]] = []
            for handle in active:
                try:
                    handle.post(
                        "step",
                        {"operations": self.step_operations, "fault_free": False},
                        deadline_at=deadline_at,
                    )
                    pending.append((handle, True))
                except WorkerLostError:
                    pending.append((handle, False))
            # Gather, with failover, one shard at a time.
            for handle, sent in pending:
                state = states[handle.shard_id]
                reply = self._step_with_failover(
                    handle,
                    begin_payload,
                    deadline_at,
                    fail_over,
                    span,
                    sent=sent,
                )
                if reply is None or not reply.get("ok"):
                    if reply is not None:
                        # Non-resumable worker error: give the shard up.
                        self._lose_shard(handle)
                    state.lost = True
                    continue
                self._absorb(handle, state, reply)
            # Merge + threshold + domination.
            merged = merge_answers(
                {
                    shard_id: state.answers
                    for shard_id, state in states.items()
                    if state.reported
                },
                k,
            )
            threshold = kth_score(merged, k)
            if threshold is not None:
                self.metrics.merge_threshold_child.set(threshold)
            for handle in self.handles:
                state = states[handle.shard_id]
                if state.settled:
                    continue
                if dominated(state.bound, threshold):
                    state.is_dominated = True
                    span.event(
                        "shard_dominated",
                        shard=handle.shard_id,
                        bound=state.bound,
                        threshold=threshold,
                    )
            span.event("round", number=rounds, threshold=threshold, active=len(active))
            if self.rebalance_enabled and fail_over:
                self._maybe_rebalance(
                    states, slow_rounds, begin_payload, deadline_at, span
                )
            self._probe_idle(states, deadline_at)

        return self._finalize(
            engine, states, merged, k, algorithm, started, rounds, span
        )

    def _absorb(
        self, handle: ShardHandle, state: _ShardQueryState, reply: Dict[str, Any]
    ) -> None:
        """Fold one step reply into the shard's merge inputs."""
        ordinals = handle.spec.global_ordinals
        answers: List[Tuple[Dewey, float]] = []
        payloads: Dict[Dewey, List[Any]] = {}
        for payload in reply.get("answers", []):
            # An answer is its encoded match, ``[root, score, entries]``.
            # Only the root is remapped here: the merge reads roots and
            # scores, and :meth:`_finalize` remaps the payloads of the
            # (at most k) winners.
            dewey = remap_dewey(payload[0], ordinals)
            answers.append((dewey, float(payload[1])))
            payloads[dewey] = payload
        state.answers = answers
        state.match_payloads = payloads
        state.ordinals = ordinals
        state.bound = float(reply.get("pending_bound", 0.0))
        state.done = bool(reply.get("done"))
        state.degraded = bool(reply.get("degraded"))
        state.stats = dict(reply.get("stats", {}))
        state.reported = True
        operations = int(reply.get("operations", 0))
        with handle._lock:
            handle.operations = operations
            handle.done = state.done
        checkpoint = reply.get("checkpoint")
        if checkpoint is not None:
            try:
                self.checkpoints.save(
                    self._store_key(handle.shard_id),
                    checkpoint["text"],
                    checkpoint["crc"],
                )
            except RecoveryError:
                # Damaged above the frame layer: not stored.  The worker's
                # own state is intact; a failover meanwhile restores an
                # older generation and replays the steps in between.
                self.metrics.checkpoint_rejects.labels(str(handle.shard_id)).inc()
        elif state.done:
            self.checkpoints.delete(self._store_key(handle.shard_id))

    # -- rebalancing --------------------------------------------------------------

    def _maybe_rebalance(
        self,
        states: Dict[int, _ShardQueryState],
        slow_rounds: Dict[int, int],
        begin_payload: Dict[str, Any],
        deadline_at: Optional[float],
        span: Span,
    ) -> None:
        """Retire-and-migrate shards whose step latency stays far above
        the fleet.  The trigger is relative (:data:`REBALANCE_LATENCY_FACTOR`
        × the median of the *other* still-active shards' latencies) with
        an absolute floor (:data:`REBALANCE_MIN_LATENCY_SECONDS`) so
        healthy microsecond jitter can never look like degradation, and
        must hold for :data:`REBALANCE_SLOW_ROUNDS` consecutive rounds.  A shard
        grinding alone — its siblings already done or dominated — is
        judged against the floor only.  Each shard's migrations share
        the failover budget, so a slice that is legitimately huge (and
        therefore still slow on the replacement) cannot thrash through
        endless respawns."""
        latencies: Dict[int, float] = {}
        for handle in self.handles:
            state = states[handle.shard_id]
            if state.settled:
                continue
            with handle._lock:
                latency = handle.last_step_seconds
            if latency is not None:
                latencies[handle.shard_id] = latency
        budget = max(1, self.max_failovers)
        for handle in self.handles:
            shard_id = handle.shard_id
            if shard_id not in latencies:
                continue
            others = [lat for sid, lat in latencies.items() if sid != shard_id]
            threshold = REBALANCE_MIN_LATENCY_SECONDS
            if others:
                threshold = max(
                    threshold, REBALANCE_LATENCY_FACTOR * statistics.median(others)
                )
            if latencies[shard_id] >= threshold:
                slow_rounds[shard_id] += 1
            else:
                slow_rounds[shard_id] = 0
            with handle._lock:
                spent = handle.rebalances
            if slow_rounds[shard_id] >= REBALANCE_SLOW_ROUNDS:
                slow_rounds[shard_id] = 0
                if spent < budget:
                    self._replace(handle, "rebalance", begin_payload, deadline_at, span)
                    with handle._lock:
                        handle.last_step_seconds = None

    def _probe_idle(
        self, states: Dict[int, _ShardQueryState], deadline_at: Optional[float]
    ) -> None:
        """Heartbeat shards that finished early but must stay live (their
        answers are already merged; this just keeps health() honest)."""
        for handle in self.handles:
            state = states[handle.shard_id]
            if not (state.done or state.is_dominated) or not handle.alive():
                continue
            age = handle.last_heartbeat_age()
            if age is not None and age >= HEARTBEAT_INTERVAL_SECONDS:
                handle.ping(deadline_at=deadline_at)

    def _finalize(
        self,
        engine: Engine,
        states: Dict[int, _ShardQueryState],
        merged: List[MergedAnswer],
        k: int,
        algorithm: str,
        started: float,
        rounds: int,
        span: Span,
    ) -> ClusterResult:
        answers: List[TopKAnswer] = []
        servers = frozenset(node.node_id for node in engine.pattern.non_root_nodes())
        for dewey, score, shard_id in merged:
            # An answer's match is a record: nothing reads its bound.
            state = states[shard_id]
            payload = remap_match_payload(state.match_payloads[dewey], state.ordinals)
            match = decode_match(payload, self.database.node_by_dewey, servers)
            root = self.database.node_by_dewey(dewey)
            if root is None:  # pragma: no cover - remap guarantees presence
                raise ClusterError(f"merged answer references unknown root {dewey}")
            answers.append(TopKAnswer(root, score, match))

        missing = sorted(
            shard_id for shard_id, state in states.items() if state.lost
        )
        dominated_ids = sorted(
            shard_id for shard_id, state in states.items() if state.is_dominated
        )
        unfinished = [state for state in states.values() if not state.settled]
        live_bounds = [state.bound for state in unfinished if state.reported]
        live_bounds.extend(states[shard_id].bound for shard_id in dominated_ids)
        lost_bounds = [
            lost_shard_bound(
                state.bound if state.reported else None,
                state.answers if state.reported else None,
                k,
                engine.score_model.max_total(),
            )
            for state in states.values()
            if state.lost
        ]
        # Degraded = work was left anywhere we cannot vouch for: a lost
        # shard, an unfinished live shard (deadline), a never-reported
        # shard, or a shard whose own run was terminally degraded
        # (fault-dropped or abandoned matches — reported done, but its
        # pending_bound certifies the loss).  Dominated shards are *not*
        # degradation — their bound proves they cannot contribute.
        unreported = [
            state for state in states.values() if not state.reported and not state.lost
        ]
        terminal = [
            state
            for state in states.values()
            if state.done and state.degraded and not state.lost
        ]
        degraded = (
            bool(missing) or bool(unfinished) or bool(unreported) or bool(terminal)
        )
        live_bounds.extend(state.bound for state in terminal)
        pending = global_pending_bound(
            live_bounds
            + [engine.score_model.max_total() for _ in unreported],
            lost_bounds,
        )
        if not degraded and not dominated_ids:
            pending = 0.0

        stats = ExecutionStats()
        for state in states.values():
            for field in COUNTERS:
                setattr(stats, field, getattr(stats, field) + state.stats.get(field, 0))
        stats.wall_time_seconds = monotonic_seconds() - started

        failovers = 0
        misses = 0
        reconnects = 0
        rebalances = 0
        for handle in self.handles:
            with handle._lock:
                failovers += handle.failovers
                misses += handle.heartbeat_misses
                reconnects += handle.reconnects
                rebalances += handle.rebalances

        result = ClusterResult(
            answers,
            stats,
            f"cluster:{algorithm}",
            k,
            engine.pattern,
            degraded=degraded,
            pending_bound=pending,
            shards=self.shards,
            missing_shards=missing,
            failovers=failovers,
            heartbeat_misses=misses,
            rounds=rounds,
            dominated_shards=dominated_ids,
            reconnects=reconnects,
            rebalances=rebalances,
            shard_reports={
                shard_id: {
                    "done": state.done,
                    "lost": state.lost,
                    "dominated": state.is_dominated,
                    "degraded": state.degraded,
                    "bound": state.bound,
                    "answers": len(state.answers),
                }
                for shard_id, state in states.items()
            },
        )
        span.annotate("degraded", degraded)
        span.annotate("missing_shards", missing)
        span.annotate("rounds", rounds)
        return result

    def _engine_for(self, query: Union[str, TreePattern], relaxed: bool) -> Engine:
        key = (str(query), relaxed)
        with self._lock:
            engine = self._engines.get(key)
        if engine is not None:
            return engine
        built = Engine(self.database, query, relaxed=relaxed)
        with self._lock:
            engine = self._engines.setdefault(key, built)
        return engine
