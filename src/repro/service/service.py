"""The embedded query service: a worker pool over the Whirlpool engines.

``WhirlpoolService`` turns the one-shot :class:`~repro.core.engine.Engine`
facade into a request-serving stack:

- **one document registry** — the service alone maps a request's
  document handle to its :class:`~repro.xmldb.model.Database`, once per
  request, for the in-process engines and an execution backend alike;
  a cached engine (or backend coordinator) is reused only while it was
  built over the database the handle names now;
- **admission** — a bounded :class:`~repro.service.queue.AdmissionQueue`
  with a pluggable :class:`~repro.service.policies.OverloadPolicy`;
- **deadline propagation** — a request's ``deadline_seconds`` is measured
  from admission, so queue wait is charged against it and only the
  remainder reaches the engine's anytime budget;
- **failure isolation** — one :class:`~repro.service.breaker.CircuitBreaker`
  per engine algorithm; a tripped breaker reroutes requests along
  :data:`repro.core.engine.FALLBACK_CHAIN` (recorded on the response);
- **graceful drain** — :meth:`WhirlpoolService.drain` stops admission,
  lets queued work finish (capped at the drain budget so late work
  degrades instead of overrunning), sheds what the budget cannot cover,
  and never loses a request without a recorded outcome;
- **crash recovery** — with a :class:`~repro.recovery.RecoveryStore`
  attached, drain-shed / circuit-refused / crashed requests persist a
  resumable snapshot, and :meth:`WhirlpoolService.recover` re-admits
  them on the next service lifetime with their remaining deadline
  budget (see :mod:`repro.recovery`).

The exactly-one-outcome invariant is structural:
:meth:`~repro.service.request.Ticket.claim` is first-wins, counters
increment only on the winning claim, and every code path that takes
ownership of a ticket ends in :meth:`WhirlpoolService._finish`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.engine import ALGORITHMS, Engine, TopKResult, fallback_chain
from repro.core.stats import ExecutionStats, monotonic_seconds
from repro.core.trace import ExecutionTrace
from repro.errors import RecoveryError, ReproError, ServiceError
from repro.obs import Observability, SlowQueryEntry, record_run, routing_history
from repro.obs.spans import NULL_SPAN, Span
from repro.query.xpath import parse_xpath
from repro.recovery.codec import validate_snapshot
from repro.recovery.policy import CheckpointPolicy
from repro.recovery.store import RecoveryStore
from repro.service.breaker import CircuitBreaker
from repro.service.health import ServiceCounters
from repro.service.policies import OverloadPolicy, degrade
from repro.service.queue import REJECTED, SHED, AdmissionQueue, AdmittedRequest
from repro.service.request import Outcome, QueryRequest, QueryResponse, Ticket
from repro.xmldb.model import Database

#: Version tag for the service's request-envelope snapshots (the engine
#: snapshot nested inside carries its own ``repro.recovery`` version).
_ENVELOPE_VERSION = 1

_POLL_SECONDS = 0.02
#: Floor under any engine deadline the service computes — EngineBase
#: requires a positive budget, and a zero-width slice cannot even seed.
_MIN_DEADLINE_SECONDS = 0.001
#: Post-budget wait for in-flight runs during drain.  Work *started*
#: during drain is capped at the drain deadline, so this only covers
#: runs admitted before drain began.
_DRAIN_GRACE_SECONDS = 2.0
_JOIN_TIMEOUT_SECONDS = 2.0
#: Gauge encoding of breaker states for ``whirlpool_breaker_state``.
_BREAKER_STATE_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class WhirlpoolService:
    """Thread-based top-k query service over registered XML documents.

    Parameters
    ----------
    documents:
        Initial handle → :class:`~repro.xmldb.model.Database` registry
        (extend later with :meth:`register_document`).
    workers:
        Worker-pool size; each worker runs one engine at a time.
    queue_depth:
        Admission-queue capacity (the backpressure bound).
    overload_policy:
        What admission does at capacity — see
        :class:`~repro.service.policies.OverloadPolicy`.
    seed:
        Each algorithm's circuit breaker gets a seed derived from it, so
        probe schedules decorrelate.
    observability:
        Optional :class:`~repro.obs.Observability` bundle.  When enabled
        the service opens one span per request, attaches one execution
        trace to every engine run and folds the engine metrics from it
        after the run, records request latency / queue-wait /
        breaker-transition metrics, and
        captures over-budget requests in the slow-query log.  Omitted
        (the default) every hook degrades to an ``is None`` test.
    auto_start:
        Start the worker pool in the constructor (tests pass ``False``
        to stage deterministic burst admissions before serving begins).
    recovery_store:
        Optional :class:`~repro.recovery.RecoveryStore`.  When set, the
        service persists request envelopes (and, with a
        ``checkpoint_policy``, mid-run engine snapshots) for work it
        cannot finish — drain-shed requests, circuit-open refusals and
        engine crashes — keyed by request id.  A later service over the
        same store calls :meth:`recover` to re-admit them.  Fault plans
        and retry policies are not serialized: recovered runs re-execute
        fault-free.
    checkpoint_policy:
        Optional :class:`~repro.recovery.CheckpointPolicy` every run is
        given (it holds no per-run state).  Only meaningful together with
        ``recovery_store``.
    backend:
        Optional execution backend.  When set, admitted requests run on
        it instead of the in-process engine cache: the service still
        owns admission, deadline propagation, drain and the
        one-outcome-per-request invariant, while the backend owns
        execution (e.g. the sharded cluster coordinator of
        ``repro.cluster.service.ClusterBackend``, with its own failover
        and certificates).  The hook is duck-typed — anything with
        ``run_query(request, database, k, deadline_seconds)``,
        ``health()`` and ``close()`` — so this module never imports the
        higher ``cluster`` layer.  The service resolves ``database``
        from the request's handle, so the backend keeps no registry of
        its own.  Breakers and the engine cache are bypassed on the
        backend path; ``drain`` closes the backend.
    """

    def __init__(
        self,
        documents: Optional[Mapping[str, Database]] = None,
        workers: int = 2,
        queue_depth: int = 16,
        overload_policy: OverloadPolicy = OverloadPolicy.REJECT,
        seed: int = 0,
        observability: Optional[Observability] = None,
        auto_start: bool = True,
        recovery_store: Optional[RecoveryStore] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        backend: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self._documents: Dict[str, Database] = dict(documents or {})
        self._recovery_store = recovery_store
        self._checkpoint_policy = checkpoint_policy
        self._backend = backend
        self._queue = AdmissionQueue(queue_depth, policy=overload_policy)
        self.obs = observability if observability is not None else Observability.disabled()
        # Request-level metric families, registered up front (a disabled
        # registry hands back no-op instruments, keeping one code path).
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "whirlpool_requests_total",
            "Requests by algorithm, routing and terminal outcome.",
            labels=("algorithm", "routing", "outcome"),
        )
        self._m_latency = registry.histogram(
            "whirlpool_request_latency_seconds",
            "End-to-end request latency (submit to terminal outcome).",
            labels=("algorithm", "routing", "outcome"),
        )
        self._m_queue_wait = registry.histogram(
            "whirlpool_queue_wait_seconds",
            "Admission-to-resolution queue wait per request.",
        )
        self._m_admission_depth = registry.gauge(
            "whirlpool_admission_queue_depth",
            "Admission-queue depth sampled at each request resolution.",
        )
        self._m_breaker_transitions = registry.counter(
            "whirlpool_breaker_transitions_total",
            "Circuit-breaker state transitions.",
            labels=("algorithm", "from_state", "to_state"),
        )
        self._m_breaker_state = registry.gauge(
            "whirlpool_breaker_state",
            "Breaker state code (0=closed, 1=half_open, 2=open).",
            labels=("algorithm",),
        )
        self._m_slow = registry.counter(
            "whirlpool_slow_queries_total",
            "Requests whose latency met the slow-query budget.",
        )
        self._m_recovery_snapshots = registry.counter(
            "whirlpool_recovery_snapshots_total",
            "Recovery snapshots persisted, by origin.",
            labels=("origin",),
        )
        self._m_recovered = registry.counter(
            "whirlpool_recovered_requests_total",
            "Requests re-admitted from persisted recovery snapshots.",
        )
        # Unlabeled families resolve their single child once, up front —
        # the hot path records against the child directly, and exports
        # show an explicit 0 before the first event.
        self._m_queue_wait_child = self._m_queue_wait.labels()
        self._m_admission_depth_child = self._m_admission_depth.labels()
        self._m_slow_child = self._m_slow.labels()
        self._m_recovered_child = self._m_recovered.labels()
        breaker_listener = self._on_breaker_transition if self.obs.enabled else None
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(name, seed=seed + offset, listener=breaker_listener)
            for offset, name in enumerate(sorted(ALGORITHMS))
        }
        self._counters = ServiceCounters()
        #: Fleet-wide engine counters: every finished run is merged in and
        #: ``health()`` reads them, both under ``_stats_lock``, so a snapshot
        #: never shows a half-merged run.
        self._engine_stats = ExecutionStats()
        self._stats_lock = threading.Lock()
        self._engine_lock = threading.Lock()
        self._engines: Dict[Tuple[str, str, bool], Engine] = {}
        self._ids = itertools.count(1)
        self._started = False
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._draining = threading.Event()
        self._idle_cond = threading.Condition()
        self._drain_deadline: Optional[float] = None
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop,
                name=f"whirlpool-svc-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        if auto_start:
            self.start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._engine_lock:
            if self._started:
                return
            self._started = True
        for thread in self._threads:
            thread.start()

    def drain(self, budget_seconds: float = 5.0) -> bool:
        """Graceful shutdown: stop admitting, finish or shed, then stop.

        Within ``budget_seconds`` the pool keeps serving queued work —
        engine deadlines of work started during drain are capped at the
        remaining drain budget, so late requests degrade (anytime
        results) instead of overrunning.  Whatever is still queued when
        the budget lapses is resolved ``SHED`` (reason ``drain``).
        Returns ``True`` when every submitted request had its terminal
        outcome by the time drain finished; a ``False`` return means a
        pre-drain unbounded run is still in flight — its worker will
        still resolve it.
        """
        deadline = monotonic_seconds() + max(budget_seconds, 0.0)
        self._draining.set()
        with self._idle_cond:
            self._drain_deadline = deadline
        self._wait_idle(deadline)
        self._shed_queued()
        self._stop.set()
        self._queue.close()
        # Catch entries that raced past the draining check into the queue
        # between the first sweep and the close.
        self._shed_queued()
        self._wait_idle(monotonic_seconds() + _DRAIN_GRACE_SECONDS)
        for thread in self._threads:
            if thread.ident is not None:  # never-started pools have nothing to join
                thread.join(timeout=_JOIN_TIMEOUT_SECONDS)
        if self._backend is not None:
            self._backend.close()
        self._stopped.set()
        return self._counters.outstanding() == 0

    def __enter__(self) -> "WhirlpoolService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.drain()

    # -- admission ---------------------------------------------------------------

    def register_document(self, name: str, database: Database) -> None:
        """Add (or replace) a document handle requests can address.

        A replaced handle's cached engines (and backend coordinator) are
        rebuilt over ``database`` at the next request that names it.
        """
        with self._engine_lock:
            self._documents[name] = database

    def submit(
        self,
        request: QueryRequest,
        *,
        restore_from: Optional[Dict[str, Any]] = None,
    ) -> Ticket:
        """Admit one request; always returns a ticket that will resolve.

        Overload and drain are **outcomes, not exceptions**: a refused
        request comes back as an already-resolved ticket (``REJECTED``
        reason ``queue_full`` / ``draining``, or ``SHED`` reason
        ``policy`` when the request itself was the shed victim).

        ``restore_from`` (used by :meth:`recover`) attaches a persisted
        engine snapshot: the run resumes from it instead of seeding.
        """
        request_id = next(self._ids)
        ticket = Ticket(request, request_id)
        ticket.restore_from = restore_from
        ticket.span = self.obs.span(
            "request",
            lambda: {
                "request_id": request_id,
                "document": request.document,
                "xpath": request.xpath,
                "algorithm": request.algorithm,
                "routing": request.routing,
                "k": request.k,
                "priority": request.priority,
            },
        )
        self._counters.record_submitted()
        if self._stop.is_set() or self._draining.is_set():
            self._finish(
                ticket, QueryResponse(Outcome.REJECTED, request_id, reason="draining")
            )
            return ticket
        verdict, evicted = self._queue.offer(ticket, request.priority, request_id)
        if evicted is not None:
            self._finish(
                evicted.ticket,
                QueryResponse(
                    Outcome.SHED,
                    evicted.ticket.request_id,
                    reason="policy",
                    queue_wait_seconds=max(
                        monotonic_seconds() - evicted.admitted_at, 0.0
                    ),
                ),
            )
        if verdict == REJECTED:
            reason = "draining" if self._draining.is_set() else "queue_full"
            self._finish(ticket, QueryResponse(Outcome.REJECTED, request_id, reason=reason))
        elif verdict == SHED:
            self._finish(ticket, QueryResponse(Outcome.SHED, request_id, reason="policy"))
        return ticket

    # -- observability -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """One consistent snapshot of queue, breakers, workers, counters.

        ``ok`` is the liveness verdict: accepting work with the pool
        intact.  ``metrics`` and ``slow_queries`` are ``None`` without
        observability, ``recovery`` (``{"pending_snapshots": n}``) without
        a recovery store, and ``backend`` (the backend's own ``health()``)
        for in-process execution.
        """
        draining = self._draining.is_set()
        stopped = self._stopped.is_set()
        workers_alive = sum(1 for thread in self._threads if thread.is_alive())
        workers_total = len(self._threads)
        with self._stats_lock:
            engine_stats = self._engine_stats.as_dict()
        return {
            "ok": not draining and not stopped and workers_alive == workers_total,
            "queue_depth": self._queue.depth(),
            "queue_capacity": self._queue.capacity,
            "overload_policy": self._queue.policy.value,
            "draining": draining,
            "stopped": stopped,
            "workers_alive": workers_alive,
            "workers_total": workers_total,
            "breakers": {
                name: breaker.snapshot() for name, breaker in sorted(self._breakers.items())
            },
            "counters": self._counters.as_dict(),
            "engine_stats": engine_stats,
            "metrics": self.obs.registry.as_dict() if self.obs.enabled else None,
            "slow_queries": (
                self.obs.slow_log.as_dicts() if self.obs.slow_log is not None else None
            ),
            "recovery": (
                {"pending_snapshots": self._recovery_store.count()}
                if self._recovery_store is not None
                else None
            ),
            "backend": self._backend.health() if self._backend is not None else None,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition (empty when observability is off)."""
        if not self.obs.enabled:
            return ""
        return self.obs.registry.prometheus_text()

    def slow_queries(self) -> List[SlowQueryEntry]:
        """Current slow-query-log entries (empty when observability is off)."""
        slow_log = self.obs.slow_log
        return slow_log.entries() if slow_log is not None else []

    def breaker(self, algorithm: str) -> CircuitBreaker:
        """The breaker guarding ``algorithm`` (tests and diagnostics)."""
        try:
            return self._breakers[algorithm]
        except KeyError:
            raise ServiceError(f"no breaker for algorithm {algorithm!r}") from None

    # -- the worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            entry = self._queue.take(timeout=_POLL_SECONDS)
            if entry is None:
                continue
            try:
                self._execute(entry)
            except Exception as exc:  # crash containment: resolve, keep serving
                self._fail(entry.ticket, "worker_crash", exc)

    def _execute(self, entry: AdmittedRequest) -> None:
        ticket = entry.ticket
        request = ticket.request
        wait = max(monotonic_seconds() - entry.admitted_at, 0.0)
        span = ticket.span
        span.event("dequeued", queue_wait_seconds=wait)

        # Deadline propagation: queue wait already spent the budget.
        remaining: Optional[float] = None
        if request.deadline_seconds is not None:
            remaining = request.deadline_seconds - wait
            if remaining <= 0:
                self._finish(
                    ticket,
                    QueryResponse(
                        Outcome.SHED,
                        ticket.request_id,
                        reason="deadline",
                        queue_wait_seconds=wait,
                    ),
                )
                return

        k = request.k
        degraded_by_service = False
        if entry.degrade:
            remaining, k = degrade(remaining, k)
            degraded_by_service = True
            span.event("service_degrade", k=k, remaining_seconds=remaining)

        drain_deadline = self._drain_deadline_snapshot()
        if drain_deadline is not None:
            drain_remaining = drain_deadline - monotonic_seconds()
            remaining = (
                drain_remaining
                if remaining is None
                else min(remaining, drain_remaining)
            )
        if remaining is not None:
            remaining = max(remaining, _MIN_DEADLINE_SECONDS)

        with self._engine_lock:
            database = self._documents.get(request.document)
        if database is None:
            self._fail(
                ticket,
                "unknown_document",
                ServiceError(f"unknown document {request.document!r}"),
                queue_wait_seconds=wait,
            )
            return

        if self._backend is not None:
            self._execute_on_backend(
                ticket, request, database, k, remaining, wait, degraded_by_service, span
            )
            return

        try:
            engine = self._engine_for(request, database)
        except ReproError as exc:
            self._fail(ticket, "bad_request", exc, queue_wait_seconds=wait)
            return

        chosen: Optional[str] = None
        for candidate in (request.algorithm,) + fallback_chain(request.algorithm):
            if self._breakers[candidate].allow():
                chosen = candidate
                break
        if chosen is None:
            # Breakers refused everywhere: persist the envelope so the
            # request survives the outage instead of being abandoned.
            self._save_snapshot(ticket, "circuit_open")
            self._finish(
                ticket,
                QueryResponse(
                    Outcome.FAILED,
                    ticket.request_id,
                    reason="circuit_open",
                    error=(
                        f"all breakers open for {request.algorithm} "
                        f"and its fallback chain"
                    ),
                    queue_wait_seconds=wait,
                ),
            )
            return
        fallback_from = request.algorithm if chosen != request.algorithm else None
        if fallback_from is not None:
            span.event("breaker_fallback", requested=fallback_from, chosen=chosen)

        # One trace per run, the engine's only observer: record_run folds
        # the engine metrics from it after the run, and it feeds the
        # slow-query log's routing history and failure-report tails.
        trace: Optional[ExecutionTrace] = None
        engine_span = NULL_SPAN
        if self.obs.enabled:
            trace = ticket.trace = ExecutionTrace()
            engine_span = span.child(
                "engine", {"algorithm": chosen, "routing": request.routing, "k": k}
            )

        # Recovery wiring: each run gets the checkpoint policy and a sink
        # that persists every engine snapshot under this request's key,
        # stamped with the deadline left at save time.
        deadline_at = (
            monotonic_seconds() + remaining if remaining is not None else None
        )
        run_policy: Optional[CheckpointPolicy] = None
        checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None
        engine_snapshot_saved = [False]
        if self._recovery_store is not None and self._checkpoint_policy is not None:
            run_policy = self._checkpoint_policy

            def _sink(snapshot: Dict[str, Any]) -> None:
                engine_snapshot_saved[0] = True
                self._save_snapshot(
                    ticket, "checkpoint", engine_snapshot=snapshot, deadline_at=deadline_at
                )

            checkpoint_sink = _sink

        try:
            result = engine.run(
                k,
                algorithm=chosen,
                routing=request.routing,
                deadline_seconds=remaining,
                faults=request.faults,
                retry_policy=request.retry_policy,
                observer=trace,
                checkpoint_policy=run_policy,
                checkpoint_sink=checkpoint_sink,
                restore_from=ticket.restore_from,
            )
        except Exception as exc:
            self._breakers[chosen].record_failure()
            # A mid-run checkpoint (if any) is already persisted and
            # holds real engine state; otherwise fall back to an
            # envelope-only snapshot so the request is still resumable.
            if not engine_snapshot_saved[0]:
                self._save_snapshot(ticket, "engine_error", deadline_at=deadline_at)
            if trace is not None:
                # The run's events count even though it raised.
                record_run(
                    self.obs.registry, chosen, request.routing, Outcome.FAILED.value, None, trace
                )
            self._fail(
                ticket,
                "engine_error",
                exc,
                engine_span,
                algorithm_used=chosen,
                fallback_from=fallback_from,
                queue_wait_seconds=wait,
            )
            return

        # Breaker health: a raise or abandoned work is a failure; a
        # budget-degraded anytime result is the contract working.
        abandoned = result.failure is not None and bool(result.failure.failed_matches)
        if abandoned:
            self._breakers[chosen].record_failure()
        else:
            self._breakers[chosen].record_success()
        self._serve(
            ticket, result, engine_span, chosen, fallback_from, wait, degraded_by_service
        )

    def _execute_on_backend(
        self,
        ticket: Ticket,
        request: QueryRequest,
        database: Database,
        k: int,
        remaining: Optional[float],
        wait: float,
        degraded_by_service: bool,
        span: Span,
    ) -> None:
        """Run one admitted request on the configured execution backend.

        The backend path keeps the service's admission/deadline/outcome
        machinery but skips breakers and the engine cache: the backend
        (e.g. a sharded cluster coordinator) has its own failover story,
        and a backend result's ``degraded`` flag already certifies any
        partial answer via its ``pending_bound``.
        """
        backend_span = span.child("backend")
        backend_span.annotate("algorithm", request.algorithm)
        backend_span.annotate("k", k)
        try:
            result = self._backend.run_query(
                request, database, k, deadline_seconds=remaining
            )
        except ReproError as exc:
            self._fail(ticket, "backend_error", exc, backend_span, queue_wait_seconds=wait)
            return
        algorithm_used = getattr(result, "algorithm", request.algorithm)
        self._serve(
            ticket, result, backend_span, algorithm_used, None, wait, degraded_by_service
        )

    # -- internals ---------------------------------------------------------------

    def _engine_for(self, request: QueryRequest, database: Database) -> Engine:
        """The cached engine for ``request``, rebuilt when its document's
        handle now names another database (the one replacement rule
        ``ClusterBackend`` follows for its coordinators too)."""
        key = (request.document, request.xpath, request.relaxed)
        with self._engine_lock:
            engine = self._engines.get(key)
        if engine is not None and engine.database is database:
            return engine
        built = Engine(database, request.xpath, relaxed=request.relaxed)
        with self._engine_lock:
            # Two workers may have built concurrently; first one wins so
            # cached runs share one index / score model.
            cached = self._engines.get(key)
            if cached is None or cached.database is not database:
                self._engines[key] = cached = built
            return cached

    def _serve(
        self,
        ticket: Ticket,
        result: TopKResult,
        run_span: Span,
        algorithm_used: str,
        fallback_from: Optional[str],
        wait: float,
        degraded_by_service: bool,
    ) -> None:
        """A run returned: close its span, fold it into the aggregates
        and resolve its ticket."""
        self._discard_snapshot(ticket.request_id)
        run_span.annotate("algorithm_used", algorithm_used)
        run_span.annotate("server_operations", result.stats.server_operations)
        run_span.annotate("routing_decisions", result.stats.routing_decisions)
        run_span.annotate("degraded", result.degraded)
        run_span.finish()
        self._fold_stats(result.stats)
        degraded = result.degraded or degraded_by_service
        outcome = Outcome.DEGRADED if degraded else Outcome.SERVED
        if self.obs.enabled:
            record_run(
                self.obs.registry,
                algorithm_used,
                ticket.request.routing,
                outcome.value,
                result,
                ticket.trace,
            )
        self._finish(
            ticket,
            QueryResponse(
                outcome,
                ticket.request_id,
                result=result,
                algorithm_used=algorithm_used,
                fallback_from=fallback_from,
                queue_wait_seconds=wait,
                degraded_by_service=degraded_by_service,
            ),
        )

    def _fail(
        self,
        ticket: Ticket,
        reason: str,
        exc: Exception,
        run_span: Span = NULL_SPAN,
        **fields: Any,
    ) -> None:
        """Resolve ``ticket`` as FAILED on ``exc``, which ends ``run_span``."""
        error = f"{type(exc).__name__}: {exc}"
        run_span.annotate("error", error)
        run_span.finish()
        self._finish(
            ticket,
            QueryResponse(Outcome.FAILED, ticket.request_id, reason=reason, error=error, **fields),
        )

    def _fold_stats(self, stats: ExecutionStats) -> None:
        """Merge one finished run's counters into the fleet-wide aggregate."""
        with self._stats_lock:
            self._engine_stats.merge(stats)

    def _finish(self, ticket: Ticket, response: QueryResponse) -> bool:
        if not ticket.claim(response):
            return False
        # Record, then publish: a client that reads health() or the slow
        # log right after result() must find this request already in them.
        try:
            self._counters.record_outcome(
                response.outcome,
                fallback=response.fallback_from is not None,
                queue_wait=response.queue_wait_seconds,
            )
            span = ticket.span
            if span is not NULL_SPAN:
                # claim() was first-wins, so exactly one caller runs this
                # block — request metrics record once per request.
                response.span = span
                span.annotate("outcome", response.outcome.value)
                if response.reason:
                    span.annotate("reason", response.reason)
                span.finish()
                self._record_request(ticket, response, span)
        finally:
            ticket.publish()
        with self._idle_cond:
            self._idle_cond.notify_all()
        return True

    def _record_request(
        self, ticket: Ticket, response: QueryResponse, span: Span
    ) -> None:
        """Request-level metrics + slow-query capture (before waiters wake)."""
        request = ticket.request
        algorithm = response.algorithm_used or request.algorithm
        routing = request.routing
        outcome = response.outcome.value
        latency = span.duration_seconds()
        self._m_requests.labels(algorithm, routing, outcome).inc()
        self._m_latency.labels(algorithm, routing, outcome).observe(latency)
        self._m_queue_wait_child.observe(response.queue_wait_seconds)
        self._m_admission_depth_child.set(self._queue.depth())
        slow_log = self.obs.slow_log
        if slow_log is not None and slow_log.over_budget(latency):
            self._m_slow_child.inc()
            trace = ticket.trace
            slow_log.record(
                SlowQueryEntry(
                    request_id=ticket.request_id,
                    document=request.document,
                    xpath=request.xpath,
                    algorithm=algorithm,
                    routing=routing,
                    outcome=outcome,
                    latency_seconds=latency,
                    queue_wait_seconds=response.queue_wait_seconds,
                    routing_history=(
                        routing_history(trace) if trace is not None else []
                    ),
                    span=span,
                )
            )

    def _on_breaker_transition(self, name: str, old_state: str, new_state: str) -> None:
        """Breaker listener (called under the breaker's lock — metrics only)."""
        self._m_breaker_transitions.labels(name, old_state, new_state).inc()
        self._m_breaker_state.labels(name).set(
            _BREAKER_STATE_CODES.get(new_state, -1.0)
        )

    def _shed_queued(self) -> None:
        now = monotonic_seconds()
        for entry in self._queue.drain():
            # Drain sheds the request from *this* service lifetime, but
            # with a store configured the envelope survives for
            # recover() — shed-with-snapshot, not silent loss.
            request = entry.ticket.request
            deadline_at = (
                entry.admitted_at + request.deadline_seconds
                if request.deadline_seconds is not None
                else None
            )
            self._save_snapshot(entry.ticket, "drain", deadline_at=deadline_at)
            self._finish(
                entry.ticket,
                QueryResponse(
                    Outcome.SHED,
                    entry.ticket.request_id,
                    reason="drain",
                    queue_wait_seconds=max(now - entry.admitted_at, 0.0),
                ),
            )

    # -- recovery ----------------------------------------------------------------

    @staticmethod
    def _snapshot_key(request_id: int) -> str:
        return f"req-{request_id}"

    def _save_snapshot(
        self,
        ticket: Ticket,
        origin: str,
        engine_snapshot: Optional[Dict[str, Any]] = None,
        deadline_at: Optional[float] = None,
    ) -> None:
        """Persist (or refresh) the request's recovery envelope.

        ``deadline_at`` is the request's absolute monotonic deadline;
        the envelope stores the budget *left* at save time so a restart
        resumes with the remaining allowance, not a fresh one.  No-op
        without a store; persistence failures are swallowed — saving a
        snapshot must never take down the request path it protects.
        """
        store = self._recovery_store
        if store is None:
            return
        request = ticket.request
        remaining: Optional[float] = request.deadline_seconds
        if deadline_at is not None:
            remaining = max(
                deadline_at - monotonic_seconds(), _MIN_DEADLINE_SECONDS
            )
        payload: Dict[str, Any] = {
            "version": _ENVELOPE_VERSION,
            "origin": origin,
            "request_id": ticket.request_id,
            "request": {
                "document": request.document,
                "xpath": request.xpath,
                "k": request.k,
                "priority": request.priority,
                "deadline_seconds": remaining,
                "algorithm": request.algorithm,
                "routing": request.routing,
                "relaxed": request.relaxed,
            },
            "engine": engine_snapshot,
        }
        try:
            store.save(self._snapshot_key(ticket.request_id), payload)
        except Exception:
            return
        self._counters.record_snapshot_saved()
        self._m_recovery_snapshots.labels(origin).inc()

    def _discard_snapshot(self, request_id: int) -> None:
        """Drop the request's snapshot after a successful resolution."""
        store = self._recovery_store
        if store is None:
            return
        try:
            store.delete(self._snapshot_key(request_id))
        except Exception:
            pass

    def recover(self) -> Dict[str, Any]:
        """Re-admit every persisted request from the recovery store.

        Call this on a *freshly started* service sharing the crashed
        service's store.  Each snapshot is consumed (deleted) exactly
        once; its request is resubmitted with the deadline budget that
        was left when the snapshot was taken, and — when the snapshot
        carries engine state — the run resumes from that checkpoint
        instead of re-seeding.  Engine state that
        :func:`~repro.recovery.codec.validate_snapshot` refuses for the
        request (another codec version, ``k``, pattern or relaxation) is
        set aside and the request re-runs fresh: its envelope is intact,
        and resuming would only fail the request (and charge the breaker)
        on state this run cannot read.  Unreadable or malformed
        snapshots are dropped and counted, never retried forever.

        Returns ``{"found", "recovered", "invalid", "tickets"}``.
        """
        store = self._recovery_store
        if store is None:
            raise ServiceError("recover() requires a recovery_store")
        keys = sorted(store.keys())
        tickets: List[Ticket] = []
        invalid = 0
        for key in keys:
            try:
                payload = store.load(key)
            except RecoveryError:
                invalid += 1
                store.delete(key)
                continue
            store.delete(key)
            if payload is None:  # key vanished between keys() and load()
                continue
            envelope = payload.get("request")
            engine_snapshot = payload.get("engine")
            try:
                if not isinstance(envelope, dict):
                    raise ServiceError(f"snapshot {key} has no request envelope")
                request = QueryRequest(
                    document=str(envelope["document"]),
                    xpath=str(envelope["xpath"]),
                    k=int(envelope.get("k", 10)),
                    priority=int(envelope.get("priority", 0)),
                    deadline_seconds=envelope.get("deadline_seconds"),
                    algorithm=str(envelope.get("algorithm", "whirlpool_s")),
                    routing=str(envelope.get("routing", "min_alive")),
                    relaxed=bool(envelope.get("relaxed", True)),
                )
            except (KeyError, TypeError, ValueError, ServiceError):
                invalid += 1
                continue
            try:
                pattern = parse_xpath(request.xpath).to_xpath()
                validate_snapshot(engine_snapshot, request.k, pattern, request.relaxed)
            except ReproError:
                engine_snapshot = None
            self._counters.record_recovered()
            self._m_recovered_child.inc()
            tickets.append(self.submit(request, restore_from=engine_snapshot))
        return {
            "found": len(keys),
            "recovered": len(tickets),
            "invalid": invalid,
            "tickets": tickets,
        }

    def _drain_deadline_snapshot(self) -> Optional[float]:
        with self._idle_cond:
            return self._drain_deadline

    def _wait_idle(self, deadline: float) -> bool:
        with self._idle_cond:
            while self._counters.outstanding() > 0:
                remaining = deadline - monotonic_seconds()
                if remaining <= 0:
                    return False
                self._idle_cond.wait(remaining)
            return True

    def __repr__(self) -> str:
        return (
            f"WhirlpoolService(workers={len(self._threads)}, "
            f"queue={self._queue.depth()}/{self._queue.capacity}, "
            f"policy={self._queue.policy.value})"
        )
