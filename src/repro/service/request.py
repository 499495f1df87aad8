"""Request/response envelope for the embedded query service.

A :class:`QueryRequest` names a registered document, a query, ``k``, a
priority, and an optional per-request deadline measured **from
admission** — time spent queued counts against it.  Submitting one yields
a :class:`Ticket`; the service guarantees every ticket resolves with
exactly one :class:`QueryResponse` whose :class:`Outcome` is terminal:

- ``SERVED`` — full-fidelity engine result;
- ``DEGRADED`` — a result was produced, but either the engine degraded
  (budget / faults, with its anytime ``pending_bound`` certificate) or
  the service degraded the request under load (tightened deadline or
  shrunk ``k``);
- ``REJECTED`` — admission refused (queue full under the ``reject``
  policy, or the service was draining);
- ``SHED`` — admitted but discarded before completion (evicted by a shed
  policy, queue deadline expired, or drain budget ran out);
- ``FAILED`` — the engine (or request resolution) raised; the response
  carries the error text and any structured failure report.
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.engine import ALGORITHMS
from repro.errors import ServiceError
from repro.obs.spans import NULL_SPAN, Span

if TYPE_CHECKING:
    from repro.core.base import TopKResult
    from repro.core.trace import ExecutionTrace
    from repro.faults.plan import FaultPlan
    from repro.faults.supervisor import RetryPolicy

#: Routing strategies a request may ask for.  ``static`` is excluded: it
#: needs a ``static_order`` permutation the request envelope does not
#: carry, and the lock-step engines are static by construction anyway.
ROUTING_STRATEGIES = frozenset(
    {"min_alive", "max_score", "min_score", "min_alive_estimated"}
)


class Outcome(enum.Enum):
    """Terminal disposition of one submitted request (exactly one each)."""

    SERVED = "served"
    DEGRADED = "degraded"
    REJECTED = "rejected"
    SHED = "shed"
    FAILED = "failed"


class QueryRequest:
    """One top-k query addressed to a service-registered document.

    Parameters
    ----------
    document:
        Handle of a document registered with the service.
    xpath:
        Tree-pattern query in the XPath subset.
    k:
        Number of answers wanted (the service may shrink it under the
        ``degrade`` overload policy — the response records that).
    priority:
        Larger is more important; ``shed-lowest-priority`` evicts the
        smallest first and never sheds a higher priority before a lower.
    deadline_seconds:
        End-to-end budget starting at admission; queue wait is charged
        against it and the remainder becomes the engine's
        ``deadline_seconds``.
    algorithm:
        Requested engine; the breaker may transparently fall back along
        :data:`repro.core.engine.FALLBACK_CHAIN` (recorded on the
        response).
    routing:
        Adaptive routing strategy for the run — one of
        :data:`ROUTING_STRATEGIES`.  Ignored by the lock-step engines.
    relaxed:
        Whether relaxed (approximate) matches are allowed.
    faults:
        Optional seeded :class:`~repro.faults.plan.FaultPlan` injected
        into the engine run — the chaos-testing hook.
    retry_policy:
        Optional :class:`~repro.faults.supervisor.RetryPolicy` override
        for the run's supervisor.
    """

    __slots__ = (
        "document",
        "xpath",
        "k",
        "priority",
        "deadline_seconds",
        "algorithm",
        "routing",
        "relaxed",
        "faults",
        "retry_policy",
    )

    def __init__(
        self,
        document: str,
        xpath: str,
        k: int = 10,
        priority: int = 0,
        deadline_seconds: Optional[float] = None,
        algorithm: str = "whirlpool_s",
        routing: str = "min_alive",
        relaxed: bool = True,
        faults: Optional["FaultPlan"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> None:
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ServiceError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        if algorithm not in ALGORITHMS:
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{', '.join(sorted(ALGORITHMS))}"
            )
        if routing not in ROUTING_STRATEGIES:
            raise ServiceError(
                f"unknown routing {routing!r}; expected one of "
                f"{', '.join(sorted(ROUTING_STRATEGIES))}"
            )
        self.document = document
        self.xpath = xpath
        self.k = k
        self.priority = priority
        self.deadline_seconds = deadline_seconds
        self.algorithm = algorithm
        self.routing = routing
        self.relaxed = relaxed
        self.faults = faults
        self.retry_policy = retry_policy

    def __repr__(self) -> str:
        deadline = (
            "" if self.deadline_seconds is None else f", deadline={self.deadline_seconds:g}s"
        )
        return (
            f"QueryRequest({self.document}:{self.xpath!r}, k={self.k}, "
            f"prio={self.priority}, {self.algorithm}{deadline})"
        )


class QueryResponse:
    """The single terminal outcome of one submitted request.

    Attributes
    ----------
    outcome:
        The terminal :class:`Outcome`.
    request_id:
        Service-assigned admission sequence number.
    result:
        The engine's :class:`~repro.core.base.TopKResult` for
        ``SERVED`` / ``DEGRADED`` outcomes, else ``None``.
    reason:
        Machine-readable qualifier: ``queue_full`` / ``draining``
        (rejected), ``policy`` / ``deadline`` / ``drain`` (shed),
        ``engine_error`` / ``circuit_open`` / ``unknown_document`` /
        ``bad_request`` (failed), ``""`` otherwise.
    error:
        Human-readable error text for ``FAILED`` outcomes.
    algorithm_used:
        The engine that actually ran (may differ from the request under
        breaker fallback).
    fallback_from:
        The originally requested algorithm when a breaker rerouted the
        request, else ``None``.
    queue_wait_seconds:
        Admission-to-execution wait (0 for never-executed outcomes).
    degraded_by_service:
        True when the overload policy tightened the deadline / shrank
        ``k`` before the run.
    span:
        The request's finished :class:`~repro.obs.spans.Span` tree when
        the service ran with observability enabled, else ``None``
        (attached by the service at resolution time).
    """

    __slots__ = (
        "outcome",
        "request_id",
        "result",
        "reason",
        "error",
        "algorithm_used",
        "fallback_from",
        "queue_wait_seconds",
        "degraded_by_service",
        "span",
    )

    def __init__(
        self,
        outcome: Outcome,
        request_id: int,
        result: Optional["TopKResult"] = None,
        reason: str = "",
        error: Optional[str] = None,
        algorithm_used: Optional[str] = None,
        fallback_from: Optional[str] = None,
        queue_wait_seconds: float = 0.0,
        degraded_by_service: bool = False,
    ) -> None:
        self.outcome = outcome
        self.request_id = request_id
        self.result = result
        self.reason = reason
        self.error = error
        self.algorithm_used = algorithm_used
        self.fallback_from = fallback_from
        self.queue_wait_seconds = queue_wait_seconds
        self.degraded_by_service = degraded_by_service
        self.span: Optional[Span] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (answers elided; stats included)."""
        result = self.result
        return {
            "outcome": self.outcome.value,
            "request_id": self.request_id,
            "reason": self.reason,
            "error": self.error,
            "algorithm_used": self.algorithm_used,
            "fallback_from": self.fallback_from,
            "queue_wait_seconds": self.queue_wait_seconds,
            "degraded_by_service": self.degraded_by_service,
            "answers": None if result is None else len(result.answers),
            "degraded": None if result is None else result.degraded,
            "pending_bound": None if result is None else result.pending_bound,
        }

    def __repr__(self) -> str:
        via = "" if self.fallback_from is None else f" via {self.algorithm_used}"
        qualifier = f" ({self.reason})" if self.reason else ""
        return f"QueryResponse(#{self.request_id} {self.outcome.value}{qualifier}{via})"


class Ticket:
    """Single-assignment future for one submitted request.

    :meth:`claim` is first-wins and returns whether this call was the one
    that fixed the outcome — the service increments its outcome counters
    only on ``True``, then wakes waiters with :meth:`publish`; that is
    what makes "exactly one terminal outcome per request" an enforced
    invariant rather than a convention.  The ticket's only
    synchronisation object is that wake-up Event: the owning service
    calls :meth:`claim` under its lock, and everything else a ticket
    carries is fixed when it is built.

    ``span`` is the request's observability span and ``trace`` the
    execution trace its engine run reports to (the service reads both
    when it resolves the request); ``restore_from`` is the persisted engine
    snapshot a recovered request resumes from, which the worker hands to
    the engine.
    """

    def __init__(
        self,
        request: QueryRequest,
        request_id: int,
        span: Span = NULL_SPAN,
        trace: Optional["ExecutionTrace"] = None,
        restore_from: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.request = request
        self.request_id = request_id
        self.span = span
        self.trace = trace
        self.restore_from = restore_from
        self._event = threading.Event()
        self._response: Optional[QueryResponse] = None

    def claim(self, response: QueryResponse) -> bool:
        """Fix ``response`` as the terminal outcome (first-wins; ``False``
        when already claimed) without waking waiters yet, so the winner
        can finish its book-keeping before anyone reads it back.  The
        caller holds the lock of the service that owns the ticket."""
        if self._response is not None:
            return False
        self._response = response
        return True

    def publish(self) -> None:
        """Wake everyone in :meth:`result` once the claimed outcome is
        recorded."""
        self._event.set()

    def done(self) -> bool:
        """Has a terminal outcome been recorded?"""
        return self._event.is_set()

    def peek(self) -> Optional[QueryResponse]:
        """The response if resolved, without blocking."""
        return self._response

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block for the terminal outcome.

        Raises :class:`~repro.errors.ServiceError` when ``timeout``
        expires first — an unresolved ticket means the service still owes
        this request an outcome.
        """
        if not self._event.wait(timeout):
            raise ServiceError(
                f"request #{self.request_id} unresolved after {timeout}s"
            )
        response = self._response
        assert response is not None  # claim() ran before publish()
        return response

    def __repr__(self) -> str:
        state = repr(self.peek()) if self.done() else "pending"
        return f"Ticket(#{self.request_id}, {state})"
