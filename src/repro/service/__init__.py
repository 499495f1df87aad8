"""The embedded Whirlpool query service — serving, not just running.

A :class:`WhirlpoolService` executes :class:`QueryRequest`\\ s on a fixed
worker pool over the existing engines, adding the cross-request
robustness a single engine run cannot provide:

- :mod:`repro.service.queue` — bounded admission with backpressure and
  pluggable overload policies (reject / shed-oldest /
  shed-lowest-priority / degrade);
- :mod:`repro.service.breaker` — per-engine circuit breakers with
  seeded probe scheduling and transparent fallback along
  :data:`repro.core.engine.FALLBACK_CHAIN`;
- :mod:`repro.service.request` — the request / ticket / response
  envelope enforcing **exactly one terminal outcome per request**;
- :mod:`repro.service.health` — the outcome counters ``health()``
  reports;
- :mod:`repro.service.service` — deadline propagation (queue wait is
  charged against the request budget), graceful drain shutdown, and
  (with a :class:`~repro.recovery.RecoveryStore` attached)
  checkpoint-backed crash recovery via ``recover()``.

Passing an enabled :class:`~repro.obs.Observability` bundle adds the
end-to-end observability layer: per-request spans, engine/service
metrics exported as Prometheus text or JSON, and the slow-query log
(``docs/observability.md``).

See ``docs/serving.md`` for the architecture and the drain semantics.
"""

from repro.obs import Observability
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.health import ServiceCounters
from repro.service.policies import OverloadPolicy
from repro.service.queue import AdmissionQueue, AdmittedRequest
from repro.service.request import (
    ROUTING_STRATEGIES,
    Outcome,
    QueryRequest,
    QueryResponse,
    Ticket,
)
from repro.service.service import WhirlpoolService

__all__ = [
    "AdmissionQueue",
    "AdmittedRequest",
    "BreakerState",
    "CircuitBreaker",
    "Observability",
    "Outcome",
    "OverloadPolicy",
    "QueryRequest",
    "QueryResponse",
    "ROUTING_STRATEGIES",
    "ServiceCounters",
    "Ticket",
    "WhirlpoolService",
]
