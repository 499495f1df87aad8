"""Fault tolerance: deterministic injection, supervision, graceful degradation.

The paper's pitch is *adaptivity* — at any instant the engine state is a
usable partial answer with a correctness certificate.  This package makes
that promise survive failure:

- :mod:`repro.faults.plan` — the one fault vocabulary: seeded,
  deterministic, JSON-serializable schedules (:class:`FaultPlan`) of
  rules (:class:`FaultRule`) at engine sites, a shard worker's RPC
  boundary and a shard's link, each taking only the actions it can run;
- :mod:`repro.faults.inject` — the one trigger evaluator
  (:class:`FaultArm`) all three boundaries hold, and the per-run
  runtime (:class:`FaultInjector`) whose hooks the engine fires, with
  zero overhead when no plan is active;
- :mod:`repro.faults.supervisor` — retry with exponential backoff and
  seeded jitter, requeue-with-exclusion, and escalation to abandonment
  (:class:`Supervisor`, :class:`RetryPolicy`);
- :mod:`repro.faults.report` — the structured :class:`FailureReport`
  attached to degraded results.

See ``docs/robustness.md`` for the fault model and the degradation
contract.
"""

from repro.faults.inject import DroppedMatch, FaultArm, FaultInjector
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.faults.report import FailedMatch, FailureReport
from repro.faults.supervisor import FailureAction, RetryPolicy, Supervisor

__all__ = [
    "DroppedMatch",
    "FailedMatch",
    "FailureAction",
    "FailureReport",
    "FaultAction",
    "FaultArm",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultSite",
    "RetryPolicy",
    "Supervisor",
]
