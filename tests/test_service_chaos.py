"""Chaos under the service: FaultPlan injection through the worker pool.

The acceptance scenario from the serving layer's contract
(docs/serving.md): across ≥ 20 seeded ``FaultPlan.chaos`` runs submitted
through :class:`WhirlpoolService`,

- every request gets **exactly one** terminal outcome (the ticket's
  first-wins resolution makes a duplicate detectable: re-resolving must
  lose);
- drain completes within its budget with nothing outstanding;
- a whirlpool_m breaker tripped by a hostile fault plan demonstrably
  keeps serving requests via the fallback chain, and the response
  records the reroute.
"""

import pytest

from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite, RetryPolicy
from repro.service import (
    BreakerState,
    Outcome,
    OverloadPolicy,
    QueryRequest,
    WhirlpoolService,
)

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"

CHAOS_SEEDS = range(20)

#: Fast recovery bounds so injected dead-server scenarios exhaust quickly.
FAST_RETRY = RetryPolicy(
    max_attempts=2, requeue_limit=1, base_delay=0.0001, max_delay=0.0005, jitter=0.0
)

#: Every operation at every server fails, forever: supervision abandons
#: all matches, which the service counts as breaker failures.
def hostile_plan():
    return FaultPlan(
        [
            FaultRule(
                site=FaultSite.SERVER_OP,
                action=FaultAction.ERROR,
                every=1,
                message="hostile plan",
            )
        ]
    )


def test_chaos_matrix_exactly_one_outcome_and_clean_drain(xmark_db):
    service = WhirlpoolService(
        {"auction": xmark_db},
        workers=3,
        queue_depth=32,  # roomier than the burst: chaos, not overload
        overload_policy=OverloadPolicy.DEGRADE,
        seed=5,
    )
    algorithms = ("whirlpool_s", "whirlpool_m", "lockstep")
    tickets = []
    for seed in CHAOS_SEEDS:
        tickets.append(
            service.submit(
                QueryRequest(
                    "auction",
                    QUERY,
                    k=5,
                    priority=seed % 3,
                    deadline_seconds=5.0,
                    algorithm=algorithms[seed % len(algorithms)],
                    faults=FaultPlan.chaos(seed),
                    retry_policy=FAST_RETRY,
                )
            )
        )

    assert service.drain(budget_seconds=60.0)  # within budget, nothing lost

    responses = [ticket.result(timeout=1.0) for ticket in tickets]
    assert all(ticket.done() for ticket in tickets)

    # Exactly one terminal outcome per request: re-resolving always loses.
    for ticket, response in zip(tickets, responses):
        assert not ticket.claim(response)

    counters = service.health()["counters"]
    assert counters["submitted"] == len(tickets)
    assert sum(counters[outcome.value] for outcome in Outcome) == len(tickets)

    # The degradation contract carries through the service: anything that
    # produced a result either served exactly or carries the anytime
    # certificate; anything that did not still has a structured outcome.
    for response in responses:
        if response.outcome in (Outcome.SERVED, Outcome.DEGRADED):
            assert response.result is not None
            if response.outcome is Outcome.DEGRADED and not response.degraded_by_service:
                assert response.result.degraded
                assert response.result.pending_bound != float("inf")
        else:
            assert response.reason


def test_tripped_breaker_serves_via_fallback(xmark_db, service_constants):
    service_constants(MIN_CALLS=2, WINDOW=4, OPEN_SECONDS=60.0)  # stays open throughout
    service = WhirlpoolService(
        {"auction": xmark_db},
        workers=1,  # serialize so breaker state between requests is deterministic
        queue_depth=16,
        seed=1,
    )

    # Two hostile whirlpool_m runs: each abandons all matches, and two
    # abandonment failures reach MIN_CALLS at a 100% failure rate.
    hostile = [
        service.submit(
            QueryRequest(
                "auction",
                QUERY,
                k=4,
                algorithm="whirlpool_m",
                faults=hostile_plan(),
                retry_policy=FAST_RETRY,
            )
        )
        for _ in range(2)
    ]
    for ticket in hostile:
        response = ticket.result(timeout=60.0)
        # Hostile runs still return: degraded results, not raises.
        assert response.outcome is Outcome.DEGRADED
        assert response.algorithm_used == "whirlpool_m"

    assert service.breaker("whirlpool_m").state() is BreakerState.OPEN

    # A clean whirlpool_m request now transparently serves via fallback.
    response = service.submit(
        QueryRequest("auction", QUERY, k=4, algorithm="whirlpool_m")
    ).result(timeout=60.0)
    assert response.outcome is Outcome.SERVED
    assert response.fallback_from == "whirlpool_m"
    assert response.algorithm_used in ("whirlpool_s", "lockstep")
    assert response.result is not None and response.result.answers
    assert service.health()["counters"]["fallbacks"] >= 1

    assert service.drain(budget_seconds=10.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_with_saturation_still_conserves(xmark_db, seed):
    """Faults and overload at once: the conservation law must still hold."""
    service = WhirlpoolService(
        {"auction": xmark_db},
        workers=2,
        queue_depth=4,
        overload_policy=OverloadPolicy.SHED_LOWEST_PRIORITY,
        seed=seed,
    )
    tickets = [
        service.submit(
            QueryRequest(
                "auction",
                QUERY,
                k=3,
                priority=index % 2,
                deadline_seconds=2.0,
                faults=FaultPlan.chaos(seed * 100 + index),
                retry_policy=FAST_RETRY,
            )
        )
        for index in range(12)
    ]
    assert service.drain(budget_seconds=60.0)
    counters = service.health()["counters"]
    assert counters["submitted"] == len(tickets)
    assert sum(counters[outcome.value] for outcome in Outcome) == len(tickets)
    for ticket in tickets:
        assert ticket.done()
