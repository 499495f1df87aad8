"""Saturation property test: burst N ≫ capacity through every policy.

The conservation law under test: however the overload policy slices a
burst, **every** submitted request gets exactly one terminal outcome —
``served + degraded + rejected + shed + failed == N`` — with no
duplicates (re-resolving any ticket loses) and no missing outcomes
(every ticket resolves).  Under ``shed-lowest-priority`` the ordering
guarantee also holds: no shed request outranks any request that ran.

Determinism: the pool starts *after* the whole burst is admitted
(``auto_start=False``), so all shedding decisions are made by the
admission policy alone, with no worker-timing races.
"""

import random
from collections import Counter

import pytest

from repro.service import (
    Outcome,
    OverloadPolicy,
    QueryRequest,
    WhirlpoolService,
)

QUERY = "//item[./description/parlist]"
BURST = 40
CAPACITY = 6

POLICIES = [
    OverloadPolicy.REJECT,
    OverloadPolicy.SHED_OLDEST,
    OverloadPolicy.SHED_LOWEST_PRIORITY,
    OverloadPolicy.DEGRADE,
]

RAN = (Outcome.SERVED, Outcome.DEGRADED)


def run_burst(xmark_db, policy, seed):
    service = WhirlpoolService(
        {"auction": xmark_db},
        workers=2,
        queue_depth=CAPACITY,
        overload_policy=policy,
        auto_start=False,
        seed=seed,
    )
    rng = random.Random(seed)
    tickets = []
    for _ in range(BURST):
        tickets.append(
            service.submit(
                QueryRequest(
                    "auction",
                    QUERY,
                    k=rng.randint(1, 6),
                    priority=rng.randint(0, 3),
                )
            )
        )
    service.start()
    assert service.drain(budget_seconds=30.0)
    return service, tickets


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("policy", POLICIES, ids=[p.value for p in POLICIES])
def test_saturation_conserves_every_request(xmark_db, policy, seed):
    service, tickets = run_burst(xmark_db, policy, seed)

    # No missing outcomes: every ticket resolved by the time drain returned.
    responses = [ticket.peek() for ticket in tickets]
    assert all(response is not None for response in responses)

    # Conservation: the five terminal outcomes partition the burst.
    tally = Counter(response.outcome for response in responses)
    assert sum(tally.values()) == BURST
    counters = service.health()["counters"]
    assert counters["submitted"] == BURST
    assert (
        counters["served"]
        + counters["degraded"]
        + counters["rejected"]
        + counters["shed"]
        + counters["failed"]
        == BURST
    )
    # Ticket tallies and service counters describe the same partition.
    for outcome in Outcome:
        assert counters[outcome.value] == tally.get(outcome, 0)

    # No duplicates: a second resolution of any ticket must lose.
    for ticket, response in zip(tickets, responses):
        assert not ticket.claim(response)
    assert service.health()["counters"]["submitted"] == BURST  # counters untouched

    # Nothing failed — saturation is an overload scenario, not an error.
    assert tally.get(Outcome.FAILED, 0) == 0
    # The queue really was the bottleneck: something had to give.
    if policy is not OverloadPolicy.DEGRADE:
        assert sum(tally.get(outcome, 0) for outcome in RAN) <= CAPACITY


@pytest.mark.parametrize("seed", range(3))
def test_shed_lowest_priority_never_outranks_survivors(xmark_db, seed):
    _, tickets = run_burst(xmark_db, OverloadPolicy.SHED_LOWEST_PRIORITY, seed)
    shed = [
        ticket.request.priority
        for ticket in tickets
        if ticket.peek().outcome is Outcome.SHED
    ]
    ran = [
        ticket.request.priority
        for ticket in tickets
        if ticket.peek().outcome in RAN
    ]
    assert shed and ran  # the burst genuinely saturated the queue
    # A higher-priority request is never shed before a lower one runs.
    assert max(shed) <= min(ran)


@pytest.mark.parametrize("seed", range(3))
def test_reject_policy_serves_exactly_the_queued_prefix(xmark_db, seed):
    service, tickets = run_burst(xmark_db, OverloadPolicy.REJECT, seed)
    outcomes = [ticket.peek().outcome for ticket in tickets]
    # With the pool stopped during the burst, the first `capacity`
    # requests are admitted and everything after them is rejected.
    assert all(outcome in RAN for outcome in outcomes[:CAPACITY])
    assert all(outcome is Outcome.REJECTED for outcome in outcomes[CAPACITY:])
    assert service.health()["counters"]["rejected"] == BURST - CAPACITY
