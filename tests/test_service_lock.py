"""A query service has one lock, and a served request takes few rounds of it.

``WhirlpoolService`` builds one ``threading.Lock`` and two conditions on
it.  The admission queue, outcome counters, circuit breakers and ticket
claims have no lock of their own: the service calls them only under its
lock, and a ticket's only synchronisation object is the Event its
waiters block on.  Pinned here:

- which synchronisation objects each class builds;
- lock acquisitions per served request, counted by the factory
  :mod:`repro.bench.hot_path` installs, for one closed-loop client over
  warm engines (16.00 when each helper had its own lock);
- a race-checked run with two workers, two submitting threads and a
  breaker that trips, ending in ``drain()``: every write to the four
  helper classes holds the service's lock, and nothing is reported.
"""

import inspect
import threading

import pytest

from repro.analysis.racecheck import RaceCheck, default_watched_classes
from repro.bench.hot_path import counting_locks
from repro.bench.params import QUERIES
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite, RetryPolicy
from repro.service import (
    AdmissionQueue,
    CircuitBreaker,
    Outcome,
    QueryRequest,
    ServiceCounters,
    Ticket,
    WhirlpoolService,
    breaker,
    health,
    queue,
)

LOCK_TYPE = type(threading.Lock())
SYNC_TYPES = (LOCK_TYPE, type(threading.RLock()), threading.Condition, threading.Event)
HELPERS = (AdmissionQueue, ServiceCounters, CircuitBreaker, Ticket)
QUERY = "//item[./description/parlist and ./mailbox/mail/text]"


def sync_objects(instance):
    return [value for value in vars(instance).values() if isinstance(value, SYNC_TYPES)]


class TestWhatEachClassBuilds:
    @pytest.mark.parametrize("module", [queue, health, breaker], ids=lambda m: m.__name__)
    def test_helper_modules_do_not_use_threading(self, module):
        assert "threading" not in inspect.getsource(module)

    def test_helpers_build_no_lock_and_a_ticket_only_its_event(self):
        ticket = Ticket(QueryRequest("doc", "//item"), 1)
        assert [type(value) for value in sync_objects(ticket)] == [threading.Event]
        for instance in (AdmissionQueue(2), ServiceCounters(), CircuitBreaker("test")):
            assert sync_objects(instance) == [], type(instance).__name__

    def test_the_service_builds_one_lock_and_conditions_on_it(self):
        service = WhirlpoolService({}, workers=2, auto_start=False)
        objects = sync_objects(service)
        locks = [value for value in objects if isinstance(value, LOCK_TYPE)]
        assert locks == [service._lock]
        conditions = [value for value in objects if isinstance(value, threading.Condition)]
        assert len(conditions) == len(objects) - 1
        assert all(condition._lock is service._lock for condition in conditions)
        service.drain(budget_seconds=0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_served_request_takes_at_most_eight_lock_rounds(xmark_db, workers):
    """60 warm requests, Q1-Q3 round-robin at k = 15, from one client that
    submits and waits: every lock the service, its tickets and the runs
    build counts (the parent of the single-lock service read 16.00)."""
    names = ["Q1", "Q2", "Q3"]
    requests = [QueryRequest("auction", QUERIES[names[i % 3]], k=15) for i in range(60)]
    rounds = [0]
    with counting_locks(rounds):
        service = WhirlpoolService({"auction": xmark_db}, workers=workers)
        for request in requests[:6]:  # builds the engines, fills their memos
            assert service.submit(request).result(timeout=30.0).outcome is Outcome.SERVED
        rounds[0] = 0
        for request in requests:
            assert service.submit(request).result(timeout=30.0).outcome is Outcome.SERVED
        per_request = rounds[0] / len(requests)
        assert service.drain(budget_seconds=5.0)
    assert per_request <= 8.0


def hostile_plan():
    """Every server operation fails: supervision abandons all matches,
    which the service counts as breaker failures."""
    return FaultPlan(
        [FaultRule(site=FaultSite.SERVER_OP, action=FaultAction.ERROR, every=1)]
    )


FAST_RETRY = RetryPolicy(
    max_attempts=2, requeue_limit=1, base_delay=0.0001, max_delay=0.0005, jitter=0.0
)


def test_race_checked_service_writes_its_helpers_under_its_lock(xmark_db, service_constants):
    service_constants(MIN_CALLS=2, WINDOW=4, OPEN_SECONDS=60.0)
    assert set(HELPERS) <= set(default_watched_classes())
    tickets = []

    def client(hostile):
        for _ in range(4):
            request = QueryRequest(
                "auction",
                QUERY,
                k=4,
                faults=hostile_plan() if hostile else None,
                retry_policy=FAST_RETRY,
            )
            ticket = service.submit(request)
            tickets.append(ticket)
            ticket.result(timeout=60.0)

    with RaceCheck() as check:
        service = WhirlpoolService({"auction": xmark_db}, workers=2, queue_depth=8)
        clients = [
            threading.Thread(target=client, args=(hostile,), name=f"client-{hostile}")
            for hostile in (True, False)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        assert service.drain(budget_seconds=5.0)

    assert check.findings() == [], check.report()
    assert service.health()["breakers"]["whirlpool_s"]["trips"] >= 1
    assert all(ticket.done() for ticket in tickets)
    written = {}
    for state in check.registry.fields.values():
        if state.class_name in {cls.__name__ for cls in HELPERS}:
            written.setdefault(state.class_name, []).append(state)
    assert set(written) == {cls.__name__ for cls in HELPERS}
    for class_name, states in written.items():
        for state in states:
            assert id(service._lock) in state.lockset, f"{class_name}.{state.field}"
