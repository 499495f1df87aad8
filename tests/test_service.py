"""Unit tests for the embedded query service (src/repro/service/).

Covers the admission queue's four overload policies, the circuit
breaker's state machine under a fake clock, ticket single-assignment,
deadline propagation (queue wait charged against the request budget),
breaker fallback recording, and drain semantics.
"""

import threading
import time

import pytest

from repro.cluster.service import ClusterBackend
from repro.core.engine import Engine
from repro.errors import ServiceError
from repro.service import (
    AdmissionQueue,
    BreakerState,
    CircuitBreaker,
    Outcome,
    OverloadPolicy,
    QueryRequest,
    QueryResponse,
    Ticket,
    WhirlpoolService,
)
from repro.service.policies import degrade
from repro.service.queue import ADMITTED, REJECTED, SHED
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"


def make_ticket(request_id, priority=0):
    return Ticket(QueryRequest("doc", "//item", priority=priority), request_id)


def offer(queue, request_id, priority=0):
    return queue.offer(make_ticket(request_id, priority), priority, request_id)


class TestAdmissionQueue:
    def test_capacity_validation(self):
        with pytest.raises(ServiceError):
            AdmissionQueue(0)

    def test_reject_policy_fast_fails_at_capacity(self):
        queue = AdmissionQueue(2, policy=OverloadPolicy.REJECT)
        assert offer(queue, 1) == (ADMITTED, None)
        assert offer(queue, 2) == (ADMITTED, None)
        verdict, evicted = offer(queue, 3)
        assert verdict == REJECTED
        assert evicted is None
        assert len(queue) == 2

    def test_shed_oldest_evicts_earliest_admission(self):
        queue = AdmissionQueue(2, policy=OverloadPolicy.SHED_OLDEST)
        offer(queue, 1)
        offer(queue, 2)
        verdict, evicted = offer(queue, 3)
        assert verdict == ADMITTED
        assert evicted is not None and evicted.seq == 1
        assert {entry.seq for entry in queue.drain()} == {2, 3}

    def test_shed_lowest_priority_evicts_lowest_then_oldest(self):
        queue = AdmissionQueue(2, policy=OverloadPolicy.SHED_LOWEST_PRIORITY)
        offer(queue, 1, priority=5)
        offer(queue, 2, priority=1)
        verdict, evicted = offer(queue, 3, priority=3)
        assert verdict == ADMITTED
        assert evicted is not None and evicted.seq == 2  # the prio-1 entry

    def test_shed_lowest_priority_sheds_newcomer_on_tie(self):
        queue = AdmissionQueue(2, policy=OverloadPolicy.SHED_LOWEST_PRIORITY)
        offer(queue, 1, priority=2)
        offer(queue, 2, priority=2)
        verdict, evicted = offer(queue, 3, priority=2)
        assert verdict == SHED
        assert evicted is None
        assert {entry.seq for entry in queue.drain()} == {1, 2}

    def test_take_order_is_priority_desc_then_fifo(self):
        queue = AdmissionQueue(4)
        offer(queue, 1, priority=1)
        offer(queue, 2, priority=5)
        offer(queue, 3, priority=5)
        offer(queue, 4, priority=3)
        order = [queue.pop().seq for _ in range(4)]
        assert order == [2, 3, 4, 1]
        assert len(queue) == 0

    def test_degrade_watermark_marks_late_admissions(self):
        queue = AdmissionQueue(4, policy=OverloadPolicy.DEGRADE)
        for seq in range(1, 5):
            verdict, _ = offer(queue, seq)
            assert verdict == ADMITTED
        entries = sorted(queue.drain(), key=lambda entry: entry.seq)
        assert [entry.degrade for entry in entries] == [False, False, True, True]

    def test_degrade_policy_still_rejects_when_full(self):
        queue = AdmissionQueue(2, policy=OverloadPolicy.DEGRADE)
        offer(queue, 1)
        offer(queue, 2)
        verdict, _ = offer(queue, 3)
        assert verdict == REJECTED


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def make_breaker(service_constants):
    """Breakers over a small window, a 1 s open interval and no jitter;
    keyword arguments override the tuning constants."""

    def make(clock, seed=3, **constants):
        tuning = dict(WINDOW=4, MIN_CALLS=2, OPEN_SECONDS=1.0, PROBE_JITTER=0.0)
        tuning.update(constants)
        service_constants(**tuning)
        return CircuitBreaker("test", seed=seed, clock=clock)

    return make


class TestCircuitBreaker:
    def test_stays_closed_below_min_calls(self, make_breaker):
        breaker = make_breaker(FakeClock(), MIN_CALLS=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() is BreakerState.CLOSED
        assert breaker.allow()

    def test_stays_closed_below_failure_threshold(self, make_breaker):
        breaker = make_breaker(FakeClock(), FAILURE_THRESHOLD=0.75, MIN_CALLS=4)
        for healthy in (False, True, True, False):
            breaker.record_success() if healthy else breaker.record_failure()
        assert breaker.state() is BreakerState.CLOSED  # 2/4 < 0.75

    def test_trips_at_threshold_and_blocks(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.snapshot()["trips"] == 1

    def test_half_open_probe_success_closes(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.01)  # past OPEN_SECONDS (jitter disabled)
        assert breaker.allow()  # the single probe
        assert breaker.state() is BreakerState.HALF_OPEN
        assert not breaker.allow()  # second caller blocked while probing
        breaker.record_success()
        assert breaker.state() is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_longer(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: re-trip, doubled interval
        assert breaker.state() is BreakerState.OPEN
        clock.advance(1.5)  # past the base interval, inside the doubled one
        assert not breaker.allow()
        clock.advance(0.6)  # 2.1 total > 2.0
        assert breaker.allow()

    def test_open_interval_doubling_caps(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(clock, MAX_BACKOFF_DOUBLINGS=1)
        for _ in range(5):  # many consecutive trips
            breaker.record_failure()
            breaker.record_failure()
            clock.advance(10.0)
            assert breaker.allow()  # probe
        breaker.record_failure()  # final re-trip
        remaining = breaker.snapshot()["open_remaining_seconds"]
        assert remaining is not None and remaining <= 2.0  # capped at one doubling

    def test_probe_jitter_is_seeded_and_bounded(self, make_breaker):
        spans = []
        for _ in range(2):
            clock = FakeClock()
            breaker = make_breaker(clock, PROBE_JITTER=0.5, seed=7)
            breaker.record_failure()
            breaker.record_failure()
            spans.append(breaker.snapshot()["open_remaining_seconds"])
        assert spans[0] == spans[1]  # same seed, same schedule
        assert 1.0 <= spans[0] <= 1.5

    def test_snapshot_shape(self, make_breaker):
        breaker = make_breaker(FakeClock())
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["window"] == 1 and snap["failures"] == 1
        assert snap["open_remaining_seconds"] is None


class TestTicket:
    def test_resolve_is_first_wins(self):
        ticket = make_ticket(1)
        first = QueryResponse(Outcome.SERVED, 1)
        second = QueryResponse(Outcome.FAILED, 1, reason="engine_error")
        assert ticket.claim(first)
        assert not ticket.claim(second)
        ticket.publish()
        assert ticket.peek() is first
        assert ticket.result(timeout=0.1).outcome is Outcome.SERVED

    def test_result_timeout_raises(self):
        ticket = make_ticket(2)
        assert not ticket.done()
        with pytest.raises(ServiceError):
            ticket.result(timeout=0.01)


class TestRequestValidation:
    def test_bad_k(self):
        with pytest.raises(ServiceError):
            QueryRequest("doc", "//a", k=0)

    def test_bad_deadline(self):
        with pytest.raises(ServiceError):
            QueryRequest("doc", "//a", deadline_seconds=0.0)

    def test_bad_algorithm(self):
        with pytest.raises(ServiceError):
            QueryRequest("doc", "//a", algorithm="quicksort")


class TestDegradeSettings:
    """The ``degrade`` transform under the ``DEGRADE_*`` constants."""

    def test_apply_tightens_deadline_and_shrinks_k(self):
        deadline, k = degrade(2.0, 8)
        assert deadline == pytest.approx(1.0)
        assert k == 4

    def test_apply_imposes_fallback_deadline_on_unbounded(self):
        deadline, k = degrade(None, 1)
        assert deadline == pytest.approx(0.25)
        assert k == 1

    def test_floors(self, service_constants):
        service_constants(DEGRADE_MIN_K=2)
        deadline, k = degrade(0.001, 2)
        assert deadline == pytest.approx(0.01)
        assert k == 2


class TestServiceLifecycle:
    def test_happy_path_and_drain(self, xmark_db):
        with WhirlpoolService({"auction": xmark_db}, workers=2) as service:
            assert service.health()["ok"]
            ticket = service.submit(QueryRequest("auction", QUERY, k=5))
            response = ticket.result(timeout=30.0)
        assert response.outcome is Outcome.SERVED
        assert response.result is not None and response.result.answers
        assert response.algorithm_used == "whirlpool_s"
        assert response.fallback_from is None
        health = service.health()
        assert health["stopped"] and not health["ok"]
        assert health["counters"]["served"] == 1

    def test_submit_after_drain_is_rejected(self, xmark_db):
        service = WhirlpoolService({"auction": xmark_db}, workers=1)
        assert service.drain(budget_seconds=1.0)
        ticket = service.submit(QueryRequest("auction", QUERY))
        response = ticket.result(timeout=1.0)
        assert response.outcome is Outcome.REJECTED
        assert response.reason == "draining"

    def test_drain_sheds_whatever_the_pool_never_reached(self, xmark_db):
        service = WhirlpoolService(
            {"auction": xmark_db}, workers=1, queue_depth=8, auto_start=False
        )
        tickets = [service.submit(QueryRequest("auction", QUERY)) for _ in range(3)]
        assert service.drain(budget_seconds=0.2)  # pool never started
        for ticket in tickets:
            response = ticket.result(timeout=1.0)
            assert response.outcome is Outcome.SHED
            assert response.reason == "drain"

    def test_drain_wakes_idle_workers_and_joins_them(self, xmark_db):
        service = WhirlpoolService({"auction": xmark_db}, workers=2)
        time.sleep(0.05)
        # Idle: nothing queued, not stopped, so both workers wait.
        assert service.health()["workers_alive"] == 2
        assert service.drain(budget_seconds=1.0)
        assert service.health()["workers_alive"] == 0

    def test_submit_racing_drain_gets_exactly_one_outcome(self, xmark_db, monkeypatch):
        sweeps = []
        sweep = AdmissionQueue.drain
        monkeypatch.setattr(
            AdmissionQueue, "drain", lambda queue: sweeps.append(len(queue)) or sweep(queue)
        )
        service = WhirlpoolService({"auction": xmark_db}, workers=1, queue_depth=64)
        tickets = []
        submitting = threading.Event()

        def submitter():
            # Submit until admission refuses for draining; a refused
            # ticket is resolved before submit returns.
            while True:
                ticket = service.submit(QueryRequest("auction", QUERY, k=3))
                tickets.append(ticket)
                submitting.set()
                response = ticket.peek()
                if response is not None and response.reason == "draining":
                    return

        thread = threading.Thread(target=submitter, name="racing-submitter")
        thread.start()
        assert submitting.wait(timeout=5.0)
        assert service.drain(budget_seconds=0.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

        assert len(sweeps) == 1  # drain swept the queue once
        responses = [ticket.result(timeout=1.0) for ticket in tickets]
        for ticket, response in zip(tickets, responses):
            assert not ticket.claim(response)
        counters = service.health()["counters"]
        assert counters["submitted"] == len(tickets)
        for outcome in Outcome:
            assert counters[outcome.value] == sum(
                1 for response in responses if response.outcome is outcome
            )
        assert responses[-1].reason == "draining"

    def test_worker_validation(self):
        with pytest.raises(ServiceError):
            WhirlpoolService(workers=0)

    def test_unknown_document_fails_structurally(self, xmark_db):
        with WhirlpoolService({"auction": xmark_db}, workers=1) as service:
            response = service.submit(QueryRequest("nope", QUERY)).result(timeout=10.0)
        assert response.outcome is Outcome.FAILED
        assert response.reason == "unknown_document"

    def test_malformed_query_fails_structurally(self, xmark_db):
        with WhirlpoolService({"auction": xmark_db}, workers=1) as service:
            response = service.submit(
                QueryRequest("auction", "//item[")
            ).result(timeout=10.0)
        assert response.outcome is Outcome.FAILED
        assert response.reason == "bad_request"
        assert response.error


class TestReregisteredDocument:
    """``register_document`` under a served handle: the next request is
    answered over the new database, in process and on a cluster."""

    @pytest.mark.parametrize("on_cluster", [False, True], ids=["in_process", "cluster"])
    def test_second_answer_comes_from_the_new_database(self, on_cluster):
        old = generate_database(XMarkConfig(items=40, seed=7))
        new = generate_database(XMarkConfig(items=20, seed=9))
        backend = ClusterBackend(shards=1) if on_cluster else None
        with WhirlpoolService({"auction": old}, workers=1, backend=backend) as service:
            first = service.submit(QueryRequest("auction", QUERY, k=5)).result(timeout=60.0)
            service.register_document("auction", new)
            second = service.submit(QueryRequest("auction", QUERY, k=5)).result(timeout=60.0)
        assert first.outcome is Outcome.SERVED and first.result.answers
        assert second.outcome is Outcome.SERVED
        for answer in second.result.answers:
            assert new.node_by_dewey(answer.root_node.dewey) is answer.root_node
        assert_same_topk(full_ranking(Engine(new, QUERY)), second.result)


class TestDeadlinePropagation:
    def test_queue_wait_is_charged_against_the_deadline(self, xmark_db):
        service = WhirlpoolService(
            {"auction": xmark_db}, workers=1, auto_start=False
        )
        ticket = service.submit(
            QueryRequest("auction", QUERY, deadline_seconds=0.05)
        )
        time.sleep(0.15)  # burn the whole budget in the queue
        service.start()
        response = ticket.result(timeout=10.0)
        assert response.outcome is Outcome.SHED
        assert response.reason == "deadline"
        assert response.queue_wait_seconds >= 0.05
        assert service.drain(budget_seconds=2.0)

    def test_surviving_request_records_its_queue_wait(self, xmark_db):
        service = WhirlpoolService(
            {"auction": xmark_db}, workers=1, auto_start=False
        )
        ticket = service.submit(
            QueryRequest("auction", QUERY, k=3, deadline_seconds=30.0)
        )
        time.sleep(0.05)
        service.start()
        response = ticket.result(timeout=30.0)
        assert response.outcome in (Outcome.SERVED, Outcome.DEGRADED)
        assert response.queue_wait_seconds >= 0.05
        assert service.drain(budget_seconds=5.0)


class TestDegradeUnderLoad:
    def test_watermark_admissions_run_degraded(self, xmark_db):
        service = WhirlpoolService(
            {"auction": xmark_db},
            workers=1,
            queue_depth=4,
            overload_policy=OverloadPolicy.DEGRADE,
            auto_start=False,
        )
        tickets = [
            service.submit(QueryRequest("auction", QUERY, k=8)) for _ in range(4)
        ]
        service.start()
        assert service.drain(budget_seconds=30.0)
        responses = [ticket.result(timeout=1.0) for ticket in tickets]
        assert [response.degraded_by_service for response in responses] == [
            False,
            False,
            True,
            True,
        ]
        for response in responses[2:]:
            assert response.outcome is Outcome.DEGRADED
            assert response.result is not None
            assert len(response.result.answers) <= 4  # k was halved


class TestBreakerFallback:
    def test_open_breaker_reroutes_and_records(self, xmark_db, service_constants):
        service_constants(MIN_CALLS=2, WINDOW=4, OPEN_SECONDS=60.0)
        service = WhirlpoolService({"auction": xmark_db}, workers=1)
        breaker = service.breaker("whirlpool_m")
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() is BreakerState.OPEN
        response = service.submit(
            QueryRequest("auction", QUERY, k=5, algorithm="whirlpool_m")
        ).result(timeout=30.0)
        assert response.outcome is Outcome.SERVED
        assert response.fallback_from == "whirlpool_m"
        assert response.algorithm_used == "whirlpool_s"
        assert service.health()["counters"]["fallbacks"] == 1
        assert service.drain(budget_seconds=5.0)

    def test_whole_chain_open_fails_structurally(self, xmark_db, service_constants):
        service_constants(MIN_CALLS=2, WINDOW=4, OPEN_SECONDS=60.0)
        service = WhirlpoolService({"auction": xmark_db}, workers=1)
        for name in ("whirlpool_m", "whirlpool_s", "lockstep"):
            service.breaker(name).record_failure()
            service.breaker(name).record_failure()
        response = service.submit(
            QueryRequest("auction", QUERY, algorithm="whirlpool_m")
        ).result(timeout=10.0)
        assert response.outcome is Outcome.FAILED
        assert response.reason == "circuit_open"
        assert service.drain(budget_seconds=5.0)

    def test_breaker_lookup_validates(self, xmark_db):
        service = WhirlpoolService({"auction": xmark_db}, auto_start=False)
        with pytest.raises(ServiceError):
            service.breaker("quicksort")
