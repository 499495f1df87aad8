"""Service-layer recovery: persisted snapshots, recover(), drain races.

Three promises under test:

- **drain persists** — with a store attached, every drain-shed request
  leaves an envelope behind, and a fresh service over the same store
  re-admits and serves it (with the deadline budget it had left);
- **crashes persist** — an engine crash resolves FAILED but keeps its
  last checkpoint in the store, so the work is resumable, and the
  engine-level :class:`~repro.faults.report.FailureReport` distinguishes
  resumable failures from total losses;
- **exactly one outcome, still** — hammering ``submit`` concurrently
  with ``drain`` never yields a ticket with zero or two terminal
  outcomes, and counters conserve (the drain-vs-submit audit regression).
"""

import threading

import pytest

from repro.core.engine import Engine
from repro.errors import ServiceError
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.recovery import CheckpointPolicy, JsonFileRecoveryStore, MemoryRecoveryStore
from repro.service import Outcome, QueryRequest, WhirlpoolService
from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"


@pytest.fixture(scope="module")
def shape(shapes, xmark_db):
    """The crashed request's fault-free run: Whirlpool-S, k = 8."""
    return shapes.engine(Engine(xmark_db, QUERY), 8)


@pytest.fixture(scope="module")
def crash_plan(shape):
    """A crash at the busiest server's middle operation."""
    return FaultPlan(
        [
            FaultRule(
                FaultSite.SERVER_OP,
                FaultAction.CRASH,
                nth=shape.nth("server_op", "middle"),
                times=1,
            )
        ]
    )


def make_service(xmark_db, store, **kwargs):
    kwargs.setdefault("workers", 2)
    return WhirlpoolService({"auction": xmark_db}, recovery_store=store, **kwargs)


class TestDrainPersists:
    def test_drain_shed_requests_are_recoverable(self, xmark_db):
        store = MemoryRecoveryStore()
        service = make_service(
            xmark_db, store, workers=1, queue_depth=8, auto_start=False
        )
        tickets = [
            service.submit(QueryRequest("auction", QUERY, k=4)) for _ in range(5)
        ]
        service.drain(budget_seconds=0.0)
        outcomes = [ticket.result(1.0).outcome for ticket in tickets]
        assert outcomes == [Outcome.SHED] * 5
        assert store.count() == 5
        assert service.health()["recovery"] == {"pending_snapshots": 5}

        successor = make_service(xmark_db, store)
        summary = successor.recover()
        assert summary["found"] == 5
        assert summary["recovered"] == 5
        assert summary["invalid"] == 0
        for ticket in summary["tickets"]:
            response = ticket.result(timeout=30.0)
            assert response.outcome is Outcome.SERVED
            assert response.result is not None and response.result.answers
        assert store.count() == 0
        counters = successor.health()["counters"]
        assert counters["recovered"] == 5
        successor.drain()

    def test_recovered_deadline_is_the_remaining_budget(self, xmark_db):
        store = MemoryRecoveryStore()
        service = make_service(xmark_db, store, workers=1, auto_start=False)
        service.submit(QueryRequest("auction", QUERY, k=4, deadline_seconds=30.0))
        service.drain(budget_seconds=0.0)
        payload = store.load(store.keys()[0])
        assert payload is not None
        remaining = payload["request"]["deadline_seconds"]
        # Queue wait already spent some of the 30s; never more is stored.
        assert 0.0 < remaining <= 30.0
        assert payload["origin"] == "drain"
        assert payload["engine"] is None


class TestCrashPersists:
    def test_engine_crash_keeps_last_checkpoint(self, xmark_db, shape, crash_plan):
        store = MemoryRecoveryStore()
        service = make_service(
            xmark_db,
            store,
            checkpoint_policy=CheckpointPolicy(every_operations=shape.budget(0.03)),
        )
        ticket = service.submit(
            QueryRequest("auction", QUERY, k=8, faults=crash_plan)
        )
        response = ticket.result(timeout=30.0)
        assert response.outcome is Outcome.FAILED
        assert response.reason == "engine_error"
        assert "EngineCrashError" in (response.error or "")
        assert store.count() == 1
        payload = store.load(store.keys()[0])
        assert payload is not None and payload["engine"] is not None
        service.drain()

        # Crash-equivalence through the service: the recovered request
        # resumes the checkpoint and serves the full answer set.
        oracle = make_service(xmark_db, None)
        oracle_response = oracle.submit(
            QueryRequest("auction", QUERY, k=8)
        ).result(timeout=30.0)
        oracle.drain()
        assert oracle_response.result is not None

        successor = make_service(xmark_db, store)
        summary = successor.recover()
        assert summary["recovered"] == 1
        recovered = summary["tickets"][0].result(timeout=30.0)
        successor.drain()
        assert recovered.outcome is Outcome.SERVED
        assert recovered.result is not None
        ranking = full_ranking(Engine(xmark_db, QUERY))
        assert_same_topk(ranking, oracle_response.result)
        assert_same_topk(ranking, recovered.result)

    def test_crash_without_checkpoint_saves_envelope(self, xmark_db, crash_plan):
        store = MemoryRecoveryStore()
        service = make_service(xmark_db, store)  # no checkpoint policy
        ticket = service.submit(
            QueryRequest("auction", QUERY, k=8, faults=crash_plan)
        )
        assert ticket.result(timeout=30.0).outcome is Outcome.FAILED
        payload = store.load(store.keys()[0])
        assert payload is not None
        assert payload["origin"] == "engine_error"
        assert payload["engine"] is None
        service.drain()

    def test_failure_report_marks_resumable(self, xmark_db):
        """Satellite: the engine abandon path attaches the last checkpoint
        so callers can tell 'lost' from 'resumable'."""
        engine = Engine(xmark_db, QUERY)
        snapshots = []
        # A mostly-dead server: enough errors to abandon matches, enough
        # successes that the every-operation checkpoint trigger fires.
        dead = FaultPlan(
            [FaultRule(FaultSite.SERVER_OP, FaultAction.ERROR, probability=0.7)],
            seed=5,
        )
        from repro.faults import RetryPolicy

        fast = RetryPolicy(
            max_attempts=2,
            requeue_limit=1,
            base_delay=0.0001,
            max_delay=0.0005,
            jitter=0.0,
        )
        result = engine.run(
            8,
            algorithm="whirlpool_s",
            faults=dead,
            retry_policy=fast,
            checkpoint_policy=CheckpointPolicy(every_operations=1),
            checkpoint_sink=snapshots.append,
        )
        assert result.failure is not None
        assert result.failure.failed_matches
        assert result.failure.resumable()
        assert result.failure.checkpoint is not None
        assert result.failure.as_dict()["resumable"] is True

        no_checkpoint = engine.run(
            8, algorithm="whirlpool_s", faults=dead, retry_policy=fast
        )
        assert no_checkpoint.failure is not None
        assert not no_checkpoint.failure.resumable()
        assert no_checkpoint.failure.as_dict()["resumable"] is False


class TestRecoverEdgeCases:
    def test_recover_without_store_raises(self, xmark_db):
        service = WhirlpoolService({"auction": xmark_db}, auto_start=False)
        with pytest.raises(ServiceError):
            service.recover()
        service.drain(budget_seconds=0.0)

    def test_recover_drops_invalid_snapshots(self, xmark_db, tmp_path):
        store = JsonFileRecoveryStore(str(tmp_path / "recovery"))
        (tmp_path / "recovery" / "req-1.json").write_text("{broken")
        (tmp_path / "recovery" / "req-2.json").write_text('{"no": "request"}')
        store.save(
            "req-3",
            {
                "version": 1,
                "origin": "drain",
                "request_id": 3,
                "request": {
                    "document": "auction",
                    "xpath": QUERY,
                    "k": 3,
                    "priority": 0,
                    "deadline_seconds": None,
                    "algorithm": "whirlpool_s",
                    "routing": "min_alive",
                    "relaxed": True,
                },
                "engine": None,
            },
        )
        service = make_service(xmark_db, store)
        summary = service.recover()
        assert summary["found"] == 3
        assert summary["invalid"] == 2
        assert summary["recovered"] == 1
        assert summary["tickets"][0].result(timeout=30.0).outcome is Outcome.SERVED
        assert store.count() == 0
        service.drain()

    @staticmethod
    def _recover_fresh(xmark_db, k, engine_snapshot):
        """Recover one request whose checkpoint the gate must refuse, and
        check that it re-ran fresh: served the full answer, charging no
        breaker, leaving nothing stored."""
        store = MemoryRecoveryStore()
        store.save(
            "req-7",
            {
                "version": 1,
                "origin": "checkpoint",
                "request_id": 7,
                "request": {
                    "document": "auction",
                    "xpath": QUERY,
                    "k": k,
                    "priority": 0,
                    "deadline_seconds": None,
                    "algorithm": "whirlpool_s",
                    "routing": "min_alive",
                    "relaxed": True,
                },
                "engine": engine_snapshot,
            },
        )
        service = make_service(xmark_db, store)
        summary = service.recover()
        assert (summary["recovered"], summary["invalid"]) == (1, 0)
        response = summary["tickets"][0].result(timeout=30.0)
        service.drain()
        assert response.outcome is Outcome.SERVED
        assert response.result is not None and not response.result.degraded
        assert len(response.result.answers) == k
        assert_same_topk(full_ranking(Engine(xmark_db, QUERY)), response.result)
        assert service.breaker("whirlpool_s").snapshot()["failures"] == 0
        assert store.count() == 0

    def test_a_checkpoint_of_another_codec_version_reruns_fresh(self, xmark_db):
        """An envelope whose engine checkpoint this codec does not read
        (version 2: every one stored before version 3) is not lost."""
        self._recover_fresh(xmark_db, 8, {"version": 2, "k": 8, "queues": {}, "topk": []})

    def test_a_current_version_checkpoint_the_gate_refuses_reruns_fresh(self, xmark_db):
        """A checkpoint of the current codec version that does not fit the
        request (taken at ``k`` 4, the request asks for 3) stops at the
        gate before admission, rather than failing the run inside it."""
        self._recover_fresh(xmark_db, 3, {"version": 3, "k": 4})

    def test_served_requests_leave_no_snapshot(self, xmark_db):
        store = MemoryRecoveryStore()
        service = make_service(
            xmark_db, store, checkpoint_policy=CheckpointPolicy(every_operations=2)
        )
        ticket = service.submit(QueryRequest("auction", QUERY, k=4))
        assert ticket.result(timeout=30.0).outcome is Outcome.SERVED
        assert store.count() == 0
        service.drain()


class TestSubmitVsDrainHammer:
    """The drain-vs-submit audit: requests admitted concurrently with
    drain-start must each get exactly one terminal outcome."""

    @pytest.mark.parametrize("round_seed", range(3))
    def test_every_ticket_resolves_exactly_once(self, xmark_db, round_seed):
        store = MemoryRecoveryStore()
        service = make_service(
            xmark_db, store, workers=2, queue_depth=4
        )
        tickets = []
        tickets_lock = threading.Lock()
        start = threading.Barrier(5, timeout=10)

        def submitter(worker_id):
            start.wait()
            for index in range(12):
                ticket = service.submit(
                    QueryRequest(
                        "auction",
                        QUERY,
                        k=2,
                        priority=(worker_id + index) % 3,
                    )
                )
                with tickets_lock:
                    tickets.append(ticket)

        def drainer():
            start.wait()
            service.drain(budget_seconds=0.05)

        threads = [
            threading.Thread(target=submitter, args=(i,), name=f"hammer-{i}")
            for i in range(4)
        ]
        threads.append(threading.Thread(target=drainer, name="hammer-drain"))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        # Exactly one terminal outcome per ticket.
        responses = [ticket.result(timeout=10.0) for ticket in tickets]
        assert len(responses) == 48
        # Counters conserve: everything submitted was resolved, once.
        counters = service.health()["counters"]
        assert counters["submitted"] == 48
        resolved = sum(counters[outcome.value] for outcome in Outcome)
        assert resolved == 48
        assert service._counters.outstanding() == 0
        # Second resolution attempts must lose.
        for ticket, response in zip(tickets, responses):
            assert ticket.peek() is response
