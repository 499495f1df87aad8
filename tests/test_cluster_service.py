"""The cluster backend behind ``WhirlpoolService``.

The service keeps owning admission, deadlines, drain and the one-
outcome-per-request invariant; the backend owns execution.  These tests
pin the seam: results flow back unchanged, health exposes per-shard
liveness, concurrent submissions serialize on the coordinator without
deadlock, and drain tears the worker fleet down.
"""

import pytest

from repro.cluster import ClusterResult
from repro.cluster.service import ClusterBackend
from repro.core.engine import Engine
from repro.errors import ClusterError, CoordinatorBusyError
from repro.service import QueryRequest, WhirlpoolService
from repro.service.request import Outcome
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 4


@pytest.fixture(scope="module")
def database():
    return generate_database(XMarkConfig(items=40, seed=7))


def test_backend_serves_exact_answers_through_service(database):
    backend = ClusterBackend(shards=2, skew=1.0)
    with WhirlpoolService(
        {"auction": database}, workers=2, backend=backend
    ) as service:
        tickets = [
            service.submit(QueryRequest("auction", QUERY, k=K)),
            service.submit(
                QueryRequest("auction", QUERY, k=K, algorithm="lockstep")
            ),
        ]
        responses = [ticket.result(timeout=30.0) for ticket in tickets]
    ranking = full_ranking(Engine(database, QUERY))
    for response, algorithm in zip(responses, ("whirlpool_s", "lockstep")):
        assert response.outcome is Outcome.SERVED
        assert response.algorithm_used == f"cluster:{algorithm}"
        assert isinstance(response.result, ClusterResult)
        assert_same_topk(ranking, response.result)


def test_health_carries_backend_fleet(database):
    backend = ClusterBackend(shards=2)
    with WhirlpoolService(
        {"auction": database}, workers=1, backend=backend
    ) as service:
        service.submit(QueryRequest("auction", QUERY, k=K)).result(timeout=30.0)
        backend_health = service.health()["backend"]
        assert backend_health is not None
        assert backend_health["kind"] == "cluster"
        doc = backend_health["documents"]["auction"]
        assert doc["live_shards"] == 2
        assert set(doc["per_shard"]) == {0, 1}
        for row in doc["per_shard"].values():
            assert "last_heartbeat_age_seconds" in row
            assert "failovers" in row
    # Drain closed the backend.
    assert backend.health()["closed"]
    with pytest.raises(ClusterError):
        backend.run_query(QueryRequest("auction", QUERY, k=K), database, K)


def test_backend_unknown_document_fails_request(database):
    # The service resolves the handle before the backend sees the
    # request: a handle it does not know fails the same way in process
    # and on the cluster, and the backend builds no coordinator for it.
    backend = ClusterBackend(shards=1)
    with WhirlpoolService({"auction": database}, workers=1, backend=backend) as service:
        response = service.submit(
            QueryRequest("ghost", QUERY, k=K)
        ).result(timeout=30.0)
        assert backend.health()["documents"] == {}
    assert response.outcome is Outcome.FAILED
    assert response.reason == "unknown_document"


def test_concurrent_submissions_serialize_on_the_coordinator(database):
    # More in-flight requests than coordinator slots (one): the busy
    # poll-retry path must serve all of them, none lost or deadlocked.
    backend = ClusterBackend(shards=2)
    with WhirlpoolService(
        {"auction": database}, workers=3, queue_depth=8, backend=backend
    ) as service:
        tickets = [
            service.submit(QueryRequest("auction", QUERY, k=K)) for _ in range(5)
        ]
        responses = [ticket.result(timeout=60.0) for ticket in tickets]
    assert all(response.outcome is Outcome.SERVED for response in responses)


def test_blocked_submit_wakes_promptly_when_slot_frees(database):
    # The busy path is a condition wait on the coordinator's idle
    # condition (wait_idle), not a spin poll: a submit that found the
    # slot taken must wake essentially the moment the active query
    # finishes, and an idle coordinator must not block at all.
    import threading
    import time

    backend = ClusterBackend(shards=2)
    try:
        coordinator = backend._coordinator_for("auction", database)
        assert coordinator.wait_idle(timeout=1.0) is True  # idle: immediate
        finished = {}

        def occupy_slot():
            coordinator.run_query(QUERY, K)
            finished["at"] = time.monotonic()

        holder = threading.Thread(target=occupy_slot)
        holder.start()
        try:
            deadline = time.monotonic() + 10.0
            while not coordinator.health().get("active"):
                assert time.monotonic() < deadline, "first query never started"
                time.sleep(0.005)
            # While the slot is held, a bounded wait times out (False)...
            assert coordinator.wait_idle(timeout=0.05) is False
            # ...and a blocked submit rides the condition to completion.
            result = backend.run_query(QueryRequest("auction", QUERY, k=K), database, K)
            woke_at = time.monotonic()
        finally:
            holder.join(timeout=30.0)
        assert not holder.is_alive()
        assert result.answers
        assert woke_at - finished["at"] < 1.0  # woke with the notify, not a poll
    finally:
        backend.close()


def test_two_submits_one_coordinator_wait_by_type_not_by_wording(database, monkeypatch):
    # The busy slot is a type.  Whatever the message says, the backend
    # waits and retries; a ClusterError that merely reads like the old
    # sentence is a real error and reaches the client.
    backend = ClusterBackend(shards=1)
    request = QueryRequest("auction", QUERY, k=K)
    try:
        coordinator = backend._coordinator_for("auction", database)
        real_run_query = coordinator.run_query
        with coordinator._lock:
            coordinator._active = True  # another submit holds the slot
        with pytest.raises(CoordinatorBusyError):
            real_run_query(QUERY, K)
        with coordinator._lock:
            coordinator._active = False
        attempts = []

        def reworded(*args, **kwargs):
            attempts.append(args)
            if len(attempts) == 1:
                raise CoordinatorBusyError("slot taken")
            return real_run_query(*args, **kwargs)

        monkeypatch.setattr(coordinator, "run_query", reworded)
        with WhirlpoolService(
            {"auction": database}, workers=1, backend=backend
        ) as service:
            response = service.submit(request).result(timeout=30.0)
            assert response.outcome is Outcome.SERVED
            assert len(attempts) == 2

            def sounds_busy(*args, **kwargs):
                raise ClusterError("coordinator runs one query at a time")

            monkeypatch.setattr(coordinator, "run_query", sounds_busy)
            response = service.submit(request).result(timeout=30.0)
            assert response.outcome is Outcome.FAILED
            assert response.reason == "backend_error"
    finally:
        backend.close()


def test_register_document_replaces_coordinator(database):
    # Re-registering a handle through the service rebuilds the backend's
    # coordinator over the new document and closes the stale one.
    other = generate_database(XMarkConfig(items=20, seed=9))
    backend = ClusterBackend(shards=1)
    with WhirlpoolService({"auction": database}, workers=1, backend=backend) as service:
        first = service.submit(QueryRequest("auction", QUERY, k=K)).result(timeout=30.0)
        stale = backend._coordinators["auction"]
        service.register_document("auction", other)
        second = service.submit(QueryRequest("auction", QUERY, k=K)).result(timeout=30.0)
        assert backend._coordinators["auction"].database is other
        assert stale.health()["closed"]
    assert first.outcome is Outcome.SERVED and first.result.answers
    assert second.outcome is Outcome.SERVED
    assert_same_topk(full_ranking(Engine(other, QUERY)), second.result)
