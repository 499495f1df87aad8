"""The boot protocol, frame by frame: what the coordinator sends a worker.

Every query opens with ``init`` → ``begin`` on every shard, scattered to
the whole fleet before either is gathered; documents ride ``init`` only
to a process that does not hold them yet; the query's process-fault plan
rides every ``init`` of the query's own boot and never a replacement's;
a replacement (failover or rebalance) is booted with the newest
checkpoint in its ``begin``.  Each test records what
:meth:`SocketTransport.send` is handed — ``(shard, op, documents?,
restore?, process faults?)``, heartbeats left out — and pins it.
"""

import pytest

from repro.cluster import Coordinator
from repro.cluster.net import SocketTransport
from repro.core.engine import Engine
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.faults.supervisor import RetryPolicy
from repro.recovery.store import MemoryRecoveryStore
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 4

FAST_LADDER = dict(
    rpc_timeout_seconds=0.25,
    liveness_deadline_seconds=1.0,
    retry_policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
)


@pytest.fixture(scope="module")
def database():
    return generate_database(XMarkConfig(items=40, seed=7))


@pytest.fixture(scope="module")
def ranking(database):
    return full_ranking(Engine(database, QUERY))


@pytest.fixture
def frames(monkeypatch):
    """Every non-``ping`` frame handed to a transport, in send order."""
    sent = []
    real_send = SocketTransport.send

    def recording_send(self, payload):
        if payload["op"] != "ping":
            sent.append(
                (
                    self.shard_id,
                    payload["op"],
                    "documents" in payload,
                    "restore" in payload,
                    payload.get("process_faults") is not None,
                )
            )
        return real_send(self, payload)

    monkeypatch.setattr(SocketTransport, "send", recording_send)
    return sent


def kill_plan(shard: int, nth: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.KILL,
                target=str(shard),
                nth=nth,
                times=1,
            )
        ],
        seed=shard * 31 + nth,
    )


def _init(shard, documents, faults=False):
    return (shard, "init", documents, False, faults)


def _begin(shard, restore=False):
    return (shard, "begin", False, restore, False)


def _step(shard):
    return (shard, "step", False, False, False)


FRESH_BOOT = [_init(0, True), _init(1, True), _begin(0), _begin(1)]
RESIDENT_BOOT = [_init(0, False), _init(1, False), _begin(0), _begin(1)]


def test_fresh_fleet_then_resident_query(database, ranking, frames):
    with Coordinator(database, shards=2, step_operations=1000) as coordinator:
        first = coordinator.run_query(QUERY, K)
        boundary = len(frames)
        second = coordinator.run_query(QUERY, K)
        assert frames[:boundary] == FRESH_BOOT + [_step(0), _step(1)]
        # A resident worker is reused: no documents, no respawn.
        assert frames[boundary:] == RESIDENT_BOOT + [_step(0), _step(1)]
        frames.clear()
    # close() sends each live worker one shutdown.
    assert frames == [(0, "shutdown", False, False, False), (1, "shutdown", False, False, False)]
    for result in (first, second):
        assert not result.degraded
        assert_same_topk(ranking, result)


def test_kill_at_a_step_boots_one_clean_replacement(database, ranking, shapes, frames):
    # Shard 0 takes three steps or more and is killed at its middle one, so
    # the replacement both replays a step and takes one of its own.
    shape = shapes.stepped(database, QUERY, K, steps=3)
    nth = shape.rpc(0, "middle")
    with Coordinator(
        database,
        shards=2,
        step_operations=shape.step_operations,
        recovery_store=MemoryRecoveryStore(),
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=kill_plan(0, nth))
    sent = list(frames)
    assert result.failovers == 1 and not result.degraded
    assert_same_topk(ranking, result)
    # The query's own boot ships the plan to both shards.
    expected = [_init(0, True, True), _init(1, True, True), _begin(0), _begin(1)]
    for step in range(1, max(shape.steps) + 1):
        # Each round scatters a step to every shard not yet done...
        expected += [_step(shard) for shard in (0, 1) if step <= shape.steps[shard]]
        if step + 1 == nth:  # step i is armed RPC i + 1
            # ...and shard 0's killed one is answered by the replacement:
            # documents, no fault plan, the newest checkpoint, then the
            # step again.
            expected += [_init(0, True), _begin(0, restore=True), _step(0)]
    expected += [(0, "shutdown", False, False, False), (1, "shutdown", False, False, False)]
    assert sent == expected


def test_rebalance_replacement_boots_clean_from_the_checkpoint(
    database, ranking, frames
):
    """A shard whose every reply is held back 0.3 s — above the default
    0.25 s latency floor, and many times the other shard's — is migrated
    after two slow rounds.  Round timing decides when, so only the
    replacement's frames are pinned."""
    plan = FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.SLOW_PIPE,
                target="0",
                every=1,
                times=100,
                delay_seconds=0.3,
            )
        ],
        seed=4,
    )
    with Coordinator(
        database,
        shards=2,
        skew=0.6,
        partition_seed=3,
        step_operations=10,
        recovery_store=MemoryRecoveryStore(),
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=plan)
        sent = list(frames)
    assert result.rebalances >= 1 and result.failovers == 0
    assert not result.degraded
    assert_same_topk(ranking, result)
    shard0 = [frame for frame in sent if frame[0] == 0]
    assert shard0[:2] == [_init(0, True, True), _begin(0)]
    replacement = shard0.index(_init(0, True), 2)
    assert shard0[replacement + 1] == _begin(0, restore=True)
    assert all(frame[4] is False for frame in shard0[2:])
