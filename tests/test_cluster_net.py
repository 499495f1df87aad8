"""Transport-layer tests: partitions, frame damage, session tokens.

The contract under test: whatever the link does — partition mid-query,
corrupt or duplicate frames, storm through reconnects — the cluster
converges on the bit-identical fault-free answer.  The recovery
*mechanism* is asserted explicitly: a partition resumes the same worker
session via reconnect + idempotent replay (zero failovers), and a
severed link whose worker is gone rides checkpoint-shipping failover
instead.
"""

import socket

import pytest

from repro.cluster import Coordinator
from repro.cluster.net import (
    RECONNECT_STORM_DROPS,
    SocketTransport,
    corrupt_frame_bytes,
)
from repro.cluster.protocol import FrameReader, encode_frame, frame_crc
from repro.core.engine import Engine
from repro.core.stats import monotonic_seconds
from repro.faults.inject import FaultArm
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
    """The single-process LockStep-NoPrun ranking every answer is held to."""
    return full_ranking(Engine(database, QUERY))


def net_plan(action, shard=0, nth=3, times=1) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                site=FaultSite.NET,
                action=action,
                target=str(shard),
                nth=nth,
                times=times,
            )
        ],
        seed=17,
    )


def run(database, plan):
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        recovery_store=MemoryRecoveryStore(),
        max_failovers=8,
        **FAST_LADDER,
    ) as coordinator:
        return coordinator.run_query(QUERY, K, faults=plan)


# ---------------------------------------------------------------------------
# Small pieces
# ---------------------------------------------------------------------------


def test_corrupt_frame_bytes_breaks_the_crc():
    frame = encode_frame({"op": "step", "id": 1}, seq=5)
    damaged = corrupt_frame_bytes(frame)
    assert len(damaged) == len(frame)
    assert damaged != frame
    assert damaged[:-1] == frame[:-1]  # header untouched
    assert frame_crc(5, damaged[14:]) != frame_crc(5, frame[14:])
    assert corrupt_frame_bytes(b"") == b""


def test_net_fault_arm_is_deterministic_and_targeted():
    plan = net_plan(FaultAction.PARTITION, shard=0, nth=3, times=1)
    arm = FaultArm(plan.rules, plan.seed)
    fired = [arm.arm(FaultSite.NET, "0") for _ in range(6)]
    assert [rule is not None for rule in fired] == [
        False, False, True, False, False, False,
    ]
    assert fired[2].action is FaultAction.PARTITION
    # Another shard's link never fires a rule targeted at shard 0, and
    # counts its own frames.
    assert all(arm.arm(FaultSite.NET, "1") is None for _ in range(6))
    assert arm.site_counts() == {"net:0": 6, "net:1": 6}
    # Same seed, same schedule: the replayed arm fires identically.
    replay = FaultArm(plan.rules, plan.seed)
    assert [replay.arm(FaultSite.NET, "0") is not None for _ in range(6)] == [
        rule is not None for rule in fired
    ]


def test_a_stale_session_token_is_refused_and_the_real_worker_resumes():
    """A dial-in that presents anything but the current spawn's token —
    a worker superseded by failover, an impostor — is told ``ok: False``
    (its cue to exit); the accept loop keeps waiting for the session it
    minted, and that one still answers."""
    transport = SocketTransport(0)
    transport.spawn()
    stale = socket.create_connection(("127.0.0.1", transport._port), timeout=5.0)
    try:
        stale.sendall(
            encode_frame({"op": "hello", "shard": 0, "token": "0" * 16}, seq=1)
        )
        # The stale dial-in is first in the listener's backlog; the real
        # worker redials once reconnect() severs its connection.
        assert transport.reconnect(monotonic_seconds() + 5.0)
        ack = FrameReader(stale.fileno()).read(monotonic_seconds() + 5.0)
        assert ack == {"op": "hello", "ok": False}
        transport.send({"op": "ping", "id": 1})
        reply = transport.recv(monotonic_seconds() + 5.0)
        assert reply["ok"] and reply["shard"] == 0
    finally:
        stale.close()
        transport.close()
    assert not transport.alive()


def test_net_chaos_plans_only_contain_net_rules():
    for seed in range(25):
        plan = FaultPlan.net_chaos(seed, shards=3)
        assert plan.rules, seed
        for rule in plan.rules:
            assert rule.site is FaultSite.NET
            assert rule.action in FaultPlan.NET_ACTIONS
            assert rule.target in {"0", "1", "2"}
            assert rule.times == 1


# ---------------------------------------------------------------------------
# Recovery semantics of the link
# ---------------------------------------------------------------------------


def test_fault_free_cluster_agrees_with_single_process(database, ranking):
    result = run(database, plan=None)
    assert not result.degraded
    assert result.failovers == 0
    assert result.reconnects == 0
    assert_same_topk(ranking, result)


def test_socket_partition_resumes_session_without_failover(database, ranking):
    result = run(database, net_plan(FaultAction.PARTITION))
    assert not result.degraded
    assert result.reconnects >= 1
    assert result.failovers == 0  # same worker, session resumed by replay
    assert_same_topk(ranking, result)


def test_partition_with_the_worker_gone_fails_over_via_checkpoints(
    database, ranking
):
    """A severed link that cannot be re-established: shard 0's second
    step is partitioned away (NET frames: init, begin, one step), and
    the worker SIGKILLs itself on the replay of that same RPC (armed
    RPCs: begin, two steps) — nobody is left to redial.  (The fourth
    step, aimed at while bounds were database-wide maxima, and the third,
    aimed at until a tuple that cannot beat its own root's completed score
    was pruned, are no longer reached.)"""
    kill = FaultRule(
        site=FaultSite.WORKER_RPC,
        action=FaultAction.KILL,
        target="0",
        nth=3,
        times=1,
    )
    partition = net_plan(FaultAction.PARTITION, nth=4)
    result = run(database, FaultPlan(partition.rules + [kill], seed=partition.seed))
    assert not result.degraded
    assert result.failovers >= 1  # respawn + restore the shipped checkpoint
    assert_same_topk(ranking, result)


def test_duplicated_frames_are_absorbed_silently(database, ranking):
    result = run(database, net_plan(FaultAction.DUP_FRAME, nth=2, times=3))
    assert not result.degraded
    assert result.failovers == 0
    assert result.reconnects == 0
    assert result.heartbeat_misses == 0
    assert_same_topk(ranking, result)


def test_corrupted_frames_are_detected_and_recovered(database, ranking):
    result = run(database, net_plan(FaultAction.CORRUPT_FRAME))
    assert not result.degraded
    # The worker tears the connection down on a CRC mismatch and redials;
    # the session resumes.
    assert result.reconnects >= 1
    assert result.failovers == 0
    assert_same_topk(ranking, result)


def test_reconnect_storm_rides_the_backoff_ladder(database, ranking):
    result = run(database, net_plan(FaultAction.RECONNECT_STORM))
    assert not result.degraded
    assert result.reconnects == RECONNECT_STORM_DROPS
    assert result.failovers == 0
    assert_same_topk(ranking, result)


def test_health_surfaces_transport_and_connection_state(database):
    with Coordinator(
        database,
        shards=2,
        recovery_store=MemoryRecoveryStore(),
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(
            QUERY, K, faults=net_plan(FaultAction.PARTITION)
        )
        health = coordinator.health()
    assert result.reconnects >= 1
    assert health["reconnects"] == result.reconnects
    assert "rebalances" in health
    for row in health["per_shard"].values():
        assert row["connection"] in ("connected", "degraded", "partitioned", "failed")
    assert health["per_shard"][0]["reconnects"] >= 1
