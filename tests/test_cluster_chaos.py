"""Cluster chaos matrix: failover must reproduce the fault-free answer.

The differential guarantee under test: a query that loses a worker to
SIGKILL (or a hang past the liveness deadline) and fails over via
checkpoint shipping returns a correct top-k of the single-process
LockStep-NoPrun ranking — same scores, same roots except among roots tied
at the k-th score (``repro.core.topk.topk_mismatch``).  With failover
disabled, the degraded answer must instead name the missing shards and
certify them with a sound global ``pending_bound``.

The kill matrix murders one shard at one armed RPC per case, with
explicit ``KILL`` rules aimed at named steps of the fault-free run
(``tests/conftest.py`` ``Shapes``).  RPC indexing note: the worker's fault
boundary arms every non-``ping`` RPC *after* ``init`` installed the plan,
so ``begin`` is armed RPC #1 and step i is armed RPC #i + 1.
"""

import json

import pytest

import repro.cluster.coordinator as coordinator_module
from repro.cluster import Coordinator
from repro.cluster.coordinator import ShardHandle
from repro.cluster.net import SocketTransport
from repro.core.engine import Engine
from repro.errors import WorkerLostError
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.faults.supervisor import RetryPolicy
from repro.obs import Observability
from repro.recovery.store import MemoryRecoveryStore
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import (
    assert_certified,
    assert_exact_or_certified,
    assert_same_topk,
    full_ranking,
)

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 4
ENGINES = ("whirlpool_s", "whirlpool_m", "lockstep")
SEEDS = range(20)

#: Tight ladder so injected losses are detected in milliseconds, not the
#: production default's seconds.
FAST_LADDER = dict(
    rpc_timeout_seconds=0.25,
    liveness_deadline_seconds=1.0,
    retry_policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
)

#: In-engine recovery bounds for the engine-level chaos sweep.
FAST_RETRY = RetryPolicy(
    max_attempts=2, requeue_limit=1, base_delay=0.0001, max_delay=0.0005, jitter=0.0
)


@pytest.fixture(scope="module")
def database():
    return generate_database(XMarkConfig(items=40, seed=7))


@pytest.fixture(scope="module")
def ranking(database):
    """The single-process LockStep-NoPrun ranking every answer is held to."""
    return full_ranking(Engine(database, QUERY))


#: Whirlpool-M's step size in the kill matrix.  It aims at no step but
#: the first, which a shard takes at any size.
WHIRLPOOL_M_STEP_OPERATIONS = 25


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


def kill_aims(shapes, database, algorithm):
    """(step size, [(shard, armed RPC to kill at)], kills that must land).

    The sequential engines step deterministically, so each distinct aim
    runs once and every one lands: shard 0's first, middle and last step
    (at a step size that gives it three or more), and every step of
    shard 1.  Whirlpool-M's threads overshoot the step budget by however
    far they got, so the steps a shard takes vary from run to run: it
    sweeps 20 seeds, and only a kill at the first step, which every shard
    takes, is certain to land."""
    if algorithm == "whirlpool_m":
        aims = [(seed % 2, 2 + seed % 3) for seed in SEEDS]
        first = sum(1 for _, nth in aims if nth == 2)
        return WHIRLPOOL_M_STEP_OPERATIONS, aims, first
    shape = shapes.stepped(database, QUERY, K, steps=3, algorithm=algorithm)
    aims = {(0, shape.rpc(0, where)) for where in ("first", "middle", "last")}
    aims |= {(1, shape.rpc(1, step)) for step in range(1, shape.steps[1] + 1)}
    assert len(aims) == 3 + shape.steps[1], shape.steps
    return shape.step_operations, sorted(aims), len(aims)


@pytest.mark.parametrize("algorithm", ENGINES)
def test_kill_matrix_failover_reproduces_fault_free_topk(
    database, ranking, shapes, algorithm
):
    """SIGKILL a shard mid-query, demand the exact fault-free answer back."""
    step_operations, aims, kills_that_land = kill_aims(shapes, database, algorithm)
    failovers_seen = 0
    for shard, nth in aims:
        with Coordinator(
            database,
            shards=2,
            step_operations=step_operations,
            recovery_store=MemoryRecoveryStore(),
            **FAST_LADDER,
        ) as coordinator:
            result = coordinator.run_query(
                QUERY,
                K,
                algorithm=algorithm,
                faults=kill_plan(shard, nth),
            )
        case = (shard, nth, algorithm)
        assert not result.degraded, (case, result.missing_shards)
        assert result.missing_shards == []
        assert_same_topk(ranking, result, case)
        failovers_seen += result.failovers
    # The matrix must actually exercise failover, not just schedule kills
    # that land after the query finished.
    if algorithm == "whirlpool_m":
        assert failovers_seen >= kills_that_land
    else:
        assert failovers_seen == kills_that_land


def test_checkpoint_damaged_above_the_frame_layer_is_not_stored(
    database, ranking, shapes, monkeypatch
):
    """A step reply whose checkpoint text was altered *before* framing
    passes every frame CRC; the checkpoint's own CRC is what catches it.
    The coordinator must not store it, and a later failover of the shard
    restores the generation before — replaying the steps in between to
    the fault-free answer."""
    # Shard 0 takes a third step for the kill to land on.
    shape = shapes.stepped(database, QUERY, K, steps=3)
    step_operations = shape.step_operations
    damaged = 2 * step_operations + 1
    stored, loaded = [], []

    class RecordingStore(MemoryRecoveryStore):
        def save(self, key, entry):
            stored.append(json.loads(entry["snapshot"])["operations"])
            super().save(key, entry)

    real_finish = ShardHandle.finish
    steps_seen = {"count": 0}

    def damaging_finish(handle, deadline_at=None):
        reply = real_finish(handle, deadline_at=deadline_at)
        if handle.shard_id == 0 and reply.get("op") == "step" and reply.get("checkpoint"):
            steps_seen["count"] += 1
            if steps_seen["count"] == 2:
                text = reply["checkpoint"]["text"]
                flipped = text.replace(
                    f'"operations":{2 * step_operations}', f'"operations":{damaged}', 1
                )
                assert flipped != text
                reply["checkpoint"]["text"] = flipped
        return reply

    monkeypatch.setattr(ShardHandle, "finish", damaging_finish)
    with Coordinator(
        database,
        shards=2,
        step_operations=step_operations,
        recovery_store=RecordingStore(),
        observability=Observability(),
        **FAST_LADDER,
    ) as coordinator:
        real_load = coordinator.checkpoints.load

        def recording_load(key):
            snapshot = real_load(key)
            loaded.append(None if snapshot is None else snapshot["operations"])
            return snapshot

        monkeypatch.setattr(coordinator.checkpoints, "load", recording_load)
        # The kill lands on the step after the damaged one.
        result = coordinator.run_query(QUERY, K, faults=kill_plan(0, shape.rpc(0, 3)))
    assert result.failovers == 1 and not result.degraded
    assert_same_topk(ranking, result)
    # Step 2's checkpoint never reached the store, so the failover restored
    # step 1's and the shard re-did step 2 on the way.
    assert stored[:1] == [step_operations] and damaged not in stored
    assert loaded == [step_operations]
    assert stored.count(2 * step_operations) == 1
    assert coordinator.metrics.checkpoint_rejects.labels("0").value() == 1


def test_hang_past_liveness_deadline_fails_over(database, ranking):
    plan = FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.HANG,
                target="1",
                nth=2,
                times=1,
                delay_seconds=30.0,
            )
        ],
        seed=1,
    )
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        recovery_store=MemoryRecoveryStore(),
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=plan)
    assert result.failovers >= 1
    assert result.heartbeat_misses >= 1
    assert not result.degraded
    assert_same_topk(ranking, result)


def test_slow_pipe_rides_the_retry_ladder_without_failover(database, ranking):
    # Reply delay sits between the RPC timeout (miss) and the liveness
    # deadline (failover): the ladder should absorb it.
    plan = FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.SLOW_PIPE,
                target="0",
                nth=2,
                times=1,
                delay_seconds=0.45,
            )
        ],
        seed=2,
    )
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=plan)
    assert result.failovers == 0
    assert result.heartbeat_misses >= 1
    assert not result.degraded
    assert_same_topk(ranking, result)


def test_no_failover_kill_degrades_with_sound_global_bound(database, ranking):
    """With failover disabled a killed shard is lost; the survivors'
    answer must name it and bound everything it could have held."""
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(
            QUERY,
            K,
            faults=kill_plan(shard=0, nth=2),
            fail_over=False,
        )
    assert result.degraded
    assert result.missing_shards == [0]
    assert result.failovers == 0
    # Soundness: every fault-free answer the degraded response does not
    # report scores at or below the certified global bound.
    assert_certified(ranking, result)


def test_replacement_worker_runs_fault_free(database, ranking):
    """A fault plan dies with the worker it killed: the replacement is
    deliberately not re-armed (mirroring the service's recovered-runs-
    re-execute-clean contract), so even an every-RPC kill schedule is
    survived by exactly one failover."""
    plan = FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.KILL,
                target="0",
                every=1,  # every armed RPC on shard 0 dies
            )
        ],
        seed=3,
    )
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        recovery_store=MemoryRecoveryStore(),
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=plan)
    assert not result.degraded
    assert result.failovers == 1
    assert_same_topk(ranking, result)


def test_failover_exhaustion_loses_the_shard(database):
    """A kill beyond the failover budget (here: zero) loses the shard;
    the query must degrade instead of respawning forever."""
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        max_failovers=0,
        recovery_store=MemoryRecoveryStore(),
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(
            QUERY, K, faults=kill_plan(shard=0, nth=2)
        )
    assert result.degraded
    assert result.missing_shards == [0]
    assert result.failovers == 0
    assert result.pending_bound > 0.0


# ---------------------------------------------------------------------------
# Network chaos: the NET matrix
# ---------------------------------------------------------------------------

#: The explicit NET action schedule the matrix cycles through,
#: guaranteeing every seed set covers PARTITION and CORRUPT_FRAME.
NET_ACTIONS = (
    FaultAction.PARTITION,
    FaultAction.CORRUPT_FRAME,
    FaultAction.DUP_FRAME,
    FaultAction.RECONNECT_STORM,
)


def net_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                site=FaultSite.NET,
                action=NET_ACTIONS[seed % len(NET_ACTIONS)],
                target=str(seed % 2),
                nth=2 + (seed // 2) % 3,
                times=1,
            )
        ],
        seed=seed,
    )


@pytest.mark.parametrize("algorithm", ENGINES)
def test_net_matrix_converges_bit_identical(database, ranking, algorithm):
    """20 seeds × 3 engines: every NET action (partition, frame
    corruption, duplication, reconnect storm) lands mid-query and the
    merged answer must still be a correct top-k of the single-process
    ranking (the name predates closed ties: roots tied at the k-th score
    may stand in for one another)."""
    recovered = 0
    for seed in SEEDS:
        with Coordinator(
            database,
            shards=2,
            step_operations=30,
            recovery_store=MemoryRecoveryStore(),
            max_failovers=8,
            **FAST_LADDER,
        ) as coordinator:
            result = coordinator.run_query(
                QUERY,
                K,
                algorithm=algorithm,
                faults=net_plan(seed),
            )
        assert not result.degraded, (seed, algorithm)
        assert result.missing_shards == []
        assert_same_topk(ranking, result, (seed, algorithm))
        recovered += result.failovers + result.reconnects
    # The matrix must actually disturb the link, not schedule faults
    # that land after the query finished (DUP_FRAME recovers silently,
    # so the floor is the non-duplicate share of the schedule).
    assert recovered >= len(SEEDS) // 4


@pytest.mark.parametrize("seed", range(6))
def test_seeded_net_chaos_converges_bit_identical(database, ranking, seed):
    """The randomized plan generator (multiple rules, seeded actions /
    targets / trigger points)."""
    with Coordinator(
        database,
        shards=2,
        step_operations=30,
        recovery_store=MemoryRecoveryStore(),
        max_failovers=8,
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(
            QUERY, K, faults=FaultPlan.net_chaos(seed, shards=2)
        )
    assert not result.degraded, seed
    assert_same_topk(ranking, result)


#: Shard 0 answers every RPC 0.15 s late: below the RPC timeout, so the
#: retry ladder never trips, and above the lowered latency floor.
SLOW_SHARD_0 = FaultPlan(
    [
        FaultRule(
            site=FaultSite.WORKER_RPC,
            action=FaultAction.SLOW_PIPE,
            target="0",
            every=1,
            times=100,
            delay_seconds=0.15,
        )
    ],
    seed=4,
)

#: Skew piles documents onto shard 0, which ``SLOW_SHARD_0`` throttles.
SKEWED = dict(skew=0.6, partition_seed=3, step_operations=10)


@pytest.fixture
def eager_rebalance(monkeypatch):
    """A rebalancing trigger quicker than the production one."""
    monkeypatch.setattr(coordinator_module, "REBALANCE_MIN_LATENCY_SECONDS", 0.1)
    monkeypatch.setattr(coordinator_module, "REBALANCE_LATENCY_FACTOR", 2.0)
    monkeypatch.setattr(coordinator_module, "REBALANCE_SLOW_ROUNDS", 2)


def test_slow_shard_is_rebalanced_by_checkpoint_shipping(
    database, ranking, eager_rebalance
):
    """Live rebalancing: a skewed partition plus a persistently throttled
    shard must trigger migration — the coordinator ships the shard's
    newest checkpoint generation to a fresh worker — and the answer must
    still match the single-process run."""
    with Coordinator(
        database,
        shards=2,
        recovery_store=MemoryRecoveryStore(),
        **SKEWED,
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=SLOW_SHARD_0)
        health = coordinator.health()
    assert result.rebalances >= 1, result.rounds
    assert health["rebalances"] == result.rebalances
    assert result.failovers == 0  # migration, not crash recovery
    assert not result.degraded
    assert_same_topk(ranking, result)


def test_rebalance_disabled_keeps_the_slow_shard(database, ranking, eager_rebalance):
    with Coordinator(
        database,
        shards=2,
        recovery_store=MemoryRecoveryStore(),
        rebalance=False,
        **SKEWED,
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=SLOW_SHARD_0)
    assert result.rebalances == 0
    assert not result.degraded
    assert_same_topk(ranking, result)


def test_rebalance_replacement_that_fails_to_spawn_is_failed_over(
    database, ranking, eager_rebalance, monkeypatch
):
    """The replacement a rebalance boots never comes up: the shard is
    left to the next step's failover ladder, which boots another."""
    real_spawn = SocketTransport.spawn
    spawns = {"0": 0}

    def spawn_once_failing(self):
        if self.shard_id == 0:
            spawns["0"] += 1
            if spawns["0"] == 2:  # the first replacement
                raise WorkerLostError(0, "spawn_failed")
        real_spawn(self)

    monkeypatch.setattr(SocketTransport, "spawn", spawn_once_failing)
    with Coordinator(
        database,
        shards=2,
        recovery_store=MemoryRecoveryStore(),
        **SKEWED,
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, faults=SLOW_SHARD_0)
    assert spawns["0"] >= 3
    assert result.rebalances >= 1
    assert result.failovers >= 1
    assert not result.degraded
    assert_same_topk(ranking, result)


@pytest.mark.parametrize("seed", range(8))
def test_engine_level_chaos_terminates_with_sound_certificates(
    database, ranking, seed
):
    """Engine-internal faults (queue errors, crashes, drops) inside the
    workers: the cluster query always terminates, and any degradation is
    covered by the certificate."""
    with Coordinator(
        database,
        shards=2,
        step_operations=60,
        recovery_store=MemoryRecoveryStore(),
        **FAST_LADDER,
    ) as coordinator:
        result = coordinator.run_query(
            QUERY,
            K,
            faults=FaultPlan.chaos(seed),
            engine_retry_policy=FAST_RETRY,
        )
    assert_exact_or_certified(ranking, result)
