"""Crash-recovery matrix: kill an engine mid-flight, restore, compare.

The CRASH fault action aborts a run with
:class:`~repro.errors.EngineCrashError` — unlike ERROR it is not
retryable and unlike DROP it loses nothing silently, because the engine's
last checkpoint (when one was taken) still describes every queued match,
the top-k set, and the ``pending_bound`` certificate.  The contract under
test: **restore + resume produces a correct top-k** (the shared rule of
``repro.core.topk.topk_mismatch`` against LockStep-NoPrun: the scores, and
the roots up to ties at the k-th), for every chaos seed, on all three engines — and
Whirlpool-M, which snapshots between thread segments, does it with zero
race-detector findings.
"""

import pytest

from repro.analysis.racecheck import RaceCheck
from repro.core.engine import Engine
from repro.errors import EngineCrashError
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.recovery import CheckpointPolicy
from tests.conftest import assert_certified, assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 8

CHAOS_SEEDS = range(20)
ALGORITHMS = ["whirlpool_s", "whirlpool_m", "lockstep"]

#: A checkpoint every 4 % of the fault-free run's operations.
CHECKPOINT_SHARE = 0.04

#: Chaos action pool for this matrix: pure crash schedules, so every
#: fired rule kills the run and recovery is exercised on each seed that
#: fires at all.  (The default pool is untouched — adding CRASH there
#: would silently reshuffle every existing chaos seed's schedule.)
CRASH_ACTIONS = (FaultAction.CRASH,)


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, QUERY)


@pytest.fixture(scope="module")
def ranking(engine):
    return full_ranking(engine)


@pytest.fixture(scope="module")
def shape(shapes, engine):
    """Whirlpool-S's fault-free run of the query, which the faults aim at."""
    return shapes.engine(engine, K)


def crash_then_recover(engine, algorithm, plan, shape):
    """Run under ``plan``, checkpointing every ``CHECKPOINT_SHARE`` of
    ``shape``; on a crash, restore the last checkpoint into a fault-free
    engine and run to completion.  Returns (final result, crashed?,
    snapshots taken)."""
    snapshots = []
    try:
        result = engine.run(
            K,
            algorithm=algorithm,
            faults=plan,
            checkpoint_policy=CheckpointPolicy(
                every_operations=shape.budget(CHECKPOINT_SHARE)
            ),
            checkpoint_sink=snapshots.append,
        )
        return result, False, snapshots
    except EngineCrashError:
        restore_from = snapshots[-1] if snapshots else None
        result = engine.run(K, algorithm=algorithm, restore_from=restore_from)
        return result, True, snapshots


class TestCrashMatrix:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_crash_equivalence(self, engine, ranking, shape, algorithm, seed):
        plan = FaultPlan.chaos(seed, actions=CRASH_ACTIONS)
        result, crashed, snapshots = crash_then_recover(engine, algorithm, plan, shape)
        del crashed  # equivalence must hold whether or not the plan fired
        assert not result.degraded
        assert_same_topk(ranking, result)
        # Every checkpoint's certificate is a finite, sane bound.
        for snapshot in snapshots:
            assert 0.0 <= snapshot["pending_bound"] != float("inf")

    def test_deterministic_crash_site_recovers(self, engine, ranking, shape):
        """A guaranteed crash (the busiest server's middle operation) still
        round-trips."""
        nth = shape.nth("server_op", "middle")
        plan = FaultPlan(
            [FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=nth, times=1)]
        )
        result, crashed, snapshots = crash_then_recover(engine, "whirlpool_s", plan, shape)
        assert crashed
        assert snapshots, "a checkpoint should precede the crash"
        assert_same_topk(ranking, result)

    def test_drop_before_checkpoint_carries_loss_through_recovery(
        self, engine, ranking, shape
    ):
        """A DROP that fired *before* the last checkpoint is work the
        snapshot can never describe as queued — the dropped match is gone
        from every queue.  The snapshot's ``lost`` record must carry it,
        so the restored run reports degraded with a certificate covering
        the dropped answer instead of claiming exactness.  (Found by the
        simulation explorer; see docs/simulation.md.)"""
        # The drop takes the run's first operation; the crash comes
        # checkpoints later, at the middle queue pop.
        plan = FaultPlan(
            [
                FaultRule(
                    FaultSite.SERVER_OP,
                    FaultAction.DROP,
                    nth=shape.nth("server_op", "first"),
                    times=1,
                ),
                FaultRule(
                    FaultSite.QUEUE_GET,
                    FaultAction.CRASH,
                    nth=shape.nth("queue_get", "middle"),
                    times=1,
                ),
            ]
        )
        result, crashed, snapshots = crash_then_recover(engine, "whirlpool_s", plan, shape)
        assert crashed
        assert snapshots
        assert "lost" in snapshots[-1], "checkpoint must record the dropped work"
        assert result.degraded
        # Certificate soundness: every root the recovered run lost scores
        # at or below what it certifies.
        assert_certified(ranking, result)

    def test_drop_after_checkpoint_is_healed_by_restore(self, engine, ranking, shape):
        """The converse timing: a DROP *after* the last checkpoint is
        healed for free — the snapshot still holds the match, and the
        fault-free resumed run re-processes it to the exact answer."""
        # The drop at the busiest server's middle operation and the crash
        # at the operation after it both land after the first checkpoint.
        middle = shape.nth("server_op", "middle")
        every = shape.budget(CHECKPOINT_SHARE)
        assert every < middle < shape.busiest("server_op")
        plan = FaultPlan(
            [
                FaultRule(FaultSite.SERVER_OP, FaultAction.DROP, nth=middle, times=1),
                FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=middle + 1, times=1),
            ]
        )
        snapshots = []
        with pytest.raises(EngineCrashError):
            engine.run(
                K,
                algorithm="whirlpool_s",
                faults=plan,
                checkpoint_policy=CheckpointPolicy(every_operations=every),
                checkpoint_sink=snapshots.append,
            )
        assert snapshots and "lost" not in snapshots[0]
        result = engine.run(K, algorithm="whirlpool_s", restore_from=snapshots[0])
        assert not result.degraded
        assert_same_topk(ranking, result)

    def test_crash_error_is_not_retried(self, engine):
        """CRASH escalates straight out of the run — no retry/requeue."""
        plan = FaultPlan(
            [FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=3, times=1)]
        )
        with pytest.raises(EngineCrashError):
            engine.run(K, algorithm="whirlpool_s", faults=plan)

    def test_whirlpool_m_crash_joins_workers(self, engine):
        """The M engine re-raises the crash only after its pool is down —
        no daemon thread keeps mutating shared state post-raise."""
        import threading

        before = {
            thread.name for thread in threading.enumerate() if thread.is_alive()
        }
        plan = FaultPlan(
            [FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=5, times=1)]
        )
        with pytest.raises(EngineCrashError):
            engine.run(K, algorithm="whirlpool_m", faults=plan)
        lingering = {
            thread.name
            for thread in threading.enumerate()
            if thread.is_alive()
            and thread.name.startswith(("whirlpool-router", "whirlpool-server"))
        } - before
        assert lingering == set()


class TestSegmentRaceFreedom:
    def test_m_checkpoint_and_crash_have_zero_findings(self, xmark_db):
        """Whirlpool-M under checkpoints + a crash, watched by the race
        detector: a snapshot is taken only with the segment's threads
        joined."""
        with RaceCheck() as check:
            engine = Engine(xmark_db, QUERY)
            ranking = full_ranking(engine)
            snapshots = []
            plan = FaultPlan(
                [FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=11, times=1)]
            )
            try:
                engine.run(
                    K,
                    algorithm="whirlpool_m",
                    faults=plan,
                    checkpoint_policy=CheckpointPolicy(every_operations=3),
                    checkpoint_sink=snapshots.append,
                )
            except EngineCrashError:
                pass
            restore_from = snapshots[-1] if snapshots else None
            result = engine.run(K, algorithm="whirlpool_m", restore_from=restore_from)
        assert check.findings() == [], check.report()
        assert_same_topk(ranking, result)
