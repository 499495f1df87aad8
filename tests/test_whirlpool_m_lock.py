"""Whirlpool-M's one engine lock: where its threads wait, and what a
segment leaves behind.

A W-M thread holds the run's engine lock for a step's bookkeeping and
waits for work on a condition of that lock; a put into its queue wakes
it, and the end of a segment wakes every thread still waiting, which
then exits.  These tests drive real runs through those two hand-offs:

- a segment that a checkpoint ends stops threads blocked on empty
  queues, returns with every thread joined, and leaves every live match
  in a queue — the in-flight count and the queued matches agree;
- the step that makes a checkpoint due ends its segment, so snapshots
  come at the policy's interval;
- under a short switch interval, with several threads per server, every
  match put into a queue is popped exactly once;
- an injected queue DELAY sleeps without the engine lock: the run's
  other threads keep stepping meanwhile.
"""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.core.engine import Engine
from repro.core.queues import MatchQueue
from repro.core.trace import EngineObserver
from repro.core.whirlpool_m import WhirlpoolM
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.recovery import CheckpointPolicy
from repro.sim.clock import RealClock, use_clock

from tests.conftest import COUNT_EVERY_SITE, assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 12


@pytest.fixture(scope="module")
def engine(xmark_db_large):
    return Engine(xmark_db_large, QUERY)


@pytest.fixture(scope="module")
def ranking(engine):
    return full_ranking(engine)


def _open(engine, **options):
    return WhirlpoolM(
        pattern=engine.pattern,
        index=engine.index,
        score_model=engine.score_model,
        k=K,
        **options,
    )


def _run(engine, **options):
    return _open(engine, **options).run()


def _engine_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("whirlpool-router", "whirlpool-server"))
    ]


class _Woken(threading.Condition):
    """A condition that records how many waiters each ``notify_all`` found."""

    found = []

    def notify_all(self):
        _Woken.found.append(len(self._waiters))
        super().notify_all()


class TestSegmentEnd:
    def test_a_segment_stops_threads_blocked_on_empty_queues_and_loses_no_match(
        self, engine, ranking, monkeypatch
    ):
        monkeypatch.setattr(threading, "Condition", _Woken)
        monkeypatch.setattr(_Woken, "found", [])
        segments = []
        original = WhirlpoolM._segment

        def segment(self, queues, ready, in_flight):
            crash = original(self, queues, ready, in_flight)
            # Back under the engine lock, every thread joined: each live
            # match is in a queue.
            segments.append(
                (_engine_threads(), sum(len(queue) for queue in queues.values()), in_flight.count)
            )
            return crash

        monkeypatch.setattr(WhirlpoolM, "_segment", segment)
        # Each operation waits a little, with the engine lock released, as
        # on a slow index, so threads are often waiting when a step ends
        # the segment.
        slow = FaultPlan(
            [FaultRule(FaultSite.SERVER_OP, FaultAction.DELAY, every=1, delay_seconds=0.0005)]
        )
        result = _run(
            engine,
            threads_per_server=2,
            faults=slow,
            checkpoint_policy=CheckpointPolicy(every_operations=5),
        )
        assert len(segments) > 2
        for alive, queued, in_flight in segments:
            assert alive == []
            assert queued == in_flight
        assert segments[-1][2] == 0  # the last segment drained the work
        # Some segment ended with threads waiting on empty queues: its stop
        # woke them, and they were joined above.
        assert max(_Woken.found) > 0
        assert_same_topk(ranking, result)


class TestHandOffs:
    def test_every_queued_match_is_popped_once(self, engine, ranking, monkeypatch):
        put, popped = Counter(), Counter()
        original_put, original_get = MatchQueue.put, MatchQueue.get_nowait

        # A match passes through the router's queue and then a server's.
        def counted_put(self, match):
            put[id(self), match.match_id] += 1
            original_put(self, match)

        def counted_get(self):
            match = original_get(self)
            if match is not None:
                popped[id(self), match.match_id] += 1
            return match

        monkeypatch.setattr(MatchQueue, "put", counted_put)
        monkeypatch.setattr(MatchQueue, "get_nowait", counted_get)
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                put.clear()
                popped.clear()
                result = _run(engine, threads_per_server=3)
                assert_same_topk(ranking, result)
                assert popped == put
                assert set(put.values()) == {1}
        finally:
            sys.setswitchinterval(saved)
        assert _engine_threads() == []


class TestCheckpointSpacing:
    def test_the_step_that_makes_a_checkpoint_due_ends_the_segment(self, engine, ranking):
        """A server thread whose step makes the checkpoint due ends the
        segment at once.  Each other server thread may still finish the
        step it has in hand, so consecutive snapshots (and the first,
        from operation 0) lie ``every`` to ``every + servers - 1``
        operations apart; the run's end is a quiesce point too."""
        every = 5
        snapshots = []
        run = _open(
            engine,
            checkpoint_policy=CheckpointPolicy(every_operations=every),
            checkpoint_sink=snapshots.append,
        )
        result = run.run()
        assert_same_topk(ranking, result)
        servers = len(run.server_ids) * run.threads_per_server
        operations = [0] + [snapshot["operations"] for snapshot in snapshots]
        gaps = [after - before for before, after in zip(operations, operations[1:])]
        assert gaps and all(every <= gap <= every + servers - 1 for gap in gaps), gaps
        assert result.stats.server_operations - operations[-1] < every


class _Stamps(EngineObserver):
    """Records the thread and the time of every engine event."""

    def __init__(self):
        self.stamps = []

    def _stamp(self, *args):
        self.stamps.append((threading.current_thread().name, time.monotonic()))

    on_seed = on_route = on_extension = on_prune = on_queue_depth = _stamp


class _SleepLog(RealClock):
    """A real clock that records which thread slept, from when to when."""

    def __init__(self):
        self.sleeps = []

    def sleep(self, seconds):
        start = time.monotonic()
        super().sleep(seconds)
        self.sleeps.append((threading.current_thread().name, start, time.monotonic()))


class TestUnlockedHooks:
    def test_a_queue_delay_sleeps_without_the_engine_lock(self, engine, ranking):
        """One ``QUEUE_GET`` DELAY, at the third pop of the busiest
        server's queue, and one ``QUEUE_PUT`` DELAY, at a server thread's
        third put into the router's queue (the seeds are put first, by
        the main thread): each sleeps on a server thread while another
        thread completes a step — an observer event inside the sleep."""
        counted = _run(engine, faults=COUNT_EVERY_SITE).failure.injection["site_counts"]
        busiest = max(
            (count, key.split(":", 1)[1])
            for key, count in counted.items()
            if key.startswith("queue_get:server:")
        )[1]
        seeds = len(engine.candidate_roots.roots)
        plan = FaultPlan(
            [
                FaultRule(
                    FaultSite.QUEUE_GET, FaultAction.DELAY, target=busiest, nth=3,
                    delay_seconds=0.2,
                ),
                FaultRule(
                    FaultSite.QUEUE_PUT, FaultAction.DELAY, target="router",
                    nth=seeds + 3, delay_seconds=0.2,
                ),
            ]
        )
        observer = _Stamps()
        with use_clock(_SleepLog()) as clock:
            result = _run(engine, faults=plan, observer=observer)
        assert_same_topk(ranking, result)
        assert len(clock.sleeps) == 2, clock.sleeps
        for sleeper, start, end in clock.sleeps:
            assert sleeper.startswith("whirlpool-server"), sleeper
            assert any(
                name != sleeper and start < stamp < end for name, stamp in observer.stamps
            ), (sleeper, end - start)
