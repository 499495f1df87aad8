"""Whirlpool-M's one engine lock: where its threads wait, and what a
segment leaves behind.

A W-M thread holds the run's engine lock for a step's bookkeeping and
waits for work on a condition of that lock; a put into its queue wakes
it, and the end of a segment wakes every thread still waiting, which
then exits.  These tests drive real runs through those two hand-offs:

- a segment that a checkpoint ends stops threads blocked on empty
  queues, returns with every thread joined, and leaves every live match
  in a queue — the in-flight count and the queued matches agree;
- under a short switch interval, with several threads per server, every
  match put into a queue is popped exactly once.
"""

import sys
import threading
from collections import Counter

import pytest

from repro.core.engine import Engine
from repro.core.queues import MatchQueue
from repro.core.whirlpool_m import WhirlpoolM
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.recovery import CheckpointPolicy

from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 12


@pytest.fixture(scope="module")
def engine(xmark_db_large):
    return Engine(xmark_db_large, QUERY)


@pytest.fixture(scope="module")
def ranking(engine):
    return full_ranking(engine)


def _run(engine, **options):
    return WhirlpoolM(
        pattern=engine.pattern,
        index=engine.index,
        score_model=engine.score_model,
        k=K,
        **options,
    ).run()


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
        # on a slow index: the main thread gets in at its 5 ms polls.
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
            put[self._site, match.match_id] += 1
            original_put(self, match)

        def counted_get(self):
            match = original_get(self)
            if match is not None:
                popped[self._site, match.match_id] += 1
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
