"""Tests for the four server-queue prioritization policies."""

import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue, QueuePolicy
from repro.xmldb.model import Database, XMLNode


def _matches(specs):
    """specs: list of (score, bound) -> matches created in order."""
    db = Database.from_roots([XMLNode("r") for _ in specs])
    out = []
    for document, (score, bound) in zip(db.documents, specs):
        match = PartialMatch.initial(document.root)
        match.score = score
        match.upper_bound = bound
        out.append(match)
    return out


class TestPolicies:
    def test_fifo_order(self):
        queue = MatchQueue(QueuePolicy.FIFO)
        matches = _matches([(0.9, 0.9), (0.1, 0.1), (0.5, 0.5)])
        for match in matches:
            queue.put(match)
        assert [queue.get_nowait() for _ in range(3)] == matches

    def test_current_score_order(self):
        queue = MatchQueue(QueuePolicy.CURRENT_SCORE)
        matches = _matches([(0.1, 0.9), (0.8, 0.8), (0.5, 1.5)])
        for match in matches:
            queue.put(match)
        scores = [queue.get_nowait().score for _ in range(3)]
        assert scores == [0.8, 0.5, 0.1]

    def test_max_final_score_order(self):
        queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
        matches = _matches([(0.1, 0.9), (0.8, 0.8), (0.5, 1.5)])
        for match in matches:
            queue.put(match)
        bounds = [queue.get_nowait().upper_bound for _ in range(3)]
        assert bounds == [1.5, 0.9, 0.8]

    def test_max_next_score_order(self):
        contributions = {7: 0.5}
        queue = MatchQueue(
            QueuePolicy.MAX_NEXT_SCORE, server_id=7, max_contributions=contributions
        )
        matches = _matches([(0.1, 0.0), (0.3, 0.0)])
        for match in matches:
            queue.put(match)
        scores = [queue.get_nowait().score for _ in range(2)]
        assert scores == [0.3, 0.1]

    def test_max_next_requires_configuration(self):
        with pytest.raises(ValueError):
            MatchQueue(QueuePolicy.MAX_NEXT_SCORE)

    def test_ties_break_by_arrival(self):
        queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
        matches = _matches([(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)])
        for match in matches:
            queue.put(match)
        assert [queue.get_nowait() for _ in range(3)] == matches


_BOUNDS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]) | st.floats(0.0, 4.0)


@pytest.mark.parametrize("shared", [True, False])
@given(ops=st.lists(st.none() | _BOUNDS, max_size=40))
def test_max_final_score_pops_by_bound_then_arrival(shared, ops):
    """A max-final-score queue computes its key (``-upper_bound``) in
    ``put``: under any sequence of puts (a bound) and pops (``None``) it
    hands out what a sort by ``(-upper_bound, arrival)`` of the queued
    matches puts first — key ties, in arrival order."""
    bounds = [bound for bound in ops if bound is not None]
    matches = iter(_matches([(0.0, bound) for bound in bounds]))
    queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE, shared=shared)
    queued = []
    for op in ops:
        if op is None:
            expected = min(queued, key=lambda m: (-m.upper_bound, m.arrival), default=None)
            if expected is not None:
                queued.remove(expected)
            assert queue.get_nowait() is expected
        else:
            match = next(matches)
            queue.put(match)
            queued.append(match)
    assert queue.drain() == sorted(queued, key=lambda m: (-m.upper_bound, m.arrival))


class TestQueueMechanics:
    def test_get_nowait_empty(self):
        assert MatchQueue().get_nowait() is None

    def test_len_and_empty(self):
        queue = MatchQueue()
        assert queue.empty() and len(queue) == 0
        queue.put(_matches([(0.1, 0.1)])[0])
        assert not queue.empty() and len(queue) == 1

    def test_drain_returns_priority_order(self):
        queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
        matches = _matches([(0.1, 0.2), (0.1, 0.9)])
        for match in matches:
            queue.put(match)
        drained = queue.drain()
        assert [m.upper_bound for m in drained] == [0.9, 0.2]
        assert queue.empty()

    def test_get_timeout_returns_none(self):
        queue = MatchQueue()
        start = time.perf_counter()
        assert queue.get(timeout=0.05) is None
        assert time.perf_counter() - start >= 0.04

    def test_blocking_get_receives_put(self):
        queue = MatchQueue()
        match = _matches([(0.5, 0.5)])[0]
        received = []

        def consumer():
            received.append(queue.get(timeout=2.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        queue.put(match)
        thread.join(timeout=2.0)
        assert received == [match]

    def test_close_unblocks_getters(self):
        queue = MatchQueue()
        results = []

        def consumer():
            results.append(queue.get(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        queue.close()
        thread.join(timeout=2.0)
        assert results == [None]
        assert not thread.is_alive()


def _wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def _getter(queue, out, **kwargs):
    thread = threading.Thread(target=lambda: out.append(queue.get(**kwargs)), daemon=True)
    thread.start()
    return thread


class TestWakeUps:
    """A put notifies only when a getter is waiting (``_waiters``, kept
    under the queue's lock) — and then it must."""

    def test_blocked_getter_is_woken_by_one_put_and_by_close(self):
        queue = MatchQueue()
        match = _matches([(0.5, 0.5)])[0]
        received = []
        thread = _getter(queue, received)
        _wait_for(lambda: queue._waiters == 1)  # blocked, not about to block
        queue.put(match)
        thread.join(timeout=5.0)
        assert not thread.is_alive() and received == [match]
        assert queue._waiters == 0

        thread = _getter(queue, received)
        _wait_for(lambda: queue._waiters == 1)
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and received == [match, None]
        assert queue._waiters == 0

    def test_timed_out_get_leaves_no_waiter_behind(self):
        queue = MatchQueue()
        first, second = _matches([(0.1, 0.1), (0.2, 0.2)])
        assert queue.get(timeout=0.01) is None
        assert queue._waiters == 0
        notified = []
        notify = queue._not_empty.notify
        queue._not_empty.notify = lambda: (notified.append(1), notify())
        queue.put(first)  # nobody waits: the put stays cheap
        assert notified == [] and queue.get_nowait() is first
        received = []
        thread = _getter(queue, received)
        _wait_for(lambda: queue._waiters == 1)
        queue.put(second)  # ... and a later getter is still woken
        thread.join(timeout=5.0)
        assert not thread.is_alive() and received == [second] and notified == [1]

    def test_getters_and_putters_lose_and_duplicate_nothing(self):
        getters, putters, each = 4, 4, 2000
        root = Database.from_roots([XMLNode("r")]).documents[0].root
        batches = [[PartialMatch.initial(root) for _ in range(each)] for _ in range(putters)]
        queue = MatchQueue()
        got = [[] for _ in range(getters)]

        def consume(mine):
            while True:
                match = queue.get()
                if match is None:
                    return
                mine.append(match.match_id)

        def produce(batch):
            for match in batch:
                queue.put(match)

        threads = [
            threading.Thread(target=consume, args=(mine,), daemon=True) for mine in got
        ] + [threading.Thread(target=produce, args=(batch,), daemon=True) for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[getters:]:
                thread.join(timeout=60.0)
            _wait_for(lambda: sum(len(mine) for mine in got) == putters * each, seconds=60.0)
            queue.close()
            for thread in threads[:getters]:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        delivered = sorted(match_id for mine in got for match_id in mine)
        assert delivered == sorted(match.match_id for batch in batches for match in batch)
        assert queue._waiters == 0 and queue.empty()


class TestHeapProperty:
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=20))
    def test_max_final_is_always_nonincreasing(self, raw):
        specs = [(score, score + extra) for score, extra in raw]
        queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
        for match in _matches(specs):
            queue.put(match)
        bounds = []
        while True:
            match = queue.get_nowait()
            if match is None:
                break
            bounds.append(match.upper_bound)
        assert bounds == sorted(bounds, reverse=True)
