"""Tests for the four server-queue prioritization policies."""

import functools

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import Engine
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue, QueuePolicy
from repro.faults import FaultInjector, FaultPlan
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


@functools.lru_cache(maxsize=None)
def _engine():
    return Engine(Database.from_roots([XMLNode("r")]), "//r")


@pytest.mark.parametrize("hooked", [False, True])
@given(ops=st.lists(st.none() | _BOUNDS, max_size=40))
def test_max_final_score_pops_by_bound_then_arrival(hooked, ops):
    """A max-final-score queue computes its key (``-upper_bound``) in
    ``put``: under any sequence of puts (a bound) and pops (``None``) it
    hands out what a sort by ``(-upper_bound, arrival)`` of the queued
    matches puts first — key ties, in arrival order.  ``hooked``: the
    same through the engine's put and pop with an injector whose plan
    fires nothing, so every put and every pop of a match also passes its
    hook."""
    bounds = [bound for bound in ops if bound is not None]
    matches = iter(_matches([(0.0, bound) for bound in bounds]))
    queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
    put, get = queue.put, queue.get_nowait
    if hooked:
        run = _engine().open(1, faults=FaultPlan([]))
        assert isinstance(run.fault_injector, FaultInjector)

        def put(match):
            assert run.put_or_abandon(queue, "router", [match]) == 1

        def get():
            match, lost = run.pop_or_lose(queue, "router")
            assert lost == 0
            return match

    queued = []
    popped = 0
    for op in ops:
        if op is None:
            expected = min(queued, key=lambda m: (-m.upper_bound, m.arrival), default=None)
            if expected is not None:
                queued.remove(expected)
                popped += 1
            assert get() is expected
        else:
            match = next(matches)
            put(match)
            queued.append(match)
    assert queue.drain() == sorted(queued, key=lambda m: (-m.upper_bound, m.arrival))
    if hooked:
        counts = run.fault_injector.summary()["site_counts"]
        assert counts.get("queue_put:router", 0) == len(bounds)
        assert counts.get("queue_get:router", 0) == popped


class TestQueueMechanics:
    def test_get_nowait_empty(self):
        assert MatchQueue().get_nowait() is None

    def test_len_and_empty(self):
        queue = MatchQueue()
        assert len(queue) == 0 and not queue
        queue.put(_matches([(0.1, 0.1)])[0])
        assert len(queue) == 1 and queue

    def test_drain_returns_priority_order(self):
        queue = MatchQueue(QueuePolicy.MAX_FINAL_SCORE)
        matches = _matches([(0.1, 0.2), (0.1, 0.9)])
        for match in matches:
            queue.put(match)
        drained = queue.drain()
        assert [m.upper_bound for m in drained] == [0.9, 0.2]
        assert len(queue) == 0


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
