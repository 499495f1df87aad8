"""A run that one thread drives declares its state unshared, and the
unshared state behaves exactly like the shared.

``EngineBase(shared=...)`` is the one declaration: Whirlpool-M passes
``True`` and its statistics, top-k set, queues and supervisor take their
locks; Whirlpool-S, LockStep and LockStep-NoPrun leave it ``False`` and
build all four without one (``_lock is None``), which saves a lock round
trip per report, prune test, put, get and routing decision.

Two things are pinned here:

- **the two bodies agree** — a shared and an unshared :class:`TopKSet`,
  :class:`MatchQueue` and :class:`Supervisor` driven by one generated
  call sequence (tie-heavy scores, repeated roots, every queue policy)
  return the same value from every call and hold the same state after it;
- **who declares what** — every instance a W-S / LockStep /
  LockStep-NoPrun run builds is unshared, a budget-stepped run's and a
  restored run's included, and every instance a Whirlpool-M run builds is
  shared, at one thread per server and at two.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue, QueuePolicy
from repro.core.stats import ExecutionStats
from repro.core.topk import TopKSet, bound_factor, ranked
from repro.core.whirlpool_m import WhirlpoolM
from repro.errors import EngineError
from repro.faults.supervisor import RetryPolicy, Supervisor
from repro.recovery import CheckpointPolicy
from repro.xmldb.model import Database, XMLNode

#: Few distinct values, so ties — at the k-th score, between a root's
#: partial and completed score, between queue keys — are the common case.
SCORES = (0.0, 0.5, 1.0, 1.5, 2.0)
ROOTS = [doc.root for doc in Database.from_roots([XMLNode("book") for _ in range(6)]).documents]


def _match(root_index, score, slack):
    match = PartialMatch.initial(ROOTS[root_index])
    match.score = score
    match.upper_bound = score + slack
    return match


_calls = st.tuples(
    st.sampled_from(["observe", "complete", "is_pruned", "closes", "threshold", "closing"]),
    st.integers(0, len(ROOTS) - 1),
    st.sampled_from(SCORES),
    st.sampled_from((0.0, 0.5, 1.0)),
)


class TestTwoBodiesAgree:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 4),
        source=st.sampled_from(["all", "complete"]),
        calls=st.lists(_calls, max_size=40),
    )
    def test_topk_sets(self, k, source, calls):
        sets = [
            TopKSet(k, source, bound_factor(3), shared=shared) for shared in (True, False)
        ]
        assert sets[0]._lock is not None and sets[1]._lock is None
        for name, root_index, score, slack in calls:
            match = _match(root_index, score, slack)  # one object, shown to both
            results = []
            for topk in sets:
                if name in ("observe", "complete"):
                    results.append(topk.observe(match, complete=name == "complete"))
                elif name == "is_pruned":
                    results.append(topk.is_pruned(match))
                elif name == "closes":
                    results.append(topk.closes(match.upper_bound))
                elif name == "threshold":
                    results.append(topk.threshold())
                else:
                    results.append(topk.closing_level())
            assert results[0] == results[1], name
            assert sets[0].export_state() == sets[1].export_state()
        assert ranked(sets[0].answers()) == ranked(sets[1].answers())
        assert sets[0].snapshot() == sets[1].snapshot()
        assert sets[0].entry_count() == sets[1].entry_count()

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(list(QueuePolicy)),
        calls=st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "get", "head", "len", "snapshot", "drain"]),
                st.integers(0, len(ROOTS) - 1),
                st.sampled_from(SCORES),
                st.sampled_from((0.0, 0.5, 1.0)),
            ),
            max_size=40,
        ),
    )
    def test_match_queues(self, policy, calls):
        maxima = {1: 1.0}
        queues = [
            MatchQueue(policy, server_id=1, max_contributions=maxima, shared=shared)
            for shared in (True, False)
        ]
        assert queues[0]._lock is not None and queues[1]._lock is None
        for name, root_index, score, slack in calls:
            match = _match(root_index, score, slack)
            results = []
            for queue in queues:
                if name == "put":
                    results.append(queue.put(match))
                elif name == "get":
                    results.append(queue.get_nowait())
                elif name == "head":
                    results.append(queue.head())
                elif name == "len":
                    results.append(len(queue))
                elif name == "snapshot":
                    results.append(queue.snapshot())
                else:
                    results.append(queue.drain())
            assert results[0] == results[1], name
            assert queues[0].snapshot() == queues[1].snapshot()

    @settings(max_examples=150, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(
                    ["error", "error", "excluded", "abandon", "component", "checkpoint"]
                ),
                st.integers(0, 1),
                st.integers(1, 2),
                st.booleans(),
            ),
            max_size=30,
        ),
    )
    # A retry, then a requeue that excludes server 1 for match 0.
    @example(calls=[("error", 0, 1, True), ("error", 0, 1, True), ("excluded", 0, 1, True)])
    def test_supervisors(self, calls):
        policy = RetryPolicy(max_attempts=2, requeue_limit=1, base_delay=0.0, max_delay=0.0)
        supervisors = [Supervisor(policy, shared=shared) for shared in (True, False)]
        assert supervisors[0]._lock is not None and supervisors[1]._lock is None
        matches = [_match(index, 0.5, 1.0) for index in range(2)]
        for step, (name, match_index, server_id, alternatives) in enumerate(calls):
            match = matches[match_index]
            error = RuntimeError(f"step {step}")
            results = []
            for supervisor in supervisors:
                if name == "error":
                    results.append(supervisor.on_error(match, server_id, error, alternatives))
                elif name == "excluded":
                    results.append(supervisor.excluded_for(match.match_id))
                elif name == "abandon":
                    results.append(supervisor.record_abandoned(match, "queue:router", error))
                elif name == "component":
                    results.append(supervisor.record_component_error("router", error))
                else:
                    results.append(supervisor.note_checkpoint({"step": step}))
            assert results[0] == results[1], name
            states = [
                (
                    supervisor.counters(),
                    [failed.as_dict() for failed in supervisor.abandoned()],
                    supervisor.abandoned_count(),
                    supervisor.max_abandoned_bound(),
                    supervisor.last_checkpoint(),
                )
                for supervisor in supervisors
            ]
            assert states[0] == states[1]
        for supervisor in supervisors:
            supervisor.backoff(matches[0].match_id, 1)  # zero delay: returns

    def test_blocking_get_on_an_unshared_queue_raises(self):
        queue = MatchQueue(shared=False, site="router")
        queue.put(_match(0, 1.0, 0.0))
        with pytest.raises(EngineError, match="unshared queue 'router'"):
            queue.get(timeout=0.01)
        assert queue.get_nowait() is not None  # the non-blocking get works


#: The four classes the run-level declaration decides.
DECLARED = (ExecutionStats, TopKSet, MatchQueue, Supervisor)


@pytest.fixture
def built(monkeypatch):
    """Every instance of :data:`DECLARED` built while the test runs."""
    made = []
    for cls in DECLARED:
        original = cls.__init__

        def init(self, *args, __original=original, **kwargs):
            __original(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", init)
    return made


def _assert_declared(made, shared):
    assert {type(instance) for instance in made} == set(DECLARED)
    for instance in made:
        assert (instance._lock is not None) is shared, type(instance).__name__


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, QUERIES["Q2"])


SINGLE_THREADED = ["whirlpool_s", "lockstep", "lockstep_noprun"]


class TestWhoDeclaresWhat:
    @pytest.mark.parametrize("algorithm", SINGLE_THREADED)
    def test_single_threaded_runs_build_unshared_state(self, engine, built, algorithm):
        run = engine.open(5, algorithm)
        assert run.shared is False
        run.run()
        _assert_declared(built, shared=False)

    @pytest.mark.parametrize("algorithm", SINGLE_THREADED)
    def test_stepped_runs_build_unshared_state(self, engine, built, algorithm):
        run = engine.open(5, algorithm, max_operations=3)
        first = run.run()
        assert first.degraded
        run.max_operations = None
        assert not run.run().degraded
        _assert_declared(built, shared=False)

    @pytest.mark.parametrize("algorithm", SINGLE_THREADED)
    def test_restored_runs_build_unshared_state(self, engine, built, algorithm):
        crashed = engine.open(
            5, algorithm, checkpoint_policy=CheckpointPolicy(every_operations=5)
        )
        crashed.run()
        snapshot = crashed.last_checkpoint
        assert snapshot is not None
        built.clear()
        resumed = engine.open(5, algorithm, restore_from=snapshot)
        resumed.run()
        _assert_declared(built, shared=False)

    def test_whirlpool_m_runs_build_shared_state(self, engine, built):
        run = engine.open(5, "whirlpool_m")
        assert run.shared is True
        run.run()
        _assert_declared(built, shared=True)

    def test_whirlpool_m_with_two_threads_per_server_builds_shared_state(
        self, engine, built
    ):
        run = WhirlpoolM(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=5,
            threads_per_server=2,
        )
        assert run.shared is True
        assert run.run().answers
        _assert_declared(built, shared=True)
