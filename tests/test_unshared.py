"""No run's state has a lock of its own, and a run that one thread drives
takes no lock at all.

The statistics, top-k set, queues and supervisor are plain objects.
Whirlpool-S, LockStep and LockStep-NoPrun drive them from one thread and
take no lock round per report, prune test, put, get or routing decision;
Whirlpool-M shares them among its threads under its one engine lock,
which a thread takes once for a step's bookkeeping and lets go of only
where it waits (:mod:`repro.core.whirlpool_m`).

Pinned here, for every instance a run builds of the four classes —
a budget-stepped run's and a restored run's included: none has a lock of
its own; a single-threaded run acquires no lock; and a Whirlpool-M run,
at one thread per server and at two, acquires at most one lock per step
(routing decision or server operation).
"""

import pytest

from repro.bench.hot_path import counting_locks
from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.core.queues import MatchQueue
from repro.core.stats import ExecutionStats
from repro.core.topk import TopKSet
from repro.core.whirlpool_m import WhirlpoolM
from repro.faults.supervisor import Supervisor
from repro.recovery import CheckpointPolicy

#: The four classes a run shares among its steps.
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


def _assert_lock_free(made):
    assert {type(instance) for instance in made} == set(DECLARED)
    for instance in made:
        assert not hasattr(instance, "_lock"), type(instance).__name__


@pytest.fixture(scope="module")
def engine(xmark_db):
    engine = Engine(xmark_db, QUERIES["Q2"])
    for algorithm in SINGLE_THREADED:
        engine.run(5, algorithm)  # fills the probe memos
    return engine


SINGLE_THREADED = ["whirlpool_s", "lockstep", "lockstep_noprun"]


class TestWhoDeclaresWhat:
    @pytest.mark.parametrize("algorithm", SINGLE_THREADED)
    def test_single_threaded_runs_build_unshared_state(self, engine, built, algorithm):
        rounds = [0]
        with counting_locks(rounds):
            engine.open(5, algorithm).run()
        assert rounds == [0]
        _assert_lock_free(built)

    @pytest.mark.parametrize("algorithm", SINGLE_THREADED)
    def test_stepped_runs_build_unshared_state(self, engine, built, algorithm):
        rounds = [0]
        with counting_locks(rounds):
            run = engine.open(5, algorithm, max_operations=3)
            first = run.run()
            assert first.degraded
            run.max_operations = None
            assert not run.run().degraded
        assert rounds == [0]
        _assert_lock_free(built)

    @pytest.mark.parametrize("algorithm", SINGLE_THREADED)
    def test_restored_runs_build_unshared_state(self, engine, built, algorithm):
        crashed = engine.open(
            5, algorithm, checkpoint_policy=CheckpointPolicy(every_operations=5)
        )
        crashed.run()
        snapshot = crashed.last_checkpoint
        assert snapshot is not None
        built.clear()
        rounds = [0]
        with counting_locks(rounds):
            engine.open(5, algorithm, restore_from=snapshot).run()
        assert rounds == [0]
        _assert_lock_free(built)

    def test_whirlpool_m_runs_build_shared_state(self, engine, built):
        rounds = [0]
        with counting_locks(rounds):
            result = engine.open(5, "whirlpool_m").run()
        stats = result.stats
        assert 0 < rounds[0] <= stats.routing_decisions + stats.server_operations
        _assert_lock_free(built)

    def test_whirlpool_m_with_two_threads_per_server_builds_shared_state(
        self, engine, built
    ):
        rounds = [0]
        with counting_locks(rounds):
            result = WhirlpoolM(
                pattern=engine.pattern,
                index=engine.index,
                score_model=engine.score_model,
                k=5,
                threads_per_server=2,
                # The Engine's warm memos and bound table, as a run it
                # opens gets them.
                probe_memos=engine._probe_memos["index"],
                root_bounds=engine.root_bounds,
                candidate_roots=engine.candidate_roots,
            ).run()
        assert result.answers
        stats = result.stats
        assert 0 < rounds[0] <= stats.routing_decisions + stats.server_operations
        _assert_lock_free(built)
