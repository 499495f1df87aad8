"""Stress tests for the threaded Whirlpool-M: repetition, thread counts,
concurrent engine instances — hunting races and termination bugs."""

import sys
import threading

import pytest

from repro.core.engine import Engine
from repro.core.whirlpool_m import WhirlpoolM
from repro.recovery import CheckpointPolicy


@pytest.fixture(scope="module")
def engine(xmark_db_large):
    return Engine(
        xmark_db_large,
        "//item[./description/parlist and ./mailbox/mail/text]",
    )


@pytest.fixture(scope="module")
def reference(engine):
    return [round(a.score, 9) for a in engine.run(12, algorithm="whirlpool_s").answers]


class TestRepeatedRuns:
    def test_twenty_consecutive_runs_agree(self, engine, reference):
        for _ in range(20):
            result = engine.run(12, algorithm="whirlpool_m")
            assert [round(a.score, 9) for a in result.answers] == reference

    def test_alternating_k(self, engine):
        for k in (1, 7, 3, 15, 2):
            sequential = engine.run(k, algorithm="whirlpool_s")
            threaded = engine.run(k, algorithm="whirlpool_m")
            assert [round(a.score, 9) for a in threaded.answers] == [
                round(a.score, 9) for a in sequential.answers
            ]

    def test_high_thread_counts(self, engine, reference):
        for threads in (2, 4):
            runner = WhirlpoolM(
                pattern=engine.pattern,
                index=engine.index,
                score_model=engine.score_model,
                k=12,
                threads_per_server=threads,
            )
            result = runner.run()
            assert [round(a.score, 9) for a in result.answers] == reference


    def test_segments_under_a_short_switch_interval(self, engine, reference):
        """A checkpoint every 10 operations ends a thread segment each
        time; with four threads per server and a 100 µs switch interval,
        every run keeps the reference scores, its counters add up, and its
        snapshots are counted and at least an interval apart."""
        every = 10
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for _ in range(5):
                snapshots = []
                runner = WhirlpoolM(
                    pattern=engine.pattern,
                    index=engine.index,
                    score_model=engine.score_model,
                    k=12,
                    threads_per_server=4,
                    checkpoint_policy=CheckpointPolicy(every_operations=every),
                    checkpoint_sink=snapshots.append,
                )
                result = runner.run()
                assert [round(a.score, 9) for a in result.answers] == reference
                stats = result.stats
                assert sum(stats.per_server_operations.values()) == stats.server_operations
                assert stats.checkpoints_taken == len(snapshots) > 0
                operations = [snapshot["operations"] for snapshot in snapshots]
                assert operations[0] >= every
                assert all(b - a >= every for a, b in zip(operations, operations[1:]))
        finally:
            sys.setswitchinterval(saved)


class TestConcurrentEngines:
    def test_parallel_independent_runs(self, engine, reference):
        """Several Whirlpool-M instances running simultaneously must not
        interfere (shared index is read-only; everything else per-run)."""
        results = [None] * 4
        errors = []

        def work(slot):
            try:
                result = engine.run(12, algorithm="whirlpool_m")
                results[slot] = [round(a.score, 9) for a in result.answers]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for outcome in results:
            assert outcome == reference

    def test_stats_consistency_under_threads(self, engine):
        result = engine.run(12, algorithm="whirlpool_m")
        stats = result.stats
        # Per-server breakdown must sum to the total.
        assert sum(stats.per_server_operations.values()) == stats.server_operations
        # Everything created either completed, was pruned, or died in exact
        # mode (relaxed mode: no deaths) — pruning counts include matches
        # pruned at the router and at extension time.
        assert stats.completed_matches + stats.partial_matches_pruned <= (
            stats.partial_matches_created
        )
        assert stats.completed_matches > 0
