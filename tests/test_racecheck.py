"""Race-detector tests: synthetic races are caught, the real engine is clean.

The detector is Eraser-style lockset analysis: for every watched
(object, field) it intersects the sets of locks held across writes and
reports fields written by two or more threads with an empty intersection,
plus lock pairs acquired in both orders (deadlock potential).
"""

import threading

from repro.analysis.racecheck import RaceCheck, default_watched_classes
from repro.core.engine import Engine
from repro.core.whirlpool_m import WhirlpoolM
from repro.biblio import BiblioConfig, generate_catalogs, reference_query


def run_threads(*targets):
    threads = [
        threading.Thread(target=target, name=f"racecheck-test-{i}", daemon=True)
        for i, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class RacyCounter:
    def __init__(self):
        self.count = 0

    def bump(self, times):
        for _ in range(times):
            self.count += 1


class LockedCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self, times):
        for _ in range(times):
            with self._lock:
                self.count += 1


class TestSyntheticRaces:
    def test_unguarded_counter_reported(self):
        with RaceCheck(watch=[RacyCounter]) as check:
            counter = RacyCounter()
            run_threads(lambda: counter.bump(200), lambda: counter.bump(200))
        findings = check.findings()
        assert any(
            f.kind == "unguarded-field" and "RacyCounter.count" in f.detail
            for f in findings
        ), findings

    def test_locked_counter_clean(self):
        with RaceCheck(watch=[LockedCounter]) as check:
            counter = LockedCounter()
            run_threads(lambda: counter.bump(200), lambda: counter.bump(200))
        assert check.findings() == []

    def test_single_thread_writes_not_reported(self):
        # One thread mutating without a lock is not a race.
        with RaceCheck(watch=[RacyCounter]) as check:
            counter = RacyCounter()
            counter.bump(200)
        assert check.findings() == []

    def test_init_writes_exempt(self):
        # Construction happens before the object is shared; __init__
        # writes never count against the lockset.
        with RaceCheck(watch=[LockedCounter]) as check:
            counters = []
            run_threads(
                lambda: counters.append(LockedCounter()),
                lambda: counters.append(LockedCounter()),
            )
        assert check.findings() == []

    def test_lock_order_inversion_reported(self):
        class TwoLocks:
            def __init__(self):
                self.lock_a = threading.Lock()
                self.lock_b = threading.Lock()

        with RaceCheck(watch=[]) as check:
            shared = TwoLocks()
            barrier = threading.Barrier(2, timeout=5)

            def ab():
                barrier.wait()
                with shared.lock_a:
                    with shared.lock_b:
                        pass

            def ba():
                barrier.wait()
                with shared.lock_b:
                    with shared.lock_a:
                        pass

            run_threads(ab, ba)
        findings = check.findings()
        assert any(f.kind == "lock-order" for f in findings), findings

    def test_patching_is_undone_on_exit(self):
        plain_lock = threading.Lock
        with RaceCheck(watch=[RacyCounter]):
            assert threading.Lock is not plain_lock
        assert threading.Lock is plain_lock
        # RacyCounter's __setattr__ / __init__ are restored too.
        counter = RacyCounter()
        counter.bump(1)
        assert counter.count == 1


class TestWhirlpoolMClean:
    def test_default_watch_covers_engine_shared_state(self):
        names = {cls.__name__ for cls in default_watched_classes()}
        assert {
            "TopKSet",
            "ExecutionStats",
            "MatchQueue",
            "_InFlight",
            "ExecutionTrace",
            "FaultInjector",
            "Supervisor",
            "ProbeMemo",
            "AdmissionQueue",
            "CircuitBreaker",
            "ServiceCounters",
            "Ticket",
        } <= names

    def test_whirlpool_m_run_has_no_findings(self):
        assert _whirlpool_m_findings(threads_per_server=2) == []

    def test_whirlpool_m_run_at_one_thread_per_server_has_no_findings(self):
        assert _whirlpool_m_findings(threads_per_server=1) == []


def _whirlpool_m_findings(threads_per_server):
    """Race findings of one Whirlpool-M run over a generated catalog."""
    database = generate_catalogs(BiblioConfig(books_per_seller=8, seed=5))
    engine = Engine(database, reference_query())
    with RaceCheck() as check:
        result = WhirlpoolM(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=5,
            threads_per_server=threads_per_server,
        ).run()
    assert result.answers
    return [finding.detail for finding in check.findings()]
