"""Regression tests for the shared-engine-cache race fixes.

Three races rode in with the query service sharing engines across
worker threads, each fixed in this layer-by-layer shape:

- ``DatabaseIndex.__getitem__`` used to allocate-and-cache a
  ``TagIndex`` on a missing-tag *read* — a check-then-insert on a plain
  dict shared by every worker.  Reads are now non-mutating and resolve
  to one shared immutable empty index.  (The race detector cannot see
  dict-item writes, so these tests assert non-mutation directly.)
- ``Engine.path_summary()`` published its lazily-built summary through
  an unguarded check-then-set; concurrent first callers could build and
  observe duplicate summaries.  Now double-checked under a lock.
- ``ExecutionStats.as_dict()`` / ``ServiceCounters.as_dict()`` read
  counters field-by-field while ``record_*``/``merge`` writers were
  mid-update, so ``health()`` could report torn half-merged totals.
  Neither has a lock of its own: the service writes both, and
  ``health()`` reads both with its queue depth, under its one lock.
"""

import sys
import threading

from repro.core.engine import Engine
from repro.core.stats import ExecutionStats
from repro.service import Outcome, QueryRequest, WhirlpoolService
from repro.xmldb.index import _EMPTY_TAG_INDEX, DatabaseIndex


def run_threads(*targets):
    threads = [
        threading.Thread(target=target, name=f"race-regress-{i}", daemon=True)
        for i, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return threads


class TestDatabaseIndexMissRead:
    def test_missing_tag_read_does_not_mutate(self, books_db):
        index = DatabaseIndex(books_db)
        before = dict(index.indexes)
        miss = index["no_such_tag"]
        assert miss is _EMPTY_TAG_INDEX
        assert len(miss) == 0
        assert index.indexes == before
        assert "no_such_tag" not in index

    def test_all_misses_share_one_immutable_index(self, books_db):
        index = DatabaseIndex(books_db)
        assert index["missing_a"] is index["missing_b"]
        other = DatabaseIndex(books_db, tags=("book",))
        assert other["missing_a"] is index["missing_a"]

    def test_concurrent_miss_reads_leave_index_unchanged(self, books_db):
        index = DatabaseIndex(books_db)
        before = dict(index.indexes)
        seen = []
        barrier = threading.Barrier(4, timeout=5)

        def hammer(suffix):
            barrier.wait()
            for i in range(200):
                seen.append(index[f"missing_{suffix}_{i % 7}"])

        run_threads(*(lambda s=s: hammer(s) for s in range(4)))
        assert index.indexes == before
        assert all(item is _EMPTY_TAG_INDEX for item in seen)
        assert len(seen) == 4 * 200


class TestPathSummarySingleFlight:
    def test_concurrent_first_calls_build_one_summary(self, books_db):
        engine = Engine(books_db, "/book[.//title]")
        summaries = []
        barrier = threading.Barrier(8, timeout=5)

        def fetch():
            barrier.wait()
            summaries.append(engine.path_summary())

        run_threads(*(fetch for _ in range(8)))
        assert len(summaries) == 8
        assert all(summary is summaries[0] for summary in summaries[1:])
        # Later calls keep returning the published instance.
        assert engine.path_summary() is summaries[0]


def _donor() -> ExecutionStats:
    """A finished-run stand-in whose merged counters are ALL equal, so a
    torn read (some counters merged, some not) is directly visible."""
    donor = ExecutionStats()
    donor.server_operations = 1
    donor.join_comparisons = 1
    donor.partial_matches_created = 1
    donor.partial_matches_pruned = 1
    donor.extensions_generated = 1
    donor.deleted_extensions = 1
    donor.completed_matches = 1
    donor.routing_decisions = 1
    return donor


_MERGED_KEYS = (
    "server_operations",
    "join_comparisons",
    "partial_matches_created",
    "partial_matches_pruned",
    "extensions_generated",
    "deleted_extensions",
    "completed_matches",
    "routing_decisions",
)


MERGES = 20000


class TestExecutionStatsSnapshot:
    def test_snapshot_never_tears_mid_merge(self):
        # The service folds every finished run into one aggregate while
        # health() reads it from other threads.
        service = WhirlpoolService({}, workers=1, auto_start=False)
        donor = _donor()
        stop = threading.Event()
        started = threading.Barrier(3, timeout=10)
        torn = []

        def merger():
            started.wait()
            for _ in range(MERGES):
                # The fold a served request's resolution makes.
                with service._lock:
                    service._engine_stats.merge(donor)
            stop.set()

        def snapshotter():
            started.wait()
            while not stop.is_set():
                snapshot = service.health()["engine_stats"]
                values = {snapshot[key] for key in _MERGED_KEYS}
                if len(values) != 1:
                    torn.append(snapshot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads(merger, snapshotter, snapshotter)
        finally:
            sys.setswitchinterval(interval)
        assert torn == [], f"torn snapshots observed: {torn[:3]}"
        final = service.health()["engine_stats"]
        assert all(final[key] == MERGES for key in _MERGED_KEYS)


class TestOneCounterList:
    def test_counters_drive_as_dict_and_merge(self):
        from repro.core.stats import COUNTERS

        stats = ExecutionStats()
        for value, name in enumerate(COUNTERS, start=1):
            assert getattr(stats, name) == 0
            setattr(stats, name, value)
        stats.per_server_operations = {3: 2}
        assert list(stats.as_dict()) == [*COUNTERS, "wall_time_seconds", "simulated_time"]
        total = ExecutionStats()
        total.merge(stats)
        total.merge(stats)
        merged = total.as_dict()
        assert [merged[name] for name in COUNTERS] == [
            2 * value for value in range(1, len(COUNTERS) + 1)
        ]
        assert total.per_server_operations == {3: 4}


class TestServiceCountersSnapshot:
    def test_snapshot_never_tears_mid_record(self, books_db, service_constants):
        # whirlpool_m's breaker is open throughout, so every request
        # resolves via the fallback chain: a fallback and its outcome are
        # recorded in one critical section.
        service_constants(MIN_CALLS=2, WINDOW=4, OPEN_SECONDS=60.0)
        # More workers than a 2-core machine has cores.
        service = WhirlpoolService({"books": books_db}, workers=3, auto_start=False)
        for _ in range(2):
            service.breaker("whirlpool_m").record_failure()
        service.start()
        stop = threading.Event()
        started = threading.Barrier(4, timeout=10)
        torn = []
        outcome_keys = [outcome.value for outcome in Outcome]

        def submitter():
            started.wait()
            for _ in range(150):
                request = QueryRequest("books", "/book[.//title]", k=2, algorithm="whirlpool_m")
                service.submit(request).result(timeout=30.0)

        def snapshotter():
            started.wait()
            while not stop.is_set():
                health = service.health()
                counters = health["counters"]
                resolved = sum(counters[key] for key in outcome_keys)
                # Invariants a torn read would break: fallback rides the
                # same locked section as the outcome bump, nothing
                # resolves without having been submitted, and a queued
                # request is submitted and not yet resolved.
                if counters["fallbacks"] != resolved:
                    torn.append(("fallbacks", health))
                if resolved > counters["submitted"]:
                    torn.append(("resolved>submitted", health))
                if health["queue_depth"] > counters["submitted"] - resolved:
                    torn.append(("queue_depth", health))

        def submitters():
            run_threads(submitter, submitter)
            stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(submitters, snapshotter, snapshotter)
        finally:
            sys.setswitchinterval(interval)
        assert torn == [], f"torn snapshots observed: {torn[:3]}"
        assert service.drain(budget_seconds=5.0)
        counters = service.health()["counters"]
        assert counters["submitted"] == counters["served"] == counters["fallbacks"] == 300
