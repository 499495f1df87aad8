"""The Engine-owned probe memo: reuse across runs, the cap, and sharing.

Memoized probes are pure functions of (database, query) and
``ExecutionStats`` charge hits and misses alike, so nothing a caller can
observe — answers, ``pending_bound``, stats — may depend on whether the
memo was cold, warm, cleared at the cap mid-run, or being filled by another
thread at the same time.
"""

import sys
import threading

import pytest

from repro.analysis.racecheck import RaceCheck
from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.core.server import PROBE_MEMO_CAP, ProbeMemo
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.model import Database, XMLNode
from tests.conftest import assert_same_topk, full_ranking, run_fingerprint


@pytest.fixture(scope="module")
def xmark():
    return generate_database(XMarkConfig(items=40, seed=7))


class TestWarmRuns:
    @pytest.mark.parametrize("algorithm", ["whirlpool_s", "whirlpool_m", "lockstep"])
    def test_second_run_reads_no_index_and_repeats_the_first(self, xmark, algorithm):
        engine = Engine(xmark, QUERIES["Q2"])
        cold = engine.run(5, algorithm=algorithm)
        probes_after_cold = engine.index.probe_cost()
        assert probes_after_cold[1] > 0
        warm = engine.run(5, algorithm=algorithm)
        assert engine.index.probe_cost() == probes_after_cold
        if algorithm != "whirlpool_m":
            assert run_fingerprint(warm) == run_fingerprint(cold)
        else:  # thread interleaving moves M's counters, and which ties it closes
            ranking = full_ranking(engine)
            assert_same_topk(ranking, cold)
            assert_same_topk(ranking, warm)

    def test_memos_are_per_join_algorithm(self, xmark):
        engine = Engine(xmark, QUERIES["Q2"])
        by_index = engine.run(5, join_algorithm="index")
        by_scan = engine.run(5, join_algorithm="scan")
        # A scan pays the whole tag population per probe; an entry memoized
        # by the index join must never be charged to it (or the reverse).
        assert by_scan.stats.join_comparisons > by_index.stats.join_comparisons
        assert run_fingerprint(engine.run(5, join_algorithm="scan")) == run_fingerprint(by_scan)
        assert run_fingerprint(engine.run(5, join_algorithm="index")) == run_fingerprint(by_index)

    def test_unknown_join_algorithm_still_rejected(self, xmark):
        with pytest.raises(ValueError, match="join_algorithm"):
            Engine(xmark, QUERIES["Q2"]).run(5, join_algorithm="hash")


class TestCap:
    def test_state_per_server_stays_within_the_cap_across_runs(self):
        roots = []
        for ordinal in range(PROBE_MEMO_CAP + 90):
            book = XMLNode("book")
            book.add_child(XMLNode("title"))
            if ordinal % 3:
                book.add_child(XMLNode("author"))
            roots.append(book)
        engine = Engine(Database.from_roots(roots), "//book[./title and ./author]")
        # An Engine sizes its memos to its root images; what a Server built
        # without one gets is the cap, which these roots overrun.
        for by_server in engine._probe_memos.values():
            for node_id in by_server:
                by_server[node_id] = ProbeMemo()
        memos = [
            memo for by_server in engine._probe_memos.values() for memo in by_server.values()
        ]
        prints = []
        for _ in range(3):
            # lockstep_noprun visits every root at every server, so each
            # memo is driven past the cap (and cleared) in every run.
            prints.append(run_fingerprint(engine.run(4, algorithm="lockstep_noprun")))
            assert max(len(memo) for memo in memos) <= PROBE_MEMO_CAP
            assert any(len(memo) > 0 for memo in memos)
        assert prints[0] == prints[1] == prints[2]

    def test_more_root_images_than_the_cap_still_run_warm(self):
        # 520 items > PROBE_MEMO_CAP: a memo capped at 512 refilled and
        # cleared itself on every run (2,600 probes per warm Q2 run).
        engine = Engine(generate_database(XMarkConfig(items=520, seed=7)), QUERIES["Q2"])
        assert len(engine.index[engine.pattern.root.tag].all()) > PROBE_MEMO_CAP
        first = engine.run(15)
        engine.index.reset_probe_cost()
        second = engine.run(15)
        assert engine.index.probe_cost() == (0, 0)
        assert run_fingerprint(second) == run_fingerprint(first)

class TestSharedEngine:
    def test_concurrent_runs_of_one_engine_agree_without_race_findings(self, xmark):
        # The service_closed shape: worker threads running one cached Engine.
        workers, runs_each = 4, 3
        prints = [[] for _ in range(workers)]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RaceCheck() as check:
                engine = Engine(xmark, QUERIES["Q2"])
                barrier = threading.Barrier(workers)

                def work(slot):
                    try:
                        barrier.wait(timeout=30)
                        for _ in range(runs_each):
                            prints[slot].append(run_fingerprint(engine.run(5)))
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=work, args=(slot,), name=f"memo-client-{slot}")
                    for slot in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert check.findings() == [], check.report()
        reference = run_fingerprint(Engine(xmark, QUERIES["Q2"]).run(5))
        assert all(
            fingerprint == reference for per_thread in prints for fingerprint in per_thread
        )
