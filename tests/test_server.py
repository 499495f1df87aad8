"""Tests for Whirlpool servers: probes, conditionals, qualities, stats."""

import pytest

from repro.core.match import PartialMatch
from repro.core.server import Server
from repro.core.stats import ExecutionStats
from repro.query.xpath import parse_xpath
from repro.relax.plan import compile_plan
from repro.scoring.model import MatchQuality, ScoreModel
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.parser import parse_document


@pytest.fixture
def db():
    return parse_document(
        """
        <bib>
          <book>
            <title>x</title>
            <info><publisher><name>p</name></publisher></info>
          </book>
          <book>
            <publisher><name>p</name></publisher>
            <reviews><title>x</title></reviews>
          </book>
          <book><isbn>1</isbn></book>
        </bib>
        """
    )


@pytest.fixture
def index(db):
    return DatabaseIndex(db)


QUERY = "/book[./title = 'x' and ./info/publisher/name = 'p']"


def _servers(index, relaxed=True, scores=None):
    pattern = parse_xpath(QUERY)
    plan = compile_plan(pattern, relaxed=relaxed)
    model = ScoreModel(
        scores or {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
        {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5},
    )
    servers = {}
    for node_id in plan.server_ids():
        server = Server(plan.server(node_id), index, model, relaxed)
        server.set_root_tag("book")
        servers[node_id] = server
    return pattern, servers


def _seed(db, dewey=(0, 0)):
    return PartialMatch.initial(db.node_by_dewey(dewey))


def _extend(server, match):
    """The extensions of one server operation."""
    return server.process(match)[0]


def _record(server, match, stats):
    """One server operation, recorded in ``stats`` as an engine records it."""
    extensions, comparisons, deleted = server.process(match)
    stats.record_server_operation(server.node_id, comparisons, len(extensions), deleted)


class TestRelaxedProcessing:
    def test_exact_candidate(self, db, index):
        _, servers = _servers(index)
        extensions = _extend(servers[1], _seed(db))  # title server
        assert len(extensions) == 1
        ext = extensions[0]
        assert ext.qualities[1] is MatchQuality.EXACT
        assert ext.score == pytest.approx(1.0)

    def test_relaxed_candidate(self, db, index):
        """Book (0,1)'s title is under reviews: only the relaxed root axis
        holds, so the extension is RELAXED with the lower contribution."""
        _, servers = _servers(index)
        extensions = _extend(servers[1], _seed(db, (0, 1)))
        assert len(extensions) == 1
        assert extensions[0].qualities[1] is MatchQuality.RELAXED
        assert extensions[0].score == pytest.approx(0.5)

    def test_deleted_extension_when_no_candidates(self, db, index):
        _, servers = _servers(index)
        extensions = _extend(servers[1], _seed(db, (0, 2)))  # bare book
        assert len(extensions) == 1
        assert extensions[0].qualities[1] is MatchQuality.DELETED
        assert extensions[0].instantiations[1] is None
        assert extensions[0].score == 0.0

    def test_value_test_filters_candidates(self, db, index):
        pattern = parse_xpath("/book[./title = 'zzz']")
        plan = compile_plan(pattern)
        model = ScoreModel({1: 1.0}, {1: 0.5})
        server = Server(plan.server(1), index, model, relaxed=True)
        server.set_root_tag("book")
        extensions = _extend(server, _seed(db))
        assert extensions[0].qualities[1] is MatchQuality.DELETED

    def test_multiple_candidates_spawn_multiple_extensions(self, index):
        db2 = parse_document("<bib><book><t>1</t><t>2</t></book></bib>")
        pattern = parse_xpath("/book[./t]")
        plan = compile_plan(pattern)
        model = ScoreModel({1: 1.0}, {1: 0.5})
        server = Server(plan.server(1), DatabaseIndex(db2), model, relaxed=True)
        server.set_root_tag("book")
        extensions = _extend(server, _seed(db2))
        assert len(extensions) == 2

    def test_conditionals_downgrade_quality(self, db, index):
        """With publisher instantiated outside info's subtree, a candidate
        info is only a RELAXED support for the pair."""
        _, servers = _servers(index)
        match = _seed(db, (0, 1))
        # Instantiate publisher at (0,1,0) first (child of book, not info).
        publisher = db.node_by_dewey((0, 1, 0))
        match = match.extend(3, publisher, MatchQuality.RELAXED, 0.5)
        # Now name server: name is under publisher exactly (pc), but its
        # exact root axis (depth 3) fails -> RELAXED.
        extensions = _extend(servers[4], match)
        assert len(extensions) == 1
        assert extensions[0].qualities[4] is MatchQuality.RELAXED


class TestExactProcessing:
    def test_exact_mode_kills_relaxed_candidates(self, db, index):
        _, servers = _servers(index, relaxed=False)
        extensions = _extend(servers[1], _seed(db, (0, 1)))
        assert extensions == []  # title under reviews: not a child

    def test_exact_mode_no_deleted_extension(self, db, index):
        _, servers = _servers(index, relaxed=False)
        assert _extend(servers[1], _seed(db, (0, 2))) == []

    def test_exact_mode_enforces_conditionals(self, db, index):
        _, servers = _servers(index, relaxed=False)
        match = _seed(db, (0, 0))
        info = db.node_by_dewey((0, 0, 1))
        match = match.extend(2, info, MatchQuality.EXACT, 1.0)
        extensions = _extend(servers[3], match)  # publisher under that info
        assert len(extensions) == 1
        assert extensions[0].qualities[3] is MatchQuality.EXACT


class TestStatsRecording:
    def test_server_operation_recorded(self, db, index):
        _, servers = _servers(index)
        stats = ExecutionStats()
        _record(servers[1], _seed(db), stats)
        assert stats.server_operations == 1
        assert stats.per_server_operations == {1: 1}
        assert stats.extensions_generated == 1
        assert stats.join_comparisons >= 1

    def test_deleted_extension_recorded(self, db, index):
        _, servers = _servers(index)
        stats = ExecutionStats()
        _record(servers[1], _seed(db, (0, 2)), stats)
        assert stats.deleted_extensions == 1


class TestRoutingEstimates:
    def test_estimates_require_root_tag(self, index):
        pattern = parse_xpath("/book[./title]")
        plan = compile_plan(pattern)
        server = Server(plan.server(1), index, ScoreModel({1: 1.0}, {1: 1.0}))
        with pytest.raises(RuntimeError):
            server.routing_estimates()

    def test_estimates_values(self, db, index):
        _, servers = _servers(index)
        estimates = servers[1].routing_estimates()  # title, value 'x'
        # books: (0,0) has 1 exact title, (0,1) has 1 relaxed, (0,2) none.
        assert estimates.fanout_total == pytest.approx(2 / 3)
        assert estimates.fanout_exact == pytest.approx(1 / 3)
        assert estimates.p_empty == pytest.approx(1 / 3)

    def test_candidate_counts_cached(self, db, index):
        _, servers = _servers(index)
        first = servers[1].candidate_counts((0, 0))
        second = servers[1].candidate_counts((0, 0))
        assert first is second
        assert first.total == 1 and first.exact == 1
        empty = servers[1].candidate_counts((0, 2))
        assert empty.total == 0


class TestJoinAlgorithms:
    def test_unknown_algorithm_rejected(self, index):
        pattern = parse_xpath("/book[./title]")
        plan = compile_plan(pattern)
        with pytest.raises(ValueError):
            Server(
                plan.server(1), index, ScoreModel({1: 1.0}, {1: 1.0}),
                join_algorithm="hash",
            )

    def test_scan_and_index_agree(self, db, index):
        pattern = parse_xpath(QUERY)
        plan = compile_plan(pattern)
        model = ScoreModel(
            {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}, {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}
        )
        for node_id in plan.server_ids():
            index_server = Server(plan.server(node_id), index, model)
            scan_server = Server(
                plan.server(node_id), index, model, join_algorithm="scan"
            )
            for dewey in ((0, 0), (0, 1), (0, 2)):
                match = _seed(db, dewey)
                index_exts = _extend(index_server, match)
                scan_exts = _extend(scan_server, match)
                assert [e.describe() for e in index_exts] == [
                    e.describe() for e in scan_exts
                ]

    def test_scan_pays_full_tag_population(self, db, index):
        pattern = parse_xpath("/book[.//title]")
        plan = compile_plan(pattern)
        model = ScoreModel({1: 1.0}, {1: 1.0})
        scan_server = Server(plan.server(1), index, model, join_algorithm="scan")
        scan_server.set_root_tag("book")
        stats = ExecutionStats()
        _record(scan_server, _seed(db), stats)
        # Two title nodes exist in the fixture; the scan compares both
        # even though only one lies under this root.
        assert stats.join_comparisons == 2


class TestProbeMemo:
    def test_memo_hit_produces_identical_stats(self, db, index):
        pattern, servers = _servers(index)
        server = servers[1]
        per_run = []
        for _ in range(2):
            stats = ExecutionStats()
            _record(server, _seed(db), stats)
            per_run.append(stats.as_dict())
            per_run[-1].pop("wall_time_seconds")
        assert per_run[0] == per_run[1]

    def test_memo_shared_with_candidate_counts(self, db, index):
        pattern, servers = _servers(index)
        server = servers[1]
        counts = server.candidate_counts((0, 0))
        survivors, _, memoized_counts = server._probe_shared((0, 0))
        assert counts is memoized_counts
        assert counts.total == len(survivors)
        assert counts.exact == sum(1 for _, exact in survivors if exact)
        assert server._probe_memo.get((0, 0)) is not None

    def test_memo_cap_clears_wholesale_and_recomputes_identically(self, db, index):
        from repro.core import server as server_module

        pattern, servers = _servers(index)
        server = servers[1]
        before = server._probe_shared((0, 0))[0]
        # Fill to the cap with synthetic root images; the next store clears.
        memo = server._probe_memo
        filler = ((), 0, server_module.CandidateCounts(0, 0))
        for ordinal in range(server_module.PROBE_MEMO_CAP - 1):
            memo.put((9, ordinal), filler)
        assert len(memo) == server_module.PROBE_MEMO_CAP
        server._probe_shared((0, 2))
        assert len(memo) == 1
        assert memo.get((9, 0)) is None
        recomputed = server._probe_shared((0, 0))[0]
        assert recomputed == before

    def test_concurrent_probes_agree(self, db, index):
        import threading

        pattern, servers = _servers(index)
        server = servers[1]
        results = []
        lock = threading.Lock()

        def worker():
            entry = server._probe_shared((0, 0))
            with lock:
                results.append(entry)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1
