"""Differential property tests: engines vs independent brute-force oracles
on randomized databases, patterns and score models.

The relaxed-mode oracle exploits root-anchored independence: the best
tuple for a root decomposes per query node as

    best(root) = Σ_n  max( contribution(n, quality(c)) for valid c,
                           default 0 (deletion) )

which is computable with no search at all — a completely different code
path from the engines.  The same sum is what the engines bound a root's
seed by (its row of the bound table), so ``TestPerRootBounds`` holds every
seed's bound to it.
"""

import json
import random
from itertools import accumulate, groupby

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.makespan import simulate
from repro.bench.params import QUERIES
from repro.cluster import Coordinator
from repro.core.engine import Engine
from repro.core.router import make_router
from repro.core.trace import ExecutionTrace
from repro.core.whirlpool_m import WhirlpoolM
from repro.query.matcher import distinct_roots, find_matches
from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.predicates import composed_axis
from repro.scoring.model import MatchQuality
from repro.xmldb.index import DatabaseIndex
from repro.recovery.policy import CheckpointPolicy
from repro.xmldb.model import Database, XMLNode
from tests.conftest import (
    assert_exact_or_certified,
    assert_same_topk,
    full_ranking,
    run_fingerprint,
)

TAGS = ("r", "x", "y", "z")


def _random_database(rng: random.Random) -> Database:
    def build(depth):
        node = XMLNode(rng.choice(TAGS))
        if depth > 0:
            for _ in range(rng.randint(0, 3)):
                node.add_child(build(depth - 1))
        return node

    roots = [build(3) for _ in range(rng.randint(1, 3))]
    # Ensure some candidate roots exist.
    roots.append(XMLNode("r"))
    for root in roots:
        if rng.random() < 0.7 and root.tag != "r":
            root.tag = "r"
    return Database.from_roots(roots)


def _random_pattern(rng: random.Random) -> TreePattern:
    root = PatternNode("r")
    for _ in range(rng.randint(1, 3)):
        child = PatternNode(rng.choice(TAGS[1:]))
        root.add_child(child, rng.choice((Axis.PC, Axis.AD)))
        if rng.random() < 0.5:
            grandchild = PatternNode(rng.choice(TAGS[1:]))
            child.add_child(grandchild, rng.choice((Axis.PC, Axis.AD)))
    return TreePattern(root)


def _oracle_best_scores(engine: Engine):
    """Per-root best tuple score, computed by per-node decomposition."""
    pattern = engine.pattern
    index = engine.index
    model = engine.score_model
    out = {}
    for root in index[pattern.root.tag].all():
        total = 0.0
        for node in pattern.non_root_nodes():
            exact_axis = composed_axis(pattern.root, node)
            relaxed_axis = exact_axis.relaxed()
            best = 0.0  # deletion
            for candidate in index.related(node.tag, root.dewey, relaxed_axis):
                if node.value is not None and candidate.value != node.value:
                    continue
                quality = (
                    MatchQuality.EXACT
                    if exact_axis.matches(root.dewey, candidate.dewey)
                    else MatchQuality.RELAXED
                )
                best = max(best, model.contribution(node.node_id, quality, candidate))
            total += best
        out[root.dewey] = total
    return out


class TestRelaxedModeDifferential:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_engine_scores_equal_decomposed_oracle(self, seed):
        check_scores_equal_oracle(seed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_all_algorithms_agree_on_random_inputs(self, seed):
        check_algorithms_agree(seed)


def check_scores_equal_oracle(seed):
    """Whirlpool-S, asked for every root, scores each as the decomposed
    oracle does, on the random database and pattern of ``seed``."""
    rng = random.Random(seed)
    database = _random_database(rng)
    pattern = _random_pattern(rng)
    engine = Engine(database, pattern)
    root_count = len(engine.index[pattern.root.tag])
    if root_count == 0:
        return
    result = engine.run(root_count, algorithm="whirlpool_s")
    oracle = _oracle_best_scores(engine)
    got = {a.root_node.dewey: a.score for a in result.answers}
    assert set(got) == set(oracle)
    for dewey, score in oracle.items():
        assert got[dewey] == pytest.approx(score), (dewey, pattern.to_xpath())


def check_algorithms_agree(seed):
    """Whirlpool-S and LockStep return LockStep-NoPrun's top-k scores on
    the random database and pattern of ``seed``."""
    rng = random.Random(seed)
    database = _random_database(rng)
    pattern = _random_pattern(rng)
    engine = Engine(database, pattern)
    if len(engine.index[pattern.root.tag]) == 0:
        return
    k = rng.randint(1, 4)
    reference = sorted(
        round(a.score, 9)
        for a in engine.run(k, algorithm="lockstep_noprun").answers
    )
    for algorithm in ("whirlpool_s", "lockstep"):
        got = sorted(
            round(a.score, 9) for a in engine.run(k, algorithm=algorithm).answers
        )
        assert got == reference, (algorithm, pattern.to_xpath())


class TestExactModeDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_exact_mode_equals_matcher(self, seed):
        rng = random.Random(seed)
        database = _random_database(rng)
        pattern = _random_pattern(rng)
        oracle_roots = {
            root.dewey
            for root in distinct_roots(find_matches(pattern, database), pattern)
        }
        engine = Engine(database, pattern, relaxed=False)
        result = engine.run(max(len(oracle_roots), 1) + 3)
        got = {a.root_node.dewey for a in result.answers}
        assert got == oracle_roots, pattern.to_xpath()


class TestRandomScoreModels:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(["sparse", "dense", "raw"]))
    def test_oracle_holds_under_random_scores(self, seed, normalization):
        rng = random.Random(seed)
        database = _random_database(rng)
        pattern = _random_pattern(rng)
        engine = Engine(
            database, pattern, scoring="random", seed=seed, normalization=normalization
        )
        root_count = len(engine.index[pattern.root.tag])
        if root_count == 0:
            return
        result = engine.run(root_count)
        oracle = _oracle_best_scores(engine)
        got = {a.root_node.dewey: a.score for a in result.answers}
        for dewey, score in oracle.items():
            assert got[dewey] == pytest.approx(score)


# -- closed ties ------------------------------------------------------------------------

#: Where an ``r`` keeps each of its query children: nowhere, as a child
#: (an exact match of ``./a``), or under a ``w`` (a relaxed one).  Every
#: ``r`` has a ``z`` child, so the ``z`` server's idf — its maximum
#: contribution — is 0: a match can reach ``score == upper_bound`` before
#: it is complete.  With few contribution values per server and a handful
#: of shapes, most roots tie, at the k-th score too.
_PLACEMENTS = st.sampled_from(["none", "child", "deep"])
_TIED_FORESTS = st.lists(
    st.lists(st.tuples(_PLACEMENTS, _PLACEMENTS), min_size=1, max_size=6),
    min_size=2,
    max_size=4,
)
_TIED_QUERIES = st.sampled_from(["//r[./a and ./b and ./z]", "//r[./z and ./b and ./a]"])
#: Three or more servers that contribute: a tied score is then a sum of
#: three or more terms, which the order the servers were visited in can
#: round one ulp apart — so tie groups sit above the k-th score too.
_WIDE_FORESTS = st.lists(
    st.lists(st.tuples(*[_PLACEMENTS] * 4), min_size=5, max_size=10),
    min_size=3,
    max_size=4,
)
_WIDE_QUERIES = st.sampled_from(
    ["//r[./a and ./b and ./c and ./d and ./z]", "//r[./z and ./d and ./c and ./b and ./a]"]
)


def _tied_database(forest) -> Database:
    documents = []
    for items in forest:
        document = XMLNode("d")
        for placements in items:
            item = document.child("r")
            item.child("z")
            for tag, where in zip("abcd", placements):
                if where == "child":
                    item.child(tag)
                elif where == "deep":
                    item.child("w").child(tag)
        documents.append(document)
    return Database.from_roots(documents)


def _judge(engine, ranking, result):
    """A finished run is a correct top-k of complete matches; a degraded
    exit carries a sound certificate."""
    assert_exact_or_certified(ranking, result)
    if not result.degraded:
        server_ids = engine.server_node_ids()
        assert all(answer.match.is_complete(server_ids) for answer in result.answers)


def _judge_every_run(engine, ranking, k, budget):
    """Every engine, W-M's threads and its modeled schedule, and stepped
    and restored runs, each judged against LockStep-NoPrun's ranking."""
    assert 0.0 in map(engine.score_model.max_contribution, engine.server_node_ids())
    for algorithm in ("whirlpool_s", "lockstep", "whirlpool_m"):
        _judge(engine, ranking, engine.run(k, algorithm=algorithm))
    for threads in (1, 2):
        threaded = WhirlpoolM(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=k,
            router=make_router("min_alive"),
            threads_per_server=threads,
        )
        _judge(engine, ranking, threaded.run())
        for processors in (1, 2, None):
            # The same step, on a modeled schedule.
            modeled = engine.open(k, "whirlpool_m")
            modeled.threads_per_server = threads
            _judge(engine, ranking, simulate(modeled, n_processors=processors).result)
    for algorithm in ("whirlpool_s", "lockstep"):
        # Stepped by ``budget`` operations on one instance, every exit
        # judged; then a fresh instance restored from the first exit's
        # snapshot, as a failover would.
        snapshots = []
        run = engine.open(
            k,
            algorithm,
            max_operations=budget,
            checkpoint_policy=CheckpointPolicy(every_operations=10**9),
            checkpoint_sink=snapshots.append,
        )
        while True:
            result = run.run()
            _judge(engine, ranking, result)
            if not result.degraded:
                break
            run.max_operations = result.stats.server_operations + budget
        if snapshots:
            snapshot = json.loads(json.dumps(snapshots[0]))
            restored = engine.run(k, algorithm=algorithm, restore_from=snapshot)
            assert not restored.degraded
            _judge(engine, ranking, restored)


def _ks_below_a_tie(ranking):
    """Every k whose k-th root sits one score level below a group of two
    or more tied roots."""
    sizes = [len(list(group)) for _, group in groupby(round(s, 9) for _, s in ranking)]
    ends = list(accumulate(sizes))
    return [end + 1 for size, end in zip(sizes[:-1], ends) if size >= 2]


class TestClosedTies:
    """Every way of running a query closes ties soundly: the shared
    same-top-k rule against LockStep-NoPrun, which closes none."""

    @settings(max_examples=40, deadline=None)
    @given(_TIED_FORESTS, _TIED_QUERIES, st.integers(1, 8), st.integers(1, 12))
    def test_single_process_runs(self, forest, query, k, budget):
        engine = Engine(_tied_database(forest), query)
        _judge_every_run(engine, full_ranking(engine), k, budget)

    @settings(max_examples=40, deadline=None)
    @given(_WIDE_FORESTS, _WIDE_QUERIES, st.integers(0, 10**6), st.integers(1, 12))
    def test_ties_above_the_kth(self, forest, query, pick, budget):
        """k is chosen one level below a tie group, so the group must be
        returned whole, in whichever order the route summed it."""
        engine = Engine(_tied_database(forest), query)
        ranking = full_ranking(engine)
        ks = _ks_below_a_tie(ranking) or [len(ranking)]
        _judge_every_run(engine, ranking, ks[pick % len(ks)], budget)

    @settings(max_examples=40, deadline=None)
    @given(_TIED_FORESTS, _TIED_QUERIES, st.integers(1, 8))
    def test_a_trace_moves_no_answer_or_count(self, forest, query, k):
        """Whirlpool-S's early stop clears the queue uncounted by pops when
        nothing watches, and drains it for a trace's prune events: the
        answers, ``partial_matches_pruned`` and every counter agree."""
        engine = Engine(_tied_database(forest), query)
        plain = engine.run(k)
        traced = engine.run(k, observer=ExecutionTrace())
        assert run_fingerprint(traced) == run_fingerprint(plain)

    @settings(max_examples=6, deadline=None)
    @given(_TIED_FORESTS, _TIED_QUERIES, st.integers(1, 8))
    def test_two_shard_coordinator(self, forest, query, k):
        database = _tied_database(forest)
        ranking = full_ranking(Engine(database, query))
        with Coordinator(database, shards=2, step_operations=5) as coordinator:
            result = coordinator.run_query(query, k)
        assert not result.degraded
        assert_same_topk(ranking, result)

    def test_answers_stay_backed_by_complete_matches(self, xmark_db):
        """The corner closed ties open (found on the benchmark's
        ``build_forest(5, 260)``, Q2, k = 200; the same shape here at k =
        45): every item has a ``description``, so that server's maximum
        contribution is 0.0 and a match that has been everywhere else has
        ``score == upper_bound``.  When that ties the k-th completed score
        the match is closed one hop short, and stays its root's
        representative; ranked in document order alone, three such roots
        were returned.  ``answers()`` prefers a complete representative
        among equal scores, and enough exist."""
        engine = Engine(xmark_db, "//item[./description/parlist and ./mailbox/mail/text]")
        run = engine.open(45)
        assert min(run.max_contributions.values()) == 0.0
        result = run.run()
        assert_same_topk(full_ranking(engine), result)
        partial = [
            entry
            for entry, _ in run.topk.export_state()
            if not entry.is_complete(run.server_ids) and entry.score == result.answers[-1].score
        ]
        assert partial, "no root is left with a closed, partial representative"
        assert all(answer.match.is_complete(run.server_ids) for answer in result.answers)


# -- per-root bounds ------------------------------------------------------------------


def check_seed_bounds(engine):
    """Every seed is bounded by its root's best final score: in relaxed
    mode at least the decomposed oracle's sum (a visit-order float sum of
    the same terms) and equal to it to nine digits; in exact mode at least
    the root's final score, for every root that completes."""
    seeds = engine.open(1).seed_matches()
    if engine.relaxed:
        best = _oracle_best_scores(engine)
        for seed in seeds:
            expected = best[seed.root_node.dewey]
            assert expected <= seed.upper_bound <= expected + 1e-9, (
                seed.root_node.dewey,
                seed.upper_bound,
                expected,
            )
    else:
        final = dict(full_ranking(engine))
        for seed in seeds:
            if seed.root_node.dewey in final:
                assert seed.upper_bound >= final[seed.root_node.dewey], seed.root_node.dewey


class TestPerRootBounds:
    """A root's seed is bounded by what each server can add *for it*: the
    root's best score, not the database-wide maxima the bound used to sum."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.booleans(), st.sampled_from(["tfidf", "random"]))
    def test_random_inputs(self, seed, relaxed, scoring):
        rng = random.Random(seed)
        database = _random_database(rng)
        pattern = _random_pattern(rng)
        check_seed_bounds(Engine(database, pattern, relaxed=relaxed, scoring=scoring, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(_WIDE_FORESTS, _WIDE_QUERIES, st.booleans())
    def test_wide_forests(self, forest, query, relaxed):
        check_seed_bounds(Engine(_tied_database(forest), query, relaxed=relaxed))

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_xmark_queries(self, xmark_db, query, relaxed):
        check_seed_bounds(Engine(xmark_db, QUERIES[query], relaxed=relaxed))


# -- root closing ---------------------------------------------------------------------


def check_root_closing(database, cases, relaxed):
    """Every engine prunes a tuple that cannot beat the score its own root
    has already completed at: Whirlpool-S, LockStep, Whirlpool-M at one and
    two threads per server, and a 2-shard ``Coordinator``, on each (query,
    k) of ``cases``, each judged against LockStep-NoPrun — which prunes
    nothing — by the same-top-k rule or the certificate, with every
    finished run's answers complete matches."""
    with Coordinator(database, shards=2, step_operations=5) as coordinator:
        for query, k in cases:
            engine = Engine(database, query, relaxed=relaxed)
            ranking = full_ranking(engine)
            results = [engine.run(k, algorithm=name) for name in ("whirlpool_s", "lockstep")]
            for threads in (1, 2):
                threaded = engine.open(k, "whirlpool_m")
                threaded.threads_per_server = threads
                results.append(threaded.run())
            results.append(coordinator.run_query(query, k, relaxed=relaxed))
            for result in results:
                _judge(engine, ranking, result)


class TestRootClosing:
    """A root closes its own tuples soundly, in every engine and mode."""

    @settings(max_examples=8, deadline=None)
    @given(_WIDE_FORESTS, _WIDE_QUERIES, st.booleans(), st.integers(1, 12))
    def test_wide_forests(self, forest, query, relaxed, k):
        check_root_closing(_tied_database(forest), [(query, k)], relaxed)

    @settings(max_examples=8, deadline=None)
    @given(_TIED_FORESTS, _TIED_QUERIES, st.booleans(), st.integers(1, 8))
    def test_tied_forests(self, forest, query, relaxed, k):
        check_root_closing(_tied_database(forest), [(query, k)], relaxed)

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_xmark_queries(self, xmark_db, relaxed):
        cases = [(QUERIES[query], k) for query in sorted(QUERIES) for k in (3, 15)]
        check_root_closing(xmark_db, cases, relaxed)
