"""Cross-engine integration tests on XMark workloads.

These are the repository's strongest correctness checks: all four engines
(plus the simulator) must return the same top-k — the shared rule of
``repro.core.topk.topk_mismatch``, against the LockStep-NoPrun ranking — on
the paper's queries over generated auction data, under every routing
strategy and both scoring normalizations; exact mode must agree with the exhaustive matcher;
and relaxed answers must be a superset of exact answers.
"""

import pytest

from repro.bench.makespan import CostModel, simulate
from repro.core.engine import Engine
from repro.query.matcher import distinct_roots, find_matches
from repro.query.xpath import parse_xpath
from tests.conftest import assert_same_topk, full_ranking

QUERIES = {
    "Q1": "//item[./description/parlist]",
    "Q2": "//item[./description/parlist and ./mailbox/mail/text]",
    "Q3": (
        "//item[./mailbox/mail/text[./bold and ./keyword]"
        " and ./name and ./incategory]"
    ),
}


@pytest.fixture(scope="module", params=sorted(QUERIES))
def engine(request, xmark_db_large):
    return Engine(xmark_db_large, QUERIES[request.param])


@pytest.fixture(scope="module")
def ranking(engine):
    return full_ranking(engine)


class TestAllEnginesAgree:
    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_algorithms_identical_answers(self, engine, ranking, k):
        for algorithm in ("whirlpool_s", "whirlpool_m", "lockstep"):
            assert_same_topk(ranking, engine.run(k, algorithm=algorithm))

    @pytest.mark.parametrize("routing", ["min_alive", "max_score", "min_score"])
    def test_routing_strategies_identical_answers(self, engine, ranking, routing):
        assert_same_topk(ranking, engine.run(5, algorithm="whirlpool_s", routing=routing))

    def test_simulator_identical_answers(self, engine, ranking):
        for processors in (1, 3, None):
            sim = simulate(
                engine.open(5, "whirlpool_m"), n_processors=processors, cost_model=CostModel()
            )
            assert_same_topk(ranking, sim.result)


class TestExactVsRelaxed:
    def test_exact_mode_equals_matcher_oracle(self, xmark_db_large):
        for label, query in QUERIES.items():
            pattern = parse_xpath(query)
            oracle = {
                root.dewey
                for root in distinct_roots(
                    find_matches(pattern, xmark_db_large), pattern
                )
            }
            engine = Engine(xmark_db_large, query, relaxed=False)
            result = engine.run(len(oracle) + 5)
            got = {a.root_node.dewey for a in result.answers}
            assert got == oracle, label

    def test_relaxed_includes_all_exact_roots_at_full_k(self, xmark_db_large):
        """With k large enough, relaxed top-k contains every exact root."""
        query = QUERIES["Q1"]
        pattern = parse_xpath(query)
        exact_roots = {
            root.dewey
            for root in distinct_roots(
                find_matches(pattern, xmark_db_large), pattern
            )
        }
        engine = Engine(xmark_db_large, query)
        item_count = len(engine.index["item"])
        result = engine.run(item_count)
        relaxed_roots = {a.root_node.dewey for a in result.answers}
        assert exact_roots <= relaxed_roots

    def test_exact_matches_score_at_least_relaxed(self, xmark_db_large):
        """Within relaxed results, any fully-exact tuple must score at
        least as high as the best tuple of a root with no exact match."""
        query = QUERIES["Q1"]
        pattern = parse_xpath(query)
        exact_roots = {
            root.dewey
            for root in distinct_roots(
                find_matches(pattern, xmark_db_large), pattern
            )
        }
        engine = Engine(xmark_db_large, query)
        result = engine.run(len(engine.index["item"]))
        exact_scores = [
            a.score for a in result.answers if a.root_node.dewey in exact_roots
        ]
        relaxed_scores = [
            a.score for a in result.answers if a.root_node.dewey not in exact_roots
        ]
        if exact_scores and relaxed_scores:
            assert min(exact_scores) >= max(relaxed_scores) - 1e-9


class TestNormalizations:
    @pytest.mark.parametrize("normalization", ["sparse", "dense", "raw"])
    def test_ranking_stable_across_engines(self, xmark_db_large, normalization):
        engine = Engine(xmark_db_large, QUERIES["Q2"], normalization=normalization)
        assert_same_topk(full_ranking(engine), engine.run(5, algorithm="whirlpool_s"))


class TestScalingBehaviour:
    def test_larger_k_supersets_smaller_k(self, engine):
        small = engine.run(3)
        large = engine.run(10)
        assert [a.root_node.dewey for a in small.answers] == [
            a.root_node.dewey for a in large.answers
        ][:3]

    def test_work_grows_with_k(self, engine):
        ops = [
            engine.run(k, algorithm="whirlpool_s").stats.server_operations
            for k in (1, 5, 25)
        ]
        assert ops[0] <= ops[1] <= ops[2]
