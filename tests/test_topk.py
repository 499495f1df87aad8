"""Tests for the shared top-k set: thresholds, pruning, per-root invariant."""

import itertools
import math
import random
import threading

import pytest

from repro.core.match import PartialMatch
from repro.core.topk import TopKSet, bound_factor
from repro.scoring.model import MatchQuality
from repro.xmldb.model import Database, XMLNode


def _roots(count):
    db = Database.from_roots([XMLNode("book") for _ in range(count)])
    return [doc.root for doc in db.documents]


def _match(root, score, bound=None):
    match = PartialMatch.initial(root)
    match.score = score
    match.upper_bound = bound if bound is not None else score
    return match


class TestThreshold:
    def test_zero_until_k_entries(self):
        roots = _roots(3)
        topk = TopKSet(2)
        topk.observe(_match(roots[0], 0.9), complete=False)
        assert topk.threshold() == 0.0
        topk.observe(_match(roots[1], 0.5), complete=False)
        assert topk.threshold() == pytest.approx(0.5)

    def test_threshold_is_kth_best(self):
        roots = _roots(4)
        topk = TopKSet(2)
        for root, score in zip(roots, (0.9, 0.5, 0.7, 0.1)):
            topk.observe(_match(root, score), complete=False)
        assert topk.threshold() == pytest.approx(0.7)

    def test_one_entry_per_root(self):
        roots = _roots(2)
        topk = TopKSet(2)
        topk.observe(_match(roots[0], 0.3), complete=False)
        topk.observe(_match(roots[0], 0.8), complete=False)  # same root, better
        topk.observe(_match(roots[0], 0.1), complete=False)  # same root, worse
        topk.observe(_match(roots[1], 0.5), complete=False)
        assert topk.threshold() == pytest.approx(0.5)
        assert topk.entry_count() == 2
        answers = topk.answers()
        assert [a.score for a in answers] == [pytest.approx(0.8), pytest.approx(0.5)]

    def test_threshold_monotone(self):
        roots = _roots(10)
        topk = TopKSet(3)
        previous = topk.threshold()
        for index, root in enumerate(roots):
            topk.observe(_match(root, index / 10), complete=False)
            current = topk.threshold()
            assert current >= previous
            previous = current


class TestPruning:
    def test_prune_below_threshold(self):
        roots = _roots(3)
        topk = TopKSet(1)
        topk.observe(_match(roots[0], 0.9), complete=False)
        doomed = _match(roots[1], 0.1, bound=0.5)
        assert topk.is_pruned(doomed)

    def test_keep_at_threshold(self):
        """A potential tie with an *unfinished* answer survives: that
        answer is not evidence yet (and in exact mode may never be)."""
        roots = _roots(2)
        topk = TopKSet(1)
        topk.observe(_match(roots[0], 0.9), complete=False)
        tie = _match(roots[1], 0.2, bound=0.9)
        assert topk.closing_level() == float("-inf")
        assert not topk.is_pruned(tie)

    def test_tie_with_k_completed_answers_is_closed(self):
        roots = _roots(3)
        topk = TopKSet(2)
        topk.observe(_match(roots[0], 0.9), complete=True)
        tie = _match(roots[2], 0.2, bound=0.7)
        assert not topk.is_pruned(tie)  # one completed answer, k = 2
        topk.observe(_match(roots[1], 0.7), complete=True)
        assert topk.closing_level() == topk.threshold() == pytest.approx(0.7)
        assert topk.is_pruned(tie)
        assert not topk.is_pruned(_match(roots[2], 0.2, bound=0.71))

    def test_closing_level_lags_the_threshold(self):
        """Entry scores move the threshold, completed scores the closing
        level: a tie with the threshold alone is kept."""
        roots = _roots(3)
        topk = TopKSet(1)
        topk.observe(_match(roots[0], 0.5), complete=True)
        topk.observe(_match(roots[1], 0.8), complete=False)
        assert (topk.threshold(), topk.closing_level()) == (0.8, 0.5)
        assert not topk.is_pruned(_match(roots[2], 0.1, bound=0.8))
        assert topk.is_pruned(_match(roots[2], 0.1, bound=0.5))

    def test_keep_above_threshold(self):
        roots = _roots(2)
        topk = TopKSet(1)
        topk.observe(_match(roots[0], 0.5), complete=False)
        contender = _match(roots[1], 0.1, bound=0.8)
        assert not topk.is_pruned(contender)


class TestRoundingFactor:
    """A bound is a float sum in server order, a final score one in visit
    order; comparisons take the bound times :func:`bound_factor`."""

    def test_the_factor_dominates_every_visit_order_sum(self):
        """``server-order sum x f`` is at least the sum in every order of
        any terms at most as large — the finals a bound covers."""
        rng = random.Random(7)
        for _ in range(300):
            servers = rng.randint(1, 7)
            caps = [
                rng.choice((0.0, 1.0, 0.9999999999999999, rng.random()))
                for _ in range(servers)
            ]
            bound = 0.0
            for cap in caps:
                bound += cap
            finals = [cap * rng.choice((1.0, 1.0, rng.random())) for cap in caps]
            for order in itertools.islice(itertools.permutations(finals), 50):
                final = 0.0
                for term in order:
                    final += term
                assert final <= bound * bound_factor(servers)
        # The case the factor exists for: the same terms, another order.
        terms = (0.0, 0.9999999999999999, 0.9999999999999999, 0.9999999999999999, 1.0)
        in_server_order = sum(terms)
        in_visit_order = sum(terms[-1:] + terms[:-1])
        assert in_visit_order > in_server_order
        assert in_visit_order <= in_server_order * bound_factor(4)
        assert bound_factor(4) - 1.0 < 1e-14

    def test_a_bound_an_ulp_below_the_threshold_is_kept(self):
        """Its tuple may finish at the threshold's float in another order."""
        roots = _roots(2)
        topk = TopKSet(1, bound_factor=bound_factor(4))
        topk.observe(_match(roots[0], 4.0), complete=False)
        close_call = _match(roots[1], 1.0, bound=math.nextafter(4.0, 0.0))
        assert not topk.is_pruned(close_call)
        exact = TopKSet(1)
        exact.observe(_match(roots[0], 4.0), complete=False)
        assert exact.is_pruned(close_call)

    def test_a_bound_an_ulp_above_the_closing_level_is_closed(self):
        """A tie group that completed at 3.9999999999999996 closes a cousin
        bounded at 4.0: it can at best tie that level."""
        roots = _roots(3)
        topk = TopKSet(1, bound_factor=bound_factor(4))
        topk.observe(_match(roots[0], 3.9999999999999996), complete=True)
        assert topk.is_pruned(_match(roots[1], 3.0, bound=4.0))
        assert not topk.is_pruned(_match(roots[2], 3.0, bound=4.000001))
        exact = TopKSet(1)
        exact.observe(_match(roots[0], 3.9999999999999996), complete=True)
        assert not exact.is_pruned(_match(roots[1], 3.0, bound=4.0))


class TestCompleteMode:
    def test_partial_scores_do_not_raise_complete_threshold(self):
        roots = _roots(2)
        topk = TopKSet(1, threshold_source="complete")
        topk.observe(_match(roots[0], 0.9), complete=False)
        assert topk.threshold() == 0.0
        topk.observe(_match(roots[1], 0.4), complete=True)
        assert topk.threshold() == pytest.approx(0.4)

    def test_answers_only_from_complete_matches(self):
        roots = _roots(2)
        topk = TopKSet(2, threshold_source="complete")
        topk.observe(_match(roots[0], 0.9), complete=False)
        topk.observe(_match(roots[1], 0.4), complete=True)
        answers = topk.answers()
        assert len(answers) == 1
        assert answers[0].score == pytest.approx(0.4)

    def test_complete_score_tracked_separately(self):
        roots = _roots(1)
        topk = TopKSet(1, threshold_source="complete")
        topk.observe(_match(roots[0], 0.9), complete=False)
        topk.observe(_match(roots[0], 0.6), complete=True)
        assert topk.answers()[0].score == pytest.approx(0.6)


class TestValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKSet(0)

    def test_threshold_source_validated(self):
        with pytest.raises(ValueError):
            TopKSet(1, threshold_source="sometimes")


class TestAnswersAndSnapshot:
    def test_answers_sorted_ties_by_document_order(self):
        roots = _roots(3)
        topk = TopKSet(3)
        topk.observe(_match(roots[2], 0.5), complete=True)
        topk.observe(_match(roots[0], 0.5), complete=True)
        topk.observe(_match(roots[1], 0.9), complete=True)
        answers = topk.answers()
        assert [a.root_node.dewey for a in answers] == [(1,), (0,), (2,)]

    def test_answers_prefer_a_complete_representative_among_ties(self):
        roots = _roots(3)
        topk = TopKSet(2)
        topk.observe(_match(roots[0], 0.5), complete=False)
        topk.observe(_match(roots[1], 0.9), complete=True)
        topk.observe(_match(roots[2], 0.5), complete=True)
        assert [a.root_node.dewey for a in topk.answers()] == [(1,), (2,)]

    def test_a_partial_an_ulp_above_the_closing_level_ranks_after_it(self):
        """Its completing tuple was closed as a tie of the k-th level: the
        root that completed there is returned, not the partial one."""
        roots = _roots(3)
        kth = 2.7883523646393615
        topk = TopKSet(2, bound_factor=bound_factor(5))
        topk.observe(_match(roots[0], 3.0), complete=True)
        topk.observe(_match(roots[1], math.nextafter(kth, 3.0)), complete=False)
        topk.observe(_match(roots[2], kth), complete=True)
        answers = topk.answers()
        assert [a.root_node.dewey for a in answers] == [(0,), (2,)]
        assert [a.score for a in answers] == [3.0, kth]

    def test_a_partial_an_ulp_above_its_own_completed_score_is_not_returned(self):
        """Root closing dropped its completion: the root's completed match,
        which ties it, represents the root."""
        roots = _roots(1)
        done = 2.7883523646393615
        topk = TopKSet(1, bound_factor=bound_factor(5))
        complete = _match(roots[0], done)
        topk.observe(complete, complete=True)
        topk.observe(_match(roots[0], math.nextafter(done, 3.0)), complete=False)
        (answer,) = topk.answers()
        assert answer.match is complete and answer.score == done
        exact = TopKSet(1)
        exact.observe(complete, complete=True)
        exact.observe(_match(roots[0], 2.8), complete=False)
        assert exact.answers()[0].score == 2.8

    def test_answers_capped_at_k(self):
        roots = _roots(5)
        topk = TopKSet(2)
        for index, root in enumerate(roots):
            topk.observe(_match(root, index), complete=True)
        assert len(topk.answers()) == 2

    def test_snapshot(self):
        roots = _roots(2)
        topk = TopKSet(2)
        topk.observe(_match(roots[0], 0.3), complete=False)
        topk.observe(_match(roots[1], 0.7), complete=False)
        snapshot = topk.snapshot()
        assert snapshot[0][1] == pytest.approx(0.7)


class TestThreadSafety:
    def test_concurrent_observes(self):
        roots = _roots(64)
        topk = TopKSet(5)

        def worker(chunk):
            for root in chunk:
                topk.observe(_match(root, root.dewey[0] / 100), complete=True)

        threads = [
            threading.Thread(target=worker, args=(roots[i::4],)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert topk.entry_count() == 64
        answers = topk.answers()
        assert [a.root_node.dewey[0] for a in answers] == [63, 62, 61, 60, 59]
