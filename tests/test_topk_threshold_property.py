"""Property test: the incremental top-k threshold equals its definition.

``TopKSet.observe`` keeps the k best threshold-relevant scores as it goes so
that ``threshold()`` reads a stored float.  The definition it must agree
with is the one the paper gives for ``currentTopK`` and the one this file
keeps as the oracle: collect the best score per distinct root (every
observation in ``"all"`` mode, completed tuples only in ``"complete"``
mode), sort, take the k-th — or 0 while fewer than k roots qualify.

Generated ``observe`` sequences draw roots from a pool smaller than the
sequence (duplicate roots), scores from a five-value grid (rising, equal
and falling re-observations, ties at the k-th), k up to one past the pool
(fewer than k roots) and both ``threshold_source`` modes; the threshold is
compared after every step, and again after an ``export_state`` →
replay-``observe`` round trip done the way ``recovery.codec`` restores.

**The test bites.**  Hand mutants of ``TopKSet.observe`` — textual edits of
its source, so a mutant cannot outlive the line it mutates — each run
against the same property:

- ``kth_off_by_one`` — the sorted list holds k+1 scores, so the (k+1)-th
  best is published: **killed**;
- ``evicts_without_beating`` — a root outside the k best displaces the k-th
  without beating it: **killed**;
- ``root_counted_twice`` — a raised root's old score is never retired:
  **killed**;
- ``complete_counts_all`` — ``"complete"`` mode counts incomplete entries:
  **killed**;
- ``evicts_on_tie`` — ``>`` → ``>=`` on eviction: **survives**.

``evicts_on_tie`` is an *equivalent* mutant and is asserted to survive: the
threshold is a function of the multiset of the k best scores, and evicting
the k-th for an equal score leaves that multiset unchanged — roots tied at
the k-th are interchangeable, which is why the list holds bare values and no
root identities.
"""

import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import topk as topk_module
from repro.core.match import PartialMatch
from repro.core.topk import TopKSet
from repro.xmldb.model import Database, XMLNode

POOL = 5
SERVER_IDS = (1, 2)
ROOTS = [doc.root for doc in Database.from_roots([XMLNode("r") for _ in range(POOL)]).documents]

#: (root ordinal, score, servers visited): a tuple is complete once it has
#: visited every server, which is also how the codec's replay decides.
OBSERVATIONS = st.lists(
    st.tuples(
        st.integers(0, POOL - 1),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.integers(0, len(SERVER_IDS)),
    ),
    max_size=40,
)


def _match(root: int, score: float, visited: int) -> PartialMatch:
    return PartialMatch(ROOTS[root], {}, {}, frozenset(SERVER_IDS[:visited]), score)


def oracle_threshold(observed, k: int, source: str) -> float:
    """Sort every root's best qualifying score; the k-th, or 0."""
    best = {}
    for root, score, visited in observed:
        if source == "complete" and visited < len(SERVER_IDS):
            continue
        best[root] = max(best.get(root, float("-inf")), score)
    scores = sorted(best.values(), reverse=True)
    return scores[k - 1] if len(scores) >= k else 0.0


def _replayed(original: TopKSet, cls) -> TopKSet:
    """A fresh set rebuilt from ``export_state`` as the codec rebuilds it."""
    restored = cls(original.k, original.threshold_source)
    for match, complete_match in original.export_state():
        restored.observe(match, complete=match.is_complete(SERVER_IDS))
        if complete_match is not None:
            restored.observe(complete_match, complete=True)
    return restored


def check_threshold_property(cls) -> None:
    """Run the property against ``cls`` (TopKSet or a mutant of it)."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        observations=OBSERVATIONS,
        k=st.integers(1, POOL + 1),
        source=st.sampled_from(["all", "complete"]),
    )
    def run(observations, k, source):
        topk = cls(k, source)
        for step, (root, score, visited) in enumerate(observations, start=1):
            topk.observe(_match(root, score, visited), complete=visited == len(SERVER_IDS))
            expected = oracle_threshold(observations[:step], k, source)
            assert topk.threshold() == expected
            assert topk.is_pruned(_match(root, 0.5, visited)) == (0.5 < expected)
        assert _replayed(topk, cls).threshold() == oracle_threshold(observations, k, source)

    run()


def test_incremental_threshold_equals_sorted_oracle():
    check_threshold_property(TopKSet)


MUTANTS = {
    "kth_off_by_one": [("len(best) == self.k", "len(best) == self.k + 1")],
    "evicts_without_beating": [("if new > best[0]:", "if True:")],
    "root_counted_twice": [("if old != _NEG_INF:", "if False:")],
    "complete_counts_all": [
        ("old = entry.complete_score if complete_only else entry.score", "old = entry.score"),
        ("new = entry.complete_score if complete_only else entry.score", "new = entry.score"),
    ],
    "evicts_on_tie": [("if new > best[0]:", "if new >= best[0]:")],
}
EQUIVALENT = {"evicts_on_tie"}


def _mutant(edits):
    source = textwrap.dedent(inspect.getsource(TopKSet.observe))
    for old, new in edits:
        assert old in source, f"mutation site {old!r} left TopKSet.observe: update MUTANTS"
        source = source.replace(old, new)
    namespace = dict(vars(topk_module))
    exec(compile(source, "<mutant of TopKSet.observe>", "exec"), namespace)
    return type("MutantTopKSet", (TopKSet,), {"observe": namespace["observe"]})


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_property_kills_hand_mutants(name):
    mutant = _mutant(MUTANTS[name])
    if name in EQUIVALENT:
        check_threshold_property(mutant)
    else:
        with pytest.raises(AssertionError):
            check_threshold_property(mutant)
