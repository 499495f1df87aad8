"""Property tests: the top-k set's two incremental levels equal their
definitions, and the pruning rule built on them returns the right answers.

``TopKSet.observe`` keeps the k best per-root scores and the k best per-root
*completed* scores as it goes, so that ``is_pruned()`` reads two stored
floats and the tuple's own root's entry.  The definitions they must agree
with are the ones this file keeps as oracles, all sort-everything:

- the **threshold** (the paper's ``currentTopK``): the best score per
  distinct root (every observation in ``"all"`` mode, completed tuples only
  in ``"complete"`` mode), sorted, the k-th — or 0 while fewer than k roots
  qualify;
- the **closing level**: the best *completed* score per distinct root,
  sorted, the k-th — or -inf while fewer than k roots have one;
- a root's **own level**: its best *completed* score, -inf while it has
  none.

Generated ``observe`` sequences draw roots from a pool smaller than the
sequence (duplicate roots), scores from a five-value grid (rising, equal
and falling re-observations, ties at the k-th), k up to one past the pool
(fewer than k roots) and both ``threshold_source`` modes; both levels are
compared after every step, ``closes`` with ``bound < threshold or bound <=
closing level`` and ``is_pruned`` with that ``or bound <= own level`` for
every root over the whole grid, and all of it again after an
``export_state`` -> ``restore_state`` round trip (what ``recovery.codec``
does).  The set multiplies bounds by ``bound_factor`` as the engines' sets
do; on the grid that changes no comparison of the exact forms above, and
it is what tells a rounding-tolerant test from a strict one.

A level can equal its definition and still be the wrong thing to prune on,
so there is a second, *answers* oracle: Whirlpool-S, LockStep and a
snapshot-restored run on seeded forests where most roots tie and one server
contributes nothing (``tests/test_differential.py``'s), relaxed and exact,
held to the ``lockstep_noprun`` ranking by the shared same-top-k rule, every
relaxed answer a complete match.

**The tests bite.**  Hand mutants of ``repro/core/topk.py`` — textual edits
of its source, so a mutant cannot outlive the line it mutates — each run
against both oracles; the table says which must kill it:

- ``kth_off_by_one`` — the sorted lists hold k+1 scores, so the (k+1)-th
  best is published: killed by the **levels**;
- ``evicts_without_beating`` — a root outside the k best displaces the k-th
  without beating it: killed by the **levels**;
- ``root_counted_twice`` — a raised root's old score is never retired:
  killed by the **levels**;
- ``complete_counts_all`` — ``"complete"`` mode's threshold counts
  incomplete entries: killed by the **levels**;
- ``closing_from_entry_score`` — the closing level is fed every entry
  score, completed or not.  Unsound in exact mode, where a partial match may
  yet die; in relaxed mode a root's own partial representative then closes
  itself one hop short of a server that contributes nothing, and is
  returned incomplete.  Killed by the **answers**;
- ``closing_before_k_complete`` — the closing level is published while
  fewer than k roots are complete: killed by the **answers** (and the
  levels);
- ``closing_not_rebuilt_on_restore`` — ``restore_state`` replays a complete
  match as an ordinary one: killed by the **levels** (after the round
  trip);
- ``evicts_on_tie`` — ``>`` → ``>=`` on eviction: **survives** both;
- ``keeps_ties`` — ``<=`` → ``<`` against the closing level, here and in
  ``EngineBase.absorb_extensions``: killed by the ``is_pruned`` comparison,
  **survives** the answers;
- ``ignores_own_root`` — the own-level test is dropped: killed by the
  ``is_pruned`` comparison, **survives** the answers;
- ``own_root_strict`` — the own-level test in the strict form ``bound × f
  <= own level``: killed by the ``is_pruned`` comparison (a bound equal to
  its root's completed score is not pruned), **survives** the answers;
- ``own_root_from_entry_score`` — the own level is the root's entry score,
  completed or not: killed by the **levels** and by the **answers** (a
  relaxed root's partial representative, one hop short of a server that
  adds nothing, closes itself and is returned incomplete).

``evicts_on_tie`` is an *equivalent* mutant and is asserted to survive: a
level is a function of the multiset of the k best scores, and evicting the
k-th for an equal score leaves that multiset unchanged — roots tied at the
k-th are interchangeable, which is why the lists hold bare values and no
root identities.  The own level does not change that: it is read from the
root's entry, which eviction from the lists never touches, so the mutant
moves no ``is_pruned`` answer either.  ``keeps_ties`` is the strict rule
this repo ran before ties were closed, and ``ignores_own_root`` and
``own_root_strict`` prune less than the own-level rule: all three are
equivalent *for answers* — which is the point of closing ties — so only
counts can tell them from the rule: the ``is_pruned`` comparison here, and
the golden operation counts of ``tests/test_anytime.py`` and
``tests/test_hot_path_identity.py``.
"""

import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import base as base_module
from repro.core import topk as topk_module
from repro.core.engine import Engine
from repro.core.match import PartialMatch
from repro.core.topk import TopKSet, bound_factor, ranked, topk_mismatch
from repro.recovery.policy import CheckpointPolicy
from repro.xmldb.model import Database, XMLNode
from tests.conftest import full_ranking
from tests.test_differential import _tied_database

POOL = 5
SERVER_IDS = (1, 2)
ROOTS = [doc.root for doc in Database.from_roots([XMLNode("r") for _ in range(POOL)]).documents]
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
SHAPES = ("none", "child", "deep")

#: (root ordinal, score, servers visited): a tuple is complete once it has
#: visited every server, which is also how ``restore_state`` decides.
OBSERVATIONS = st.lists(
    st.tuples(
        st.integers(0, POOL - 1),
        st.sampled_from(GRID),
        st.integers(0, len(SERVER_IDS)),
    ),
    max_size=40,
)


def _match(root: int, score: float, visited: int) -> PartialMatch:
    return PartialMatch(ROOTS[root], {}, {}, frozenset(SERVER_IDS[:visited]), score)


def _kth_best(observed, k: int, complete_only: bool, below_k: float) -> float:
    """Sort every root's best qualifying score; the k-th, or ``below_k``."""
    best = {}
    for root, score, visited in observed:
        if complete_only and visited < len(SERVER_IDS):
            continue
        best[root] = max(best.get(root, float("-inf")), score)
    scores = sorted(best.values(), reverse=True)
    return scores[k - 1] if len(scores) >= k else below_k


def oracle_threshold(observed, k: int, source: str) -> float:
    return _kth_best(observed, k, source == "complete", 0.0)


def oracle_closing(observed, k: int) -> float:
    return _kth_best(observed, k, True, float("-inf"))


def oracle_own(observed, root: int) -> float:
    """``root``'s best completed score, -inf while it has none."""
    completed = [
        score
        for seen, score, visited in observed
        if seen == root and visited == len(SERVER_IDS)
    ]
    return max(completed, default=float("-inf"))


def _new_set(cls, k: int, source: str) -> TopKSet:
    return cls(k, source, bound_factor(len(SERVER_IDS)))


def _replayed(original: TopKSet, cls) -> TopKSet:
    """A fresh set rebuilt from ``export_state`` as the codec rebuilds it."""
    restored = _new_set(cls, original.k, original.threshold_source)
    restored.restore_state(original.export_state(), SERVER_IDS)
    return restored


def check_levels(cls) -> None:
    """The level property against ``cls`` (TopKSet or a mutant of it)."""

    def agrees(topk, observed, k, source):
        threshold = oracle_threshold(observed, k, source)
        closing = oracle_closing(observed, k)
        assert topk.threshold() == threshold
        assert topk.closing_level() == closing
        for bound in GRID:
            shared = bound < threshold or bound <= closing
            assert topk.closes(bound) == shared
            for root in range(POOL):
                probe = _match(root, 0.0, 0)
                probe.upper_bound = bound
                own = oracle_own(observed, root)
                assert topk.is_pruned(probe) == (shared or bound <= own), (root, bound)

    @settings(
        max_examples=300,
        deadline=None,
        database=None,
        derandomize=True,
        report_multiple_bugs=False,
    )
    @given(
        observations=OBSERVATIONS,
        k=st.integers(1, POOL + 1),
        source=st.sampled_from(["all", "complete"]),
    )
    def run(observations, k, source):
        topk = _new_set(cls, k, source)
        for step, (root, score, visited) in enumerate(observations, start=1):
            topk.observe(_match(root, score, visited), complete=visited == len(SERVER_IDS))
            agrees(topk, observations[:step], k, source)
        agrees(_replayed(topk, cls), observations, k, source)

    run()


def check_answers(cls, monkeypatch) -> None:
    """The answers oracle with ``cls`` as every engine's top-k set."""
    monkeypatch.setattr(base_module, "TopKSet", cls)
    for seed in range(40):
        rng = random.Random(seed)
        forest = [
            [(rng.choice(SHAPES), rng.choice(SHAPES)) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(2, 4))
        ]
        query = "//r[./a and ./b and ./z]"
        k = rng.randint(1, 8)
        for relaxed in (True, False):
            engine = Engine(_tied_database(forest), query, relaxed=relaxed)
            ranking = full_ranking(engine)
            for algorithm in ("whirlpool_s", "lockstep"):
                snapshots = []
                stepped = engine.run(
                    k,
                    algorithm=algorithm,
                    max_operations=2,
                    checkpoint_policy=CheckpointPolicy(every_operations=10**9),
                    checkpoint_sink=snapshots.append,
                )
                results = [engine.run(k, algorithm=algorithm)]
                if stepped.degraded:
                    results.append(
                        engine.run(
                            k,
                            algorithm=algorithm,
                            restore_from=json.loads(json.dumps(snapshots[-1])),
                        )
                    )
                for result in results:
                    case = (seed, relaxed, algorithm)
                    assert not result.degraded, case
                    mismatch = topk_mismatch(ranking, ranked(result.answers), k)
                    assert mismatch is None, (mismatch, case)
                    if relaxed:
                        server_ids = engine.server_node_ids()
                        assert all(
                            answer.match.is_complete(server_ids) for answer in result.answers
                        ), case


def test_incremental_threshold_equals_sorted_oracle():
    check_levels(TopKSet)


def test_engines_return_the_oracle_topk(monkeypatch):
    check_answers(TopKSet, monkeypatch)


#: name -> ([(old text, new text), ...], killed by the levels?, by the answers?)
MUTANTS = {
    "kth_off_by_one": ([("len(best) == k", "len(best) == k + 1")], True, None),
    "evicts_without_beating": ([("if new > best[0]:", "if True:")], True, None),
    "root_counted_twice": ([("if old != _NEG_INF:", "if False:")], True, None),
    "complete_counts_all": (
        [("if score > old and not self._complete_only:", "if score > old:")],
        True,
        None,
    ),
    "closing_from_entry_score": (
        [
            ("if score > old and not self._complete_only:", "if score > old:"),
            ("self._threshold = threshold", "self._threshold = self._closing = threshold"),
        ],
        True,
        True,
    ),
    "closing_before_k_complete": (
        [
            (
                "if closing != _NEG_INF:\n                self._closing = closing",
                "if True:\n                self._closing = closing = self._best_complete[0]",
            )
        ],
        True,
        True,
    ),
    "closing_not_rebuilt_on_restore": (
        [
            (
                "self.observe(complete_match, complete=True)",
                "self.observe(complete_match, complete=False)",
            )
        ],
        True,
        None,
    ),
    "evicts_on_tie": ([("if new > best[0]:", "if new >= best[0]:")], False, False),
    "keeps_ties": ([("bound <= self._closing", "bound < self._closing")], True, False),
    "ignores_own_root": ([("\n            or bound <= own * factor", "")], True, False),
    "own_root_strict": ([("bound <= own * factor", "bound * factor <= own")], True, False),
    "own_root_from_entry_score": (
        [("else entry.complete_score", "else entry.score")],
        True,
        True,
    ),
}


def _mutant(edits):
    source = inspect.getsource(topk_module)
    for old, new in edits:
        assert old in source, f"mutation site {old!r} left repro/core/topk.py: update MUTANTS"
        source = source.replace(old, new)
    namespace = {"__name__": topk_module.__name__}
    exec(compile(source, "<mutant of repro/core/topk.py>", "exec"), namespace)
    return namespace["TopKSet"]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_property_kills_hand_mutants(name, monkeypatch):
    edits, dies_by_levels, dies_by_answers = MUTANTS[name]
    mutant = _mutant(edits)
    if dies_by_levels:
        with pytest.raises(AssertionError):
            check_levels(mutant)
    else:
        check_levels(mutant)
    if name == "keeps_ties":
        # The rule has a second site: the sibling test of a fresh extension.
        method = inspect.getsource(base_module.EngineBase.absorb_extensions)
        assert "bound <= closing" in method
        strict = {}
        exec(
            inspect.cleandoc(method).replace("bound <= closing", "bound < closing"),
            vars(base_module),
            strict,
        )
        monkeypatch.setattr(base_module.EngineBase, "absorb_extensions", strict["absorb_extensions"])
    if dies_by_answers:
        with pytest.raises(AssertionError):
            check_answers(mutant, monkeypatch)
    elif dies_by_answers is False:
        check_answers(mutant, monkeypatch)
