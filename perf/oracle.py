"""Correctness gate: every timed answer is compared to LockStep-NoPrun.

LockStep-NoPrun is the paper's compute-everything-then-sort baseline: it
never reads the top-k threshold, so it cannot share a pruning or routing bug
with the engines being timed.  One run with ``k`` = every root gives the full
ranking; the expected top-k for any k is its prefix, because every engine
orders answers by ``(-score, Dewey)``.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro import Engine
from repro.xmldb.model import Database

Ranking = List[Tuple[Tuple[int, ...], float]]

_ALL_ROOTS = 10**9


def ranking_of(answers: Sequence[Any]) -> Ranking:
    """(root Dewey, score to 9 decimals) per answer, in the order given."""
    return [(answer.root_node.dewey, round(answer.score, 9)) for answer in answers]


def full_ranking(database: Database, xpath: str) -> Ranking:
    """Every candidate root with its score, best first."""
    result = Engine(database, xpath).run(_ALL_ROOTS, algorithm="lockstep_noprun")
    return ranking_of(result.answers)


def answers_match(ranking: Ranking, got: Ranking, k: int) -> bool:
    """Equal scores to 9 decimals, and equal roots except among ties at the
    k-th score, where any root holding that score is a correct answer."""
    expected = ranking[:k]
    if [score for _, score in got] != [score for _, score in expected]:
        return False
    if not expected:
        return True
    kth = expected[-1][1]
    tied = {dewey for dewey, score in ranking if score == kth}
    for (dewey, score), wanted in zip(got, expected):
        if score == kth:
            if dewey not in tied:
                return False
        elif (dewey, score) != wanted:
            return False
    return len({dewey for dewey, _ in got}) == len(got)
