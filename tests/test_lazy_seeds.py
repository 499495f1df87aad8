"""Whirlpool-S seeds a root when it would pop, and nothing else moves.

Whirlpool-S keeps its candidate roots sorted by seed bound behind one
cursor and seeds the next one only when it beats the router queue's head
(``repro/core/whirlpool_s.py``).  A budget exit parks the cursor with the
queue, a checkpoint carries it (``seeded``, ``next_root``) instead of the
seeds.  Pinned here, on a single XMark document and on a four-document
forest, Q1–Q3 at k = 3 / 15 / 75:

- a run stopped at a budget — just before, at and just after the pass
  that seeds the last root the run ever seeds — and continued, parked on
  the same instance or restored into a fresh one from its snapshot, does
  the uninterrupted run's operations, counters and answers; so does a
  chain restored from a fresh snapshot every 60 operations;
- at a budget exit that leaves roots unseeded, ``pending_bound`` covers
  the next root's seed bound and the certificate holds against the
  ``lockstep_noprun`` ranking;
- a snapshot whose cursor names another next root is refused.
"""

import json

import pytest

from repro.bench.params import QUERIES
from repro.bench.step_codec import fixed_forest
from repro.core.engine import Engine
from repro.core.topk import certificate_breach, ranked
from repro.core.trace import EngineObserver
from repro.errors import RecoveryError
from repro.recovery.policy import CheckpointPolicy
from tests.conftest import full_ranking, run_fingerprint

K_VALUES = (3, 15, 75)
CHAIN_STEP = 60
WHOLE_RUN = 10**9


class SeedClock(EngineObserver):
    """Records the operation count at which each root was seeded."""

    def __init__(self):
        self.run = None
        self.seeded_at = []

    def on_seed(self, match, threshold):
        self.seeded_at.append(self.run.stats.server_operations)


@pytest.fixture(scope="module")
def engines(xmark_db_large):
    forest = fixed_forest()
    return {
        (document, query): Engine(database, QUERIES[query])
        for document, database in (("single", xmark_db_large), ("forest", forest))
        for query in QUERIES
    }


def outcome(result):
    """What must not move: counters (checkpoints aside) and answers, bit for bit."""
    _, _, stats = run_fingerprint(result)
    stats = dict(stats)
    del stats["checkpoints_taken"]
    return stats, [(answer.root_node.dewey, answer.score.hex()) for answer in result.answers]


def last_seed(engine, k):
    """The uninterrupted run, and the operation count at which it seeded
    the last root it seeds."""
    clock = SeedClock()
    run = engine.open(k, observer=clock)
    clock.run = run
    result = run.run()
    return result, clock.seeded_at[-1]


def budgets_around(operations, seeded_at):
    """Budgets whose exit lands before, at and after the pass that seeds
    the last root (an exit at ``seeded_at`` operations comes just before
    it), kept inside the run."""
    return sorted({min(max(b, 1), operations - 1) for b in (seeded_at - 1, seeded_at, seeded_at + 1)})


CASES = [
    (document, query, k)
    for document in ("single", "forest")
    for query in QUERIES
    for k in K_VALUES
]


@pytest.mark.parametrize("document,query,k", CASES)
def test_parked_and_restored_runs_equal_the_uninterrupted_run(engines, document, query, k):
    engine = engines[document, query]
    whole, seeded_at = last_seed(engine, k)
    expected = outcome(whole)
    for budget in budgets_around(whole.stats.server_operations, seeded_at):
        snapshots = []
        run = engine.open(
            k,
            max_operations=budget,
            checkpoint_policy=CheckpointPolicy(every_operations=WHOLE_RUN),
            checkpoint_sink=snapshots.append,
        )
        stopped = run.run()
        assert stopped.degraded and stopped.stats.server_operations == budget
        (snapshot,) = snapshots
        run.max_operations = WHOLE_RUN
        assert outcome(run.run()) == expected, ("parked", budget)
        restored = engine.run(k, restore_from=json.loads(json.dumps(snapshot)))
        assert outcome(restored) == expected, ("restored", budget)


@pytest.mark.parametrize("document,query,k", CASES)
def test_a_chain_restored_every_step_equals_the_uninterrupted_run(engines, document, query, k):
    engine = engines[document, query]
    expected = outcome(engine.run(k))
    snapshot = None
    while True:
        snapshots = []
        operations = 0 if snapshot is None else snapshot["operations"]
        result = engine.run(
            k,
            max_operations=operations + CHAIN_STEP,
            checkpoint_policy=CheckpointPolicy(every_operations=WHOLE_RUN),
            checkpoint_sink=snapshots.append,
            restore_from=snapshot,
        )
        if not result.degraded:
            break
        snapshot = json.loads(json.dumps(snapshots[-1]))
    assert outcome(result) == expected


@pytest.mark.parametrize("document", ["single", "forest"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_budget_exit_certifies_the_roots_it_has_not_seeded(engines, document, query):
    engine = engines[document, query]
    ranking = full_ranking(engine)
    k = 15
    _, seeded_at = last_seed(engine, k)
    exits = 0
    # Budget 0 exits before the first seed, with nothing queued.
    for budget in range(0, seeded_at + 1, max(1, seeded_at // 8)):
        run = engine.open(k, max_operations=budget)
        result = run.run()
        assert run.seeded < len(run.seed_order())
        next_bound = -run.seed_order()[run.seeded][0]
        assert result.degraded and result.pending_bound >= next_bound
        assert certificate_breach(ranking, ranked(result.answers), k, result.pending_bound) is None
        exits += 1
    assert exits


def test_a_snapshot_naming_another_next_root_is_refused(engines):
    engine = engines["single", "Q2"]
    snapshots = []
    engine.run(
        15,
        max_operations=5,
        checkpoint_policy=CheckpointPolicy(every_operations=5),
        checkpoint_sink=snapshots.append,
    )
    snapshot = snapshots[-1]
    order = engine.open(15).seed_order()
    seeded = snapshot["seeded"]
    assert 0 < seeded < len(order)
    assert snapshot["next_root"] == list(order[seeded][2].dewey)
    for forged in (
        dict(snapshot, next_root=list(order[seeded + 1][2].dewey)),
        dict(snapshot, seeded=seeded + 1),
        dict(snapshot, seeded=len(order) + 1, next_root=None),
        dict(snapshot, seeded=str(seeded)),
    ):
        with pytest.raises(RecoveryError):
            engine.run(15, restore_from=forged)
    # The untouched snapshot resumes.
    assert not engine.run(15, restore_from=snapshot).degraded


def test_a_snapshot_leaves_out_the_roots_it_has_not_seeded(engines):
    """The roots after the cursor are neither queued seeds nor score-0
    top-k entries in the snapshot: it holds the roots seeded so far."""
    engine = engines["forest", "Q2"]
    snapshots = []
    run = engine.open(
        15,
        max_operations=30,
        checkpoint_policy=CheckpointPolicy(every_operations=30),
        checkpoint_sink=snapshots.append,
    )
    run.run()
    (snapshot,) = snapshots
    total = len(run.seed_order())
    assert snapshot["seeded"] < total
    assert len(snapshot["topk"]) == snapshot["seeded"]
    roots = {tuple(payload[0]) for payload in snapshot["queues"]["router"]}
    unseeded = {entry[2].dewey for entry in run.seed_order()[snapshot["seeded"]:]}
    assert not roots & unseeded
    assert run.stats.partial_matches_created >= total
