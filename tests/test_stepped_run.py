"""A run advanced in budget steps on one instance equals the unstepped run.

A budget exit parks the live matches on the engine instance; raising
``max_operations`` and calling ``run()`` again continues from them.  The
contract pinned here, for all three engines, Q1–Q3, relaxed and exact,
budgets from 1 to larger-than-the-run:

- the final answers are a correct top-k of the ``lockstep_noprun`` ranking
  (``repro.core.topk.topk_mismatch``); for the two single-threaded engines
  they are the unstepped run's root for root, and so are the
  ``ExecutionStats`` counters and the sequence of (server, match root)
  operations (Whirlpool-M's thread interleaving makes those — and which
  roots it returns among ties at the k-th score — schedule-dependent);
- one checkpoint per budget exit, and no match is encoded twice;
- restoring a *fresh* instance from any step's snapshot converges to the
  same answers (what failover does);
- at every budget exit the certificate
  (``repro.core.topk.certificate_ceiling``) is sound against the full
  ``lockstep_noprun`` ranking.

The last section drives a :class:`~repro.cluster.worker.ShardWorker`
in-process: a fault-free query never restores, an in-engine crash is
followed by exactly one restore, and the final reply is the same.
"""

import contextlib
import json

import pytest

import repro.core.base as core_base
import repro.recovery.codec as codec
from repro.bench.params import QUERIES
from repro.bench.step_codec import begin_frame, counted
from repro.cluster.partition import build_shard_specs
from repro.cluster.worker import ShardWorker
from repro.core.engine import Engine
from repro.core.trace import ExecutionTrace
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.core.topk import certificate_breach, ranked, topk_mismatch
from repro.recovery.policy import CheckpointPolicy
from tests.conftest import assert_same_topk, full_ranking, run_fingerprint

K = 5
WHOLE_RUN = 10**6
BUDGETS = {
    "whirlpool_s": (1, 7, 60, WHOLE_RUN),
    "lockstep": (1, 7, 60, WHOLE_RUN),
    # A Whirlpool-M step polls its budget every few milliseconds, so small
    # budgets overshoot; these still give several exits on Q2/Q3.
    "whirlpool_m": (1, 40, WHOLE_RUN),
}
#: LockStep re-enters by sweeping every parked match past the servers it
#: has visited; relaxed Q3 is 5,678 operations there, so budget 1 alone
#: would take half a minute.
SLOW = ("lockstep", "Q3", True)
CASES = [
    (algorithm, query, relaxed, budget)
    for algorithm, budgets in BUDGETS.items()
    for query in QUERIES
    for relaxed in (True, False)
    for budget in ((60, 900, WHOLE_RUN) if (algorithm, query, relaxed) == SLOW else budgets)
]


class OperationTrace(ExecutionTrace):
    """An :class:`ExecutionTrace` that also keeps, per server operation,
    what identifies it across runs (match ids are process-wide counters)."""

    def __init__(self):
        super().__init__()
        self.operations = []

    def on_route(self, match, server_id, threshold):
        super().on_route(match, server_id, threshold)
        self.operations.append(
            (server_id, tuple(match.root_node.dewey), round(match.score, 9))
        )


@pytest.fixture(scope="module")
def engines(xmark_db):
    return {
        (query, relaxed): Engine(xmark_db, QUERIES[query], relaxed=relaxed)
        for query in QUERIES
        for relaxed in (True, False)
    }


@pytest.fixture(scope="module")
def rankings(engines):
    """Every root with its final score, best first, per (query, relaxed)."""
    return {key: full_ranking(engine) for key, engine in engines.items()}


def answer_keys(result):
    return [
        (tuple(answer.root_node.dewey), round(answer.score, 9))
        for answer in result.answers
    ]


def counters(result):
    stats = run_fingerprint(result)[2]
    del stats["checkpoints_taken"]
    return stats


@contextlib.contextmanager
def seeding(starts, seeded):
    """While the block runs, count into ``starts[0]`` the runs that started
    fresh — seeding every root up front, or opening Whirlpool-S's cursor
    over them — and append to ``seeded`` the root of every seed Whirlpool-S
    makes as it goes."""
    original = core_base.EngineBase.seed

    def counting(self, root):
        seeded.append(tuple(root[2].dewey))
        return original(self, root)

    with counted(core_base.EngineBase, "seed_matches", starts), counted(
        core_base.EngineBase, "open_roots", starts
    ):
        core_base.EngineBase.seed = counting
        try:
            yield
        finally:
            core_base.EngineBase.seed = original


def stepped(engine, algorithm, budget, observer=None):
    """Advance one instance ``budget`` operations at a time to completion.
    Returns (final result, [(answers, pending_bound) per budget exit that
    left work queued], snapshots taken, run() calls that hit the budget)."""
    snapshots = []
    run = engine.open(
        K,
        algorithm=algorithm,
        observer=observer,
        max_operations=budget,
        checkpoint_policy=CheckpointPolicy(every_operations=budget),
        checkpoint_sink=snapshots.append,
    )
    exits = []
    budget_hits = 0
    while True:
        result = run.run()
        budget_hits += result.stats.server_operations >= run.max_operations
        if not result.degraded:
            return result, exits, snapshots, budget_hits
        exits.append((ranked(result.answers), result.pending_bound))
        run.max_operations = result.stats.server_operations + budget


@pytest.mark.parametrize("algorithm,query,relaxed,budget", CASES)
def test_stepped_equals_unstepped(engines, rankings, algorithm, query, relaxed, budget):
    engine = engines[query, relaxed]
    ranking = rankings[query, relaxed]
    whole_trace = OperationTrace()
    whole = engine.run(K, algorithm=algorithm, observer=whole_trace)

    built = {}
    original = codec.match_payload

    def counting_payload(match):
        built[match.match_id] = built.get(match.match_id, 0) + 1
        return original(match)

    step_trace = OperationTrace()
    codec.match_payload = counting_payload
    try:
        final, exits, snapshots, budget_hits = stepped(
            engine, algorithm, budget, observer=step_trace
        )
    finally:
        codec.match_payload = original

    assert_same_topk(ranking, final)
    assert final.pending_bound == 0.0
    if algorithm != "whirlpool_m":
        assert answer_keys(final) == answer_keys(whole)
        assert counters(final) == counters(whole)
        assert step_trace.operations == whole_trace.operations
    if budget == WHOLE_RUN:
        assert not exits
    if budget == 1 and algorithm != "whirlpool_m":
        # An exit after every operation (the last one may leave nothing queued).
        assert len(exits) in (final.stats.server_operations - 1, final.stats.server_operations)

    # One checkpoint per budget exit (the last operation of a run can
    # land on the budget and leave nothing queued: an exit all the same),
    # each match encoded at most once.
    assert final.stats.checkpoints_taken == len(snapshots)
    assert len(snapshots) in (len(exits), len(exits) + 1)
    if algorithm != "whirlpool_m":  # M notices its budget only between polls
        assert len(snapshots) == budget_hits
    assert all(count == 1 for count in built.values())

    # The certificate at every exit: a root outside the reported answers
    # finishes no higher than pending_bound — or, when its work is already
    # over, no higher than the k-th reported score it failed to beat.
    for reported, pending_bound in exits:
        assert certificate_breach(ranking, reported, K, pending_bound) is None

    # Failover identity: a fresh instance restored from a step's snapshot
    # (through JSON, as the coordinator's store holds it) converges too.
    for snapshot in snapshots[:: max(1, len(snapshots) // 3)]:
        resumed = engine.run(
            K, algorithm=algorithm, restore_from=json.loads(json.dumps(snapshot))
        )
        assert not resumed.degraded
        assert_same_topk(ranking, resumed)
        if algorithm != "whirlpool_m":
            assert answer_keys(resumed) == answer_keys(whole)


@pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep"])
def test_a_restored_run_does_not_re_encode_its_snapshot(engines, shapes, algorithm):
    """The snapshot a run is restored from *is* its checkpoint at that
    operation count: the next one is due a full interval later."""
    engine = engines["Q2", True]
    shape = shapes.engine(engine, K, algorithm)
    interval, budget = shape.budget(0.25), shape.budget(0.6)
    assert 2 * interval < budget < min(3 * interval, shape.operations)
    snapshots = []
    engine.run(
        K,
        algorithm=algorithm,
        max_operations=interval,
        checkpoint_policy=CheckpointPolicy(every_operations=interval),
        checkpoint_sink=snapshots.append,
    )
    assert len(snapshots) == 1
    later = []
    resumed = engine.run(
        K,
        algorithm=algorithm,
        restore_from=snapshots[0],
        max_operations=budget,
        checkpoint_policy=CheckpointPolicy(every_operations=interval),
        checkpoint_sink=later.append,
    )
    assert [snapshot["operations"] for snapshot in later] == [2 * interval, budget]
    assert resumed.degraded and resumed.stats.server_operations == budget


@pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep"])
def test_a_budget_exit_with_nothing_queued_is_parked_too(engines, algorithm):
    """A budget that lands on the run's last operation leaves nothing
    queued; running the instance again finishes that run — it does not
    seed the query a second time on the same top-k set and counters.
    (k = every root: at a smaller k the last operation is followed by
    pops that close ties, and a budget equal to the operation count exits
    with those still queued.)"""
    engine = engines["Q1", False]
    k = len(engine.index[engine.pattern.root.tag])
    whole = engine.run(k, algorithm=algorithm)
    run = engine.open(
        k, algorithm=algorithm, max_operations=whole.stats.server_operations
    )
    starts, seeded = [0], []
    with seeding(starts, seeded):
        first = run.run()
        run.max_operations += 10
        second = run.run()
    # A parked run never starts over, nor seeds a root a second time.
    assert starts[0] == 1
    assert len(seeded) == len(set(seeded))
    assert not first.degraded and first.pending_bound == 0.0
    assert answer_keys(second) == answer_keys(first) == answer_keys(whole)
    assert counters(second) == counters(whole)


# -- the shard worker's step path, driven in-process --------------------------------


CRASH = FaultPlan([FaultRule(FaultSite.SERVER_OP, FaultAction.CRASH, nth=10, times=1)])


def drive(worker, documents, begin, crash_on_step=None):
    """init → begin → step until done.  ``crash_on_step`` arms an engine
    CRASH for that one step (a shipped plan is re-armed by every step, so
    it would crash them all); the refused step is retried fault-free, as
    the coordinator does.  Returns (final reply, restore calls)."""
    restores = [0]
    with counted(core_base, "restore_engine_state", restores):
        for frame in ({"op": "init", "id": 1, "documents": documents}, {**begin, "id": 2}):
            reply, _ = worker.handle(frame)
            assert reply["ok"], reply
        step = 0
        while True:
            step += 1
            if step == crash_on_step:
                worker.engine_faults = CRASH
                reply, _ = worker.handle({"op": "step", "id": 10 + step})
                worker.engine_faults = None
                assert not reply["ok"] and reply["resumable"], reply
                assert worker.live_run is None and restores[0] == 0
                reply, _ = worker.handle(
                    {"op": "step", "id": 100 + step, "fault_free": True}
                )
                assert restores[0] == 1
            else:
                reply, _ = worker.handle({"op": "step", "id": 10 + step})
            assert reply["ok"], reply
            if reply["done"]:
                return reply, restores[0]
            assert worker.live_run is not None
            assert set(reply["checkpoint"]) == {"text", "crc"}
            assert json.loads(reply["checkpoint"]["text"]) == worker.snapshot


def comparable(reply):
    stats = dict(reply["stats"])
    del stats["wall_time_seconds"], stats["checkpoints_taken"]
    return {**reply, "id": None, "stats": stats}


def reply_keys(reply):
    return [
        (tuple(root), round(score, 9)) for root, score, _ in reply["answers"]
    ]


@pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep", "whirlpool_m"])
def test_worker_restores_only_after_a_crash(xmark_db_large, algorithm):
    # The larger document, a larger k and, for Whirlpool-M, the larger
    # query: it enforces its budget from a polling main thread, and a run of
    # a few hundred operations fits in a poll or two — the step to crash
    # would sometimes have under ten operations left.
    k = 40
    spec = build_shard_specs(xmark_db_large, 1)[0]
    documents = list(spec.xml_texts)
    engine = Engine(xmark_db_large, QUERIES["Q3" if algorithm == "whirlpool_m" else "Q2"])
    begin = begin_frame(engine, k, 60, algorithm=algorithm)
    clean, restores = drive(ShardWorker(0), documents, begin)
    assert restores == 0
    assert topk_mismatch(full_ranking(engine), reply_keys(clean), k) is None

    # Crash the second step — there is a resident snapshot by then: the
    # live run is dropped, the retry restores from the snapshot, once.
    crashed, restores = drive(ShardWorker(0), documents, begin, crash_on_step=2)
    assert restores == 1
    assert topk_mismatch(full_ranking(engine), reply_keys(crashed), k) is None
    if algorithm != "whirlpool_m":
        # Whirlpool-M's thread interleaving may pick a different root
        # among ties at the k-th score, or a different equal-score witness
        # for the same root, so only the sequential engines are held to
        # the full payload.
        assert comparable(crashed) == comparable(clean)


DROP = FaultPlan([FaultRule(FaultSite.SERVER_OP, FaultAction.DROP, nth=1, times=1)])
STEP_CAP = 5000


def drive_dropping(worker, documents, begin, budget, restore_every_step=False):
    """init → begin → step by ``budget`` until done, with one engine DROP
    armed for the first step only.  ``restore_every_step`` forgets the live run
    before each step, so every step restores from the resident snapshot —
    the recovery path, taken all the way.  Returns (final reply, steps)."""
    for frame in ({"op": "init", "id": 1, "documents": documents}, {**begin, "id": 2}):
        reply, _ = worker.handle(frame)
        assert reply["ok"], reply
    for step in range(1, STEP_CAP):
        if restore_every_step:
            worker.live_run = None
        worker.engine_faults = DROP if step == 1 else None
        reply, _ = worker.handle({"op": "step", "id": 10 + step, "operations": budget})
        assert reply["ok"], reply
        if reply["done"]:
            return reply, step
    raise AssertionError(f"still not done after {STEP_CAP} steps")


@pytest.mark.parametrize("relaxed", [True, False])
@pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep", "whirlpool_m"])
def test_worker_finishes_a_run_that_lost_a_match(xmark_db, algorithm, relaxed):
    """A run that dropped a match reports degraded from then on, so a
    budget exit that leaves nothing queued still answers "not done": the
    next step must finish that run — an empty exit is parked like any
    other — not seed the query again on the same top-k set."""
    spec = build_shard_specs(xmark_db, 1)[0]
    documents = list(spec.xml_texts)
    begin = begin_frame(
        Engine(xmark_db, QUERIES["Q2"], relaxed=relaxed), K, 1, algorithm=algorithm
    )
    starts, seeded = [0], []
    with seeding(starts, seeded):
        live, live_steps = drive_dropping(ShardWorker(0), documents, begin, budget=1)
    assert starts[0] == 1
    assert len(seeded) == len(set(seeded))
    assert live["degraded"] and live["pending_bound"] > 0.0
    if algorithm != "whirlpool_m":  # which match M drops depends on its schedule
        restored, restored_steps = drive_dropping(
            ShardWorker(0), documents, begin, budget=1, restore_every_step=True
        )
        # The live run remembers its loss, a restored one does not (the
        # worker's lost_bound does): an empty exit costs the former one
        # more, empty, step.
        assert live_steps in (restored_steps, restored_steps + 1)
        assert comparable(live) == comparable(restored)


@pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep"])
def test_worker_takes_one_checkpoint_per_step_whatever_the_budgets(
    engines, shapes, xmark_db, algorithm
):
    """The checkpoint interval follows each step frame's budget: a step
    larger than the ones before it still ends in its single budget-exit
    checkpoint, with none taken on the way."""
    # Four budgets short of the whole run, the last larger than any before
    # it; the fifth finishes.
    shape = shapes.engine(engines["Q2", True], K, algorithm)
    budgets = [shape.budget(share) for share in (0.05, 0.15, 0.1, 0.3)]
    assert sum(budgets) < shape.operations and budgets[3] > max(budgets[:3])
    spec = build_shard_specs(xmark_db, 1)[0]
    worker = ShardWorker(0)
    begin = begin_frame(engines["Q2", True], K, budgets[0], algorithm=algorithm)
    for frame in (
        {"op": "init", "id": 1, "documents": list(spec.xml_texts)},
        {**begin, "id": 2},
    ):
        reply, _ = worker.handle(frame)
        assert reply["ok"], reply
    for step, budget in enumerate(budgets + [WHOLE_RUN], start=1):
        reply, _ = worker.handle({"op": "step", "id": 10 + step, "operations": budget})
        assert reply["ok"], reply
        if reply["done"]:
            break
        assert reply["stats"]["checkpoints_taken"] == step
    assert reply["done"] and step == 5
    assert reply["stats"]["checkpoints_taken"] == 4
