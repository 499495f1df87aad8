"""Resident shard workers: what persists across queries, and what must not.

A worker lives as long as its coordinator — spawn, document shipping and
parsing happen once per worker *process*, and the worker keeps its
engines warm — while everything a query owns (fault plans, failover and
rebalance budgets, the counters a result reports, the resident
snapshot) is reset at the next query's ``init`` / ``begin``.  Answers
must stay what a fresh coordinator, and a single process, would return.
"""

import os
import signal

import pytest

import repro.cluster.net as net
from repro.cluster import Coordinator
from repro.cluster.partition import build_shard_specs
from repro.cluster.worker import ENGINE_CACHE_CAP, ShardWorker
from repro.core.engine import Engine
from repro.core.topk import topk_mismatch
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.faults.supervisor import RetryPolicy
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import assert_same_topk, full_ranking, run_fingerprint

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
OTHER_QUERY = "//item[./name and ./incategory]"
K = 4

FAST_LADDER = dict(
    rpc_timeout_seconds=0.25,
    liveness_deadline_seconds=1.0,
    retry_policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
)


@pytest.fixture(scope="module")
def database():
    return generate_database(XMarkConfig(items=40, seed=7))


@pytest.fixture(scope="module")
def ranking(database):
    """The single-process LockStep-NoPrun ranking every answer is held to."""
    return full_ranking(Engine(database, QUERY))


def worker_pids(coordinator):
    return [handle.transport._proc.pid for handle in coordinator.handles]


def process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def kill_plan(shard: int, nth: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.KILL,
                target=str(shard),
                nth=nth,
                times=1,
            )
        ],
        seed=shard * 31 + nth,
    )


def test_workers_live_across_queries_and_die_with_close(database, ranking):
    coordinator = Coordinator(database, shards=2, step_operations=30)
    try:
        pids = []
        for _ in range(3):
            result = coordinator.run_query(QUERY, K)
            assert not result.degraded and result.failovers == 0
            assert_same_topk(ranking, result)
            pids.append(worker_pids(coordinator))
        assert pids[0] == pids[1] == pids[2]
        assert all(process_exists(pid) for pid in pids[0])
    finally:
        coordinator.close()
    assert not any(process_exists(pid) for pid in pids[0])
    assert coordinator.health()["live_shards"] == 0


def test_init_frames_stop_carrying_documents(monkeypatch):
    """First-query ``init`` grows with the shard; later ones do not."""
    init_bytes = []
    encode = net.encode_frame

    def recording(payload, seq=0):
        data = encode(payload, seq=seq)
        if payload.get("op") == "init":
            init_bytes.append(len(data))
        return data

    monkeypatch.setattr(net, "encode_frame", recording)
    per_size = {}
    for items in (10, 60):
        del init_bytes[:]
        forest = generate_database(XMarkConfig(items=items, seed=7))
        with Coordinator(forest, shards=1) as coordinator:
            for _ in range(3):
                coordinator.run_query(QUERY, K)
        per_size[items] = list(init_bytes)
    small, large = per_size[10], per_size[60]
    assert len(small) == len(large) == 3
    assert large[0] > 3 * small[0] > 3000  # the shipped documents
    assert small[1:] == large[1:]  # nothing shard-sized after the first boot
    assert max(large[1:]) < 200


def test_process_fault_plan_dies_with_its_query(database, ranking):
    """A plan whose rule never fired is not left armed: if it were, the
    worker's RPC counter would run on through the next queries and the
    KILL would land in one of them."""
    with Coordinator(database, shards=2, step_operations=1000, **FAST_LADDER) as coordinator:
        first = coordinator.run_query(QUERY, K, faults=kill_plan(0, nth=6))
        assert first.rounds < 5  # begin + steps stayed short of armed RPC #6
        assert first.failovers == 0
        pids = worker_pids(coordinator)
        for _ in range(4):
            result = coordinator.run_query(QUERY, K)
            assert result.failovers == 0 and not result.degraded
            assert_same_topk(ranking, result)
        assert worker_pids(coordinator) == pids


def test_four_queries_three_kills_counters_are_per_query(database, ranking, shapes):
    """The regression: handle-lifetime counters reported per query made
    ``health()`` read 1, 3, 5, 7, a clean fourth query report two
    failovers, and the third single-KILL query lose its shard to a
    ``max_failovers`` budget spent by history."""
    shape = shapes.stepped(database, QUERY, K, steps=2)
    first, last = kill_plan(0, shape.rpc(0, "first")), kill_plan(0, shape.rpc(0, "last"))
    with Coordinator(
        database, shards=2, step_operations=shape.step_operations, **FAST_LADDER
    ) as coordinator:
        reported, totals = [], []
        for plan in (first, last, first, None):
            result = coordinator.run_query(QUERY, K, faults=plan)
            assert not result.degraded and result.missing_shards == []
            assert_same_topk(ranking, result)
            reported.append(result.failovers)
            totals.append(coordinator.health()["failovers"])
        assert reported == [1, 1, 1, 0]
        assert totals == [1, 2, 3, 3]
        health = coordinator.health()
        assert health["queries"] == 4 and health["degraded_queries"] == 0
        assert health["per_shard"][0]["failovers"] == 0  # the last query's count


def test_worker_killed_between_queries_is_replaced(database, ranking):
    with Coordinator(database, shards=2, step_operations=30, **FAST_LADDER) as coordinator:
        coordinator.run_query(QUERY, K)
        before = worker_pids(coordinator)
        victim = coordinator.handles[1].transport._proc
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=5.0)
        result = coordinator.run_query(QUERY, K)
        after = worker_pids(coordinator)
    assert not result.degraded and result.missing_shards == []
    assert result.failovers == 0  # replaced at boot, not failed over
    assert_same_topk(ranking, result)
    assert after[0] == before[0] and after[1] != before[1]


def test_deadline_expired_query_then_a_normal_one(database, ranking):
    with Coordinator(database, shards=2, step_operations=5) as coordinator:
        coordinator.run_query(QUERY, K)  # boot, so the deadline cuts steps
        cut = coordinator.run_query(QUERY, K, deadline_seconds=0.002)
        assert cut.degraded
        result = coordinator.run_query(QUERY, K)
        assert not result.degraded and result.missing_shards == []
        assert result.pending_bound == 0.0 or result.dominated_shards
        assert_same_topk(ranking, result)
        assert coordinator.health()["live_shards"] == 2


def test_interleaved_queries_match_fresh_coordinators(database):
    fresh = {}
    for query in (QUERY, OTHER_QUERY):
        with Coordinator(database, shards=2, step_operations=60) as coordinator:
            fresh[query] = run_fingerprint(coordinator.run_query(query, K))
    with Coordinator(database, shards=2, step_operations=60) as coordinator:
        pids = None
        for query in (QUERY, OTHER_QUERY, QUERY, OTHER_QUERY):
            result = coordinator.run_query(query, K)
            assert run_fingerprint(result) == fresh[query]
            pids = pids or worker_pids(coordinator)
        assert worker_pids(coordinator) == pids
    other = Engine(database, OTHER_QUERY)
    assert topk_mismatch(full_ranking(other), fresh[OTHER_QUERY][0], K) is None


# -- the worker's engine cache, driven in-process --------------------------------


def begin_frame(database, query, rpc_id, **overrides):
    engine = Engine(database, query)
    frame = {
        "op": "begin",
        "id": rpc_id,
        "query": engine.pattern.to_xpath(),
        "k": K,
        "relaxed": True,
        "contributions": engine.score_model.contributions(),
    }
    frame.update(overrides)
    return frame


def rescaled(frame, factor):
    """The same ``begin`` with every exact contribution scaled — a
    different score model, hence a different engine."""
    contributions = dict(frame["contributions"])
    contributions["exact"] = {
        node: value * factor for node, value in contributions["exact"].items()
    }
    return {**frame, "contributions": contributions}


@pytest.fixture()
def loaded_worker(database):
    spec = build_shard_specs(database, 1)[0]
    worker = ShardWorker(0)
    reply, _ = worker.handle({"op": "init", "id": 1, "documents": list(spec.xml_texts)})
    assert reply["ok"]
    return worker, spec


def test_worker_reuses_engines_by_begin_key(database, loaded_worker):
    worker, spec = loaded_worker
    engines = []
    for rpc_id, query in enumerate((QUERY, OTHER_QUERY, QUERY, OTHER_QUERY), start=2):
        reply, _ = worker.handle(begin_frame(database, query, rpc_id))
        assert reply["ok"]
        engines.append(worker.engine)
    assert engines[0] is engines[2] and engines[1] is engines[3]
    assert engines[0] is not engines[1]
    assert len(worker.engines) == 2
    # Anything begin ships that shapes the engine is part of the key
    # (the first miss at the cap of two clears the cache before it inserts).
    worker.handle(begin_frame(database, QUERY, 9, relaxed=False))
    strict = worker.engine
    assert strict is not engines[0] and list(worker.engines.values()) == [strict]
    worker.handle(rescaled(begin_frame(database, QUERY, 10), 2.0))
    assert worker.engine not in (engines[0], strict) and len(worker.engines) == 2
    # A document-less init keeps database and engines; one with documents drops them.
    database_before = worker.database
    reply, _ = worker.handle({"op": "init", "id": 11, "process_faults": None})
    assert reply["ok"] and worker.database is database_before and len(worker.engines) == 2
    worker.handle({"op": "init", "id": 12, "documents": list(spec.xml_texts)})
    assert worker.database is not database_before
    assert worker.engines == {} and worker.engine is None


def test_worker_engine_cache_clears_wholesale_at_the_cap(database, loaded_worker):
    worker, _ = loaded_worker
    frame = begin_frame(database, QUERY, 0)
    for n in range(ENGINE_CACHE_CAP):
        worker.handle({**rescaled(frame, 2.0 + n), "id": 100 + n})
    assert len(worker.engines) == ENGINE_CACHE_CAP
    worker.handle({**frame, "id": 200})
    assert len(worker.engines) == 1


def test_init_resets_the_process_fault_plan_and_is_never_armed(database, loaded_worker):
    worker, _ = loaded_worker
    slow_first_rpc = FaultPlan(
        [
            FaultRule(
                site=FaultSite.WORKER_RPC,
                action=FaultAction.SLOW_PIPE,
                target="0",
                nth=1,
                delay_seconds=0.5,
            )
        ],
        seed=3,
    ).as_dict()
    reply, _ = worker.handle({"op": "init", "id": 20, "process_faults": slow_first_rpc})
    assert reply["ok"] and worker.process_faults is not None
    # The next init neither counts as armed RPC #1 nor fires the rule —
    # it replaces the plan, here with the same one, freshly counted...
    reply, _ = worker.handle({"op": "init", "id": 21, "process_faults": slow_first_rpc})
    assert reply["ok"] and worker.reply_delay == 0.0
    # ...so begin is armed RPC #1 in a resident process as in a fresh one.
    reply, _ = worker.handle(begin_frame(database, QUERY, 22))
    assert reply["ok"] and worker.reply_delay == 0.5
    # An init that ships no plan leaves none armed.
    reply, _ = worker.handle({"op": "init", "id": 23, "process_faults": None})
    assert reply["ok"] and worker.process_faults is None
    reply, _ = worker.handle({"op": "end", "id": 24})
    assert not reply["ok"] and "unknown op" in reply["error"]


def test_init_without_documents_on_a_fresh_worker_is_refused():
    reply, _ = ShardWorker(0).handle({"op": "init", "id": 1})
    assert not reply["ok"]
