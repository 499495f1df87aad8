"""Differential cluster tests: sharded answers equal single-process ones.

The central claim of :mod:`repro.cluster` is that partitioning the
forest changes *where* matches are computed but never *what* the top-k
is: shard answer sets are disjoint, every worker scores with the
coordinator-shipped global contribution tables, and the merge is the
engines' own total order.  These tests pin that equality across shard
counts, pathological skew, and all three engine algorithms, plus the
coordinator's lifecycle/health surface.  Fault injection lives in
``test_cluster_chaos.py``.
"""

import pytest

from repro.cluster import ClusterResult, Coordinator
from repro.cluster.coordinator import ShardHandle
from repro.core.engine import Engine
from repro.errors import ClusterError, EngineError
from repro.recovery.store import MemoryRecoveryStore
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import assert_exact_or_certified, assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 5


@pytest.fixture(scope="module")
def database():
    return generate_database(XMarkConfig(items=60, seed=7))


@pytest.fixture(scope="module")
def ranking(database):
    """The single-process LockStep-NoPrun ranking every answer is held to."""
    return full_ranking(Engine(database, QUERY))


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("algorithm", ["whirlpool_s", "whirlpool_m", "lockstep"])
def test_cluster_equals_single_process(database, ranking, shards, algorithm):
    # skew > 0 deliberately unbalances the partition: merge correctness
    # must not depend on shard sizes (one shard may own most of the
    # forest, another a single document).
    with Coordinator(
        database, shards=shards, skew=2.5, partition_seed=3, step_operations=300
    ) as coordinator:
        result = coordinator.run_query(QUERY, K, algorithm=algorithm)
    assert isinstance(result, ClusterResult)
    assert not result.degraded
    # A dominated shard stops being stepped (TA early termination); its
    # bound survives as the certificate and must sit strictly below the
    # merged k-th score.  Fully drained clusters certify 0.0.
    if result.dominated_shards:
        assert result.pending_bound < result.answers[-1].score
    else:
        assert result.pending_bound == 0.0
    assert result.missing_shards == []
    assert result.shards == shards
    assert result.algorithm == f"cluster:{algorithm}"
    assert_same_topk(ranking, result)


def test_small_steps_take_many_rounds_same_answer(database, ranking, shapes):
    shape = shapes.stepped(database, QUERY, K, steps=3)
    with Coordinator(
        database,
        shards=2,
        step_operations=shape.step_operations,
        recovery_store=MemoryRecoveryStore(),
    ) as coordinator:
        result = coordinator.run_query(QUERY, K)
    assert result.rounds == max(shape.steps) > 1
    assert_same_topk(ranking, result)
    assert not result.degraded


def test_last_span_only_when_observability_is_on(database):
    from repro.obs import Observability

    with Coordinator(database, shards=2, step_operations=40) as coordinator:
        coordinator.run_query(QUERY, K)
        assert coordinator.last_span is None
    with Coordinator(
        database, shards=2, step_operations=40, observability=Observability()
    ) as coordinator:
        result = coordinator.run_query(QUERY, K)
        span = coordinator.last_span
    assert span is not None and span.finished()
    assert span.attributes()["rounds"] == result.rounds
    assert sum(event.name == "round" for event in span.events()) == result.rounds


def test_match_provenance_survives_remap(database):
    with Coordinator(database, shards=4, skew=1.0, partition_seed=1) as coordinator:
        result = coordinator.run_query(QUERY, K)
    oracle = Engine(database, QUERY).run(K)
    for got, want in zip(result.answers, oracle.answers):
        assert got.root_node.dewey == want.root_node.dewey
        # The decoded match must point at real global nodes with the same
        # instantiation shape as the single-process run.
        assert got.match.describe() == want.match.describe()


def test_deadline_returns_degraded_with_sound_bound(database, ranking):
    with Coordinator(database, shards=2, step_operations=25) as coordinator:
        result = coordinator.run_query(QUERY, K, deadline_seconds=0.05)
    # A fast machine may finish inside the budget — then the answer must
    # be the exact one.
    assert_exact_or_certified(ranking, result)


def test_non_positive_deadline_rejected(database):
    """A budget must be positive, as ``Engine.run``'s is: 0.0 is not
    "unbounded" and -1.0 is not "give up at once"."""
    with Coordinator(database, shards=2) as coordinator:
        for deadline in (0.0, -1.0):
            with pytest.raises(ClusterError):
                coordinator.run_query(QUERY, K, deadline_seconds=deadline)
        assert coordinator.health()["queries"] == 0


@pytest.mark.parametrize("step_operations", [0, -1])
def test_non_positive_step_operations_rejected(database, monkeypatch, step_operations):
    """The step size is set once, at construction, and a step of no
    operations is refused there, before any worker spawns."""
    spawned = []
    monkeypatch.setattr(ShardHandle, "spawn", lambda handle: spawned.append(handle))
    with pytest.raises(ClusterError):
        Coordinator(database, shards=2, step_operations=step_operations)
    assert spawned == []


def test_shard_reports_and_health(database):
    with Coordinator(database, shards=2) as coordinator:
        result = coordinator.run_query(QUERY, K)
        health = coordinator.health()
    assert set(result.shard_reports) == {0, 1}
    for report in result.shard_reports.values():
        assert report["done"] and not report["lost"]
    assert health["shards"] == 2
    assert health["live_shards"] == 2
    assert health["queries"] == 1
    assert health["degraded_queries"] == 0
    assert set(health["per_shard"]) == {0, 1}
    for row in health["per_shard"].values():
        assert row["state"] == "live"
        assert row["failovers"] == 0


def test_closed_coordinator_rejects_queries(database):
    coordinator = Coordinator(database, shards=1)
    coordinator.close()
    coordinator.close()  # idempotent
    with pytest.raises(ClusterError):
        coordinator.run_query(QUERY, K)
    assert coordinator.health()["closed"]


def test_unknown_algorithm_rejected(database):
    # Same error type as the single-process Engine facade.
    with Coordinator(database, shards=1) as coordinator:
        with pytest.raises(EngineError):
            coordinator.run_query(QUERY, K, algorithm="nope")
