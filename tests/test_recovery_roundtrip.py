"""Snapshot codec, policy and store tests — plus the round-trip matrix.

The property under test (docs/robustness.md): a checkpoint taken at any
point of any engine's run is a *complete* description of the remaining
work — restoring it into a fresh engine (same or different algorithm)
and running to completion yields a correct top-k (the shared rule of
``repro.core.topk.topk_mismatch`` against LockStep-NoPrun: the scores, and
the roots up to ties at the k-th).
The matrix sweeps 20 seeds × 3 engines, interrupting runs at
seed-derived operation budgets with seed-derived checkpoint cadences.

The snapshots themselves must also be *honest* anytime certificates:
within one run the recorded ``pending_bound`` sequence never increases
(extensions can only tighten the bound), and every snapshot survives a
JSON round-trip unchanged.
"""

import json
import random

import pytest

import repro.recovery.codec as codec
from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.errors import RecoveryError
from repro.recovery import (
    SNAPSHOT_VERSION,
    CheckpointPolicy,
    JsonFileRecoveryStore,
    MemoryRecoveryStore,
    decode_match,
    encode_match,
)
from repro.recovery.generations import seal
from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 8

SEEDS = range(20)
ALGORITHMS = ["whirlpool_s", "whirlpool_m", "lockstep"]


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, QUERY)


@pytest.fixture(scope="module")
def ranking(engine):
    return full_ranking(engine)


def interrupted_run(engine, algorithm, seed):
    """Run with a seed-derived budget + checkpoint cadence; return
    (result, snapshots taken)."""
    rng = random.Random(seed)
    snapshots = []
    result = engine.run(
        K,
        algorithm=algorithm,
        max_operations=rng.randrange(4, 60),
        checkpoint_policy=CheckpointPolicy(every_operations=rng.randrange(2, 9)),
        checkpoint_sink=snapshots.append,
    )
    return result, snapshots


class TestRoundTripMatrix:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_restore_resumes_to_oracle_answers(self, engine, ranking, algorithm, seed):
        _, snapshots = interrupted_run(engine, algorithm, seed)
        if snapshots:
            # JSON round-trip: what the file store would persist and load.
            snapshot = json.loads(json.dumps(snapshots[-1]))
            assert snapshot["version"] == SNAPSHOT_VERSION
            result = engine.run(K, algorithm=algorithm, restore_from=snapshot)
        else:
            # Budget expired before the first checkpoint was due — the
            # recovery story degenerates to a fresh run.
            result = engine.run(K, algorithm=algorithm)
        assert not result.degraded
        assert_same_topk(ranking, result)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pending_bound_sequence_is_non_increasing(self, engine, seed):
        _, snapshots = interrupted_run(engine, "whirlpool_s", seed)
        bounds = [snapshot["pending_bound"] for snapshot in snapshots]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later <= earlier + 1e-9, bounds

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_engine_restore(self, engine, ranking, seed):
        """A snapshot is algorithm-portable: any engine can resume it."""
        _, snapshots = interrupted_run(engine, "whirlpool_s", seed)
        if not snapshots:
            pytest.skip("budget expired before the first checkpoint")
        for algorithm in ("whirlpool_m", "lockstep"):
            result = engine.run(K, algorithm=algorithm, restore_from=snapshots[-1])
            assert_same_topk(ranking, result)


def encoded_matches(monkeypatch, engine, algorithm, budget=None, k=K, every=3):
    """Every (match, payload) a checkpointed run encodes, and its snapshots."""
    pairs = []
    original = codec.encode_match

    def recording(match):
        payload = original(match)
        pairs.append((match, payload))
        return payload

    monkeypatch.setattr(codec, "encode_match", recording)
    snapshots = []
    engine.run(
        k,
        algorithm=algorithm,
        max_operations=budget,
        checkpoint_policy=CheckpointPolicy(every_operations=every),
        checkpoint_sink=snapshots.append,
    )
    monkeypatch.setattr(codec, "encode_match", original)
    return pairs, snapshots


class TestCodec:
    def test_match_round_trip(self, engine):
        snapshots = []
        engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=2),
            checkpoint_sink=snapshots.append,
        )
        payload = snapshots[-1]
        encoded = payload["queues"]["router"]
        assert encoded, "expected queued matches in the snapshot"
        resolve = engine.index.database.node_by_dewey
        servers = frozenset(engine.open(K).server_ids)
        for entry in encoded:
            match = decode_match(entry, resolve, servers)
            assert encode_match(match) == entry

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_decode_inverts_encode(self, monkeypatch, xmark_db, algorithm, relaxed):
        """decode ∘ encode is the identity on what a match means — root,
        instantiated nodes (deleted leaves included), qualities, visited
        set, score — and the decoded match encodes to the same payload."""
        engine = Engine(xmark_db, QUERIES["Q2"], relaxed=relaxed)
        # k = 30 keeps enough roots alive that every engine deletes leaves.
        pairs, snapshots = encoded_matches(monkeypatch, engine, algorithm, k=30, every=25)
        assert snapshots and pairs
        resolve = xmark_db.node_by_dewey
        servers = frozenset(node.node_id for node in engine.pattern.non_root_nodes())
        deleted = 0
        for match, payload in pairs:
            decoded = decode_match(json.loads(json.dumps(payload)), resolve, servers)
            assert decoded.root_node is match.root_node
            assert decoded.score == match.score
            assert decoded.visited == match.visited == set(match.instantiations)
            assert list(decoded.instantiations) == list(match.instantiations)
            for node_id, node in match.instantiations.items():
                assert decoded.instantiations[node_id] is node
            assert decoded.qualities == match.qualities
            assert encode_match(decoded) == payload
            deleted += sum(node is None for node in match.instantiations.values())
        # Leaf deletion is a relaxation: only a relaxed run makes such a match.
        assert (deleted > 0) == relaxed

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_snapshots_are_json_pure(self, monkeypatch, engine, algorithm):
        """A snapshot is made of JSON values only — no tuple, no object —
        so the text a worker seals reads back as an equal snapshot."""
        _, snapshots = encoded_matches(monkeypatch, engine, algorithm, budget=20)
        assert snapshots
        for snapshot in snapshots:
            assert json.loads(seal(snapshot)[0]) == snapshot

    def test_an_extension_shares_its_parents_payload(self, engine):
        """A payload extends its nearest encoded ancestor's: the root list
        and the ancestor's entries are the same objects, not copies."""
        run = engine.open(K, algorithm="whirlpool_s")
        run.run()
        deepest = max(
            (match for match, _ in run.topk.export_state()),
            key=lambda match: len(match.visited),
        )
        assert len(deepest.visited) >= 2
        # The first match of the chain that is not ``deepest``: its parent.
        parent = deepest.trail(lambda match: match is not deepest)[0]
        parent_payload = encode_match(parent)
        payload = encode_match(deepest)
        assert payload[0] is parent_payload[0]
        assert payload[2][: len(parent_payload[2])] == parent_payload[2]
        assert all(
            mine is theirs for mine, theirs in zip(payload[2], parent_payload[2])
        )

    def test_decode_rejects_forged_visits(self, engine):
        """The visited set is read off the entries, so an entry that
        repeats a node id, or names a node outside the query's servers,
        would forge it: both are refused."""
        snapshots = []
        engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=2),
            checkpoint_sink=snapshots.append,
        )
        payload = max(snapshots[-1]["queues"]["router"], key=lambda entry: len(entry[2]))
        assert payload[2], "expected a queued match past its seed"
        resolve = engine.index.database.node_by_dewey
        servers = frozenset(node.node_id for node in engine.pattern.non_root_nodes())
        decode_match(payload, resolve, servers)
        first = payload[2][0]
        repeated = [payload[0], payload[1], payload[2] + [first]]
        with pytest.raises(RecoveryError, match="twice"):
            decode_match(repeated, resolve, servers)
        foreign = [payload[0], payload[1], [[max(servers) + 1, *first[1:]]]]
        with pytest.raises(RecoveryError, match="not a server"):
            decode_match(foreign, resolve, servers)
        root_entry = [payload[0], payload[1], [[0, *first[1:]]]]
        with pytest.raises(RecoveryError, match="not a server"):
            decode_match(root_entry, resolve, servers)

    def test_validate_rejects_wrong_k_and_pattern(self, engine, xmark_db):
        snapshots = []
        engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=2),
            checkpoint_sink=snapshots.append,
        )
        snapshot = snapshots[-1]
        with pytest.raises(RecoveryError):
            engine.run(K + 1, algorithm="whirlpool_s", restore_from=snapshot)
        other = Engine(xmark_db, "//item[./name]")
        with pytest.raises(RecoveryError):
            other.run(K, algorithm="whirlpool_s", restore_from=snapshot)
        bad_version = dict(snapshot, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(RecoveryError):
            engine.run(K, algorithm="whirlpool_s", restore_from=bad_version)

    def test_a_version_2_snapshot_is_refused_naming_both_versions(self, engine):
        """Version 2 stored each match as a dict of dicts; this codec
        reads only its own shape, and says which two versions met."""
        snapshots = []
        engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=2),
            checkpoint_sink=snapshots.append,
        )
        assert SNAPSHOT_VERSION == 3
        old = dict(snapshots[-1], version=2)
        with pytest.raises(RecoveryError, match=r"version 2 .*version 3"):
            engine.run(K, algorithm="whirlpool_s", restore_from=old)

    def test_decode_rejects_dangling_nodes(self, engine):
        snapshots = []
        engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=2),
            checkpoint_sink=snapshots.append,
        )
        entry = list(snapshots[-1]["queues"]["router"][0])
        entry[0] = [0, 999, 999]
        with pytest.raises(RecoveryError):
            decode_match(entry, engine.index.database.node_by_dewey, frozenset())

    def test_restored_stats_carry_checkpoint_counter(self, engine):
        snapshots = []
        first = engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=2),
            checkpoint_sink=snapshots.append,
        )
        assert first.stats.checkpoints_taken == len(snapshots)
        resumed = engine.run(K, algorithm="whirlpool_s", restore_from=snapshots[-1])
        # The resumed run's stats fold in the crashed run's counters.
        assert resumed.stats.server_operations >= snapshots[-1]["operations"]


class TestCheckpointPolicy:
    def test_every_operations_trigger(self, engine):
        """A snapshot every N operations, and one at the budget exit."""
        snapshots = []
        result = engine.run(
            K,
            algorithm="whirlpool_s",
            max_operations=10,
            checkpoint_policy=CheckpointPolicy(every_operations=3),
            checkpoint_sink=snapshots.append,
        )
        assert [snapshot["operations"] for snapshot in snapshots] == [3, 6, 9, 10]
        assert result.stats.checkpoints_taken == 4

    def test_invalid_configurations_rejected(self):
        with pytest.raises(TypeError):
            CheckpointPolicy()
        for every in (0, -3):
            with pytest.raises(RecoveryError):
                CheckpointPolicy(every_operations=every)

    def test_one_policy_serves_interleaved_runs(self, engine):
        """The policy holds no per-run state: attached to two Whirlpool-S
        runs stepped alternately, it has each take the snapshots it takes
        alone.  The interval (3) is shorter than a step (8), so periodic
        snapshots fall between the budget exits."""

        def open_run(k, policy, sink):
            return engine.open(
                k,
                algorithm="whirlpool_s",
                max_operations=8,
                checkpoint_policy=policy,
                checkpoint_sink=sink,
            )

        def step(run):
            """Advance ``run`` by one budget; False once it has finished."""
            if not run.run().degraded:
                return False
            run.max_operations += 8
            return True

        alone = {}
        for k in (K, 3):
            alone[k] = []
            run = open_run(k, CheckpointPolicy(every_operations=3), alone[k].append)
            while step(run):
                pass
        shared = CheckpointPolicy(every_operations=3)
        taken = {k: [] for k in alone}
        live = [open_run(k, shared, taken[k].append) for k in alone]
        while live:
            live = [run for run in live if step(run)]
        assert taken == alone
        assert all(len(snapshots) > 3 for snapshots in alone.values())

    def test_whirlpool_m_snapshots_an_interval_apart(self, xmark_db_large):
        """Whirlpool-M checkpoints between thread segments: at least N
        operations apart (the budget exit excepted), all counted, and each
        restores to the oracle top-k.  (Its main thread ends a segment
        between polls, so the run must be long enough for several.)"""
        engine = Engine(xmark_db_large, QUERIES["Q3"])
        every = 25
        snapshots = []
        result = engine.run(
            15,
            algorithm="whirlpool_m",
            max_operations=1000,
            checkpoint_policy=CheckpointPolicy(every_operations=every),
            checkpoint_sink=snapshots.append,
        )
        operations = [snapshot["operations"] for snapshot in snapshots]
        assert result.stats.checkpoints_taken == len(snapshots) >= 2
        periodic = operations[:-1] if result.degraded else operations
        assert periodic[0] >= every
        for earlier, later in zip(periodic, periodic[1:]):
            assert later - earlier >= every, operations
        if result.degraded:
            assert operations[-1] == result.stats.server_operations
        ranking = full_ranking(engine)
        for snapshot in snapshots:
            resumed = engine.run(
                15, algorithm="whirlpool_m", restore_from=json.loads(json.dumps(snapshot))
            )
            assert not resumed.degraded
            assert_same_topk(ranking, resumed)


class TestStores:
    @pytest.fixture(params=["memory", "file"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryRecoveryStore()
        return JsonFileRecoveryStore(str(tmp_path / "recovery"))

    def test_save_load_delete_round_trip(self, store):
        payload = {"version": 1, "request": {"k": 3}, "engine": None}
        store.save("req-1", payload)
        store.save("req-2", {"version": 1})
        assert store.keys() == ["req-1", "req-2"]
        assert store.count() == 2
        assert store.load("req-1") == payload
        store.delete("req-1")
        assert store.load("req-1") is None
        store.delete("req-1")  # idempotent
        assert store.count() == 1

    def test_save_overwrites(self, store):
        store.save("req-1", {"version": 1})
        store.save("req-1", {"version": 2})
        assert store.load("req-1") == {"version": 2}
        assert store.count() == 1

    def test_rejects_bad_keys(self, store):
        with pytest.raises(RecoveryError):
            store.save("../escape", {})
        with pytest.raises(RecoveryError):
            store.save("", {})

    def test_rejects_non_json_payloads(self, store):
        with pytest.raises(TypeError):
            store.save("req-1", {"bad": object()})
        assert store.load("req-1") is None

    def test_corrupt_file_raises_recovery_error(self, tmp_path):
        store = JsonFileRecoveryStore(str(tmp_path / "recovery"))
        (tmp_path / "recovery" / "req-9.json").write_text("{not json")
        with pytest.raises(RecoveryError):
            store.load("req-9")

    def test_file_store_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "recovery")
        JsonFileRecoveryStore(directory).save("req-1", {"version": 1})
        reopened = JsonFileRecoveryStore(directory)
        assert reopened.keys() == ["req-1"]
        assert reopened.load("req-1") == {"version": 1}
