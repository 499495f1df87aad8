"""Pure-logic cluster tests: framing, partitioning, merge algebra.

Nothing here spawns a process — these are the fast proofs that the
cluster's data plane (length-prefixed frames, Dewey remapping, the
global-threshold merge) is correct independent of any I/O, so the
process-level tests in ``test_cluster.py`` / ``test_cluster_chaos.py``
only have to exercise orchestration.
"""

import os
import random
import struct

import pytest

from repro.cluster.merge import (
    dominated,
    global_pending_bound,
    kth_score,
    lost_shard_bound,
    merge_answers,
)
from repro.cluster.partition import (
    build_shard_specs,
    partition_ordinals,
    remap_dewey,
    remap_match_payload,
)
from repro.cluster.protocol import (
    FRAME_MAGIC,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameReader,
    FrameTimeout,
    decode_body,
    decode_header,
    encode_frame,
)
from repro.cluster.worker import ShardWorker
from repro.core.engine import Engine
from repro.core.stats import monotonic_seconds
from repro.errors import (
    ClusterError,
    FrameCorruptError,
    FrameTooLargeError,
    ProtocolError,
)
from repro.faults.plan import FaultAction, FaultPlan, FaultSite
from repro.faults.supervisor import RetryPolicy
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _feed_reader(data: bytes):
    """Run ``data`` through a pipe-backed FrameReader to exhaustion,
    collecting every outcome (decoded frame, EOF, or typed error)."""
    read_fd, write_fd = os.pipe()
    outcomes = []
    try:
        os.write(write_fd, data)
        os.close(write_fd)
        write_fd = -1
        reader = FrameReader(read_fd)
        while True:
            try:
                frame = reader.read(deadline_at=monotonic_seconds() + 1.0)
            except ProtocolError as exc:
                outcomes.append(exc)
                return outcomes
            except ClusterError as exc:  # read past EOF after an error
                outcomes.append(exc)
                return outcomes
            if frame is None:
                outcomes.append(None)
                return outcomes
            outcomes.append(frame)
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)


def test_frame_round_trip():
    payload = {"op": "step", "id": 7, "nested": {"k": [1, 2, 3]}, "text": "héllo"}
    assert decode_body(encode_frame(payload)[HEADER_BYTES:]) == payload

    stream = encode_frame(payload) + encode_frame({"op": "ping", "id": 8})
    # Both frames, then a clean EOF.
    assert _feed_reader(stream) == [payload, {"op": "ping", "id": 8}, None]


def test_frame_sequence_numbers_round_trip():
    frame = encode_frame({"op": "step"}, seq=41)
    assert decode_header(frame[:HEADER_BYTES])[1] == 41
    # The reader delivers seq 41 once and then the next sequence number.
    after = encode_frame({"op": "ping"}, seq=42)
    assert _feed_reader(frame + frame + after) == [{"op": "step"}, {"op": "ping"}, None]


def test_read_frame_rejects_torn_stream():
    data = encode_frame({"op": "ping"})
    for torn in (data[: len(data) - 2], data[:2]):  # truncated body, then header
        (outcome,) = _feed_reader(torn)
        assert isinstance(outcome, ProtocolError)
        assert outcome.reason == "truncated"


def test_oversize_length_prefix_is_rejected_before_any_read():
    # Regression: a corrupted 4-byte length prefix used to drive an
    # unbounded read/allocation.  The declared length must be rejected
    # from the header alone, as a typed error.
    header = struct.pack(">HIII", FRAME_MAGIC, MAX_FRAME_BYTES + 1, 0, 0)
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, header)
        with pytest.raises(FrameTooLargeError) as exc_info:
            FrameReader(read_fd).read(deadline_at=monotonic_seconds() + 1.0)
    finally:
        os.close(read_fd)
        os.close(write_fd)
    assert exc_info.value.declared_bytes == MAX_FRAME_BYTES + 1
    assert exc_info.value.reason == "oversize"


def test_bad_magic_and_crc_mismatch_are_typed_errors():
    frame = bytearray(encode_frame({"op": "ping"}, seq=1))
    flipped_magic = bytes([frame[0] ^ 0xFF]) + bytes(frame[1:])
    (outcome,) = _feed_reader(flipped_magic)
    assert isinstance(outcome, FrameCorruptError)
    assert outcome.reason == "bad_magic"

    flipped_body = bytes(frame[:-1]) + bytes([frame[-1] ^ 0x01])
    (outcome,) = _feed_reader(flipped_body)
    assert isinstance(outcome, FrameCorruptError)
    assert outcome.reason == "crc_mismatch"


def test_encode_frame_enforces_the_cap():
    with pytest.raises(FrameTooLargeError):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_frame_reader_preserves_partial_frames_across_timeouts():
    read_fd, write_fd = os.pipe()
    try:
        reader = FrameReader(read_fd)
        frame = encode_frame({"op": "step", "id": 3})
        # Ship only half the frame: the reader must time out without
        # discarding the buffered prefix.
        os.write(write_fd, frame[: len(frame) // 2])
        with pytest.raises(FrameTimeout):
            reader.read(deadline_at=monotonic_seconds() + 0.05)
        os.write(write_fd, frame[len(frame) // 2 :])
        assert reader.read(deadline_at=monotonic_seconds() + 1.0) == {
            "op": "step",
            "id": 3,
        }
        os.close(write_fd)
        write_fd = -1
        assert reader.read(deadline_at=monotonic_seconds() + 1.0) is None  # EOF
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)


def test_frame_reader_drops_duplicated_frames():
    read_fd, write_fd = os.pipe()
    try:
        reader = FrameReader(read_fd)
        first = encode_frame({"op": "step", "id": 1}, seq=1)
        second = encode_frame({"op": "step", "id": 2}, seq=2)
        # Duplicate delivery of seq 1 (and a replay of it after seq 2)
        # must vanish; unsequenced frames (seq 0) are never deduplicated.
        os.write(write_fd, first + first + second + first)
        os.write(write_fd, encode_frame({"op": "ping"}, seq=0))
        os.write(write_fd, encode_frame({"op": "ping"}, seq=0))
        deadline = monotonic_seconds() + 1.0
        assert reader.read(deadline) == {"op": "step", "id": 1}
        assert reader.read(deadline) == {"op": "step", "id": 2}
        assert reader.read(deadline) == {"op": "ping"}
        assert reader.read(deadline) == {"op": "ping"}
    finally:
        os.close(read_fd)
        os.close(write_fd)


def test_frame_reader_fuzz_never_returns_garbage():
    """Satellite: truncated / bit-flipped / duplicated byte streams may
    only ever produce valid decoded frames, a clean EOF (None), or the
    typed protocol errors — never an unhandled exception or a frame that
    was not actually sent."""
    rng = random.Random(0xC0FFEE)
    valid_payloads = [
        {"op": "step", "id": n, "data": "x" * rng.randrange(0, 64)} for n in range(4)
    ]
    valid_frames = [
        encode_frame(payload, seq=n + 1) for n, payload in enumerate(valid_payloads)
    ]
    stream = b"".join(valid_frames)
    cases = []
    # Truncations at every prefix length (header cuts, body cuts).
    cases.extend(stream[:cut] for cut in range(0, len(valid_frames[0]) + 8))
    cases.append(stream[: len(stream) - 3])
    # Single-bit flips at seeded positions.
    for _ in range(200):
        position = rng.randrange(len(stream))
        bit = 1 << rng.randrange(8)
        mutated = bytearray(stream)
        mutated[position] ^= bit
        cases.append(bytes(mutated))
    # Duplicated frames and duplicated raw chunks.
    cases.append(valid_frames[0] * 3 + valid_frames[1])
    cases.append(stream + stream)
    chunk = stream[: rng.randrange(1, len(stream))]
    cases.append(stream + chunk)
    # Pure garbage.
    cases.append(bytes(rng.randrange(256) for _ in range(64)))

    for data in cases:
        outcomes = _feed_reader(data)
        assert outcomes, "reader must always produce at least one outcome"
        for outcome in outcomes[:-1]:
            # Everything before the terminal outcome must be a frame that
            # was genuinely sent.
            assert outcome in valid_payloads, outcome
        terminal = outcomes[-1]
        assert (
            terminal is None
            or isinstance(terminal, (ProtocolError, ClusterError))
            or terminal in valid_payloads
        ), terminal


# ---------------------------------------------------------------------------
# Partitioning and Dewey remapping
# ---------------------------------------------------------------------------


def test_partition_balanced_round_robin():
    assignment = partition_ordinals(7, 3)
    assert assignment == [[0, 3, 6], [1, 4], [2, 5]]
    # Exhaustive and disjoint.
    flat = sorted(ordinal for shard in assignment for ordinal in shard)
    assert flat == list(range(7))


def test_partition_skew_is_deterministic_and_exhaustive():
    first = partition_ordinals(40, 4, skew=2.0, seed=9)
    second = partition_ordinals(40, 4, skew=2.0, seed=9)
    assert first == second
    flat = sorted(ordinal for shard in first for ordinal in shard)
    assert flat == list(range(40))
    # Heavy skew concentrates documents on the high-weight shards.
    assert len(first[-1]) > len(first[0])


def test_partition_rejects_bad_arguments():
    with pytest.raises(ClusterError):
        partition_ordinals(4, 0)
    with pytest.raises(ClusterError):
        partition_ordinals(-1, 2)
    with pytest.raises(ClusterError):
        partition_ordinals(4, 2, skew=-0.5)


def test_build_shard_specs_covers_forest():
    database = generate_database(XMarkConfig(items=12, seed=5))
    specs = build_shard_specs(database, shards=3, skew=1.0, seed=2)
    owned = sorted(
        ordinal for spec in specs for ordinal in spec.global_ordinals
    )
    assert owned == list(range(len(database.documents)))
    for spec in specs:
        assert len(spec.xml_texts) == len(spec.global_ordinals)


def test_remap_dewey():
    assert remap_dewey((0, 4, 1), (7, 9)) == (7, 4, 1)
    assert remap_dewey((1, 0), (7, 9)) == (9, 0)
    with pytest.raises(ClusterError):
        remap_dewey((2, 0), (7, 9))  # ordinal outside the partition
    with pytest.raises(ClusterError):
        remap_dewey((), (7,))


def test_remap_match_payload():
    payload = [[1, 2], 0.5, [[1, [1, 2, 0], "exact"], [2, None, "deleted"]]]
    remapped = remap_match_payload(payload, (5, 11))
    assert remapped == [[11, 2], 0.5, [[1, [11, 2, 0], "exact"], [2, None, "deleted"]]]
    assert payload == [[1, 2], 0.5, [[1, [1, 2, 0], "exact"], [2, None, "deleted"]]]
    with pytest.raises(ClusterError):
        remap_match_payload([[2, 0], 0.5, []], (5, 11))


# ---------------------------------------------------------------------------
# Merge algebra
# ---------------------------------------------------------------------------


def test_merge_answers_orders_by_score_then_dewey():
    merged = merge_answers(
        {
            0: [((0, 1), 0.9), ((0, 3), 0.4)],
            1: [((1, 0), 0.9), ((1, 2), 0.7)],
        },
        k=3,
    )
    assert merged == [((0, 1), 0.9, 0), ((1, 0), 0.9, 1), ((1, 2), 0.7, 1)]


def test_kth_score_requires_full_k():
    merged = merge_answers({0: [((0, 0), 0.8)]}, k=2)
    assert kth_score(merged, 2) is None
    merged = merge_answers({0: [((0, 0), 0.8), ((0, 1), 0.5)]}, k=2)
    assert kth_score(merged, 2) == 0.5


def test_dominated_is_strict():
    assert dominated(0.4, 0.5)
    assert not dominated(0.5, 0.5)  # a tie may still join the answer set
    assert not dominated(0.6, 0.5)
    assert not dominated(0.0, None)  # no threshold yet → nothing dominated


def test_lost_shard_bound():
    # Never reported: only the score-model ceiling is sound.
    assert lost_shard_bound(None, None, k=2, max_total=4.0) == 4.0
    # Reported a full local top-k: unreported processed roots are bounded
    # by its k-th score, queued work by its pending bound.
    answers = [((0, 0), 0.9), ((0, 1), 0.6)]
    assert lost_shard_bound(0.3, answers, k=2, max_total=4.0) == 0.6
    assert lost_shard_bound(0.8, answers, k=2, max_total=4.0) == 0.8
    # Fewer than k answers reported = the shard had reported everything.
    assert lost_shard_bound(0.2, answers[:1], k=2, max_total=4.0) == 0.2


def test_global_pending_bound():
    assert global_pending_bound([], []) == 0.0
    assert global_pending_bound([0.2, 0.5], [0.4]) == 0.5
    assert global_pending_bound([], [1.5]) == 1.5


# ---------------------------------------------------------------------------
# Wire forms for policies and fault plans
# ---------------------------------------------------------------------------


def test_retry_policy_round_trip():
    policy = RetryPolicy(
        max_attempts=4,
        requeue_limit=2,
        base_delay=0.002,
        max_delay=0.1,
        jitter=0.25,
        seed=17,
    )
    clone = RetryPolicy.from_dict(policy.as_dict())
    assert clone.as_dict() == policy.as_dict()
    with pytest.raises(ValueError):
        RetryPolicy.from_dict({"max_attempts": 0})


def test_worker_chaos_plan_round_trip_and_targets():
    plan = FaultPlan.worker_chaos(seed=3, shards=4)
    assert plan.rules
    for rule in plan.rules:
        assert rule.site is FaultSite.WORKER_RPC
        assert rule.action in FaultPlan.PROCESS_ACTIONS
        # Targets must be strings: the worker arms str(shard_id).
        assert rule.target in {str(shard) for shard in range(4)}
        assert rule.times == 1
    clone = FaultPlan.from_dict(plan.as_dict())
    assert clone.as_dict() == plan.as_dict()


def test_worker_chaos_hang_outlasts_any_sane_liveness_deadline():
    for seed in range(20):
        plan = FaultPlan.worker_chaos(seed=seed, shards=2, hang_seconds=30.0)
        for rule in plan.rules:
            if rule.action is FaultAction.HANG:
                assert rule.delay_seconds == 30.0


def test_worker_refuses_a_malformed_fault_plan_instead_of_dying():
    """A plan payload the worker cannot build is a refused RPC (``ok:
    False`` with the reason), never an exception out of the request
    loop — a dead worker would be failed over into the same payload."""
    database = generate_database(XMarkConfig(items=6, seed=7))
    engine = Engine(database, "//item[./name]")
    worker = ShardWorker(0)
    documents = list(build_shard_specs(database, 1)[0].xml_texts)
    illegal = {"site": "worker_rpc", "action": "error", "target": "0", "nth": 1}
    for bad_plan, reason in (
        ({"rules": [illegal]}, "not valid at site"),
        ({"rules": [{"site": "warp_core", "action": "kill", "nth": 1}]}, "warp_core"),
        ({"rules": [{"site": "worker_rpc"}]}, "malformed rule payload"),
        ({"rules": [{**illegal, "action": "kill", "nth": "1"}]}, "malformed rule payload"),
        ([illegal], "malformed plan payload"),
    ):
        reply, should_exit = worker.handle(
            {"op": "init", "id": 1, "documents": documents, "process_faults": bad_plan}
        )
        assert not reply["ok"] and not should_exit
        assert reply["kind"] == "FaultPlanError" and reason in reply["error"]
        assert worker.process_faults is None
    reply, _ = worker.handle({"op": "init", "id": 2, "documents": documents})
    assert reply["ok"]
    begin = {
        "op": "begin",
        "id": 3,
        "query": engine.pattern.to_xpath(),
        "k": 2,
        "contributions": engine.score_model.contributions(),
    }
    reply, should_exit = worker.handle({**begin, "engine_faults": {"rules": [illegal]}})
    assert not reply["ok"] and not should_exit
    assert reply["kind"] == "FaultPlanError" and "not valid at site" in reply["error"]
    # The loop is still serving: the same begin without the bad plan binds.
    reply, _ = worker.handle({**begin, "id": 4})
    assert reply["ok"]
