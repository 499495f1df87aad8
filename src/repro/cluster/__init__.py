"""Fault-tolerant sharded cluster execution for top-k XML queries.

The cluster layer partitions the document forest across N worker
subprocesses — each running a full single-process engine over its slice
(:mod:`repro.cluster.worker`) — and scatter-gathers their anytime top-k
streams through a coordinator (:mod:`repro.cluster.coordinator`) that
merges under a global threshold derived from per-shard ``pending_bound``
certificates (:mod:`repro.cluster.merge`).

Robustness is the design driver: CRC-checked, sequence-numbered frames
with a hard size cap over a token-authenticated loopback TCP link
(:mod:`repro.cluster.net`) with reconnect-and-idempotent-replay;
heartbeat/liveness deadlines and a retry/backoff ladder on
every RPC; periodic checkpoint shipping into CRC-validated generations
(:class:`~repro.recovery.generations.CheckpointGenerations`) so a
killed or hung worker fails over by respawn-and-restore (provably
reproducing the fault-free answer) and a merely *slow* worker is
rebalanced off the same way; and certified degraded answers — missing
shards named, global ``pending_bound`` still sound — when failover is
exhausted.

See ``docs/cluster.md`` for the protocol, the link, the failover
and connection state machines, and the soundness argument.
"""

from repro.cluster.coordinator import (
    CONNECTION_STATES,
    ClusterResult,
    Coordinator,
    ShardHandle,
)
from repro.cluster.merge import (
    MergedAnswer,
    dominated,
    global_pending_bound,
    kth_score,
    lost_shard_bound,
    merge_answers,
)
from repro.cluster.net import SocketTransport
from repro.cluster.partition import (
    ShardSpec,
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
    encode_frame,
    frame_crc,
)

__all__ = [
    "CONNECTION_STATES",
    "ClusterResult",
    "Coordinator",
    "ShardHandle",
    "MergedAnswer",
    "merge_answers",
    "kth_score",
    "dominated",
    "lost_shard_bound",
    "global_pending_bound",
    "SocketTransport",
    "ShardSpec",
    "build_shard_specs",
    "partition_ordinals",
    "remap_dewey",
    "remap_match_payload",
    "FRAME_MAGIC",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "FrameReader",
    "FrameTimeout",
    "encode_frame",
    "frame_crc",
]
