"""Checkpoint/resume and crash recovery for long-running top-k queries.

The anytime property that lets Whirlpool degrade gracefully (best-known
top-k plus a ``pending_bound`` certificate) also makes its progress
*checkpointable*: the queued partial matches, the top-k set, and the
counters are the whole run state.  This package turns that observation
into machinery:

- :mod:`~repro.recovery.codec` — versioned, pickle-free snapshot
  encode/decode (Dewey-id node references, quality strings, recomputed
  bounds);
- :mod:`~repro.recovery.policy` — :class:`CheckpointPolicy`, the one
  number behind *when* engines snapshot: every N server operations, and
  at every budget exit;
- :mod:`~repro.recovery.store` — :class:`RecoveryStore` backends
  (in-memory, JSON files) keyed by request id for the service layer's
  drain / crash / restart story;
- :mod:`~repro.recovery.generations` — :class:`CheckpointGenerations`
  layering last-N CRC-validated snapshots over any store, so restore
  can fall back past a corrupted newest checkpoint (the cluster
  coordinator's failover/rebalancing path rides this).

The engine-side hooks live on :class:`repro.core.base.EngineBase`
(``checkpoint()`` / ``restore()``); the service-side re-admission lives
in :meth:`repro.service.WhirlpoolService.recover`.
"""

from repro.recovery.codec import (
    SNAPSHOT_VERSION,
    decode_match,
    encode_engine_state,
    encode_match,
    restore_engine_state,
    validate_snapshot,
)
from repro.recovery.generations import CheckpointGenerations
from repro.recovery.policy import CheckpointPolicy
from repro.recovery.store import (
    JsonFileRecoveryStore,
    MemoryRecoveryStore,
    RecoveryStore,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointGenerations",
    "CheckpointPolicy",
    "JsonFileRecoveryStore",
    "MemoryRecoveryStore",
    "RecoveryStore",
    "decode_match",
    "encode_engine_state",
    "encode_match",
    "restore_engine_state",
    "validate_snapshot",
]
