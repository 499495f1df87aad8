"""When to checkpoint: every N server operations, and at a budget exit.

A :class:`CheckpointPolicy` is one number.  An engine run holding one
takes a snapshot at a quiesce point — a loop pass of the single-threaded
engines, the gap between two thread segments of Whirlpool-M — once
``every_operations`` server operations have passed since its last
checkpoint (or the snapshot it was restored from), and whenever it stops
on its operation budget or deadline.  The run keeps the count
(:attr:`~repro.core.base.EngineBase.checkpointed_at`); the policy holds
no state, so one instance serves any number of runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RecoveryError


@dataclass(frozen=True)
class CheckpointPolicy:
    """Snapshot every ``every_operations`` server operations."""

    every_operations: int

    def __post_init__(self) -> None:
        if self.every_operations <= 0:
            raise RecoveryError(
                f"every_operations must be positive, got {self.every_operations}"
            )
