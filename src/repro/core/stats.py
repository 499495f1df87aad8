"""Execution statistics — the paper's evaluation measures (Section 6.2.3).

Collected by every engine:

- **server operations** — one per partial match processed by a server (the
  unit of Figure 7's y-axis);
- **join comparisons** — one per candidate node compared against a partial
  match (the unit of the motivating example's Figure 3);
- **partial matches created** — the numerator of Table 2's scalability
  ratio: every extension, plus one seed per candidate root, counted when
  the run starts — also by Whirlpool-S, which makes a seed only when the
  seed would pop next;
- **pruned** — matches discarded against the top-k levels, plus, at
  Whirlpool-S's early stop, every tuple still queued and every root it
  never seeded (each would have been pruned at its own pop);
- **completed / routing decisions** and per-server breakdowns.

Counters increment through methods, with no lock of their own: a run that
one thread drives calls them directly, and Whirlpool-M's threads call them
only while they hold their run's engine lock.  The query service's
fleet-wide aggregate is guarded by the service's one lock.
"""

from __future__ import annotations

import time
from typing import Dict

import repro.sim.clock as simclock


def monotonic_seconds() -> float:
    """Sanctioned monotonic clock read for deadline enforcement.

    Lives here because ``stats.py`` is the one ``core/`` module allowed
    to touch the wall clock (lint rule WPL004): engines that enforce a
    deadline import this instead of ``time``, keeping the exception
    auditable in a single file.

    Routed through the simulation clock seam (:mod:`repro.sim.clock`):
    under the default :class:`~repro.sim.clock.RealClock` this is exactly
    ``time.monotonic()``; under a :class:`~repro.sim.clock.VirtualClock`
    it additionally carries the warp offset, so every deadline, backoff
    ladder and probe window in the repo advances consistently with the
    simulator's warped sleeps.
    """
    return simclock.now()


#: The integer counters of :class:`ExecutionStats`, in reporting order:
#: what ``merge``, ``as_dict``, the snapshot codec and the cluster's
#: per-shard sum iterate.  A new counter is this entry, its initial value
#: and its ``record_*`` method.
COUNTERS = (
    "server_operations",
    "join_comparisons",
    "partial_matches_created",
    "partial_matches_pruned",
    "extensions_generated",
    "deleted_extensions",
    "completed_matches",
    "routing_decisions",
    "checkpoints_taken",
)
_SUMMED = COUNTERS + ("wall_time_seconds", "simulated_time")


class ExecutionStats:
    """Mutable counter bundle; one instance per engine run."""

    def __init__(self) -> None:
        self.server_operations = 0
        self.join_comparisons = 0
        self.partial_matches_created = 0
        self.partial_matches_pruned = 0
        self.extensions_generated = 0
        self.deleted_extensions = 0
        self.completed_matches = 0
        self.routing_decisions = 0
        self.checkpoints_taken = 0
        self.per_server_operations: Dict[int, int] = {}
        self.wall_time_seconds = 0.0
        self.simulated_time = 0.0
        self._start = 0.0

    # -- timing -----------------------------------------------------------------

    def start_clock(self) -> None:
        """Mark the start of the run (single-threaded setup phase)."""
        self._start = time.perf_counter()

    def stop_clock(self) -> None:
        """Record wall time since :meth:`start_clock` (after workers join)."""
        self.wall_time_seconds = time.perf_counter() - self._start

    def elapsed_seconds(self) -> float:
        """Wall time since :meth:`start_clock`, read mid-run.

        The engines' deadline checks go through this method so the clock
        read stays inside ``stats.py`` (see WPL004).
        """
        return time.perf_counter() - self._start

    # -- counters ----------------------------------------------------------------

    def record_server_operation(
        self, server_id: int, comparisons: int, created: int, deleted: int = 0
    ) -> None:
        """One partial match processed at one server, which paid
        ``comparisons`` and spawned ``created`` extensions (counted as
        :meth:`record_created` counts them), ``deleted`` of them the
        leaf-deletion (outer-join null) extension."""
        self.server_operations += 1
        self.join_comparisons += comparisons
        per_server = self.per_server_operations
        per_server[server_id] = per_server.get(server_id, 0) + 1
        self.partial_matches_created += created
        self.extensions_generated += created
        self.deleted_extensions += deleted

    def record_created(self, count: int = 1) -> None:
        """New partial matches spawned outside a server operation: root
        seeds — all of a run's, when it starts."""
        self.partial_matches_created += count
        self.extensions_generated += count

    def record_pruned(self, count: int = 1) -> None:
        """Partial matches discarded against the top-k levels (with, at
        Whirlpool-S's early stop, the roots it never seeded)."""
        self.partial_matches_pruned += count

    def record_completed(self, count: int = 1) -> None:
        """Matches that finished all servers."""
        self.completed_matches += count

    def record_routing_decision(self) -> None:
        """The router picked a next server for one match."""
        self.routing_decisions += 1

    def record_checkpoint(self) -> None:
        """The engine serialized a recovery snapshot of its live state."""
        self.checkpoints_taken += 1

    def merge(self, other: "ExecutionStats") -> None:
        """Fold a finished run's counters into this aggregate.

        The query service keeps one aggregate per service, under its own
        lock, and merges every completed engine run into it, so
        ``health()`` can report fleet-wide totals in the same units as a
        single run.  ``other`` must no longer be mutating (its run has
        returned).
        """
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        per_server = self.per_server_operations
        for server_id, count in other.per_server_operations.items():
            per_server[server_id] = per_server.get(server_id, 0) + count

    # -- reporting ---------------------------------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for reporting / JSON dumps."""
        return {name: getattr(self, name) for name in _SUMMED}

    def modeled_time(self, operation_cost: float, routing_cost: float = 0.0) -> float:
        """Execution-time model used by the Figure 8 cost sweep.

        ``operations × operation_cost + routing decisions × routing_cost``
        — the paper's own abstraction when it varies per-operation cost.
        """
        return (
            self.server_operations * operation_cost
            + self.routing_decisions * routing_cost
        )

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(ops={self.server_operations}, "
            f"created={self.partial_matches_created}, "
            f"pruned={self.partial_matches_pruned}, "
            f"wall={self.wall_time_seconds:.4f}s)"
        )
