"""LockStep baselines (Section 6.1.2).

``LockStep`` "considers one server at a time and processes all partial
matches sequentially through a server before proceeding to the next
server" — the plan-relaxation evaluation of EDBT'02 (≈ OptThres) with a
top-k set pruning matches between servers.  The server order is static by
nature; benches sweep permutations for the min/median/max static plans.

``LockStep-NoPrun`` disables pruning entirely: every partial match goes
through every server, scores are computed for all matches, and the k best
are selected at the end.  Besides being the paper's worst baseline, it
computes the *maximum possible number of partial matches* — the
denominator of Table 2's scalability ratio — and the ground-truth ranking
the other engines are tested against.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.base import EngineBase, TopKResult
from repro.errors import EngineError, InjectedFaultError


class LockStep(EngineBase):
    """All matches pass through one server before the next is considered."""

    algorithm = "lockstep"

    def __init__(self, *args, order: Optional[Sequence[int]] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if order is None:
            order = list(self.server_ids)
        order = list(order)
        if sorted(order) != self.server_ids:
            raise EngineError(
                f"lock-step order {order} must be a permutation of {self.server_ids}"
            )
        self.order = order

    def run(self) -> TopKResult:
        self.stats.start_clock()
        # Matches staged by a parked run or a snapshot (possibly taken
        # under another engine) rejoin the lock-step sweep below, skipping
        # servers they already visited.
        matches = self.start_matches()

        degraded = False
        pending_bound = 0.0
        snapshots: Dict[str, int] = {}
        watched = self.watches_budget()
        for server_id in self.order:
            label = f"queue:server:{server_id}"
            # Within the server, matches are consumed in priority-queue
            # order (Section 6.1.3; max-final-score by default).
            queue = self.make_server_queue(server_id)
            labelled = {f"server:{server_id}": queue}
            # Restored matches may have been through this server already
            # in their original run; they are carried forward.
            survivors = [match for match in matches if server_id in match.visited]
            self.put_or_abandon(
                queue, label, [match for match in matches if server_id not in match.visited]
            )
            out_of_budget = False
            while True:
                if watched:
                    exhausted = self.budget_exhausted()
                    self.maybe_checkpoint(labelled, survivors, budget_exit=exhausted)
                    if exhausted:
                        # Budget hit mid-server: everything still queued
                        # (plus the survivors already spawned) is
                        # unreported work, parked for a caller that raises
                        # the budget.  Nothing left is parked too: the next
                        # run() must finish this run, not seed a new one.
                        snapshots[f"server:{server_id}"] = len(queue)
                        leftovers = queue.drain() + survivors
                        degraded = bool(leftovers)
                        pending_bound = self.park(leftovers)
                        out_of_budget = True
                        break
                try:
                    match = queue.get_nowait()
                except InjectedFaultError as exc:
                    self.supervisor.record_component_error(label, exc)
                    continue
                if match is None:
                    break
                if self.prune and not self.admit(match):
                    continue
                if self.observer is not None:
                    self.notify_route(match, server_id)
                # Lock-step visits servers in a fixed order, so there is
                # no router to requeue through — recovery is retry-or-
                # abandon (an abandoned match leaves nothing; the
                # supervisor holds its bound).  NoPrun keeps every
                # extension, and reports none of them to an observer.
                survivors.extend(self.serve(server_id, match, can_requeue=False))
            if out_of_budget:
                break
            matches = survivors

        self.stats.stop_clock()
        return self.make_result(
            degraded=degraded,
            pending_bound=pending_bound,
            queue_snapshots=snapshots or None,
        )


class LockStepNoPrun(LockStep):
    """LockStep without pruning — computes everything, sorts at the end."""

    algorithm = "lockstep_noprun"
    prune = False
