"""Whirlpool-S — the single-threaded adaptive engine (Section 6.1.2).

Per the paper, Whirlpool-S drops the per-server queues: "a partial match is
processed by a server as soon as it is routed to it, therefore ... partial
matches are only kept in the router's queue", ordered by maximum possible
final score.  The loop is:

1. pop the partial match with the highest maximum possible final score;
2. re-check it against the (possibly grown) top-k threshold (``admit``);
   when the shared levels close it (``closes``), every tuple still queued
   is bounded no higher, so the loop prunes the whole queue and ends —
   Upper/MPro's early stop;
3. ask the routing strategy for its next server (``choose_server``);
4. process it there and absorb the extensions — report / complete /
   prune (``serve``) — and push survivors back into the router queue.

Whirlpool-M's threads run the same steps, split between its router and
its servers.

This mirrors Upper/MPro's "process the tuple with the highest possible
final score first", with Whirlpool's join model (one operation produces all
extensions at once).
"""

from __future__ import annotations

from repro.core.base import EngineBase, TopKResult
from repro.errors import InjectedFaultError


class WhirlpoolS(EngineBase):
    """Single-threaded adaptive top-k evaluation."""

    algorithm = "whirlpool_s"

    def run(self) -> TopKResult:
        self.stats.start_clock()
        router_queue = self.make_router_queue()
        # A parked run or a restored snapshot has its top-k set and
        # counters in place; whatever was queued anywhere re-enters here.
        for match in self.start_matches():
            self.put_or_abandon(router_queue, "queue:router", match)

        degraded = False
        pending_bound = 0.0
        snapshots = {"router": 0}
        labelled = {"router": router_queue}
        while True:
            exhausted = self.budget_exhausted()
            self.maybe_checkpoint(labelled, budget_exit=exhausted)
            if exhausted:
                # Deadline / operation budget hit: whatever is still queued
                # becomes the anytime certificate — no unreported answer
                # can beat the best queued upper bound — and is parked, so
                # a caller that raises the budget continues this run.  An
                # empty queue is parked too: the next run() must finish
                # this run, not seed a new one.
                snapshots["router"] = len(router_queue)
                leftovers = router_queue.drain()
                degraded = bool(leftovers)
                pending_bound = self.park(leftovers)
                break
            try:
                match = router_queue.get_nowait()
            except InjectedFaultError as exc:
                # The popped match is recorded as dropped by the queue
                # hook; account the error and keep consuming.
                self.supervisor.record_component_error("queue:router", exc)
                continue
            if match is None:
                break
            if not self.admit(match):
                if self.topk.closes(match.upper_bound):
                    # The queue pops in bound order and both levels only
                    # rise, so the shared-level test closes every tuple
                    # still queued: each is pruned as its pop would have.
                    closed = router_queue.drain()
                    self.stats.record_pruned(len(closed))
                    if self.observer is not None:
                        for pruned in closed:
                            self.notify_prune(pruned)
                    break
                continue
            server_id = self.choose_server(match)
            if server_id is None:  # dropped in routing; bound recorded
                continue
            for survivor in self.serve(server_id, match):
                self.put_or_abandon(router_queue, "queue:router", survivor)

        self.stats.stop_clock()
        return self.make_result(
            degraded=degraded, pending_bound=pending_bound, queue_snapshots=snapshots
        )
