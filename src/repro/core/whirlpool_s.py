"""Whirlpool-S — the single-threaded adaptive engine (Section 6.1.2).

Per the paper, Whirlpool-S drops the per-server queues: "a partial match is
processed by a server as soon as it is routed to it, therefore ... partial
matches are only kept in the router's queue", ordered by maximum possible
final score.  The loop is:

1. pop the partial match with the highest maximum possible final score;
2. re-check it against the (possibly grown) top-k threshold;
3. ask the routing strategy for its next server, process it there;
4. absorb the extensions (report / complete / prune) and push survivors
   back into the router queue.

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
        restored = self.take_restored()
        if restored is not None:
            # Continuing a parked run or resuming a snapshot: the top-k
            # set and counters are already in place; whatever was queued
            # anywhere re-enters through the router.
            for match in restored:
                self.put_or_abandon(router_queue, "queue:router", match)
        else:
            for seed in self.seed_matches():
                if self.server_ids:
                    self.put_or_abandon(router_queue, "queue:router", seed)
                else:
                    self.stats.record_completed()

        degraded = False
        pending_bound = 0.0
        snapshots = {"router": 0}
        while True:
            if self.budget_exhausted():
                # Deadline / operation budget hit: whatever is still queued
                # becomes the anytime certificate — no unreported answer
                # can beat the best queued upper bound — and is parked, so
                # a caller that raises the budget continues this run.  With
                # a checkpoint policy attached the same state is also
                # snapshotted (once: this test comes before the periodic
                # one), so a budget-stepped run can be failed over.  An
                # empty queue is parked too: the next run() must finish
                # this run, not seed a new one.
                if self.checkpoint_policy is not None:
                    self.checkpoint({"router": router_queue})
                snapshots["router"] = len(router_queue)
                leftovers = router_queue.drain()
                degraded = bool(leftovers)
                pending_bound = self.park(leftovers)
                break
            self.maybe_checkpoint({"router": router_queue})
            try:
                match = router_queue.get_nowait()
            except InjectedFaultError as exc:
                # The popped match is recorded as dropped by the queue
                # hook; account the error and keep consuming.
                self.supervisor.record_component_error("queue:router", exc)
                continue
            if match is None:
                break
            if self.topk.is_pruned(match):
                self.stats.record_pruned()
                self.notify_prune(match)
                continue

            server_id = self.choose_server(match)
            if server_id is None:  # dropped in routing; bound recorded
                continue
            extensions, outcome = self.process_with_recovery(server_id, match)
            if outcome == "requeue":
                self.put_or_abandon(router_queue, "queue:router", match)
                continue
            if extensions is None:  # abandoned; supervisor holds the bound
                continue
            for survivor in self.absorb_extensions(extensions, parent=match):
                self.put_or_abandon(router_queue, "queue:router", survivor)

        self.stats.stop_clock()
        return self.make_result(
            degraded=degraded, pending_bound=pending_bound, queue_snapshots=snapshots
        )
