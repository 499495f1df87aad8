"""Whirlpool-S — the single-threaded adaptive engine (Section 6.1.2).

Per the paper, Whirlpool-S drops the per-server queues: "a partial match is
processed by a server as soon as it is routed to it, therefore ... partial
matches are only kept in the router's queue", ordered by maximum possible
final score.  The loop is:

1. take the tuple with the highest maximum possible final score: the
   router queue's head, or the next root not seeded yet when that root
   would pop first (below);
2. re-check it against the (possibly grown) top-k threshold (``admit``);
   when the shared levels close it (``closes``), every tuple still queued
   and every root not seeded yet is bounded no higher, so the loop prunes
   them all and ends — Upper/MPro's early stop;
3. ask the routing strategy for its next server (``choose_server``);
4. process it there and absorb the extensions — report / complete /
   prune (``serve``) — and push survivors back into the router queue.

Seeds are made when they would pop, not up front.  The roots wait in
:meth:`~repro.core.base.EngineBase.seed_order` — seed bound descending,
then document order — behind one cursor, the number seeded so far
(``seeded``).  Each pass compares the next root's (key, arrival) with the
queue head's and seeds the root (``observe``, ``on_seed``) only when it
wins; its arrival was reserved when the run started, below every
extension, so the tuples are taken in exactly the order a queue holding
every seed from the start pops them.  The cursor travels with the run: a
budget exit parks it with the queue (``pending_bound`` covers the next
root's bound), a checkpoint carries it instead of the unseeded seeds and
their score-0 top-k entries.  Counters do not see the difference: every
root counts as created when the run starts, and the early stop counts the
roots it never seeded as pruned.  The router queue's fault hooks and
depth reports see extensions only.

Whirlpool-M's threads run the same steps, split between its router and
its servers; it seeds every root up front, like LockStep.

This mirrors Upper/MPro's "process the tuple with the highest possible
final score first", with Whirlpool's join model (one operation produces all
extensions at once).
"""

from __future__ import annotations

from typing import List

from repro.core.base import EngineBase, SeedEntry, TopKResult
from repro.errors import InjectedFaultError


class WhirlpoolS(EngineBase):
    """Single-threaded adaptive top-k evaluation."""

    algorithm = "whirlpool_s"

    def run(self) -> TopKResult:
        self.stats.start_clock()
        router_queue = self.make_router_queue()
        # A parked run or a restored snapshot has its top-k set, counters
        # and cursor in place; whatever was queued anywhere re-enters here.
        # (A pattern without servers completes its seeds up front.)
        restored = self.take_restored() if self.server_ids else self.start_matches()
        if restored is None:
            self.open_roots()
            restored = []
        self.put_or_abandon(router_queue, "queue:router", restored)
        order: List[SeedEntry] = []
        seeded = 0
        if self.seeded is not None:  # None: every root was seeded up front
            order = self.seed_order()
            seeded = self.seeded
        total = len(order)
        first = self.seed_arrival

        degraded = False
        pending_bound = 0.0
        snapshots = {"router": 0}
        labelled = {"router": router_queue}
        watched = self.watches_budget()
        while True:
            if watched:
                exhausted = self.budget_exhausted()
                self.maybe_checkpoint(labelled, budget_exit=exhausted)
                if exhausted:
                    # Deadline / operation budget hit: whatever is still
                    # queued or unseeded becomes the anytime certificate —
                    # no unreported answer can beat the best bound among
                    # them — and is parked, so a caller that raises the
                    # budget continues this run.  An empty queue is parked
                    # too: the next run() must finish this run, not seed a
                    # new one.
                    snapshots["router"] = len(router_queue)
                    leftovers = router_queue.drain()
                    degraded = bool(leftovers) or seeded < total
                    pending_bound = self.park(leftovers)
                    break
            match = None
            if seeded < total:
                root = order[seeded]
                head = router_queue.head()
                # (key, arrival) against the head's: arrivals never tie.
                if head is None or (root[0], first + root[1]) < head:
                    seeded += 1
                    self.seeded = seeded
                    match = self.seed(root)
            if match is None:
                try:
                    match = router_queue.get_nowait()
                except InjectedFaultError as exc:
                    # The popped match is recorded as dropped by the queue
                    # hook; account the error and keep consuming.
                    self.supervisor.record_component_error("queue:router", exc)
                    continue
                if match is None:
                    if seeded < total:  # the injector dropped what was queued
                        continue
                    break
            if not self.admit(match):
                if self.topk.closes(match.upper_bound):
                    # Tuples are taken in bound order and both levels only
                    # rise, so the shared-level test closes every tuple
                    # still queued and every root not seeded: each is
                    # pruned as its pop would have been.  Only an observer
                    # needs them one by one, in pop order; else they are
                    # counted and left to go with the queue.
                    if self.observer is None:
                        self.stats.record_pruned(len(router_queue) + total - seeded)
                    else:
                        closed = router_queue.drain()
                        self.stats.record_pruned(len(closed) + total - seeded)
                        for pruned in closed:
                            self.notify_prune(pruned)
                    break
                continue
            server_id = self.choose_server(match)
            if server_id is None:  # dropped in routing; bound recorded
                continue
            survivors = self.serve(server_id, match)
            if survivors:
                self.put_or_abandon(router_queue, "queue:router", survivors)

        self.stats.stop_clock()
        return self.make_result(
            degraded=degraded, pending_bound=pending_bound, queue_snapshots=snapshots
        )
