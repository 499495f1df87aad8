"""Makespan model of Whirlpool-M: a discrete-event simulation on ``n`` processors.

The paper measures Whirlpool-M on machines with 1, 2, 4 and "infinite"
processors (Figure 9) and sweeps the per-operation cost to locate the point
where adaptivity pays (Figure 8).  CPython's GIL rules out measuring real
CPU parallelism, so the benchmark drivers substitute this simulation: the
same servers, router, queues, score model and top-k set as the real engine,
scheduled over an explicit processor count with the per-event costs of a
:class:`CostModel`.  The simulated makespan plays the role of wall-clock
time.

The simulated system has one logical thread per server plus a router
thread, exactly like the real Whirlpool-M (the paper: "the number of
threads is equal to the number of servers in the query + 2"; our main
thread does no work, so it needs no simulated processor time).  At any
simulated instant at most ``n_processors`` threads run; a thread with
queued work waits for a free processor in ready-queue order (FIFO over
becoming-ready events, ties broken router-first then by server id — fully
deterministic).

Each server operation occupies its thread for ``operation_cost`` simulated
seconds; each routing decision for ``routing_cost``.  Operation *effects*
(extensions created, top-k set updates, pruning) apply at the operation's
completion instant, so the top-k threshold evolves according to the
simulated schedule — more processors means earlier completions elsewhere,
a faster-growing threshold, and possibly *fewer* total operations, which
is the paper's explanation for Whirlpool-M occasionally beating
Whirlpool-S on operation count (Section 6.3.5).

``n_processors=None`` means unbounded (the paper's ∞ machine).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.base import EngineBase, TopKResult
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue
from repro.errors import EngineError, InjectedFaultError

_ROUTER = -1  # thread id of the router (servers use their node ids)


class CostModel:
    """Per-event costs, in (simulated) seconds.

    The paper reports results "for the case where join operations cost
    around 1.8 msecs each" (Section 6.3.3) and sweeps that cost from 10 µs
    to 1 s in Figure 8; routing decisions carry their own (much smaller)
    overhead — the "cost of adaptivity".
    """

    __slots__ = ("operation_cost", "routing_cost")

    #: The paper's default join-operation cost (Section 6.3.3).
    DEFAULT_OPERATION_COST = 0.0018

    def __init__(
        self,
        operation_cost: float = DEFAULT_OPERATION_COST,
        routing_cost: float = 0.0,
    ) -> None:
        if operation_cost < 0 or routing_cost < 0:
            raise ValueError("costs must be non-negative")
        self.operation_cost = operation_cost
        self.routing_cost = routing_cost

    def sequential_time(self, operations: int, routings: int) -> float:
        """Time a purely sequential engine (Whirlpool-S) would take."""
        return operations * self.operation_cost + routings * self.routing_cost

    def __repr__(self) -> str:
        return (
            f"CostModel(op={self.operation_cost!r}, routing={self.routing_cost!r})"
        )


class SimulationResult:
    """A :class:`TopKResult` plus the simulated makespan and utilization."""

    __slots__ = ("result", "makespan", "busy_time", "n_processors")

    def __init__(
        self,
        result: TopKResult,
        makespan: float,
        busy_time: float,
        n_processors: Optional[int],
    ) -> None:
        self.result = result
        self.makespan = makespan
        self.busy_time = busy_time
        self.n_processors = n_processors

    def utilization(self) -> float:
        """Mean busy fraction across processors (0 for empty runs)."""
        if self.makespan <= 0 or not self.n_processors:
            return 0.0
        return self.busy_time / (self.makespan * self.n_processors)

    def __repr__(self) -> str:
        processors = "inf" if self.n_processors is None else str(self.n_processors)
        return (
            f"SimulationResult(makespan={self.makespan:.4f}s, "
            f"processors={processors}, ops={self.result.stats.server_operations})"
        )


class SimulatedWhirlpoolM(EngineBase):
    """Whirlpool-M semantics under a deterministic processor-count model."""

    algorithm = "whirlpool_m_simulated"

    def __init__(
        self,
        *args,
        n_processors: Optional[int] = 2,
        cost_model: Optional[CostModel] = None,
        threads_per_server: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if n_processors is not None and n_processors < 1:
            raise EngineError(f"n_processors must be >= 1 or None, got {n_processors}")
        if threads_per_server < 1:
            raise EngineError(
                f"threads_per_server must be >= 1, got {threads_per_server}"
            )
        self.n_processors = n_processors
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: The paper's future-work knob ("increasing the number of threads
        #: per server for maximal parallelism"): how many operations one
        #: server may run concurrently.  The router stays single-threaded.
        self.threads_per_server = threads_per_server

    # -- simulation --------------------------------------------------------------

    def simulate(self) -> SimulationResult:
        """Run the DES and return answers + makespan."""
        self.stats.start_clock()
        router_queue = self.make_router_queue()
        server_queues: Dict[int, MatchQueue] = {
            node_id: self.make_server_queue(node_id) for node_id in self.server_ids
        }

        for seed in self.seed_matches():
            if self.server_ids:
                self.put_or_abandon(router_queue, "queue:router", seed)
            else:
                self.stats.record_completed()

        # -- scheduler state ---------------------------------------------------
        clock = 0.0
        busy_time = 0.0
        free = self.n_processors  # None = unbounded
        completion_heap: List[Tuple[float, int, int, PartialMatch]] = []
        sequence = itertools.count()
        ready: Deque[int] = deque()
        ready_set = set()
        running_count: Dict[int, int] = {}

        def queue_of(thread_id: int) -> MatchQueue:
            return router_queue if thread_id == _ROUTER else server_queues[thread_id]

        def label_of(thread_id: int) -> str:
            return "queue:router" if thread_id == _ROUTER else f"queue:server:{thread_id}"

        def capacity(thread_id: int) -> int:
            return 1 if thread_id == _ROUTER else self.threads_per_server

        def mark_ready(thread_id: int) -> None:
            if (
                thread_id not in ready_set
                and running_count.get(thread_id, 0) < capacity(thread_id)
                and len(queue_of(thread_id)) > 0
            ):
                ready_set.add(thread_id)
                ready.append(thread_id)

        def next_unpruned(thread_id: int) -> Optional[PartialMatch]:
            """Pop until a live match (pruned ones cost nothing, as in the
            real engine where the check precedes the operation)."""
            queue = queue_of(thread_id)
            while True:
                try:
                    match = queue.get_nowait()
                except InjectedFaultError as exc:
                    # Recorded as dropped by the queue hook.
                    self.supervisor.record_component_error(label_of(thread_id), exc)
                    continue
                if match is None:
                    return None
                if self.topk.is_pruned(match):
                    self.stats.record_pruned()
                    self.notify_prune(match)
                    continue
                return match

        def dispatch() -> None:
            """Hand free processors to ready threads (deterministic order)."""
            nonlocal free, busy_time
            while ready and (free is None or free > 0):
                thread_id = ready.popleft()
                ready_set.discard(thread_id)
                match = next_unpruned(thread_id)
                if match is None:
                    continue
                cost = (
                    self.cost_model.routing_cost
                    if thread_id == _ROUTER
                    else self.cost_model.operation_cost
                )
                running_count[thread_id] = running_count.get(thread_id, 0) + 1
                if free is not None:
                    free -= 1
                busy_time += cost
                heapq.heappush(
                    completion_heap, (clock + cost, next(sequence), thread_id, match)
                )
                # A multi-threaded server may start further operations.
                mark_ready(thread_id)

        def complete(thread_id: int, match: PartialMatch) -> None:
            """Apply the effects of one finished operation."""
            if thread_id == _ROUTER:
                server_id = self.choose_server(match)
                if server_id is None:  # dropped in routing; bound recorded
                    return
                self.put_or_abandon(server_queues[server_id], label_of(server_id), match)
                mark_ready(server_id)
                return
            extensions, outcome = self.process_with_recovery(thread_id, match)
            if outcome == "requeue":
                survivors = [match]
            else:  # abandoned (extensions is None): the supervisor holds the bound
                survivors = self.absorb_extensions(extensions or (), parent=match)
            for survivor in survivors:
                self.put_or_abandon(router_queue, "queue:router", survivor)
            mark_ready(_ROUTER)

        mark_ready(_ROUTER)
        dispatch()
        while completion_heap:
            clock, _seq, thread_id, match = heapq.heappop(completion_heap)
            running_count[thread_id] = running_count.get(thread_id, 1) - 1
            if free is not None:
                free += 1
            complete(thread_id, match)
            # The finishing thread may have more queued work.
            mark_ready(thread_id)
            dispatch()

        self.stats.simulated_time = clock
        self.stats.stop_clock()
        return SimulationResult(
            result=self.make_result(),
            makespan=clock,
            busy_time=busy_time,
            n_processors=self.n_processors,
        )

    def run(self) -> TopKResult:
        """EngineBase interface: simulate and return just the answers."""
        return self.simulate().result
