"""Makespan model of Whirlpool-M: a discrete-event schedule on ``n`` processors.

The paper measures Whirlpool-M on machines with 1, 2, 4 and "infinite"
processors (Figure 9) and sweeps the per-operation cost to locate the point
where adaptivity pays (Figure 8).  CPython's GIL rules out measuring real
CPU parallelism, so the benchmark drivers substitute this model:
:func:`simulate` takes a :class:`~repro.core.whirlpool_m.WhirlpoolM` run
opened by :meth:`repro.core.engine.Engine.open` — its router, queue policy,
observer, faults and warm probe memos — and schedules the engine's own
step (``admit``, then :meth:`~repro.core.whirlpool_m.WhirlpoolM.step`) over
an explicit processor count with the per-event costs of a
:class:`CostModel`.  The makespan plays the role of wall-clock time.

The schedule has the real engine's threads: a router, and
``run.threads_per_server`` per server (the paper: "the number of threads
is equal to the number of servers in the query + 2"; our main thread does
no work, so it needs no processor time).  At any modeled instant at most
``n_processors`` threads run; a thread with queued work waits for a free
processor in ready-queue order (FIFO over becoming-ready events, ties
broken router-first then by server id — fully deterministic).

A thread admits the match it pops at once: a pruned match costs nothing,
as in the real threads, where the check precedes the work.  A routing
decision then occupies the router for ``routing_cost`` modeled seconds and
a server operation its thread for ``operation_cost``; the step's *effects*
(the routing decision, extensions created, top-k set updates, pruning)
apply at the completion instant, so the top-k threshold evolves according
to the schedule — more processors means earlier completions elsewhere, a
faster-growing threshold, and possibly *fewer* total operations, which is
the paper's explanation for Whirlpool-M occasionally beating Whirlpool-S on
operation count (Section 6.3.5).  At one processor the run is a
deterministic interleaving of the real engine code.

``n_processors=None`` means unbounded (the paper's ∞ machine).  A modeled
schedule has no wall clock and no quiesce point, so a run with a deadline,
an operation budget or a checkpoint policy is refused; a run restored from
a snapshot continues from it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.base import EngineBase, TopKResult
from repro.core.match import PartialMatch
from repro.core.whirlpool_m import ROUTER, WhirlpoolM, thread_label
from repro.errors import EngineError, InjectedFaultError


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


def simulate(
    run: EngineBase,
    n_processors: Optional[int] = 2,
    cost_model: Optional[CostModel] = None,
) -> SimulationResult:
    """Drive ``run`` to completion on ``n_processors`` modeled processors
    (``None``: unbounded) and return its answers and makespan."""
    if not isinstance(run, WhirlpoolM):
        raise EngineError(
            f"simulate takes a whirlpool_m run, not algorithm {run.algorithm!r}"
        )
    if n_processors is not None and n_processors < 1:
        raise EngineError(f"n_processors must be >= 1 or None, got {n_processors}")
    if run.threads_per_server < 1:
        raise EngineError(
            f"threads_per_server must be >= 1, got {run.threads_per_server}"
        )
    for option in ("deadline_seconds", "max_operations", "checkpoint_policy"):
        if getattr(run, option) is not None:
            raise EngineError(
                f"a simulated run takes no {option}: a modeled schedule has "
                "no wall clock or quiesce point"
            )
    costs = cost_model if cost_model is not None else CostModel()
    run.stats.start_clock()
    queues = run.make_queues()
    run.put_or_abandon(queues[ROUTER], "queue:router", run.start_matches())

    clock = 0.0
    busy_time = 0.0
    free = n_processors  # None = unbounded
    completion_heap: List[Tuple[float, int, int, PartialMatch]] = []
    sequence = itertools.count()
    ready: Deque[int] = deque()
    ready_set: Set[int] = set()
    running_count: Dict[int, int] = {}

    def capacity(thread: int) -> int:
        return 1 if thread == ROUTER else run.threads_per_server

    def mark_ready(thread: int) -> None:
        if (
            thread not in ready_set
            and running_count.get(thread, 0) < capacity(thread)
            and len(queues[thread]) > 0
        ):
            ready_set.add(thread)
            ready.append(thread)

    def next_admitted(thread: int) -> Optional[PartialMatch]:
        """Pop until a match passes admission (``None``: queue empty)."""
        queue = queues[thread]
        while True:
            try:
                match = queue.get_nowait()
            except InjectedFaultError as exc:
                # Recorded as dropped by the queue hook.
                run.supervisor.record_component_error(f"queue:{thread_label(thread)}", exc)
                continue
            if match is None or run.admit(match):
                return match

    def dispatch() -> None:
        """Hand free processors to ready threads (deterministic order)."""
        nonlocal free, busy_time
        while ready and (free is None or free > 0):
            thread = ready.popleft()
            ready_set.discard(thread)
            match = next_admitted(thread)
            if match is None:
                continue
            cost = costs.routing_cost if thread == ROUTER else costs.operation_cost
            running_count[thread] = running_count.get(thread, 0) + 1
            if free is not None:
                free -= 1
            busy_time += cost
            heapq.heappush(completion_heap, (clock + cost, next(sequence), thread, match))
            # A multi-threaded server may start further operations.
            mark_ready(thread)

    mark_ready(ROUTER)
    dispatch()
    while completion_heap:
        clock, _seq, thread, match = heapq.heappop(completion_heap)
        running_count[thread] -= 1
        if free is not None:
            free += 1
        target, output = run.step(thread, match)
        run.put_or_abandon(queues[target], f"queue:{thread_label(target)}", output)
        mark_ready(target)
        # The finishing thread may have more queued work.
        mark_ready(thread)
        dispatch()

    run.stats.simulated_time = clock
    run.stats.stop_clock()
    return SimulationResult(
        result=run.make_result(),
        makespan=clock,
        busy_time=busy_time,
        n_processors=n_processors,
    )
