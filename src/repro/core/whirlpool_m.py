"""Whirlpool-M — the multi-threaded engine (Section 6.1.2).

One thread per server, one router thread, and the calling thread plays the
paper's "main thread [that] checks for termination of top-k query
execution".  All shared structures (top-k set, statistics, the queues) are
thread-safe; termination is detected by an in-flight counter that tracks
every partial match living in any queue or being processed — when it drops
to zero, no component can ever produce new work.

Every thread runs one step, :meth:`WhirlpoolM.step`: pop a match from its
queue, ``admit`` it against the top-k set, then route it (the router) or
serve it (a server), and put the output into the next thread's queue.  The
makespan model (:func:`repro.bench.makespan.simulate`) schedules the same
step over a modeled processor count: the threads and the model run one
engine.

The threads live for one *segment*: the main thread ends it when the
work drains, the budget is spent or a checkpoint is due, and joins them.
With every thread joined, each match is in a queue, so the run applies
the checkpoint rule (:meth:`~repro.core.base.EngineBase.maybe_checkpoint`)
there, as the single-threaded engines do at a loop pass, and then stops
or starts a fresh segment.

Worker bodies are *supervised*: every dequeued match is processed under
``try/finally`` so the in-flight count is decremented no matter what the
body raises (a crashed worker iteration can therefore never stall
termination), server errors go through the engine's retry / requeue /
abandon ladder, and unexpected crashes abandon the match in hand with its
bound recorded — the run degrades instead of hanging.  A stuck counter
with no transitions for a full backstop window raises
:class:`~repro.errors.EngineDeadlockError` instead of cycling forever.

CPython's GIL means this implementation demonstrates the *concurrent
architecture* (and its different, parallelism-driven pruning behaviour —
the top-k threshold grows in a different order than under Whirlpool-S)
rather than true CPU speedup; the deterministic processor-count model for
the paper's parallelism experiments lives in :mod:`repro.bench.makespan`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.base import EngineBase, TopKResult
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue
from repro.core.stats import monotonic_seconds
from repro.errors import (
    EngineCrashError,
    EngineDeadlockError,
    EngineError,
    InjectedFaultError,
)

#: The router's thread id; a server thread's is its server's node id.
ROUTER = -1

#: Main-thread wait slice while a checkpoint policy is active — small so a
#: segment ends close to the operation count that made a checkpoint due.
_CHECKPOINT_POLL_SECONDS = 0.005

#: Main-thread wait slice under an operation budget or a possible injected
#: CRASH, which only the main thread can act on.
_BUDGET_POLL_SECONDS = 0.05

#: Deadlock backstop for :meth:`_InFlight.wait_zero`.  Termination is
#: notification-driven (``dec()`` notifies on the zero crossing), so this
#: timeout is never what wakes a healthy run — if a full window passes
#: with the counter stuck and *no* transitions at all, the system cannot
#: make progress and :class:`~repro.errors.EngineDeadlockError` is raised.
_WAIT_BACKSTOP_SECONDS = 60.0

_ThreadNames = Union[Callable[[], List[str]], Sequence[str], None]


def thread_label(thread: int) -> str:
    """A thread's queue site, checkpoint label and failure-report name."""
    return "router" if thread == ROUTER else f"server:{thread}"


class _InFlight:
    """Counter of matches alive anywhere in the system.

    Tracks a monotone transition count alongside the live count so
    :meth:`wait_zero` can distinguish *slow progress* (transitions keep
    happening) from a genuine deadlock (a full backstop window passes
    with the count stuck and untouched).
    """

    def __init__(self) -> None:
        self._count = 0
        self._transitions = 0
        self._cond = threading.Condition()

    def inc(self, amount: int = 1) -> None:
        with self._cond:
            self._count += amount
            self._transitions += 1

    def dec(self) -> None:
        with self._cond:
            self._count -= 1
            self._transitions += 1
            if self._count <= 0:
                self._cond.notify_all()

    def count(self) -> int:
        with self._cond:
            return self._count

    def wait_zero(
        self,
        backstop_seconds: float = _WAIT_BACKSTOP_SECONDS,
        timeout: Optional[float] = None,
        thread_names: _ThreadNames = None,
    ) -> bool:
        """Block until the counter reaches zero.

        Returns ``True`` when the counter drained, ``False`` when
        ``timeout`` expired first (the deadline-enforcement path).
        Raises :class:`~repro.errors.EngineDeadlockError` when a full
        ``backstop_seconds`` window passes with a positive count and no
        transitions — the signature of a lost match, never of slow
        progress.  ``thread_names`` (a sequence, or a callable evaluated
        at raise time) is attached to the error for diagnosis.
        """
        start = monotonic_seconds()
        with self._cond:
            while self._count > 0:
                window = backstop_seconds
                if timeout is not None:
                    remaining = timeout - (monotonic_seconds() - start)
                    if remaining <= 0:
                        return False
                    window = min(window, remaining)
                transitions_before = self._transitions
                window_start = monotonic_seconds()
                self._cond.wait(window)
                if self._count <= 0:
                    break
                waited = monotonic_seconds() - window_start
                if (
                    self._transitions == transitions_before
                    and waited >= backstop_seconds
                ):
                    names: List[str]
                    if callable(thread_names):
                        names = list(thread_names())
                    else:
                        names = list(thread_names or ())
                    raise EngineDeadlockError(
                        self._count, names, backstop_seconds
                    )
        return True


class WhirlpoolM(EngineBase):
    """Multi-threaded adaptive top-k evaluation.

    ``threads_per_server`` implements the paper's future-work direction
    ("increasing the number of threads per server for maximal
    parallelism"): each server queue is drained by that many worker
    threads.  With GIL-releasing operation costs (e.g. the latency-injected
    index of :mod:`repro.bench.latency`), extra threads overlap more
    waits on the hottest servers (and the makespan model runs that many
    operations of one server at once).
    """

    algorithm = "whirlpool_m"

    def __init__(self, *args: Any, threads_per_server: int = 1, **kwargs: Any) -> None:
        kwargs.setdefault("thread_safe_stats", True)
        super().__init__(*args, **kwargs)
        if threads_per_server < 1:
            raise EngineError(
                f"threads_per_server must be >= 1, got {threads_per_server}"
            )
        self.threads_per_server = threads_per_server

    def make_queues(
        self, on_drop: Optional[Callable[[PartialMatch], None]] = None
    ) -> Dict[int, MatchQueue]:
        """One inbox per thread id: the router's, then every server's."""
        queues: Dict[int, MatchQueue] = {ROUTER: self.make_router_queue(on_drop)}
        for node_id in self.server_ids:
            queues[node_id] = self.make_server_queue(node_id, on_drop)
        return queues

    def step(self, thread: int, match: PartialMatch) -> Tuple[int, List[PartialMatch]]:
        """What ``thread`` does with a match it admitted: returns the
        thread whose queue receives the output, and the output.  The
        router routes the match to a server (or drops it in routing, its
        bound recorded); a server serves it and hands the router what
        must continue."""
        if thread != ROUTER:
            return ROUTER, self.serve(thread, match)
        server_id = self.choose_server(match)
        if server_id is None:
            return ROUTER, []
        return server_id, [match]

    def run(self) -> TopKResult:
        self.stats.start_clock()
        in_flight = _InFlight()
        # A match the injector discards in transit still holds an
        # in-flight count from its producer; the drop releases it, so it
        # cannot stall termination.
        queues = self.make_queues(on_drop=lambda match: in_flight.dec())
        labelled = {thread_label(thread): queue for thread, queue in queues.items()}
        for match in self.start_matches():
            self._put(queues, in_flight, ROUTER, match)

        # Between two thread segments every thread is joined: each pass is
        # a quiesce point, where the checkpoint rule applies and the run
        # either stops or continues in a fresh segment.
        while True:
            exhausted = self.budget_exhausted()
            self.maybe_checkpoint(labelled, budget_exit=exhausted)
            if exhausted or in_flight.count() == 0:
                break
            crash = self._segment(queues, in_flight)
            if crash is not None:
                # The injected CRASH killed this run; matches still queued
                # are lost with it.  Callers resume from last_checkpoint
                # (also on the supervisor for FailureReport attachment) —
                # see repro.recovery.
                self.stats.stop_clock()
                raise crash

        # Anything still queued is unreported work: its best upper bound is
        # the degradation certificate, and a budget exit parks it — an
        # empty set too: the next run() must finish this run, not seed a
        # new one.
        snapshots = {label: len(queue) for label, queue in labelled.items()}
        degraded = in_flight.count() > 0
        leftovers = [match for queue in queues.values() for match in queue.drain()]
        pending_bound = self.park(leftovers) if exhausted else 0.0

        self.stats.stop_clock()
        return self.make_result(
            degraded=degraded,
            pending_bound=pending_bound,
            queue_snapshots=snapshots,
        )

    def _put(
        self,
        queues: Dict[int, MatchQueue],
        in_flight: _InFlight,
        thread: int,
        match: PartialMatch,
    ) -> None:
        """Put ``match`` into ``thread``'s queue.  inc() comes BEFORE the
        put: the consumer may dec() the instant the match lands.  A failed
        put abandons the match (bound recorded) and releases the count; a
        drop releases it through the queue's ``on_drop``."""
        in_flight.inc()
        try:
            queues[thread].put(match)
        except EngineCrashError:
            in_flight.dec()
            raise
        except Exception as exc:
            self.supervisor.record_abandoned(match, f"queue:{thread_label(thread)}", exc)
            in_flight.dec()

    def _segment(
        self, queues: Dict[int, MatchQueue], in_flight: _InFlight
    ) -> Optional[BaseException]:
        """Serve ``queues`` with a router thread and ``threads_per_server``
        threads per server until the work drains, the budget is spent, the
        checkpoint interval has passed, or a thread meets an injected
        CRASH.  Returns with every thread joined — each finishes the match
        in hand first, and a put on a closed queue still lands, so every
        live match is in a queue — and the crash, if there was one."""
        stop = threading.Event()
        crashed: List[BaseException] = []

        def note_crash(exc: BaseException) -> None:
            crashed.append(exc)  # atomic: crashed[0] is the first crash
            stop.set()

        def worker_loop(thread: int) -> None:
            queue = queues[thread]
            label = thread_label(thread)
            while not stop.is_set():
                try:
                    match = queue.get()
                except InjectedFaultError as exc:
                    # The popped match was recorded as dropped (and its
                    # count released) by the queue hook.
                    self.supervisor.record_component_error(f"queue:{label}", exc)
                    continue
                except EngineCrashError as exc:
                    note_crash(exc)
                    return
                if match is None:  # the segment closed the queue
                    continue
                try:
                    if self.admit(match):
                        target, output = self.step(thread, match)
                        for produced in output:
                            self._put(queues, in_flight, target, produced)
                except EngineCrashError as exc:
                    # The run is dead; the match in hand is lost with it.
                    # Recovery is a checkpoint restore, not supervision.
                    note_crash(exc)
                except Exception as exc:
                    # Crash containment: an unexpected failure abandons
                    # only the match in hand.
                    self.supervisor.record_abandoned(match, label, exc)
                finally:
                    in_flight.dec()

        threads = [
            threading.Thread(
                target=worker_loop, args=(ROUTER,), name="whirlpool-router", daemon=True
            )
        ]
        threads.extend(
            threading.Thread(
                target=worker_loop,
                args=(node_id,),
                name=f"whirlpool-server-{node_id}-{worker}",
                daemon=True,
            )
            for node_id in self.server_ids
            for worker in range(self.threads_per_server)
        )

        def alive_names() -> List[str]:
            return [thread.name for thread in threads if thread.is_alive()]

        # The main thread waits for the drain in slices when something else
        # can end the segment, so it re-reads the budget, the checkpoint
        # interval and the crash list; under a pure deadline each slice is
        # the time left.
        injector = self.fault_injector
        window: Optional[float] = None
        if self.checkpoint_policy is not None:
            window = _CHECKPOINT_POLL_SECONDS
        elif self.max_operations is not None or (
            injector is not None and injector.crash_possible()
        ):
            window = _BUDGET_POLL_SECONDS
        for queue in queues.values():
            queue.reopen()
        for thread in threads:
            thread.start()
        try:
            while not (crashed or self.budget_exhausted() or self.checkpoint_due()):
                wait = window
                if self.deadline_seconds is not None:
                    left = max(self.deadline_seconds - self.stats.elapsed_seconds(), 0.001)
                    wait = left if wait is None else min(wait, left)
                if in_flight.wait_zero(timeout=wait, thread_names=alive_names):
                    break
        finally:
            stop.set()
            for queue in queues.values():
                queue.close()
            for thread in threads:
                thread.join(timeout=5.0)
        return crashed[0] if crashed else None
