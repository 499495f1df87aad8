"""Whirlpool-M — the multi-threaded engine (Section 6.1.2).

One thread per server, one router thread, and the calling thread plays the
paper's "main thread [that] checks for termination of top-k query
execution".  Termination is detected by an in-flight counter that tracks
every partial match living in any queue or being processed — when it drops
to zero, no component can ever produce new work.

Every thread runs one step, :meth:`WhirlpoolM.step`: pop a match from its
queue, ``admit`` it against the top-k set, then route it (the router) or
serve it (a server), and put the output into the next thread's queue.  The
makespan model (:func:`repro.bench.makespan.simulate`) schedules the same
step over a modeled processor count: the threads and the model run one
engine.

One lock.  The top-k set, the queues, the statistics, the supervisor, the
in-flight counter, the fault injector and the trace have no lock of their
own: the run has one, the *engine lock* (:attr:`WhirlpoolM.lock`), and a
thread holds it for all of a step's bookkeeping — the pop, ``admit``, the
routing decision or the absorbed extensions, the statistics, fault hooks,
observer calls and the put.  It lets go of it only where it waits: for
work (a condition per thread id, built on the engine lock, which a put
into that thread's queue notifies), around a server operation, a retry's
backoff sleep and an injected DELAY's sleep
(:meth:`~repro.core.base.EngineBase.unlocked`), and — the main thread —
while it waits for the work to drain and joins the threads.  Waiting on
the index is what threads overlap (``threaded_wallclock`` in the
benchmarks); the bookkeeping runs one thread at a time.

The threads live for one *segment*: it ends when the work drains, the
deadline passes, a thread's step spends the operation budget or makes a
checkpoint due (that thread ends it) or a thread meets an injected CRASH,
and the main thread joins them.
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.core.base import EngineBase, TopKResult
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue
from repro.core.stats import monotonic_seconds
from repro.errors import EngineCrashError, EngineDeadlockError, EngineError

#: The router's thread id; a server thread's is its server's node id.
ROUTER = -1

#: Deadlock backstop for :meth:`_InFlight.wait_zero`.  Termination is
#: notification-driven (``dec()`` notifies on the zero crossing), so this
#: timeout is never what wakes a healthy run — if a full window passes
#: with the counter stuck and *no* transitions at all, the system cannot
#: make progress and :class:`~repro.errors.EngineDeadlockError` is raised.
_WAIT_BACKSTOP_SECONDS = 60.0

_ThreadNames = Union[Callable[[], List[str]], Sequence[str], None]

_T = TypeVar("_T")


def thread_label(thread: int) -> str:
    """A thread's queue site, checkpoint label and failure-report name."""
    return "router" if thread == ROUTER else f"server:{thread}"


class _InFlight:
    """Counter of matches alive anywhere in the system, and the condition
    the main thread waits on for it to drain.

    It has no lock of its own: every method is called with the engine lock
    held, and the condition is built on that lock — :meth:`dec` notifies
    the waiter on the zero crossing, :meth:`wake` when a thread ends the
    segment, and :meth:`wait_zero` releases the lock while it waits.  A
    monotone transition count kept alongside the live count lets
    :meth:`wait_zero` distinguish *slow progress* (transitions keep
    happening) from a genuine deadlock (a full backstop window passes with
    the count stuck and untouched).
    """

    def __init__(self, lock: Any) -> None:
        self.count = 0
        self._transitions = 0
        self._cond = threading.Condition(lock)

    def inc(self, amount: int = 1) -> None:
        self.count += amount
        self._transitions += 1

    def dec(self, amount: int = 1) -> None:
        self.count -= amount
        self._transitions += 1
        if self.count <= 0:
            self._cond.notify_all()

    def wake(self) -> None:
        """End the main thread's :meth:`wait_zero` early: the segment is
        ending with work left."""
        self._cond.notify_all()

    def wait_zero(
        self,
        backstop_seconds: float = _WAIT_BACKSTOP_SECONDS,
        timeout: Optional[float] = None,
        thread_names: _ThreadNames = None,
    ) -> bool:
        """Block until the counter reaches zero.

        Returns ``True`` when the counter drained, ``False`` when
        ``timeout`` expired first (the deadline-enforcement path) or a
        :meth:`wake` came first.
        Raises :class:`~repro.errors.EngineDeadlockError` when a full
        ``backstop_seconds`` window passes with a positive count and no
        transitions — the signature of a lost match, never of slow
        progress.  ``thread_names`` (a sequence, or a callable evaluated
        at raise time) is attached to the error for diagnosis.
        """
        start = monotonic_seconds()
        while self.count > 0:
            window = backstop_seconds
            if timeout is not None:
                remaining = timeout - (monotonic_seconds() - start)
                if remaining <= 0:
                    return False
                window = min(window, remaining)
            transitions_before = self._transitions
            window_start = monotonic_seconds()
            woken = self._cond.wait(window)
            if self.count <= 0:
                break
            if woken:
                return False
            waited = monotonic_seconds() - window_start
            if self._transitions == transitions_before and waited >= backstop_seconds:
                names: List[str]
                if callable(thread_names):
                    names = list(thread_names())
                else:
                    names = list(thread_names or ())
                raise EngineDeadlockError(self.count, names, backstop_seconds)
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
        super().__init__(*args, **kwargs)
        if threads_per_server < 1:
            raise EngineError(
                f"threads_per_server must be >= 1, got {threads_per_server}"
            )
        self.threads_per_server = threads_per_server
        #: The engine lock (module docstring): whoever drives the run holds
        #: it — the threads for a step's bookkeeping, the main thread
        #: between segments, the makespan model throughout.
        self.lock = threading.Lock()

    def unlocked(self, call: Callable[..., _T], *args: Any) -> _T:
        """``call(*args)`` with the engine lock released: the step waits
        there, and the run's other threads work meanwhile."""
        lock = self.lock
        lock.release()
        try:
            return call(*args)
        finally:
            lock.acquire()

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Adopt a snapshot (:meth:`EngineBase.restore`) under the engine
        lock, which every later write to the restored state holds."""
        with self.lock:
            super().restore(snapshot)

    def make_queues(self) -> Dict[int, MatchQueue]:
        """One inbox per thread id: the router's, then every server's."""
        queues: Dict[int, MatchQueue] = {ROUTER: self.make_router_queue()}
        for node_id in self.server_ids:
            queues[node_id] = self.make_server_queue(node_id)
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
        # The main thread holds the engine lock too, except while a
        # segment runs (it waits for the drain) and while it joins.
        with self.lock:
            self.stats.start_clock()
            in_flight = _InFlight(self.lock)
            queues = self.make_queues()
            ready = {thread: threading.Condition(self.lock) for thread in queues}
            labelled = {thread_label(thread): queue for thread, queue in queues.items()}
            self._put(queues, ready, in_flight, ROUTER, self.start_matches())

            # Between two thread segments every thread is joined: each pass
            # is a quiesce point, where the checkpoint rule applies and the
            # run either stops or continues in a fresh segment.
            while True:
                exhausted = self.budget_exhausted()
                self.maybe_checkpoint(labelled, budget_exit=exhausted)
                if exhausted or in_flight.count == 0:
                    break
                crash = self._segment(queues, ready, in_flight)
                if crash is not None:
                    # The injected CRASH killed this run; matches still
                    # queued are lost with it.  Callers resume from
                    # last_checkpoint (also on the supervisor for
                    # FailureReport attachment) — see repro.recovery.
                    self.stats.stop_clock()
                    raise crash

            # Anything still queued is unreported work: its best upper bound
            # is the degradation certificate, and a budget exit parks it —
            # an empty set too: the next run() must finish this run, not
            # seed a new one.
            snapshots = {label: len(queue) for label, queue in labelled.items()}
            degraded = in_flight.count > 0
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
        ready: Dict[int, threading.Condition],
        in_flight: _InFlight,
        thread: int,
        matches: Sequence[PartialMatch],
    ) -> None:
        """Put ``matches`` into ``thread``'s queue and wake one of its
        threads per match that entered.  The count rises BEFORE the put:
        an injected DELAY sleeps unlocked in the middle of a batch, so a
        consumer may pop and finish an early match of the batch before the
        rest is in.  What the put loses (its bound recorded) gives its
        count back."""
        in_flight.inc(len(matches))
        entered = self.put_or_abandon(queues[thread], thread_label(thread), matches)
        if entered < len(matches):
            in_flight.dec(len(matches) - entered)
        ready[thread].notify(entered)

    def _segment(
        self,
        queues: Dict[int, MatchQueue],
        ready: Dict[int, threading.Condition],
        in_flight: _InFlight,
    ) -> Optional[BaseException]:
        """Serve ``queues`` with a router thread and ``threads_per_server``
        threads per server until the work drains, the deadline passes, a
        step spends the operation budget or makes a checkpoint due, or a
        thread meets an injected CRASH.
        Called, and returns, with the engine lock held and every thread
        joined — each finishes the match in hand first, and puts its
        output, so every live match is in a queue — and returns the
        crash, if there was one."""
        crashed: List[BaseException] = []
        stopped = False
        injector = self.fault_injector
        policy = self.checkpoint_policy
        budget = self.max_operations
        stats = self.stats

        def stop() -> None:
            """End the segment: wake every thread waiting for work, which
            then exits, and the main thread's wait for the drain."""
            nonlocal stopped
            stopped = True
            for waiting in ready.values():
                waiting.notify_all()
            in_flight.wake()

        def worker_loop(thread: int) -> None:
            queue = queues[thread]
            waiting = ready[thread]
            label = thread_label(thread)
            with self.lock:
                while True:
                    while not (stopped or queue):
                        waiting.wait()
                    if stopped:
                        return
                    match: Optional[PartialMatch] = None
                    lost = 0  # popped and lost by the get hook, bounds recorded
                    try:
                        if injector is None:
                            match = queue.get_nowait()
                        else:
                            match, lost = self.pop_or_lose(queue, label)
                        if match is not None and self.admit(match):
                            target, output = self.step(thread, match)
                            # The step that spends the budget or makes a
                            # checkpoint due ends the segment; its output
                            # still goes into a queue.
                            if (
                                budget is not None and stats.server_operations >= budget
                            ) or (policy is not None and self.checkpoint_due()):
                                stop()
                            if output:
                                self._put(queues, ready, in_flight, target, output)
                    except EngineCrashError as exc:
                        # The run is dead; the match in hand is lost with
                        # it.  Recovery is a checkpoint restore, not
                        # supervision.
                        crashed.append(exc)
                        stop()
                    except Exception as exc:
                        # Crash containment: an unexpected failure abandons
                        # only the match in hand (a pop raises nothing else).
                        if match is not None:
                            self.supervisor.record_abandoned(match, label, exc)
                    finally:
                        # The count of the match in hand, and those the pop
                        # lost.
                        in_flight.dec(lost if match is None else lost + 1)

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

        # The main thread waits for the drain, or for a thread that ends the
        # segment (a crash, a spent budget, a due checkpoint) to wake it;
        # under a deadline it waits at most the time left.
        timeout = None
        if self.deadline_seconds is not None:
            timeout = max(self.deadline_seconds - stats.elapsed_seconds(), 0.001)
        for thread in threads:
            thread.start()
        try:
            in_flight.wait_zero(timeout=timeout, thread_names=alive_names)
        finally:
            stop()
            self.unlocked(_join, threads)
        return crashed[0] if crashed else None


def _join(threads: Sequence[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=5.0)
