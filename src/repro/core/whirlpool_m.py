"""Whirlpool-M — the multi-threaded engine (Section 6.1.2).

One thread per server, one router thread, and the calling thread plays the
paper's "main thread [that] checks for termination of top-k query
execution".  All shared structures (top-k set, statistics, the queues) are
thread-safe; termination is detected by an in-flight counter that tracks
every partial match living in any queue or being processed — when it drops
to zero, no component can ever produce new work.

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
the paper's parallelism experiments lives in :mod:`repro.simulate`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.base import EngineBase, TopKResult
from repro.core.match import PartialMatch
from repro.core.queues import MatchQueue
from repro.core.stats import monotonic_seconds
from repro.errors import EngineCrashError, EngineDeadlockError, InjectedFaultError

_POLL_SECONDS = 0.02

#: How long the quiesced-checkpoint barrier waits for every worker to
#: park before giving up on that snapshot (workers finish their match in
#: hand first, so this only expires when a worker is wedged — in which
#: case skipping the checkpoint is the safe choice).
_BARRIER_TIMEOUT_SECONDS = 2.0

#: Main-thread wait slice while a checkpoint policy is active — small so
#: due checkpoints are taken close to the operation count that made them
#: due.
_CHECKPOINT_POLL_SECONDS = 0.005

#: Deadlock backstop for :meth:`_InFlight.wait_zero`.  Termination is
#: notification-driven (``dec()`` notifies on the zero crossing), so this
#: timeout is never what wakes a healthy run — if a full window passes
#: with the counter stuck and *no* transitions at all, the system cannot
#: make progress and :class:`~repro.errors.EngineDeadlockError` is raised.
_WAIT_BACKSTOP_SECONDS = 60.0

_ThreadNames = Union[Callable[[], List[str]], Sequence[str], None]


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
    index of :mod:`repro.simulate.latency`), extra threads overlap more
    waits on the hottest servers.
    """

    algorithm = "whirlpool_m"

    def __init__(self, *args: Any, threads_per_server: int = 1, **kwargs: Any) -> None:
        kwargs.setdefault("thread_safe_stats", True)
        super().__init__(*args, **kwargs)
        if threads_per_server < 1:
            from repro.errors import EngineError

            raise EngineError(
                f"threads_per_server must be >= 1, got {threads_per_server}"
            )
        self.threads_per_server = threads_per_server

    def run(self) -> TopKResult:
        self.stats.start_clock()
        in_flight = _InFlight()
        stop = threading.Event()

        # Quiesced-barrier state: when ``pause`` is set, workers park
        # between iterations (never holding a match), so a checkpoint
        # taken with every worker parked sees all live matches in queues.
        # ``crashed`` holds the first injected CRASH; it aborts the run.
        pause = threading.Event()
        barrier = threading.Condition()
        parked = [0]
        exited = [0]
        crashed: List[BaseException] = []

        def note_crash(exc: BaseException) -> None:
            with barrier:
                if not crashed:
                    crashed.append(exc)
            stop.set()

        def park_if_paused() -> None:
            if not pause.is_set():
                return
            with barrier:
                parked[0] += 1
                barrier.notify_all()
                while pause.is_set() and not stop.is_set():
                    barrier.wait(_POLL_SECONDS)
                parked[0] -= 1
                barrier.notify_all()

        def dec_on_drop(match: PartialMatch) -> None:
            # A match the injector discarded in transit still held an
            # in-flight count from its producer; release it here so the
            # drop cannot stall termination.
            in_flight.dec()

        router_queue = self.make_router_queue(on_drop=dec_on_drop)
        server_queues: Dict[int, MatchQueue] = {
            node_id: self.make_server_queue(node_id, on_drop=dec_on_drop)
            for node_id in self.server_ids
        }

        def safe_put(queue: MatchQueue, label: str, match: PartialMatch) -> None:
            # inc() BEFORE the put: the consumer may dec() the instant the
            # match lands.  A failed put abandons the match (bound
            # recorded) and releases the count; a drop releases it via
            # ``dec_on_drop``.
            in_flight.inc()
            try:
                queue.put(match)
            except EngineCrashError:
                in_flight.dec()
                raise
            except Exception as exc:
                self.supervisor.record_abandoned(match, label, exc)
                in_flight.dec()

        def route_one(match: PartialMatch) -> None:
            if self.topk.is_pruned(match):
                self.stats.record_pruned()
                self.notify_prune(match)
                return
            server_id = self.choose_server(match)
            if server_id is None:  # dropped in routing; bound recorded
                return
            safe_put(server_queues[server_id], f"queue:server:{server_id}", match)

        def process_one(node_id: int, match: PartialMatch) -> None:
            if self.topk.is_pruned(match):
                self.stats.record_pruned()
                self.notify_prune(match)
                return
            extensions, outcome = self.process_with_recovery(node_id, match)
            if outcome == "requeue":
                safe_put(router_queue, "queue:router", match)
                return
            if extensions is None:  # abandoned; supervisor holds the bound
                return
            for survivor in self.absorb_extensions(extensions, parent=match):
                safe_put(router_queue, "queue:router", survivor)

        def router_loop() -> None:
            while not stop.is_set():
                park_if_paused()
                try:
                    match = router_queue.get(timeout=_POLL_SECONDS)
                except InjectedFaultError as exc:
                    # The popped match was recorded as dropped (and its
                    # count released) by the queue hook.
                    self.supervisor.record_component_error("queue:router", exc)
                    continue
                except EngineCrashError as exc:
                    note_crash(exc)
                    return
                if match is None:
                    continue
                try:
                    route_one(match)
                except EngineCrashError as exc:
                    # The run is dead; the match in hand is lost with it.
                    # Recovery is a checkpoint restore, not supervision.
                    note_crash(exc)
                except Exception as exc:
                    # Crash containment: an unexpected router failure
                    # abandons only the match in hand.
                    self.supervisor.record_abandoned(match, "router", exc)
                finally:
                    in_flight.dec()

        def server_loop(node_id: int) -> None:
            queue = server_queues[node_id]
            label = f"server:{node_id}"
            while not stop.is_set():
                park_if_paused()
                try:
                    match = queue.get(timeout=_POLL_SECONDS)
                except InjectedFaultError as exc:
                    self.supervisor.record_component_error(f"queue:{label}", exc)
                    continue
                except EngineCrashError as exc:
                    note_crash(exc)
                    return
                if match is None:
                    continue
                try:
                    process_one(node_id, match)
                except EngineCrashError as exc:
                    note_crash(exc)
                except Exception as exc:
                    self.supervisor.record_abandoned(match, label, exc)
                finally:
                    in_flight.dec()

        def run_worker(body: Callable[[], None]) -> None:
            # The barrier must know how many workers can still park, so
            # every exit path (stop, crash, unexpected error) counts.
            try:
                body()
            finally:
                with barrier:
                    exited[0] += 1
                    barrier.notify_all()

        threads: List[threading.Thread] = [
            threading.Thread(
                target=run_worker,
                args=(router_loop,),
                name="whirlpool-router",
                daemon=True,
            )
        ]
        threads.extend(
            threading.Thread(
                target=run_worker,
                args=(lambda node_id=node_id: server_loop(node_id),),
                name=f"whirlpool-server-{node_id}-{worker}",
                daemon=True,
            )
            for node_id in self.server_ids
            for worker in range(self.threads_per_server)
        )

        def alive_names() -> List[str]:
            return [thread.name for thread in threads if thread.is_alive()]

        def quiesce_and_checkpoint() -> None:
            # The quiesced barrier: park every worker between iterations
            # (each finishes the match in hand first), snapshot with all
            # live matches sitting in queues, then release.  Called from
            # the main thread only.
            pause.set()
            try:
                give_up_at = monotonic_seconds() + _BARRIER_TIMEOUT_SECONDS
                with barrier:
                    while parked[0] < len(threads) - exited[0]:
                        if (
                            stop.is_set()
                            or crashed
                            or monotonic_seconds() >= give_up_at
                        ):
                            return
                        barrier.wait(_POLL_SECONDS)
                    labelled: Dict[str, MatchQueue] = {"router": router_queue}
                    for node_id, queue in server_queues.items():
                        labelled[f"server:{node_id}"] = queue
                    self.checkpoint(labelled)
            finally:
                pause.clear()
                with barrier:
                    barrier.notify_all()

        for thread in threads:
            thread.start()

        injector = self.fault_injector
        crash_possible = injector is not None and injector.crash_possible()
        policy_active = self.checkpoint_policy is not None
        out_of_budget = False
        try:
            restored = self.take_restored()
            if restored is not None:
                for match in restored:
                    safe_put(router_queue, "queue:router", match)
            else:
                seeds = self.seed_matches()
                if self.server_ids:
                    for seed in seeds:
                        safe_put(router_queue, "queue:router", seed)
                else:
                    for _ in seeds:
                        self.stats.record_completed()

            if (
                self.deadline_seconds is None
                and self.max_operations is None
                and not crash_possible
                and not policy_active
            ):
                in_flight.wait_zero(thread_names=alive_names)
            else:
                # Budget / crash / checkpoint enforcement: wait in slices
                # so the operation counter, the crash flag and the
                # checkpoint policy are re-checked; under a pure deadline
                # each slice is simply the remaining time.
                while True:
                    if crashed:
                        break
                    if self.budget_exhausted():
                        out_of_budget = True
                        break
                    if policy_active and self.checkpoint_due():
                        quiesce_and_checkpoint()
                    if (
                        self.max_operations is not None
                        or policy_active
                        or crash_possible
                    ):
                        window = (
                            _CHECKPOINT_POLL_SECONDS if policy_active else 0.05
                        )
                        if self.deadline_seconds is not None:
                            window = min(
                                window,
                                max(
                                    self.deadline_seconds
                                    - self.stats.elapsed_seconds(),
                                    0.001,
                                ),
                            )
                    else:
                        assert self.deadline_seconds is not None
                        window = max(
                            self.deadline_seconds - self.stats.elapsed_seconds(),
                            0.001,
                        )
                    if in_flight.wait_zero(timeout=window, thread_names=alive_names):
                        break
        finally:
            stop.set()
            router_queue.close()
            for queue in server_queues.values():
                queue.close()
            for thread in threads:
                thread.join(timeout=5.0)

        if crashed:
            # The injected CRASH killed this run; matches still queued are
            # lost with it.  Callers resume from last_checkpoint (also on
            # the supervisor for FailureReport attachment) — see
            # repro.recovery.
            self.stats.stop_clock()
            raise crashed[0]

        # Anything still queued at shutdown is unreported work: its best
        # upper bound is the degradation certificate, and it is parked for
        # a caller that raises the budget.  Workers have joined, so this
        # point is naturally quiesced: with a checkpoint policy on,
        # snapshot the budget-exit state so a stepped run can be failed
        # over (puts on closed queues still land, so in-hand extensions
        # are in).
        if out_of_budget and policy_active:
            final_labelled: Dict[str, MatchQueue] = {"router": router_queue}
            for node_id, queue in server_queues.items():
                final_labelled[f"server:{node_id}"] = queue
            self.checkpoint(final_labelled)
        snapshots: Dict[str, int] = {"router": len(router_queue)}
        for node_id, queue in server_queues.items():
            snapshots[f"server:{node_id}"] = len(queue)
        leftovers = router_queue.drain()
        for queue in server_queues.values():
            leftovers.extend(queue.drain())

        degraded = bool(leftovers) or (out_of_budget and in_flight.count() > 0)
        # A budget exit parks even an empty set: the next run() must finish
        # this run, not seed a new one.
        pending_bound = self.park(leftovers) if out_of_budget or leftovers else 0.0

        self.stats.stop_clock()
        return self.make_result(
            degraded=degraded,
            pending_bound=pending_bound,
            queue_snapshots=snapshots,
        )
