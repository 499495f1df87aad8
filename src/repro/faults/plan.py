"""Deterministic fault schedules — failure as a first-class, seeded input.

A :class:`FaultPlan` describes *what goes wrong and when* during an engine
run: a list of :class:`FaultRule` entries, each binding an injection
**site** (server operations, queue puts/gets, routing decisions), an
**action** (raise, sleep, silently lose the match) and a **trigger**
("the 7th operation at server 3", "every 5th put", "2% of gets under
seed 11").  Plans are pure data — the runtime counters live in
:class:`repro.faults.inject.FaultInjector` — so the same plan can be
replayed across engines and seeds, which is what the chaos matrix in
``tests/test_faults.py`` does.

Everything is seeded and deterministic for a single-threaded engine;
under Whirlpool-M the *schedule* is deterministic per (site, target)
operation index even though thread interleaving decides which match hits
which index.
"""

from __future__ import annotations

import enum
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union


class FaultAction(enum.Enum):
    """What an armed fault does to the operation it intercepts."""

    #: Raise :class:`repro.errors.InjectedFaultError` before the operation.
    ERROR = "error"
    #: Sleep :attr:`FaultRule.delay_seconds` before the operation proceeds.
    DELAY = "delay"
    #: Silently lose the partial match in transit (recorded for the
    #: result's ``pending_bound`` certificate).
    DROP = "drop"
    #: Kill the engine mid-flight: raise
    #: :class:`repro.errors.EngineCrashError`, which supervision refuses
    #: to absorb — the run aborts and only a checkpoint restore
    #: (:mod:`repro.recovery`) brings the work back.
    CRASH = "crash"
    #: Process-level: SIGKILL the shard worker process outright.  Only
    #: meaningful at :attr:`FaultSite.WORKER_RPC`; executed by the
    #: cluster worker itself (:mod:`repro.cluster.worker`), never by the
    #: in-engine :class:`~repro.faults.inject.FaultInjector`.
    KILL = "kill"
    #: Process-level: the worker stops responding (sleeps
    #: ``delay_seconds``, which :meth:`FaultPlan.worker_chaos` sets far
    #: past any liveness deadline) so the coordinator must detect the
    #: hang and fail over.
    HANG = "hang"
    #: Process-level: the worker delays its reply by ``delay_seconds``
    #: — slow enough to trip heartbeat misses and retry waits, fast
    #: enough to recover without failover.
    SLOW_PIPE = "slow_pipe"
    #: Network-level: sever the coordinator↔worker link before the frame
    #: leaves.  The worker process stays alive; the transport
    #: reconnects and replays.  Only
    #: meaningful at :attr:`FaultSite.NET`; executed by the coordinator's
    #: transport (:mod:`repro.cluster.net`).
    PARTITION = "partition"
    #: Network-level: flip a bit in the encoded frame in flight, so the
    #: receiver's CRC check condemns the connection.
    CORRUPT_FRAME = "corrupt_frame"
    #: Network-level: deliver the frame twice; the receiver's sequence
    #: check must drop the duplicate.
    DUP_FRAME = "dup_frame"
    #: Network-level: sever the link on several consecutive sends
    #: (:data:`repro.cluster.net.RECONNECT_STORM_DROPS`), forcing the
    #: reconnect backoff ladder to climb before the session resumes.
    RECONNECT_STORM = "reconnect_storm"


class FaultSite(enum.Enum):
    """Where a fault can be injected."""

    #: A :meth:`repro.core.server.Server.process` call; target = server node id.
    SERVER_OP = "server_op"
    #: A :meth:`repro.core.queues.MatchQueue.put`; target = queue label.
    QUEUE_PUT = "queue_put"
    #: A :meth:`repro.core.queues.MatchQueue.get`; target = queue label.
    QUEUE_GET = "queue_get"
    #: A routing decision; target is unused (there is one router).
    ROUTER = "router"
    #: One coordinator→worker RPC delivery at the shard-worker boundary;
    #: target = shard id as a string.  Armed by the worker process on
    #: every inbound request, not by the in-engine injector.
    WORKER_RPC = "worker_rpc"
    #: One coordinator→worker frame *send* at the transport boundary;
    #: target = shard id as a string.  Armed by the coordinator-side
    #: transport (:class:`repro.cluster.net.NetFaultArm`) on every
    #: outbound frame, never by the in-engine injector or the worker.
    NET = "net"


#: The sites :meth:`FaultPlan.chaos` draws from.  Deliberately *not*
#: ``list(FaultSite)``: the chaos schedule for a seed is a function of
#: the drawn pool, so appending new sites (``WORKER_RPC``) to the enum
#: must not reshuffle the per-seed schedules the existing matrices were
#: validated against.  Process-level sites get their own generator,
#: :meth:`FaultPlan.worker_chaos`.
ENGINE_SITES = (
    FaultSite.SERVER_OP,
    FaultSite.QUEUE_PUT,
    FaultSite.QUEUE_GET,
    FaultSite.ROUTER,
)


class FaultRule:
    """One fault: site + target + action + trigger predicate.

    Parameters
    ----------
    site:
        Which :class:`FaultSite` this rule arms.
    action:
        Which :class:`FaultAction` fires.
    target:
        Narrow the site to one instance: a server node id for
        ``SERVER_OP``, a queue label (``"router"`` / ``"server:<id>"``)
        for the queue sites.  ``None`` matches every instance.
    nth:
        Fire on exactly the Nth matching operation (1-based).
    every:
        Fire on every ``every``-th matching operation.
    probability:
        Fire with this probability per matching operation, drawn from the
        plan's seeded RNG (deterministic given the operation sequence).
    times:
        Cap on total fires for this rule (``None`` = unlimited).
    delay_seconds:
        Sleep length for ``DELAY`` actions.
    message:
        Optional message carried by the injected error.
    """

    __slots__ = (
        "site",
        "action",
        "target",
        "nth",
        "every",
        "probability",
        "times",
        "delay_seconds",
        "message",
    )

    def __init__(
        self,
        site: FaultSite,
        action: FaultAction,
        target: Optional[Union[int, str]] = None,
        nth: Optional[int] = None,
        every: Optional[int] = None,
        probability: Optional[float] = None,
        times: Optional[int] = None,
        delay_seconds: float = 0.001,
        message: str = "",
    ) -> None:
        if nth is None and every is None and probability is None:
            raise ValueError("a FaultRule needs a trigger: nth, every or probability")
        if nth is not None and nth < 1:
            raise ValueError(f"nth is 1-based, got {nth}")
        if every is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {delay_seconds}")
        self.site = site
        self.action = action
        self.target = str(target) if target is not None else None
        self.nth = nth
        self.every = every
        self.probability = probability
        self.times = times
        self.delay_seconds = delay_seconds
        self.message = message

    def matches(self, site: FaultSite, target: str) -> bool:
        """Does this rule watch (``site``, ``target``)?"""
        return site is self.site and (self.target is None or self.target == target)

    def triggers(self, count: int, rng: random.Random) -> bool:
        """Does the rule fire on the ``count``-th matching operation?"""
        if self.nth is not None and count == self.nth:
            return True
        if self.every is not None and count % self.every == 0:
            return True
        if self.probability is not None and rng.random() < self.probability:
            return True
        return False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly wire form (shipped to cluster workers)."""
        return {
            "site": self.site.value,
            "action": self.action.value,
            "target": self.target,
            "nth": self.nth,
            "every": self.every,
            "probability": self.probability,
            "times": self.times,
            "delay_seconds": self.delay_seconds,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultRule":
        """Inverse of :meth:`as_dict`; validates through ``__init__``."""
        return cls(
            site=FaultSite(payload["site"]),
            action=FaultAction(payload["action"]),
            target=payload.get("target"),
            nth=payload.get("nth"),
            every=payload.get("every"),
            probability=payload.get("probability"),
            times=payload.get("times"),
            delay_seconds=float(payload.get("delay_seconds", 0.001)),
            message=str(payload.get("message", "")),
        )

    def describe(self) -> str:
        """One-line human description (used by FailureReport)."""
        where = self.site.value if self.target is None else f"{self.site.value}:{self.target}"
        if self.nth is not None:
            when = f"nth={self.nth}"
        elif self.every is not None:
            when = f"every={self.every}"
        else:
            when = f"p={self.probability}"
        cap = "" if self.times is None else f" times={self.times}"
        return f"{self.action.value}@{where} [{when}{cap}]"

    def __repr__(self) -> str:
        return f"FaultRule({self.describe()})"


class FaultPlan:
    """A seeded, ordered collection of fault rules.

    The seed drives both probabilistic triggers and :meth:`chaos`
    schedule generation, so a plan is fully reproducible from
    ``(seed, rules)``.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.rules)

    def describe(self) -> List[str]:
        """One line per rule."""
        return [rule.describe() for rule in self.rules]

    def has_action(self, action: FaultAction) -> bool:
        """Does any rule carry this action?  Engines check for CRASH so
        the crash-watch wait loop only runs when a crash can happen."""
        return any(rule.action is action for rule in self.rules)

    #: The actions :meth:`chaos` draws from by default.  Deliberately
    #: *not* ``list(FaultAction)``: CRASH kills the run instead of
    #: degrading it, so it is opt-in via ``actions=`` — and keeping this
    #: tuple fixed preserves the exact per-seed schedules the existing
    #: chaos matrix was validated against.
    CHAOS_ACTIONS = (FaultAction.ERROR, FaultAction.DELAY, FaultAction.DROP)

    #: The process-level actions :meth:`worker_chaos` draws from.  These
    #: act on a shard worker *process*, so they never appear in the
    #: in-engine pools above.
    PROCESS_ACTIONS = (FaultAction.KILL, FaultAction.HANG, FaultAction.SLOW_PIPE)

    #: The network-level actions :meth:`net_chaos` draws from.  These act
    #: on the coordinator↔worker *link* (the worker process survives
    #: them), so they live in their own pool — adding them to the tuples
    #: above would reshuffle validated per-seed schedules.
    NET_ACTIONS = (
        FaultAction.PARTITION,
        FaultAction.CORRUPT_FRAME,
        FaultAction.DUP_FRAME,
        FaultAction.RECONNECT_STORM,
    )

    @classmethod
    def chaos(
        cls,
        seed: int,
        max_rules: int = 3,
        max_fires_per_rule: int = 5,
        max_delay_seconds: float = 0.003,
        actions: Optional[Sequence[FaultAction]] = None,
    ) -> "FaultPlan":
        """A small random fault schedule, fully determined by ``seed``.

        Designed for the chaos matrix: every rule's fire count is capped
        so a run always terminates quickly, and delays are kept tiny.
        Sweeping seeds covers all (site × action) combinations over time.
        ``actions`` widens (or narrows) the drawn action set — the
        crash-recovery matrix passes one that includes
        :attr:`FaultAction.CRASH`.
        """
        pool = tuple(actions) if actions is not None else cls.CHAOS_ACTIONS
        rng = random.Random(seed)
        rules: List[FaultRule] = []
        for _ in range(rng.randint(1, max_rules)):
            site = rng.choice(ENGINE_SITES)
            action = rng.choice(pool)
            if rng.random() < 0.5:
                trigger = {"nth": rng.randint(1, 40)}
            else:
                trigger = {"every": rng.randint(2, 15)}
            rules.append(
                FaultRule(
                    site=site,
                    action=action,
                    times=rng.randint(1, max_fires_per_rule),
                    delay_seconds=rng.uniform(0.0002, max_delay_seconds),
                    message=f"chaos seed={seed}",
                    **trigger,
                )
            )
        return cls(rules, seed=seed)

    @classmethod
    def worker_chaos(
        cls,
        seed: int,
        shards: int,
        max_rules: int = 2,
        hang_seconds: float = 30.0,
        slow_seconds: float = 0.05,
    ) -> "FaultPlan":
        """A process-level fault schedule for a sharded cluster run.

        Every rule targets :attr:`FaultSite.WORKER_RPC` on one shard and
        fires exactly once on a small RPC index, drawing its action from
        :attr:`PROCESS_ACTIONS` — so each seed deterministically decides
        *which* worker dies/hangs/slows and *when*.  ``hang_seconds`` is
        deliberately far past any sane liveness deadline (the coordinator
        must kill the hung process, it never waits the sleep out);
        ``slow_seconds`` only trips retry waits.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        rng = random.Random(seed)
        rules: List[FaultRule] = []
        for _ in range(rng.randint(1, max_rules)):
            action = rng.choice(cls.PROCESS_ACTIONS)
            delay = hang_seconds if action is FaultAction.HANG else slow_seconds
            rules.append(
                FaultRule(
                    site=FaultSite.WORKER_RPC,
                    action=action,
                    # Targets are compared as strings at the fault
                    # boundary (the worker arms str(shard_id)).
                    target=str(rng.randrange(shards)),
                    nth=rng.randint(2, 6),
                    times=1,
                    delay_seconds=delay,
                    message=f"worker chaos seed={seed}",
                )
            )
        return cls(rules, seed=seed)

    @classmethod
    def net_chaos(
        cls,
        seed: int,
        shards: int,
        max_rules: int = 2,
    ) -> "FaultPlan":
        """A network-level fault schedule for a sharded cluster run.

        Every rule targets :attr:`FaultSite.NET` on one shard and fires
        exactly once on a small outbound-frame index, drawing its action
        from :attr:`NET_ACTIONS` — each seed deterministically decides
        *which* link partitions/corrupts/duplicates and *when*.  The
        frame counter is per-shard (see
        :class:`repro.cluster.net.NetFaultArm`), so the schedule is
        independent of cross-shard interleaving.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        rng = random.Random(seed)
        rules: List[FaultRule] = []
        for _ in range(rng.randint(1, max_rules)):
            action = rng.choice(cls.NET_ACTIONS)
            rules.append(
                FaultRule(
                    site=FaultSite.NET,
                    action=action,
                    # Targets are compared as strings at the fault
                    # boundary (the transport arms str(shard_id)).
                    target=str(rng.randrange(shards)),
                    nth=rng.randint(2, 8),
                    times=1,
                    message=f"net chaos seed={seed}",
                )
            )
        return cls(rules, seed=seed)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly wire form (shipped to cluster workers)."""
        return {"seed": self.seed, "rules": [rule.as_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`as_dict`."""
        return cls(
            [FaultRule.from_dict(entry) for entry in payload.get("rules", ())],
            seed=int(payload.get("seed", 0)),
        )

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.rules)} rules, seed={self.seed})"
