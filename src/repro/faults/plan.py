"""Deterministic fault schedules — failure as a first-class, seeded input.

A :class:`FaultPlan` describes *what goes wrong and when* during an engine
run: a list of :class:`FaultRule` entries, each binding an injection
**site** (server operations, queue puts/gets, routing decisions), an
**action** (raise, sleep, silently lose the match) and a **trigger**
("the 7th operation at server 3", "every 5th put", "2% of gets under
seed 11").  Plans are pure data — the runtime counters live in
:class:`repro.faults.inject.FaultInjector` — so the same plan can be
replayed across engines and seeds, which is what the chaos matrix in
``tests/test_faults.py`` does.  A rule's ``site`` says which of the three
fault boundaries executes it (in-engine, a shard worker's RPC loop, a
shard's link: :meth:`FaultRule.family`), and an action that boundary
cannot execute is refused when the rule is built.

A single-fire ``nth`` rule (``nth=N, times=1``) is the *timing-precise*
form — "the Nth time this site is reached", pinned to the run's own
progress rather than to wall time — which is what :mod:`repro.sim`
draws, perturbs and shrinks; ``tests/fixtures/sim/`` is a corpus of such
plans in their canonical JSON (:meth:`FaultPlan.to_json`).

Everything is seeded and deterministic for a single-threaded engine;
under Whirlpool-M the *schedule* is deterministic per (site, target)
operation index even though thread interleaving decides which match hits
which index.
"""

from __future__ import annotations

import enum
import json
import random
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import FaultPlanError


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
    #: transport (:class:`repro.cluster.net.SocketTransport`) on every
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

#: What an engine site can execute (:class:`~repro.faults.inject.FaultInjector`).
ENGINE_ACTIONS = (FaultAction.ERROR, FaultAction.DELAY, FaultAction.DROP, FaultAction.CRASH)

#: The process-level actions :meth:`FaultPlan.worker_chaos` draws from.
#: These act on a shard worker *process*, so they never appear in the
#: in-engine pools.
PROCESS_ACTIONS = (FaultAction.KILL, FaultAction.HANG, FaultAction.SLOW_PIPE)

#: The network-level actions :meth:`FaultPlan.net_chaos` draws from.
#: These act on the coordinator↔worker *link* (the worker process
#: survives them), so they live in their own pool — adding them to the
#: tuples above would reshuffle validated per-seed schedules.
NET_ACTIONS = (
    FaultAction.PARTITION,
    FaultAction.CORRUPT_FRAME,
    FaultAction.DUP_FRAME,
    FaultAction.RECONNECT_STORM,
)

#: Which fault boundary executes a site's rules — the in-engine injector,
#: the shard worker's RPC loop or the coordinator-side transport — and so
#: which actions are legal there.
_FAMILY: Dict[FaultSite, str] = {
    **{site: "engine" for site in ENGINE_SITES},
    FaultSite.WORKER_RPC: "process",
    FaultSite.NET: "net",
}
_LEGAL: Dict[str, Tuple[FaultAction, ...]] = {
    "engine": ENGINE_ACTIONS,
    "process": PROCESS_ACTIONS,
    "net": NET_ACTIONS,
}


class FaultRule:
    """One fault: site + target + action + trigger predicate.

    Parameters
    ----------
    site:
        Which :class:`FaultSite` this rule arms (or its string value).
    action:
        Which :class:`FaultAction` fires (or its string value).
    target:
        Narrow the site to one instance: a server node id for
        ``SERVER_OP``, a queue label (``"router"`` / ``"server:<id>"``)
        for the queue sites, a shard id for ``WORKER_RPC`` / ``NET``.
        ``None`` matches every instance.
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
        Sleep length for ``DELAY`` / ``HANG`` / ``SLOW_PIPE`` actions.
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
        site: Union[FaultSite, str],
        action: Union[FaultAction, str],
        target: Optional[Union[int, str]] = None,
        nth: Optional[int] = None,
        every: Optional[int] = None,
        probability: Optional[float] = None,
        times: Optional[int] = None,
        delay_seconds: float = 0.001,
        message: str = "",
    ) -> None:
        try:
            self.site = FaultSite(site)
            self.action = FaultAction(action)
        except ValueError as exc:
            raise FaultPlanError(str(exc)) from exc
        legal = _LEGAL[_FAMILY[self.site]]
        if self.action not in legal:
            raise FaultPlanError(
                f"action {self.action.value!r} is not valid at site "
                f"{self.site.value!r} (allowed: {', '.join(a.value for a in legal)})"
            )
        if nth is None and every is None and probability is None:
            raise FaultPlanError("a FaultRule needs a trigger: nth, every or probability")
        if nth is not None and nth < 1:
            raise FaultPlanError(f"nth is 1-based, got {nth}")
        if every is not None and every < 1:
            raise FaultPlanError(f"every must be >= 1, got {every}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise FaultPlanError(f"probability must be in [0, 1], got {probability}")
        if times is not None and times < 1:
            raise FaultPlanError(f"times must be >= 1, got {times}")
        if delay_seconds < 0:
            raise FaultPlanError(f"delay_seconds must be >= 0, got {delay_seconds}")
        self.target = str(target) if target is not None else None
        self.nth = nth
        self.every = every
        self.probability = probability
        self.times = times
        self.delay_seconds = delay_seconds
        self.message = message

    def family(self) -> str:
        """Which fault boundary executes this rule: ``"engine"``,
        ``"process"`` or ``"net"``."""
        return _FAMILY[self.site]

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
        """JSON-friendly form (shipped to cluster workers, stored in fixtures)."""
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
        """Inverse of :meth:`as_dict`; validates through ``__init__`` and
        raises :class:`~repro.errors.FaultPlanError` on anything else a
        payload from outside can get wrong (missing key, wrong type)."""
        try:
            return cls(
                site=payload["site"],
                action=payload["action"],
                target=payload.get("target"),
                nth=payload.get("nth"),
                every=payload.get("every"),
                probability=payload.get("probability"),
                times=payload.get("times"),
                delay_seconds=float(payload.get("delay_seconds", 0.001)),
                message=str(payload.get("message", "")),
            )
        except FaultPlanError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed rule payload: {exc!r}") from exc

    def replaced(self, **changes: Any) -> "FaultRule":
        """A copy with some fields changed (validated like any rule)."""
        return FaultRule.from_dict({**self.as_dict(), **changes})

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

    def _key(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultRule) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FaultRule({self.describe()})"


class FaultPlan:
    """A seeded, ordered collection of fault rules — pure data.

    The seed drives both probabilistic triggers and :meth:`chaos`
    schedule generation, so a plan is fully reproducible from
    ``(seed, rules)``.  Rule order decides only which of two rules wins
    an operation both would fire on; ``name`` is a label for fixtures
    and reports and takes no part in equality.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0, name: str = "") -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.name = name

    def __len__(self) -> int:
        return len(self.rules)

    def describe(self) -> List[str]:
        """One line per rule."""
        return [rule.describe() for rule in self.rules]

    def families(self) -> List[str]:
        """The fault boundaries this plan touches (sorted, unique)."""
        return sorted({rule.family() for rule in self.rules})

    def select(self, family: str) -> Optional["FaultPlan"]:
        """The sub-plan one fault boundary executes (same seed and name),
        or ``None`` when no rule belongs to it — so a boundary with
        nothing to do builds no evaluator."""
        rules = [rule for rule in self.rules if rule.family() == family]
        return FaultPlan(rules, seed=self.seed, name=self.name) if rules else None

    #: The actions :meth:`chaos` draws from by default.  Deliberately
    #: *not* ``list(FaultAction)``: CRASH kills the run instead of
    #: degrading it, so it is opt-in via ``actions=`` — and keeping this
    #: tuple fixed preserves the exact per-seed schedules the existing
    #: chaos matrix was validated against.
    CHAOS_ACTIONS = (FaultAction.ERROR, FaultAction.DELAY, FaultAction.DROP)

    #: The module-level pools, under the names callers already use.
    PROCESS_ACTIONS = PROCESS_ACTIONS
    NET_ACTIONS = NET_ACTIONS

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
    def _shard_chaos(
        cls,
        seed: int,
        shards: int,
        max_rules: int,
        site: FaultSite,
        pool: Sequence[FaultAction],
        max_nth: int,
        delay: Callable[[FaultAction], float],
        label: str,
    ) -> "FaultPlan":
        """The body :meth:`worker_chaos` and :meth:`net_chaos` share: 1 to
        ``max_rules`` single-fire rules at ``site``, each drawing — in
        this order, which the per-seed schedules depend on — an action
        from ``pool``, a shard, and an ``nth`` in [2, ``max_nth``]."""
        if shards < 1:
            raise FaultPlanError(f"shards must be >= 1, got {shards}")
        rng = random.Random(seed)
        rules: List[FaultRule] = []
        for _ in range(rng.randint(1, max_rules)):
            action = rng.choice(pool)
            rules.append(
                FaultRule(
                    site=site,
                    action=action,
                    # Targets are compared as strings at the fault
                    # boundary (it arms str(shard_id)).
                    target=str(rng.randrange(shards)),
                    nth=rng.randint(2, max_nth),
                    times=1,
                    delay_seconds=delay(action),
                    message=f"{label} chaos seed={seed}",
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

        def delay(action: FaultAction) -> float:
            return hang_seconds if action is FaultAction.HANG else slow_seconds

        return cls._shard_chaos(
            seed, shards, max_rules, FaultSite.WORKER_RPC, PROCESS_ACTIONS, 6, delay, "worker"
        )

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
        frame counter is per-shard, so the schedule is independent of
        cross-shard interleaving.
        """
        return cls._shard_chaos(
            seed, shards, max_rules, FaultSite.NET, NET_ACTIONS, 8, lambda action: 0.001, "net"
        )

    # -- serialization -------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (shipped to cluster workers, stored in fixtures)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule.as_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`as_dict`; raises
        :class:`~repro.errors.FaultPlanError` on a malformed payload."""
        try:
            return cls(
                [FaultRule.from_dict(entry) for entry in payload.get("rules", ())],
                seed=int(payload.get("seed", 0)),
                name=str(payload.get("name", "")),
            )
        except FaultPlanError:
            raise
        except (AttributeError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed plan payload: {exc!r}") from exc

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, stable indent) — byte-for-byte
        reproducible for fixture comparison."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultPlan)
            and self.seed == other.seed
            and self.rules == other.rules
        )

    def __hash__(self) -> int:
        return hash((self.seed, tuple(self.rules)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"FaultPlan({len(self.rules)} rules, seed={self.seed}{label})"
