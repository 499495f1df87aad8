"""Runtime fault injection: counters, triggers, loss accounting.

:class:`FaultArm` is the live counterpart of a plan's rule list and the
one place a rule's trigger is evaluated: the in-engine
:class:`FaultInjector` below, a shard worker's RPC loop
(:mod:`repro.cluster.worker`) and a shard's link
(:class:`repro.cluster.net.SocketTransport`) each hold one and differ
only in what they do with the rule it returns.

A :class:`FaultInjector` belongs to one engine run, and only
:class:`~repro.core.base.EngineBase` builds one.  The engine fires every
hook — ``on_server_op`` before a server operation (and each retry),
``on_put`` / ``on_get`` around its queue transfers, ``on_route`` before a
routing decision — and with no plan active each site costs a single
``is None`` check (a put, one per batch), which is what the
``fault_overhead`` paper artifact under ``benchmarks/`` measures.  The
injector has no lock: a run that one thread drives calls it from that
thread, and Whirlpool-M's threads call it holding the run's engine lock.

The injector is also the book-keeper that keeps degradation *honest*:
every match it loses (``DROP`` actions, and the match in hand when a
``QUEUE_GET`` error fires) is recorded with its upper bound, so the
engine can fold the loss into the result's ``pending_bound`` certificate
— an injected fault may cost answers, but never silently.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineCrashError, InjectedFaultError
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
import repro.sim.clock as simclock

if TYPE_CHECKING:
    from repro.core.match import PartialMatch

#: A run's :meth:`~repro.core.base.EngineBase.unlocked`: ``unlocked(call,
#: *args)`` calls ``call(*args)``, with Whirlpool-M's engine lock released.
_Unlocked = Callable[..., Any]


class FaultArm:
    """Trigger evaluation for one rule list at one fault boundary: an
    operation counter per (site, target), a fire count per rule against
    its ``times`` cap, and the seeded RNG probability rules draw from.

    Not synchronized: a :class:`FaultInjector` is driven as its run is
    (see :class:`FaultInjector`), and a worker's RPC loop and a shard's
    send path are each driven by one thread.
    """

    __slots__ = ("rules", "_rng", "_counts", "_fires")

    def __init__(self, rules: Sequence[FaultRule], seed: int) -> None:
        self.rules = rules
        self._rng = Random(seed)
        self._counts: Dict[Tuple[FaultSite, str], int] = {}
        self._fires: Dict[int, int] = {}

    def arm(self, site: FaultSite, target: str) -> Optional[FaultRule]:
        """Advance the (site, target) counter; return the rule firing, if any."""
        key = (site, target)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        for index, rule in enumerate(self.rules):
            if not rule.matches(site, target):
                continue
            fired = self._fires.get(index, 0)
            if rule.times is not None and fired >= rule.times:
                continue
            if rule.triggers(count, self._rng):
                self._fires[index] = fired + 1
                return rule
        return None

    def fired_count(self) -> int:
        """Total rule firings so far."""
        return sum(self._fires.values())

    def site_counts(self) -> Dict[str, int]:
        """Operations observed per ``site:target``, sorted by key — the
        run's *yield points*: every count is an ``nth`` a single-fire
        rule could fire at, which the schedule explorer perturbs around."""
        return {
            f"{site.value}:{target}": count
            for (site, target), count in sorted(
                self._counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
            )
        }


class DroppedMatch:
    """Record of one match lost to an injected fault."""

    __slots__ = ("match_id", "upper_bound", "site", "target")

    def __init__(self, match_id: int, upper_bound: float, site: str, target: str) -> None:
        self.match_id = match_id
        self.upper_bound = upper_bound
        self.site = site
        self.target = target

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "match_id": self.match_id,
            "upper_bound": self.upper_bound,
            "site": self.site,
            "target": self.target,
        }

    def __repr__(self) -> str:
        return (
            f"DroppedMatch(#{self.match_id} bound={self.upper_bound:.4f} "
            f"at {self.site}:{self.target})"
        )


class FaultInjector:
    """Trigger evaluation for one engine run.

    Hooks return ``True`` when the operation should proceed and ``False``
    when the match was dropped (already recorded); ``ERROR`` actions
    raise :class:`repro.errors.InjectedFaultError`.  Each hook takes the
    run's :meth:`~repro.core.base.EngineBase.unlocked`: an injected DELAY
    sleeps through it, so Whirlpool-M waits the delay out without its
    engine lock, and everything else a hook does runs under that lock.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._triggers = FaultArm(plan.rules, plan.seed)
        self._dropped: List[DroppedMatch] = []
        self._errors_injected = 0
        self._delays_injected = 0
        self._crashes_injected = 0

    # -- trigger machinery -------------------------------------------------------

    def _record_drop(self, match: "PartialMatch", site: FaultSite, target: str) -> None:
        self._dropped.append(
            DroppedMatch(match.match_id, match.upper_bound, site.value, target)
        )

    def _fire(
        self,
        site: FaultSite,
        target: str,
        match: "PartialMatch",
        unlocked: _Unlocked,
        record_on_error: bool = False,
    ) -> bool:
        """Count one operation at (site, target) and execute the rule it
        fires, if any; True = proceed, False = dropped."""
        rule = self._triggers.arm(site, target)
        if rule is None:
            return True
        if rule.action is FaultAction.DELAY:
            self._delays_injected += 1
            unlocked(simclock.sleep, rule.delay_seconds)
            return True
        if rule.action is FaultAction.DROP:
            self._record_drop(match, site, target)
            return False
        if rule.action is FaultAction.CRASH:
            # No drop accounting: a crash does not degrade the run, it
            # kills it — the loss certificate is the last checkpoint.
            self._crashes_injected += 1
            raise EngineCrashError(site.value, target, rule.message)
        if rule.action is FaultAction.ERROR:
            # When the caller cannot return the match to the system (a
            # get already popped it), the match counts as lost too.
            if record_on_error:
                self._record_drop(match, site, target)
            self._errors_injected += 1
            raise InjectedFaultError(site.value, target, rule.message)
        # FaultRule admits only ENGINE_ACTIONS at the sites armed here.
        raise AssertionError(f"{rule!r} fired at an engine site")

    # -- hooks (one per instrumented component) ---------------------------------

    def on_server_op(self, server_id: int, match: "PartialMatch", unlocked: _Unlocked) -> bool:
        """Hook before a server operation, ahead of its index probe;
        False = drop the match."""
        return self._fire(FaultSite.SERVER_OP, str(server_id), match, unlocked)

    def on_put(self, label: str, match: "PartialMatch", unlocked: _Unlocked) -> bool:
        """Hook before a queue enqueue; False = the match is lost in transit."""
        return self._fire(FaultSite.QUEUE_PUT, label, match, unlocked)

    def on_get(self, label: str, match: "PartialMatch", unlocked: _Unlocked) -> bool:
        """Hook after a queue pop; False = the match is lost in transit.

        An ERROR here also records the popped match as dropped — it has
        already left the queue and cannot be handed to the caller.
        """
        return self._fire(FaultSite.QUEUE_GET, label, match, unlocked, record_on_error=True)

    def on_route(self, match: "PartialMatch", unlocked: _Unlocked) -> bool:
        """Hook before a routing decision; False = drop the match."""
        return self._fire(FaultSite.ROUTER, "router", match, unlocked)

    # -- accounting --------------------------------------------------------------

    def dropped(self) -> List[DroppedMatch]:
        """All matches lost to injected faults so far."""
        return list(self._dropped)

    def dropped_count(self) -> int:
        """Number of matches lost to injected faults."""
        return len(self._dropped)

    def max_dropped_bound(self) -> float:
        """Largest upper bound among lost matches (0.0 when none)."""
        return max((record.upper_bound for record in self._dropped), default=0.0)

    def fired_count(self) -> int:
        """Total rule firings (errors + delays + drops + crashes)."""
        return self._triggers.fired_count()

    def summary(self) -> Dict[str, object]:
        """Aggregate injection statistics for reports."""
        return {
            "rules": [rule.describe() for rule in self.plan.rules],
            "fires": self._triggers.fired_count(),
            "errors_injected": self._errors_injected,
            "delays_injected": self._delays_injected,
            "crashes_injected": self._crashes_injected,
            "matches_dropped": len(self._dropped),
            "site_counts": self._triggers.site_counts(),
        }

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan!r}, fires={self.fired_count()})"
