"""Schedule search: randomize fault timing, then perturb around yield points.

The chaos matrices sample fault *placement* from a seeded lottery; the
explorer searches fault *timing*.  Its plans hold only single-fire
``nth`` rules (``nth=N, times=1``: "the Nth time this site is reached"),
so every fault is pinned to the run's own progress, independent of wall
clock and (for the single-threaded engines) of thread interleaving.  Two
phases per budget:

1. **Randomize** — draw plans of 1–``max_triggers`` rules with sites,
   actions and ``nth`` sampled (seeded ``random.Random``, so a given
   ``(scenario, seed, budget)`` explores the same plans every time) from
   the scenario's fault families and the observed operation counts.
2. **Perturb** — for every violating or near-miss plan, and for the
   most interesting clean ones, systematically shift each rule's ``nth``
   by ±1/±2 around the *yield points* the run actually observed (the
   injector's per-site operation counts).  Faults are only interesting
   when they land next to a scheduling decision; stepping the rule
   across adjacent operation indexes is exactly how a timing race is
   found once random search gets close.

Every violating run is returned as a :class:`Violation` carrying the
plan and its invariant report; callers hand those to
:mod:`repro.sim.shrink` for minimization.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import (
    ENGINE_ACTIONS,
    ENGINE_SITES,
    NET_ACTIONS,
    PROCESS_ACTIONS,
    FaultPlan,
    FaultRule,
    FaultSite,
)
from repro.sim.harness import SimHarness, SimRun, SimScenario

#: ``nth`` window used for WORKER_RPC / NET rules, whose operation
#: counters live in worker processes / transports and are not probeable
#: in advance.  ``begin`` is armed RPC #1, steps count from #2, and the
#: cluster chaos matrix shows nth ∈ [2, 6] lands mid-query for the step
#: budgets the simulator uses.
_REMOTE_STEP_WINDOW = (2, 6)


class Violation:
    """One plan that broke an invariant, with its evidence."""

    def __init__(self, run: SimRun) -> None:
        self.plan = run.plan
        self.run = run

    def describe(self) -> str:
        names = ", ".join(v.name for v in self.run.report.violations()) if self.run.report else "?"
        return f"{' + '.join(self.plan.describe()) or '<empty>'} -> {names}"

    def __repr__(self) -> str:
        return f"Violation({self.describe()})"


class ExploreStats:
    """Search accounting for reports and the CLI."""

    def __init__(self) -> None:
        self.runs = 0
        self.random_runs = 0
        self.perturbed_runs = 0
        self.violations = 0
        self.wall_seconds = 0.0
        self.warped_seconds = 0.0

    def record(self, run: SimRun, perturbed: bool) -> None:
        self.runs += 1
        if perturbed:
            self.perturbed_runs += 1
        else:
            self.random_runs += 1
        if not run.ok():
            self.violations += 1
        self.wall_seconds += run.wall_seconds
        self.warped_seconds += run.warped_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "random_runs": self.random_runs,
            "perturbed_runs": self.perturbed_runs,
            "violations": self.violations,
            "wall_seconds": round(self.wall_seconds, 4),
            "warped_seconds": round(self.warped_seconds, 4),
        }


class ScheduleExplorer:
    """Budgeted random + perturbation search over single-fire ``nth`` plans."""

    def __init__(
        self,
        harness: SimHarness,
        seed: int = 0,
        max_triggers: int = 3,
    ) -> None:
        self.harness = harness
        self.seed = seed
        self.max_triggers = max_triggers
        self.stats = ExploreStats()
        self._rng = Random(seed)
        self._yield_points: Optional[Dict[str, int]] = None

    # -- sampling ----------------------------------------------------------------

    def yield_points(self) -> Dict[str, int]:
        """Per-site operation counts from a fault-free probe run (cached)."""
        if self._yield_points is None:
            self._yield_points = self.harness.probe_yield_points()
        return self._yield_points

    def _engine_sites(self) -> List[Tuple[FaultSite, Optional[str], int]]:
        """(site, target, observed count) triples for engine-family draws."""
        out: List[Tuple[FaultSite, Optional[str], int]] = []
        for key, count in sorted(self.yield_points().items()):
            site_name, _, target = key.partition(":")
            try:
                site = FaultSite(site_name)
            except ValueError:
                continue
            if site in ENGINE_SITES and count > 0:
                out.append((site, target, count))
        if not out:
            # Degenerate scenario (no observed operations): fall back to
            # server ops on server 0 with a small window.
            out = [(FaultSite.SERVER_OP, "0", _REMOTE_STEP_WINDOW[1])]
        return out

    def _random_rule(self) -> FaultRule:
        families = self.harness.scenario.families()
        family = self._rng.choice(families)
        if family == "engine":
            site, target, count = self._rng.choice(self._engine_sites())
            nth = self._rng.randint(1, max(count, 1))
            action = self._rng.choice(ENGINE_ACTIONS)
            # Targeted engine sites (server_op/queue_*) fire for a
            # specific label; the rule keeps the one we observed.
            return FaultRule(site, action, target=target or None, nth=nth, times=1)
        lo, hi = _REMOTE_STEP_WINDOW
        nth = self._rng.randint(lo, hi)
        shard = str(self._rng.randrange(self.harness.scenario.shards))
        if family == "process":
            action = self._rng.choice(PROCESS_ACTIONS)
            return FaultRule(FaultSite.WORKER_RPC, action, target=shard, nth=nth, times=1)
        action = self._rng.choice(NET_ACTIONS)
        return FaultRule(FaultSite.NET, action, target=shard, nth=nth, times=1)

    def random_plan(self) -> FaultPlan:
        rules: List[FaultRule] = []
        for _ in range(self._rng.randint(1, self.max_triggers)):
            rule = self._random_rule()
            if rule not in rules:  # an equal second rule could never fire
                rules.append(rule)
        return FaultPlan(rules)

    # -- perturbation ------------------------------------------------------------

    def perturbations(self, plan: FaultPlan) -> List[FaultPlan]:
        """Shift each rule's ``nth`` by ±1/±2 (one rule at a time).

        This is the systematic half of the search: once a plan lands
        near a yield point, its neighbours in operation-index space are
        the timing races random search would need luck to hit.
        """
        out: List[FaultPlan] = []
        for index, rule in enumerate(plan.rules):
            if rule.nth is None:
                continue
            for delta in (-2, -1, 1, 2):
                if rule.nth + delta < 1:
                    continue
                rules = list(plan.rules)
                rules[index] = rule.replaced(nth=rule.nth + delta)
                out.append(FaultPlan(rules))
        return out

    # -- the search loop ---------------------------------------------------------

    def explore(self, budget: int = 40) -> List[Violation]:
        """Run up to ``budget`` simulated plans; return all violations.

        Roughly the first half of the budget is random draws; every
        violating plan (and the last clean random plan, to keep
        the perturbation phase exercised even on healthy code) is then
        perturbed around its ``nth``s until the budget runs out.
        """
        violations: List[Violation] = []
        frontier: List[FaultPlan] = []
        tried = set()
        random_budget = max(budget // 2, 1)

        def execute(plan: FaultPlan, perturbed: bool) -> Optional[SimRun]:
            if plan in tried or not plan.rules:
                return None
            tried.add(plan)
            run = self.harness.run(plan)
            self.stats.record(run, perturbed)
            if not run.ok():
                violations.append(Violation(run))
                frontier.append(plan)
            return run

        last_clean: Optional[FaultPlan] = None
        while self.stats.runs < random_budget:
            plan = self.random_plan()
            run = execute(plan, perturbed=False)
            if run is not None and run.ok():
                last_clean = plan
        if not frontier and last_clean is not None:
            frontier.append(last_clean)

        for plan in list(frontier):
            for candidate in self.perturbations(plan):
                if self.stats.runs >= budget:
                    return violations
                execute(candidate, perturbed=True)
        return violations


def explore(
    scenario: SimScenario,
    budget: int = 40,
    seed: int = 0,
    harness: Optional[SimHarness] = None,
    max_triggers: int = 3,
) -> Tuple[List[Violation], ExploreStats]:
    """Convenience wrapper: search ``scenario`` and return (violations, stats)."""
    explorer = ScheduleExplorer(
        harness or SimHarness(scenario), seed=seed, max_triggers=max_triggers
    )
    found = explorer.explore(budget)
    return found, explorer.stats
