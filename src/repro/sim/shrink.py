"""Delta-debugging shrinker: reduce a violating plan to a minimal
reproducer.

Given a :class:`~repro.faults.plan.FaultPlan` whose run violates the
invariant suite — one the explorer drew, or any other: a
``FaultPlan.chaos(seed)`` a chaos matrix failed on shrinks directly —
the shrinker finds a (locally) minimal sub-plan that *still* violates
it, in two passes:

1. **Rule minimization** — classic ddmin over the rule list: try
   dropping chunks of rules (halves, then quarters, …) and keep any
   reduction that still reproduces a violation.  Converges to a
   1-minimal set: removing any single remaining rule loses the bug.
2. **Step minimization** — for each surviving ``nth`` rule, walk its
   firing step toward 1 (binary first, then linear) while the violation
   persists, so the reproducer fires as early as possible and replays
   fast.

"Still violates" means *any* invariant breaks, not necessarily the same
one — for minimization purposes a plan that trips a different invariant
is still a counterexample worth keeping small.  (Callers that care can
post-filter on the report.)

Minimal reproducers serialize to ``tests/fixtures/sim/`` via
:func:`write_fixture`: one JSON document carrying the scenario, the
shrunk plan, and the invariant verdicts the replay test asserts
byte-for-byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.faults.plan import FaultPlan, FaultRule
from repro.sim.harness import SimHarness, SimRun, SimScenario

#: Fixture format version (bump on incompatible change).  2: the plan is
#: stored in the one rule format (``"plan"`` with ``nth`` / ``times``).
FIXTURE_VERSION = 2


class ShrinkStats:
    """Shrink accounting: how many candidate runs minimization cost."""

    def __init__(self) -> None:
        self.runs = 0
        self.reductions = 0

    def as_dict(self) -> Dict[str, int]:
        return {"runs": self.runs, "reductions": self.reductions}


class ScheduleShrinker:
    """ddmin over a plan's rules, then per-rule ``nth`` minimization."""

    def __init__(self, harness: SimHarness, max_runs: int = 200) -> None:
        self.harness = harness
        self.max_runs = max_runs
        self.stats = ShrinkStats()
        self._cache: Dict[FaultPlan, bool] = {}

    # -- the oracle --------------------------------------------------------------

    def _violates(self, rules: List[FaultRule], seed: int) -> bool:
        if not rules:
            return False
        plan = FaultPlan(rules, seed=seed)
        cached = self._cache.get(plan)
        if cached is not None:
            return cached
        if self.stats.runs >= self.max_runs:
            return False
        self.stats.runs += 1
        verdict = not self.harness.run(plan).ok()
        self._cache[plan] = verdict
        return verdict

    # -- pass 1: ddmin over the rule list ----------------------------------------

    def _ddmin(self, rules: List[FaultRule], seed: int) -> List[FaultRule]:
        granularity = 2
        while len(rules) >= 2:
            chunk = max(len(rules) // granularity, 1)
            reduced = False
            start = 0
            while start < len(rules):
                candidate = rules[:start] + rules[start + chunk :]
                if self._violates(candidate, seed):
                    rules = candidate
                    granularity = max(granularity - 1, 2)
                    self.stats.reductions += 1
                    reduced = True
                    break
                start += chunk
            if not reduced:
                if granularity >= len(rules):
                    break
                granularity = min(granularity * 2, len(rules))
        return rules

    # -- pass 2: pull each nth toward 1 ------------------------------------------

    def _with_nth(self, rules: List[FaultRule], index: int, nth: int) -> List[FaultRule]:
        out = list(rules)
        out[index] = out[index].replaced(nth=nth)
        return out

    def _minimize_nth(self, rules: List[FaultRule], seed: int) -> List[FaultRule]:
        for index in range(len(rules)):
            nth = rules[index].nth
            if nth is None:
                continue  # an every/probability rule has no step to pull
            # Binary descent: biggest halving of nth that still fails.
            while nth > 1:
                candidate = self._with_nth(rules, index, nth // 2)
                if not self._violates(candidate, seed):
                    break
                rules, nth = candidate, nth // 2
                self.stats.reductions += 1
            # Linear tail: nth-1 probes catch the off-by-one boundary.
            while nth > 1:
                candidate = self._with_nth(rules, index, nth - 1)
                if not self._violates(candidate, seed):
                    break
                rules, nth = candidate, nth - 1
                self.stats.reductions += 1
        return rules

    # -- entry point -------------------------------------------------------------

    def shrink(self, plan: FaultPlan) -> FaultPlan:
        """Minimize ``plan``; raises if it does not violate at all."""
        if not self._violates(plan.rules, plan.seed):
            raise ValueError(
                "shrink() needs a violating plan "
                f"({' + '.join(plan.describe()) or '<empty>'} passed all invariants)"
            )
        rules = self._ddmin(list(plan.rules), plan.seed)
        rules = self._minimize_nth(rules, plan.seed)
        # The result must still reproduce — guaranteed by construction,
        # but assert it so a future harness regression fails loudly here.
        assert self._violates(rules, plan.seed)
        return FaultPlan(rules, seed=plan.seed, name=plan.name)


def shrink(harness: SimHarness, plan: FaultPlan, max_runs: int = 200) -> FaultPlan:
    """Convenience wrapper around :class:`ScheduleShrinker`."""
    return ScheduleShrinker(harness, max_runs=max_runs).shrink(plan)


# -- fixture corpus -----------------------------------------------------------


def fixture_payload(
    scenario: SimScenario, run: SimRun, name: str
) -> Dict[str, Any]:
    """The JSON document a corpus fixture stores: scenario + plan + the
    invariant verdicts a replay must reproduce byte-for-byte."""
    assert run.report is not None
    return {
        "version": FIXTURE_VERSION,
        "name": name,
        "scenario": scenario.as_dict(),
        "plan": run.plan.as_dict(),
        "verdicts": run.report.as_dict(),
    }


def write_fixture(
    path: Union[str, Path], scenario: SimScenario, run: SimRun, name: str
) -> Path:
    """Serialize a shrunk reproducer (canonical JSON) to ``path``."""
    target = Path(path)
    target.write_text(
        json.dumps(fixture_payload(scenario, run, name), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return target


def load_fixture(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a corpus fixture back into (scenario, plan, verdicts)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = int(payload.get("version", FIXTURE_VERSION))
    if version != FIXTURE_VERSION:
        raise ValueError(
            f"unsupported sim fixture version {version} in {path} "
            f"(this build reads version {FIXTURE_VERSION})"
        )
    return {
        "name": str(payload.get("name", "")),
        "scenario": SimScenario.from_dict(payload["scenario"]),
        "plan": FaultPlan.from_dict(payload["plan"]),
        "verdicts": payload["verdicts"],
    }


def replay_fixture(
    path: Union[str, Path],
    virtual: bool = True,
) -> Dict[str, Any]:
    """Re-run a corpus fixture; returns recorded vs replayed verdicts.

    The replay contract: ``replayed`` must equal ``recorded`` exactly
    (same JSON bytes), run after run — that is what "deterministic
    simulation" means here.
    """
    fixture = load_fixture(path)
    harness = SimHarness(fixture["scenario"], virtual=virtual)
    run = harness.run(fixture["plan"])
    assert run.report is not None
    return {
        "name": fixture["name"],
        "recorded": fixture["verdicts"],
        "replayed": run.report.as_dict(),
        "matches": fixture["verdicts"] == run.report.as_dict(),
        "run": run,
    }
