"""Run fault plans against real engines/clusters and judge the result.

:class:`SimHarness` is the execution half of the simulation layer: give
it a :class:`~repro.faults.plan.FaultPlan` and it runs the
scenario's workload under that plan — on a :class:`VirtualClock` by
default, so injected delays, retry backoff and reconnect ladders warp
virtual time instead of burning wall seconds — then checks the full
invariant suite (:mod:`repro.sim.invariants`) against the fault-free
``lockstep_noprun`` ranking.

Two scenario kinds:

- ``engine`` — a single-process run with in-engine faults.  A ``CRASH``
  rule exercises the checkpoint/restore path exactly the way the
  recovery matrix does: snapshot during the faulted run, restore the
  last checkpoint into a fault-free run, and demand the uninterrupted
  answer back.
- ``cluster`` — a sharded :class:`~repro.cluster.Coordinator` query with
  worker (``WORKER_RPC``) and transport (``NET``) faults, the fast
  ladder the cluster chaos matrix uses, and checkpoint-shipping
  failover.

The harness is deliberately deterministic: same scenario + same
plan ⇒ same invariant verdicts, which is what makes the explorer's
counterexamples shrinkable and the fixture corpus replayable.

``invariant_tap`` is a test-only hook: a callable invoked with the
:class:`SimRun` *after* execution but *before* the invariant checks.
Tests use it to plant a violation (e.g. corrupt the reported answers)
and prove the explorer finds it and the shrinker minimizes it; it has no
production purpose.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.base import TopKResult
from repro.core.engine import Engine
from repro.core.stats import monotonic_seconds
from repro.core.topk import Ranked, ranked, topk_mismatch
from repro.errors import EngineCrashError, ReproError
from repro.faults.plan import ENGINE_SITES, FaultAction, FaultPlan, FaultRule
from repro.faults.supervisor import RetryPolicy
from repro.recovery import CheckpointPolicy
from repro.sim.clock import Clock, RealClock, VirtualClock, use_clock
from repro.sim.invariants import (
    InvariantReport,
    Verdict,
    check_missing_shards_named,
    check_no_leaked_state,
    check_pending_bound_sound,
    check_reference_clean,
    check_single_outcome,
    check_topk_identity,
)

#: In-engine recovery bounds for simulated runs — the same tight ladder
#: the chaos matrices use, so injected ERRORs retry in (virtual)
#: milliseconds.
SIM_RETRY = RetryPolicy(
    max_attempts=2, requeue_limit=1, base_delay=0.0001, max_delay=0.0005, jitter=0.0
)

#: Coordinator ladder for cluster scenarios (mirrors the chaos matrix's
#: FAST_LADDER; under a virtual clock the backoff warps anyway).
SIM_LADDER: Dict[str, Any] = dict(
    rpc_timeout_seconds=0.25,
    liveness_deadline_seconds=1.0,
    retry_policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
)


class SimError(ReproError):
    """A scenario/plan combination the harness cannot run."""


class SimScenario:
    """One reproducible workload for the simulator.

    Self-contained: the XMark database is described by (``xmark_items``,
    ``xmark_seed``) rather than passed in, so a scenario (and therefore a
    fixture in ``tests/fixtures/sim/``) pins everything a replay needs.
    """

    ENGINE = "engine"
    CLUSTER = "cluster"

    def __init__(
        self,
        kind: str = ENGINE,
        query: str = "//item[./description/parlist and ./mailbox/mail/text]",
        k: int = 4,
        algorithm: str = "whirlpool_s",
        xmark_items: int = 40,
        xmark_seed: int = 7,
        checkpoint_every: int = 4,
        shards: int = 2,
        step_operations: int = 30,
        fail_over: bool = True,
        max_failovers: int = 8,
    ) -> None:
        if kind not in (self.ENGINE, self.CLUSTER):
            raise SimError(f"unknown scenario kind {kind!r}")
        self.kind = kind
        self.query = query
        self.k = k
        self.algorithm = algorithm
        self.xmark_items = xmark_items
        self.xmark_seed = xmark_seed
        self.checkpoint_every = checkpoint_every
        self.shards = shards
        self.step_operations = step_operations
        self.fail_over = fail_over
        self.max_failovers = max_failovers
        self._database: Optional[Any] = None
        self._engine: Optional[Engine] = None

    def families(self) -> List[str]:
        """Fault families this scenario can execute."""
        if self.kind == self.ENGINE:
            return ["engine"]
        return ["engine", "net", "process"]

    def database(self) -> Any:
        if self._database is None:
            from repro.xmark.generator import generate_database
            from repro.xmark.schema import XMarkConfig

            self._database = generate_database(
                XMarkConfig(items=self.xmark_items, seed=self.xmark_seed)
            )
        return self._database

    def engine(self) -> Engine:
        if self._engine is None:
            self._engine = Engine(self.database(), self.query)
        return self._engine

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "query": self.query,
            "k": self.k,
            "algorithm": self.algorithm,
            "xmark_items": self.xmark_items,
            "xmark_seed": self.xmark_seed,
            "checkpoint_every": self.checkpoint_every,
            "shards": self.shards,
            "step_operations": self.step_operations,
            "fail_over": self.fail_over,
            "max_failovers": self.max_failovers,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimScenario":
        try:
            return cls(**payload)
        except TypeError as exc:  # a key this build does not know
            raise SimError(f"bad scenario payload: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"SimScenario({self.kind}, {self.algorithm}, k={self.k}, "
            f"items={self.xmark_items})"
        )


class SimRun:
    """Everything one simulated run produced (pre- and post-judgement)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.result: Optional[TopKResult] = None
        self.crashed = False
        self.outcomes = 0
        self.leak: Optional[str] = None
        self.wall_seconds = 0.0
        self.warped_seconds = 0.0
        self.report: Optional[InvariantReport] = None

    def ok(self) -> bool:
        return self.report is not None and self.report.ok()

    def __repr__(self) -> str:
        verdict = "unchecked" if self.report is None else repr(self.report)
        return f"SimRun({self.plan!r}, crashed={self.crashed}, {verdict})"


class SimHarness:
    """Execute fault plans for one scenario and check the invariant suite."""

    def __init__(
        self,
        scenario: SimScenario,
        virtual: bool = True,
        invariant_tap: Optional[Callable[[SimRun], None]] = None,
    ) -> None:
        self.scenario = scenario
        self.virtual = virtual
        #: Test-only hook: mutate the :class:`SimRun` before judgement.
        self.invariant_tap = invariant_tap
        self._reference: Optional[TopKResult] = None
        self._ranking: Optional[Ranked] = None

    # -- reference ---------------------------------------------------------------

    def reference(self) -> TopKResult:
        """The fault-free single-process run every plan is judged against."""
        if self._reference is None:
            self._reference = self.scenario.engine().run(
                self.scenario.k, algorithm=self.scenario.algorithm
            )
        return self._reference

    def ranking(self) -> Ranked:
        """Every root with its fault-free final score, best first — what
        answers are judged against.  LockStep-NoPrun: it prunes nothing, so
        which ties a run happened to close cannot show up as a difference."""
        if self._ranking is None:
            self._ranking = ranked(
                self.scenario.engine().run(10**9, algorithm="lockstep_noprun").answers
            )
        return self._ranking

    def _diverged(self, rerun: TopKResult) -> bool:
        """Leaked-state probe: is a fault-free rerun no longer a top-k?"""
        return (
            topk_mismatch(self.ranking(), ranked(rerun.answers), self.scenario.k)
            is not None
        )

    def probe_yield_points(self) -> Dict[str, int]:
        """Observed operation counts per engine fault site — the ``nth``
        indexes the explorer perturbs.  Measured with an every-operation
        zero-delay DELAY plan so counters surface without changing the
        run's behaviour."""
        plan = FaultPlan(
            [
                FaultRule(site=site, action=FaultAction.DELAY, delay_seconds=0.0, every=1)
                for site in ENGINE_SITES
            ],
            seed=0,
        )
        result = self.scenario.engine().run(
            self.scenario.k,
            algorithm=self.scenario.algorithm,
            faults=plan,
            retry_policy=SIM_RETRY,
        )
        failure = result.failure
        if failure is None or failure.injection is None:
            return {}
        counts = failure.injection.get("site_counts", {})
        return {str(site): int(count) for site, count in counts.items()}

    # -- execution ---------------------------------------------------------------

    def run(self, plan: FaultPlan) -> SimRun:
        """Execute ``plan`` and judge it; returns the full record."""
        unsupported = set(plan.families()) - set(self.scenario.families())
        if unsupported:
            raise SimError(
                f"scenario kind {self.scenario.kind!r} cannot execute fault "
                f"families {sorted(unsupported)}"
            )
        clock: Clock = VirtualClock() if self.virtual else RealClock()
        run = SimRun(plan)
        started = monotonic_seconds()
        with use_clock(clock):
            if self.scenario.kind == SimScenario.ENGINE:
                self._run_engine(run)
            else:
                self._run_cluster(run)
        run.wall_seconds = monotonic_seconds() - started
        run.warped_seconds = float(clock.stats()["warped_seconds"])
        if self.invariant_tap is not None:
            self.invariant_tap(run)
        run.report = self._judge(run)
        return run

    def _run_engine(self, run: SimRun) -> None:
        engine = self.scenario.engine()
        snapshots: List[Dict[str, Any]] = []
        try:
            run.result = engine.run(
                self.scenario.k,
                algorithm=self.scenario.algorithm,
                faults=run.plan.select("engine"),
                retry_policy=SIM_RETRY,
                checkpoint_policy=CheckpointPolicy(
                    every_operations=self.scenario.checkpoint_every
                ),
                checkpoint_sink=snapshots.append,
            )
            run.outcomes += 1
        except EngineCrashError:
            run.crashed = True
            restore_from = snapshots[-1] if snapshots else None
            run.result = engine.run(
                self.scenario.k,
                algorithm=self.scenario.algorithm,
                restore_from=restore_from,
            )
            run.outcomes += 1
        # Leaked-state probe: a fault-free rerun on the same engine must
        # still return the baseline top-k.
        rerun = engine.run(self.scenario.k, algorithm=self.scenario.algorithm)
        if self._diverged(rerun):
            run.leak = "fault-free rerun after the schedule diverged from baseline"

    def _run_cluster(self, run: SimRun) -> None:
        from repro.cluster import Coordinator
        from repro.recovery.store import MemoryRecoveryStore

        scenario = self.scenario
        with Coordinator(
            scenario.database(),
            shards=scenario.shards,
            step_operations=scenario.step_operations,
            recovery_store=MemoryRecoveryStore(),
            max_failovers=scenario.max_failovers,
            **SIM_LADDER,
        ) as coordinator:
            result = coordinator.run_query(
                scenario.query,
                scenario.k,
                algorithm=scenario.algorithm,
                faults=run.plan,
                engine_retry_policy=SIM_RETRY,
                fail_over=scenario.fail_over,
            )
            run.result = result
            run.outcomes += 1
            health = coordinator.health()
            if health.get("active"):
                run.leak = "coordinator still reports an active query after the run"
            elif not result.degraded:
                if health["live_shards"] != scenario.shards:
                    run.leak = (
                        "undegraded run left "
                        f"{scenario.shards - health['live_shards']} shard(s) dead"
                    )
                else:
                    rerun = coordinator.run_query(
                        scenario.query, scenario.k, algorithm=scenario.algorithm
                    )
                    if self._diverged(rerun):
                        run.leak = (
                            "fault-free rerun after the schedule diverged "
                            "from baseline"
                        )

    # -- judgement ---------------------------------------------------------------

    def _judge(self, run: SimRun) -> InvariantReport:
        reference = self.reference()
        result = run.result
        verdicts: List[Verdict] = [check_reference_clean(reference)]
        if result is None:
            verdicts.append(
                Verdict("topk_identity", False, "run produced no result at all")
            )
        else:
            verdicts.append(check_topk_identity(self.ranking(), result))
            verdicts.append(check_pending_bound_sound(self.ranking(), result))
        verdicts.append(check_single_outcome(run.outcomes))
        verdicts.append(check_no_leaked_state(run.leak))
        if self.scenario.kind == SimScenario.CLUSTER and result is not None:
            verdicts.append(
                check_missing_shards_named(
                    result.degraded,
                    getattr(result, "missing_shards", []),
                    self.scenario.shards,
                )
            )
        return InvariantReport(verdicts)
